"""autsign: exact sign invariants of multigraph automorphisms.

Two independent routes assign +1 or -1 to every automorphism of a multigraph:
a combinatorial one (vertex parity times arrow reversals) and a homological
one (edge parity times the determinant sign of the induced cycle-space
action). This package computes both exactly, verifies their agreement
exhaustively on desk-scale graph families, and classifies graphs by whether
they admit an odd (sign -1) automorphism.
"""

from .automorphism import (
    Automorphism,
    GroupTooLargeError,
    SignedEdgePermutation,
    check_automorphism,
    compose,
    cycle_notation,
    enumerate_automorphisms,
    identity_automorphism,
    induced_signed_edge_perm,
    invert,
    permutation_sign,
)
from .homology import (
    CycleBasis,
    IntMatrix,
    UnimodularityError,
    boundary_matrix,
    det_bareiss,
    det_cofactor,
    det_sign,
    fundamental_cycles,
    induced_cycle_matrix,
)
from .multigraph import (
    ComponentPartition,
    GraphFormatError,
    Multigraph,
    Orientation,
    SpanningForest,
    parse_graph,
    random_orientation,
    reference_orientation,
    serialize,
    serialize_compact,
    spanning_forest,
)
from .signs import (
    DeterminantFactors,
    SignComparison,
    chain_determinant_check,
    combinatorial_sign,
    component_permutation_sign,
    has_odd_automorphism,
    homological_sign,
    homological_sign_extended,
    verify_graph,
)
from .sweep import (
    SweepParams,
    TheoremFailure,
    VerificationReport,
    census_orientable,
    enumerate_multigraphs,
    sweep_verify,
)

__version__ = "0.1.0"

__all__ = [
    "Automorphism",
    "ComponentPartition",
    "CycleBasis",
    "DeterminantFactors",
    "GraphFormatError",
    "GroupTooLargeError",
    "IntMatrix",
    "Multigraph",
    "Orientation",
    "SignComparison",
    "SignedEdgePermutation",
    "SpanningForest",
    "SweepParams",
    "TheoremFailure",
    "UnimodularityError",
    "VerificationReport",
    "boundary_matrix",
    "census_orientable",
    "chain_determinant_check",
    "check_automorphism",
    "combinatorial_sign",
    "component_permutation_sign",
    "compose",
    "cycle_notation",
    "det_bareiss",
    "det_cofactor",
    "det_sign",
    "enumerate_automorphisms",
    "enumerate_multigraphs",
    "fundamental_cycles",
    "has_odd_automorphism",
    "homological_sign",
    "homological_sign_extended",
    "identity_automorphism",
    "induced_cycle_matrix",
    "induced_signed_edge_perm",
    "invert",
    "parse_graph",
    "permutation_sign",
    "random_orientation",
    "reference_orientation",
    "serialize",
    "serialize_compact",
    "spanning_forest",
    "sweep_verify",
    "verify_graph",
]
