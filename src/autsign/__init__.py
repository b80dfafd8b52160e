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
    cycle_notation,
    enumerate_automorphisms,
    induced_signed_edge_perm,
    permutation_sign,
    stream_automorphisms,
)
from .homology import (
    CycleBasis,
    CycleSpaceTooLargeError,
    IntMatrix,
    UnimodularityError,
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

