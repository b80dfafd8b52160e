"""The two sign invariants of a multigraph automorphism and their comparison.

``combinatorial_sign`` multiplies the vertex-permutation parity by one factor
of -1 per arrow-reversing edge; it never touches homology and is independent
of the chosen orientation. ``homological_sign`` multiplies the edge
permutation's parity by the determinant sign of the induced action on the
cycle space and by the parity of the induced permutation of components, which
is +1 on a connected graph. The two routes agree on every multigraph.
"""
from __future__ import annotations

from math import prod
from typing import Iterable, Iterator, NamedTuple

from .automorphism import (
    Automorphism,
    SignedEdgePermutation,
    _vertex_bijections,
    induced_signed_edge_perm,
    permutation_sign,
    stream_automorphisms,
)
from .homology import (
    CycleBasis,
    _bareiss,
    _cycle_matrix_rows,
    _expanded_det,
    cycle_space_det_sign,
    fundamental_cycles,
)
from .multigraph import Multigraph, Orientation, reference_orientation, spanning_forest


class DeterminantFactors(NamedTuple):
    """Chain-level determinants backing one sign computation.

    All three are exact determinants read off the chain maps' entries (the
    edge and vertex ones by Laplace expansion, sharing no code with
    permutation_sign), so they can arbitrate between the two sign routes
    when they disagree. ``consistent`` is the identity the homological
    route rests on:

        cycle_space_det * vertex_space_det == edge_space_det * component_sign
    """

    edge_space_det: int
    vertex_space_det: int
    cycle_space_det: int
    component_sign: int = 1

    @property
    def consistent(self) -> bool:
        return (
            self.cycle_space_det * self.vertex_space_det
            == self.edge_space_det * self.component_sign
        )


class SignComparison(NamedTuple):
    """Both signs of one automorphism, their factors, and optional diagnostics."""

    homological: int
    combinatorial: int
    automorphism: Automorphism
    signed_edge_perm: SignedEdgePermutation
    vertex_parity: int
    edge_parity: int
    factors: DeterminantFactors | None = None

    @property
    def agree(self) -> bool:
        return self.homological == self.combinatorial


def combinatorial_sign(g: Multigraph, o: Orientation, a: Automorphism) -> int:
    """sign(vertex permutation) times the product of per-edge arrow signs."""
    sep = induced_signed_edge_perm(g, o, a)
    return prod(sep.edge_sign, start=permutation_sign(a.vertex_perm))


def component_permutation_sign(g: Multigraph, a: Automorphism) -> int:
    """Parity of the permutation the automorphism induces on components."""
    parts = g.components
    if parts.component_count == 1:
        return 1
    perm = [0] * parts.component_count
    for v in range(g.vertex_count):
        perm[parts.component_of[v]] = parts.component_of[a.vertex_perm[v]]
    return permutation_sign(perm)


def homological_sign(
    g: Multigraph, o: Orientation, basis: CycleBasis, a: Automorphism
) -> int:
    """sign(edge permutation) times the det sign of the cycle-space action
    times the component parity, which is +1 on a connected graph."""
    sep = induced_signed_edge_perm(g, o, a)
    return (
        permutation_sign(sep.edge_perm)
        * cycle_space_det_sign(basis, sep)
        * component_permutation_sign(g, a)
    )


def chain_determinant_check(
    g: Multigraph, o: Orientation, basis: CycleBasis, a: Automorphism
) -> DeterminantFactors:
    """Cross-check both sign routes at the chain level, the slow honest way.

    Takes the determinants of the signed edge-permutation matrix and the
    vertex-permutation matrix, held as one entry per column, by Laplace
    expansion along their one-entry rows, and runs exact elimination on the
    induced cycle-space matrix, built dense; the caller checks
    ``consistent``. On connected graphs component_sign is +1 and the
    identity reduces to cycle_space_det * vertex_space_det == edge_space_det.
    """
    sep = induced_signed_edge_perm(g, o, a)
    cycle_space_det = _bareiss(_cycle_matrix_rows(basis, sep))
    return _chain_determinants(a, sep, cycle_space_det, component_permutation_sign(g, a))


def _chain_determinants(
    a: Automorphism,
    sep: SignedEdgePermutation,
    cycle_space_det: int,
    component_sign: int,
) -> DeterminantFactors:
    """chain_determinant_check on the signed edge permutation ``sep`` of ``a``,
    the determinant ``cycle_space_det`` of its matrix on the cycle basis and
    the parity ``component_sign`` of its permutation of components."""
    return DeterminantFactors(
        edge_space_det=_expanded_det(list(sep.edge_perm), prod(sep.edge_sign)),
        vertex_space_det=_expanded_det(list(a.vertex_perm), 1),
        cycle_space_det=cycle_space_det,
        component_sign=component_sign,
    )


def comparisons(
    g: Multigraph, automorphisms: Iterable[Automorphism], diagnostics: bool = False
) -> Iterator[SignComparison]:
    """Both routes on each of ``automorphisms`` of ``g``, in the given order.

    The reference orientation and the cycle basis are built once per graph.
    The vertex parity and the component parity depend on the vertex
    permutation alone, so they are computed again only when it is not the
    previous automorphism's tuple: once per block of a stream_automorphisms
    stream. Each automorphism gets its own signed edge permutation and edge
    parity. The combinatorial route reads only the vertex parity and the
    arrow signs; the homological route takes the exact determinant of the
    cycle-space matrix row by row, expanding the rows of non-tree edges and
    eliminating only those of tree edges (cycle_space_det_sign). Neither
    sees the other's result. With ``diagnostics`` each record also carries
    the factors of chain_determinant_check on the same signed edge
    permutation, with the cycle-space determinant the homological route has
    already checked to be +-1 and the block's component parity.
    """
    o = reference_orientation(g)
    basis = fundamental_cycles(g, o, spanning_forest(g))
    vperm = None
    for a in automorphisms:
        if a.vertex_perm is not vperm:
            vperm = a.vertex_perm
            vertex_parity = permutation_sign(vperm)
            component_parity = component_permutation_sign(g, a)
        sep = induced_signed_edge_perm(g, o, a)
        edge_parity = permutation_sign(sep.edge_perm)
        comb = prod(sep.edge_sign, start=vertex_parity)
        cycle_space_det = cycle_space_det_sign(basis, sep)
        hom = edge_parity * cycle_space_det * component_parity
        factors = (
            _chain_determinants(a, sep, cycle_space_det, component_parity)
            if diagnostics
            else None
        )
        yield SignComparison(hom, comb, a, sep, vertex_parity, edge_parity, factors)


def verify_graph(g: Multigraph, diagnostics: bool = False) -> list[SignComparison]:
    """Evaluate both signs on every automorphism, in enumeration order.

    ``agree`` must be True throughout; a False is an implementation bug, not a
    property of the graph. With ``diagnostics`` each record also carries the
    chain-level determinant factors.
    """
    return list(comparisons(g, stream_automorphisms(g)[1], diagnostics))


def has_odd_automorphism(g: Multigraph) -> bool:
    """True iff some automorphism has sign -1. On a loopless graph it raises
    GroupTooLargeError exactly where stream_automorphisms does.

    A graph with a loop has one: flipping that loop alone fixes every vertex
    and every edge and reverses one arrow. On a loopless graph each lift of
    a row phi of the bijection table has sign sgn(phi) * (-1)**r(phi), with
    r(phi) the sum of m_ab over the pairs a < b with phi(a) > phi(b), so no
    lift is built. Proof: a lift sends the m_ab edges between a and b onto
    those between phi(a) and phi(b). If p of the first class's arrows leave
    a and p' of the second's leave phi(a), a matching that sends x of the
    first kind onto the second reverses (p - x) + (p' - x) arrows. Count p
    from each class's smaller end: as phi permutes the classes, the p' sum
    to the p mod 2 but for m_ab on each class whose ends phi reverses.
    """
    if any(a == b for a, b in g.edge_multiplicities):
        return True
    table, bijections, _ = _vertex_bijections(g)
    n = g.vertex_count
    for row in range(bijections):
        phi = table[row * n:(row + 1) * n]
        r = sum(m for (a, b), m in g.edge_multiplicities.items() if phi[a] > phi[b])
        if permutation_sign(phi) * (-1) ** r == -1:
            return True
    return False
