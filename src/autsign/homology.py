"""The graph chain complex over exact integers: fundamental cycle bases,
induced cycle-space matrices, and determinant signs.

No floating point anywhere; Python ints make every determinant exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .automorphism import Automorphism, SignedEdgePermutation, induced_signed_edge_perm
from .multigraph import Multigraph, Orientation, SpanningForest

# The largest cycle rank whose cycle space is built. The basis is sparse,
# but each automorphism's matrix on it is dense, rank x rank, and Bareiss
# elimination on it takes up to rank**3 steps, so the cap bounds the memory
# and time per automorphism: a seeded simple graph with 300 vertices and
# 20000 edges (rank 19701) would need 3.9e8 entries, about 3.1 GB of
# references, for each matrix. Every pinned graph has rank at most 6, and
# the isomorphism-class frontier (6-7 vertices, 7-8 edges) at most 8.
MAX_CYCLE_RANK = 64


class CycleSpaceTooLargeError(ValueError):
    """The graph's cycle rank is above MAX_CYCLE_RANK."""


def check_cycle_rank(g: Multigraph) -> None:
    """Raise CycleSpaceTooLargeError when the cycle space of ``g`` is too
    large to hold."""
    if g.cycle_rank > MAX_CYCLE_RANK:
        raise CycleSpaceTooLargeError(
            f"the cycle space has rank {g.cycle_rank}, more than {MAX_CYCLE_RANK}, "
            "too large to hold"
        )


class UnimodularityError(ArithmeticError):
    """An induced cycle-space matrix had |det| != 1; this indicates a bug
    upstream, since group elements must act invertibly on an integer lattice."""


@dataclass(frozen=True)
class IntMatrix:
    """Dense matrix of arbitrary-precision integers, row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimension")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match the shape")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> IntMatrix:
        cols = len(rows[0]) if rows else 0
        flat: list[int] = []
        for r in rows:
            if len(r) != cols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(len(rows), cols, tuple(flat))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]


@dataclass(frozen=True)
class CycleBasis:
    """Fundamental cycles of a spanning forest, as a basis of the cycle space.

    ``cycles[i]`` lists cycle i's nonzero ``(edge, coefficient)`` pairs by
    ascending edge: +1 on its own non-tree edge, +-1 on tree edges, so a
    cycle's coordinates in this basis are its non-tree-edge coefficients.
    ``row_of_edge[e]`` is the index of non-tree edge e's cycle, -1 at a tree edge.
    """

    cycles: tuple[tuple[tuple[int, int], ...], ...]
    row_of_edge: tuple[int, ...]


def fundamental_cycles(g: Multigraph, o: Orientation, forest: SpanningForest) -> CycleBasis:
    """One cycle per non-tree edge: the edge plus the forest path closing it.

    The path is read off the forest's parent edges, climbing from the edge's
    head and from its tail, the deeper end first, until the two climbs meet.
    Walked from the head back to the tail, a tree edge is signed +1 where it
    is traversed along its arrow, which puts every cycle in the kernel of
    the boundary.
    Raises CycleSpaceTooLargeError before building anything when the cycle
    rank is above MAX_CYCLE_RANK, and ValueError when ``o`` is not an
    orientation of ``g`` or ``forest`` is not a spanning forest of it.
    """
    check_cycle_rank(g)
    m, tail, parent_edge, depth = g.edge_count, o.tail, forest.parent_edge, forest.depth
    if len(tail) != m:
        raise ValueError("orientation does not belong to the graph")
    if not len(parent_edge) == len(depth) == g.vertex_count:
        raise ValueError("forest does not belong to the graph")
    # Each vertex but a root (-1 at depth 0) steps up its parent edge a level.
    # No two steps share an edge, so they make a forest; it spans g when it
    # leaves out cycle_rank edges.
    row_of_edge = [0] * m
    for x, f in enumerate(parent_edge):
        if f != -1 or depth[x]:
            ends = g.edge_ends(f) if 0 <= f < m else ()
            if x not in ends or depth[sum(ends) - x] != depth[x] - 1:
                raise ValueError(f"forest does not connect vertex {x} to a parent")
            row_of_edge[f] = -1
    if m - row_of_edge.count(-1) != g.cycle_rank:
        raise ValueError("forest does not belong to the graph")
    cycles: list[tuple[tuple[int, int], ...]] = []
    for e in range(m):
        if row_of_edge[e] < 0:
            continue
        row_of_edge[e] = len(cycles)
        # x climbs from the head side (s = +1) or the tail side, the deeper first
        x, y, s = g.endpoint[tail[e] ^ 1], g.endpoint[tail[e]], 1
        pairs = [(e, 1)]
        while x != y:
            if depth[x] < depth[y]:
                x, y, s = y, x, -s
            f = parent_edge[x]
            pairs.append((f, s if g.endpoint[tail[f]] == x else -s))
            x = sum(g.edge_ends(f)) - x
        cycles.append(tuple(sorted(pairs)))
    return CycleBasis(tuple(cycles), tuple(row_of_edge))


def _cycle_matrix_rows(basis: CycleBasis, sep: SignedEdgePermutation) -> list[list[int]]:
    """Rows of the matrix of a signed edge permutation on the cycle basis.

    Column j holds the coordinates of the image of basis cycle j, read off as
    the image's non-tree-edge coefficients.
    """
    dim = len(basis.cycles)
    if len(basis.row_of_edge) != len(sep.edge_perm):
        raise ValueError("cycle basis does not match the graph")
    row_of_edge, edge_perm, edge_sign = basis.row_of_edge, sep.edge_perm, sep.edge_sign
    rows = [[0] * dim for _ in range(dim)]
    for j, cycle in enumerate(basis.cycles):
        for e, c in cycle:
            i = row_of_edge[edge_perm[e]]
            if i >= 0:
                rows[i][j] = c * edge_sign[e]
    return rows


def induced_cycle_matrix(
    g: Multigraph, o: Orientation, basis: CycleBasis, a: Automorphism
) -> IntMatrix:
    """Matrix of the signed edge action on the fundamental-cycle basis."""
    return IntMatrix.from_rows(_cycle_matrix_rows(basis, induced_signed_edge_perm(g, o, a)))


def _bareiss(a: list[list[int]]) -> int:
    """Exact determinant of a square list of rows by fraction-free
    elimination (Bareiss 1968), overwriting the rows; 0x0 gives 1.

    Step k pivots on the first +-1 at or below row k in column k, or else on
    the nonzero entry of least absolute value, and swaps it into row k. A
    pivot equal to -prev (the previous pivot, 1 at the start) has its row
    negated, so while the pivots are units, prev stays 1 and each pivot
    equals it. Each row below is then updated to
    ``(row * pivot - factor * row_k) // prev``, which is the identity on a
    row whose factor is 0 when pivot == prev: such a row is left as it is,
    so a signed permutation matrix is only searched, never rewritten. Swaps
    and negations flip the tracked sign; every division is exact, so each
    entry stays a minor of the matrix, up to sign.
    """
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        p = -1
        least = 0
        for i in range(k, n):
            x = a[i][k]
            if x == 1 or x == -1:
                p = i
                break
            if x and (p < 0 or abs(x) < least):
                p, least = i, abs(x)
        if p < 0:
            return 0
        row_k = a[p]
        if p != k:
            a[p] = a[k]
            a[k] = row_k
            sign = -sign
        pivot = row_k[k]
        if pivot == -prev:
            row_k = a[k] = [-x for x in row_k]
            pivot = prev
            sign = -sign
        rescales = pivot != prev
        for row_i in a[k + 1 :]:
            factor = row_i[k]
            if factor or rescales:
                for j in range(k + 1, n):
                    row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
                row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def det_bareiss(m: IntMatrix) -> int:
    """Exact determinant by fraction-free elimination; 0x0 gives 1."""
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")
    return _bareiss(m.to_rows())


def det_cofactor(m: IntMatrix) -> int:
    """Reference determinant by first-row cofactor expansion.

    Exponential; meant only as an independent cross-check for det_bareiss on
    small matrices.
    """
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")

    def expand(rows: list[tuple[int, ...]]) -> int:
        n = len(rows)
        if n == 0:
            return 1
        if n == 1:
            return rows[0][0]
        total = 0
        for j, x in enumerate(rows[0]):
            if x:
                minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
                term = x * expand(minor)
                total += -term if j % 2 else term
        return total

    return expand([m.row(i) for i in range(m.rows)])


def det_sign(m: IntMatrix, require_unimodular: bool = False) -> int:
    """Sign of the exact determinant: -1, 0, or +1.

    With ``require_unimodular`` (the cycle-space pathway), a determinant other
    than +-1 raises UnimodularityError instead of being reported.
    """
    return _sign(det_bareiss(m), require_unimodular)


def cycle_space_det_sign(basis: CycleBasis, sep: SignedEdgePermutation) -> int:
    """det_sign(..., require_unimodular=True) of the matrix of ``sep`` on the
    cycle basis, eliminating on its rows without building an IntMatrix."""
    return _sign(_bareiss(_cycle_matrix_rows(basis, sep)), require_unimodular=True)


def _sign(d: int, require_unimodular: bool) -> int:
    if require_unimodular and d not in (1, -1):
        raise UnimodularityError(f"expected determinant +-1, got {d}")
    return (d > 0) - (d < 0)
