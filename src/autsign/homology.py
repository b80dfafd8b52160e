"""The graph chain complex over exact integers: fundamental cycle bases,
induced cycle-space matrices, and determinant signs.

No floating point anywhere; Python ints make every determinant exact.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

from .automorphism import Automorphism, SignedEdgePermutation, induced_signed_edge_perm
from .multigraph import Multigraph, Orientation, SpanningForest, _Validated

# The largest cycle rank whose cycle space is built. The basis takes O(V + E)
# ints at any rank, and each automorphism's determinant expands the rows of
# non-tree edges in O(E), but the rows that tree edges map onto are built
# dense and eliminated by Bareiss, up to rank x rank entries and rank**3
# steps, so the cap bounds the memory and time per automorphism: a seeded
# simple graph with 300 vertices and 20000 edges (rank 19701) would need
# 3.9e8 entries, about 3.1 GB of references, for one matrix. Every pinned
# graph has rank at most 6, and the isomorphism-class frontier (6-7
# vertices, 7-8 edges) at most 8.
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


class _IntMatrixFields(NamedTuple):
    rows: int
    cols: int
    entries: tuple[int, ...]


class IntMatrix(_Validated, _IntMatrixFields):
    """Dense matrix of arbitrary-precision integers, row-major."""

    __slots__ = ()

    def _check(self) -> None:
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


class CycleBasis(NamedTuple):
    """Fundamental cycles of a spanning forest, as a basis of the cycle space,
    held as subtree intervals in O(V + E) ints.

    ``row_of_edge[e]`` is the index of non-tree edge e's cycle, -1 at a tree
    edge, and cycle i runs along its non-tree edge from ``tail[i]`` to
    ``head[i]``, then back through the forest. The vertices of v's subtree
    are the u with ``enter[v] <= enter[u] < leave[v]``, their entry times in a
    preorder tour of the forest. A tree edge e joins ``child[e]`` (-1 at a
    non-tree edge) to its parent, and ``arrow[e]`` is +1 when its arrow leaves
    the child, -1 when it enters it. Tree edge e lies on cycle i when exactly
    one end of the cycle's non-tree edge is in the child's subtree; its
    coefficient is ``arrow[e]`` when that end is the head, ``-arrow[e]`` when
    it is the tail, so every cycle is in the kernel of the boundary.
    """

    row_of_edge: tuple[int, ...]
    head: tuple[int, ...]
    tail: tuple[int, ...]
    enter: tuple[int, ...]
    leave: tuple[int, ...]
    child: tuple[int, ...]
    arrow: tuple[int, ...]

    def cycle(self, i: int) -> tuple[tuple[int, int], ...]:
        """Cycle i's nonzero ``(edge, coefficient)`` pairs by ascending edge:
        +1 on its own non-tree edge, +-1 on tree edges, so a cycle's
        coordinates in this basis are its non-tree-edge coefficients."""
        return tuple((e, c) for e in range(len(self.child)) if (c := _row(self, e, 1, (i,))[0]))


def fundamental_cycles(g: Multigraph, o: Orientation, forest: SpanningForest) -> CycleBasis:
    """One cycle per non-tree edge: the edge plus the forest path closing it.

    The forest's parent edges are checked once; a preorder tour then numbers
    the vertices so that each subtree is an interval, and the basis holds
    only those intervals, each tree edge's child and arrow, and each non-tree
    edge's ends, not the cycles' paths (see CycleBasis).
    Raises CycleSpaceTooLargeError before building anything when the cycle
    rank is above MAX_CYCLE_RANK, and ValueError when ``o`` is not an
    orientation of ``g`` or ``forest`` is not a spanning forest of it.
    """
    check_cycle_rank(g)
    m, n, endpoint = g.edge_count, g.vertex_count, g.endpoint
    tail, parent_edge, depth = o.tail, forest.parent_edge, forest.depth
    if len(tail) != m:
        raise ValueError("orientation does not belong to the graph")
    if not len(parent_edge) == len(depth) == n:
        raise ValueError("forest does not belong to the graph")
    # Each vertex but a root (-1 at depth 0) steps up its parent edge a level.
    # No two steps share an edge, so they make a forest; it spans g when it
    # leaves out cycle_rank edges. Walked deepest first, each step also adds
    # the vertex's subtree size to its parent's, kept in leave for now.
    order = sorted(range(n), key=depth.__getitem__)  # parents before children
    child, arrow, leave = [-1] * m, [0] * m, [1] * n
    for x in reversed(order):
        f = parent_edge[x]
        if f != -1 or depth[x]:
            ends = g.edge_ends(f) if 0 <= f < m else ()
            p = sum(ends) - x
            if x not in ends or depth[p] != depth[x] - 1:
                raise ValueError(f"forest does not connect vertex {x} to a parent")
            child[f] = x
            arrow[f] = 1 if endpoint[tail[f]] == x else -1
            leave[p] += leave[x]
    if child.count(-1) != g.cycle_rank:
        raise ValueError("forest does not belong to the graph")
    # Entry times top-down: the roots take consecutive intervals of their
    # subtrees' sizes, and so do a vertex's children after its own entry,
    # while leave[x] passes each child of x in turn, ending past its subtree.
    enter = [0] * n
    next_root = 0
    for x in order:
        f = parent_edge[x]
        if f < 0:
            enter[x] = next_root
            next_root += leave[x]
        else:
            p = endpoint[2 * f] + endpoint[2 * f + 1] - x  # the parent
            enter[x] = leave[p]
            leave[p] += leave[x]
        leave[x] = enter[x] + 1
    row_of_edge = [-1] * m
    heads: list[int] = []
    tails: list[int] = []
    for e, x in enumerate(child):
        if x < 0:
            row_of_edge[e] = len(heads)
            heads.append(endpoint[tail[e] ^ 1])
            tails.append(endpoint[tail[e]])
    # order goes, and each table becomes a tuple before the next, so that a
    # long path holds one copy of one table at a time
    del order
    row_of_edge = tuple(row_of_edge)
    enter = tuple(enter)
    leave = tuple(leave)
    child = tuple(child)
    return CycleBasis(row_of_edge, tuple(heads), tuple(tails), enter, leave, child, tuple(arrow))


def _row(basis: CycleBasis, e: int, s: int, columns: Sequence[int]) -> list[int]:
    """The entries in ``columns`` of the row that edge e, with arrow sign s,
    maps onto: s times e's coefficient in each column's cycle."""
    x = basis.child[e]
    if x < 0:
        j = basis.row_of_edge[e]
        return [s if k == j else 0 for k in columns]
    lo, hi, a = basis.enter[x], basis.leave[x], basis.arrow[e] * s
    enter, head, tail = basis.enter, basis.head, basis.tail
    return [((lo <= enter[head[k]] < hi) - (lo <= enter[tail[k]] < hi)) * a for k in columns]


def _cycle_matrix_rows(basis: CycleBasis, sep: SignedEdgePermutation) -> list[list[int]]:
    """Rows of the matrix of a signed edge permutation on the cycle basis,
    built dense for chain_determinant_check and induced_cycle_matrix.

    Column j holds the coordinates of the image of basis cycle j, read off as
    the image's non-tree-edge coefficients: row i comes from the one edge e
    that maps onto non-tree edge i, and holds e's coefficient in each cycle
    times e's arrow sign.
    """
    dim = len(basis.head)
    if len(basis.row_of_edge) != len(sep.edge_perm):
        raise ValueError("cycle basis does not match the graph")
    rows = [[0] * dim for _ in range(dim)]
    columns = range(dim)
    for e, f in enumerate(sep.edge_perm):
        i = basis.row_of_edge[f]
        if i >= 0:
            rows[i] = _row(basis, e, sep.edge_sign[e], columns)
    return rows


def induced_cycle_matrix(
    g: Multigraph, o: Orientation, basis: CycleBasis, a: Automorphism
) -> IntMatrix:
    """Matrix of the signed edge action on the fundamental-cycle basis."""
    return IntMatrix.from_rows(_cycle_matrix_rows(basis, induced_signed_edge_perm(g, o, a)))


def _bareiss(a: list[list[int]]) -> int:
    """Exact determinant of a square list of rows by fraction-free
    elimination (Bareiss 1968), overwriting the rows; 0x0 gives 1.

    Step k swaps the first row with a nonzero entry in column k, at or below
    row k, into row k, flipping the sign, and updates the entries right of
    column k in every row below to ``(row * pivot - factor * row_k) // prev``,
    prev being the previous pivot (1 at the start). Every division is exact,
    so each entry written is a minor of the matrix, up to sign.
    """
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        for p in range(k, n):
            if a[p][k]:
                break
        else:
            return 0
        if p != k:
            a[p], a[k] = a[k], a[p]
            sign = -sign
        row_k = a[k]
        pivot = row_k[k]
        for row_i in a[k + 1 :]:
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
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
    cycle basis, taken by _cycle_space_det without building the matrix."""
    return _sign(_cycle_space_det(basis, sep), require_unimodular=True)


def _cycle_space_det(basis: CycleBasis, sep: SignedEdgePermutation) -> int:
    """Exact determinant of the matrix of ``sep`` on the cycle basis, by
    Laplace expansion along its one-entry rows.

    The row of a non-tree edge e holds one entry, e's arrow sign in e's own
    column; such rows are expanded as they are met. _bareiss eliminates the
    rows of tree edges, in edge order, built by _row on the columns left over,
    and _expanded_det adds the sign of the row-to-column pairing. Reads only
    the rows' entries, in exact integers.
    """
    row_of_edge, edge_sign = basis.row_of_edge, sep.edge_sign
    if len(row_of_edge) != len(sep.edge_perm):
        raise ValueError("cycle basis does not match the graph")
    row_at = [-1] * len(basis.head)  # row_at[j]: the row paired with column j
    if not row_at:  # rank 0: no edge maps onto a non-tree edge
        return 1
    tree_edges: list[int] = []
    det = 1
    for e, f in enumerate(sep.edge_perm):
        i = row_of_edge[f]
        if i < 0:
            continue
        j = row_of_edge[e]
        if j < 0:
            tree_edges.append(e)
        else:
            row_at[j] = i
            if edge_sign[e] < 0:
                det = -det
    if tree_edges:
        free = [j for j, i in enumerate(row_at) if i < 0]
        if len(free) != len(tree_edges):
            return 0  # the pairing is not one to one
        for j, e in zip(free, tree_edges):
            row_at[j] = row_of_edge[sep.edge_perm[e]]
        det *= _bareiss([_row(basis, e, edge_sign[e], free) for e in tree_edges])
    return _expanded_det(row_at, det)


def _expanded_det(row_at: list[int], det: int) -> int:
    """Finish a determinant taken by Laplace expansion along one-entry rows,
    overwriting ``row_at``.

    ``row_at[j]`` is the row paired with column j, or -1 where column j has
    none, and ``det`` the product of the expanded entries and of the
    determinant of any rows left over. The result is that product times the
    sign of the row-to-column pairing, or 0 when the pairing is not one to one.
    """
    # the pairing's parity: each swap puts one more row in its own column
    for j in range(len(row_at)):
        i = row_at[j]
        while i != j:
            if i < 0 or row_at[i] == i:
                return 0  # column j has no row, or row i a second column
            row_at[j], row_at[i] = row_at[i], i
            i = row_at[j]
            det = -det
    return det


def _sign(d: int, require_unimodular: bool) -> int:
    if require_unimodular and d not in (1, -1):
        raise UnimodularityError(f"expected determinant +-1, got {d}")
    return (d > 0) - (d < 0)
