"""Independent brute-force oracles and test-only helpers.

Nothing here shares code with the library's production paths: automorphisms
come from filtering all half-edge permutations, determinants from the
permutation-sum formula, parities from inversion counting, spanning forests
from rescanning every edge per tree edge, vertex bijections from comparing
each candidate image with every placed vertex. The group
operations, the boundary matrix and the matrix product serve only the tests'
algebraic laws, so they live here too.
"""
from __future__ import annotations

import itertools
from typing import Iterator

from autsign import Automorphism, IntMatrix, Multigraph, Orientation


def brute_force_automorphisms(g: Multigraph) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (vertex_perm, half_edge_perm) pairs, by filtering every half-edge
    permutation for pairing- and endpoint-compatibility. Feasible only for
    at most 8 half-edges."""
    H = len(g.endpoint)
    touched = sorted({g.endpoint[h] for h in range(H)})
    isolated = [v for v in range(g.vertex_count) if v not in touched]
    out: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for hep in itertools.permutations(range(H)):
        if any(hep[h ^ 1] != hep[h] ^ 1 for h in range(H)):
            continue
        vmap: dict[int, int] = {}
        ok = True
        for h in range(H):
            v, w = g.endpoint[h], g.endpoint[hep[h]]
            if vmap.setdefault(v, w) != w:
                ok = False
                break
        if not ok or len(set(vmap.values())) != len(vmap):
            continue
        for iso_images in itertools.permutations(isolated):
            vperm = list(range(g.vertex_count))
            for v, w in vmap.items():
                vperm[v] = w
            for v, w in zip(isolated, iso_images):
                vperm[v] = w
            out.add((tuple(vperm), hep))
    return out


def adjacency_preserving_vertex_perms(g: Multigraph) -> list[tuple[int, ...]]:
    """Vertex permutations preserving the adjacency relation. Only a valid
    automorphism count for simple graphs (no loops, no parallel edges)."""
    n = g.vertex_count
    adjacent = {(a, b) for a, b in g.edges()} | {(b, a) for a, b in g.edges()}
    found = []
    for p in itertools.permutations(range(n)):
        if all(((p[a], p[b]) in adjacent) == ((a, b) in adjacent)
               for a in range(n) for b in range(n)):
            found.append(p)
    return found


def inversion_count_sign(p: tuple[int, ...]) -> int:
    inversions = sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    )
    return -1 if inversions % 2 else 1


def det_permutation_sum(m: IntMatrix) -> int:
    """Leibniz determinant: sum over permutations of signed products."""
    assert m.rows == m.cols
    n = m.rows
    total = 0
    for p in itertools.permutations(range(n)):
        term = inversion_count_sign(p)
        for i in range(n):
            term *= m.entry(i, p[i])
        total += term
    return total


def identity_automorphism(g: Multigraph) -> Automorphism:
    return Automorphism(
        tuple(range(len(g.endpoint))), tuple(range(g.vertex_count))
    )


def check_automorphism(g: Multigraph, a: Automorphism) -> None:
    """Raise ValueError unless ``a`` really is an automorphism of ``g``."""
    hep, vperm = a.half_edge_perm, a.vertex_perm
    if len(hep) != len(g.endpoint) or len(vperm) != g.vertex_count:
        raise ValueError("automorphism size does not match the graph")
    if sorted(hep) != list(range(len(g.endpoint))):
        raise ValueError("half_edge_perm is not a permutation")
    if sorted(vperm) != list(range(g.vertex_count)):
        raise ValueError("vertex_perm is not a permutation")
    for h in range(len(g.endpoint)):
        if hep[h ^ 1] != hep[h] ^ 1:
            raise ValueError("half_edge_perm does not commute with the edge pairing")
        if g.endpoint[hep[h]] != vperm[g.endpoint[h]]:
            raise ValueError("half_edge_perm is incompatible with vertex_perm")


def compose(a: Automorphism, b: Automorphism) -> Automorphism:
    """a after b: (a.b)(h) = a(b(h))."""
    if len(a.half_edge_perm) != len(b.half_edge_perm) or len(a.vertex_perm) != len(
        b.vertex_perm
    ):
        raise ValueError("cannot compose automorphisms of different sizes")
    return Automorphism(
        tuple(a.half_edge_perm[h] for h in b.half_edge_perm),
        tuple(a.vertex_perm[v] for v in b.vertex_perm),
    )


def invert(a: Automorphism) -> Automorphism:
    hep = [0] * len(a.half_edge_perm)
    for h, img in enumerate(a.half_edge_perm):
        hep[img] = h
    vperm = [0] * len(a.vertex_perm)
    for v, img in enumerate(a.vertex_perm):
        vperm[img] = v
    return Automorphism(tuple(hep), tuple(vperm))


def boundary_matrix(g: Multigraph, o: Orientation) -> IntMatrix:
    """|V| x |E| boundary: column e is head(e) - tail(e); loops give zero columns."""
    n, m = g.vertex_count, g.edge_count
    flat = [0] * (n * m)
    for e in range(m):
        flat[g.endpoint[o.head(e)] * m + e] += 1
        flat[g.endpoint[o.tail[e]] * m + e] -= 1
    return IntMatrix(n, m, tuple(flat))


def identity_matrix(n: int) -> IntMatrix:
    return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.rows:
        raise ValueError("shape mismatch in matrix product")
    flat: list[int] = []
    for i in range(a.rows):
        ri = a.row(i)
        for j in range(b.cols):
            flat.append(sum(ri[k] * b.entry(k, j) for k in range(a.cols)))
    return IntMatrix(a.rows, b.cols, tuple(flat))


def scan_spanning_forest(
    g: Multigraph, root: int | None = None
) -> tuple[frozenset[int], tuple[int, ...]]:
    """The tree edges and per-component roots of spanning_forest's rule: each
    component, rooted at its smallest vertex or at ``root``, grows by the
    smallest-index non-loop edge joining a reached vertex to an unreached
    one, found by scanning every edge from index 0. O(V * E)."""
    parts = g.components
    roots = [-1] * parts.component_count
    for v in range(g.vertex_count - 1, -1, -1):
        roots[parts.component_of[v]] = v
    if root is not None:
        roots[parts.component_of[root]] = root
    reached = [False] * g.vertex_count
    tree: list[int] = []
    for r in roots:
        reached[r] = True
        while True:
            ends = enumerate(g.edges())
            pick = next((e for e, (a, b) in ends if a != b and reached[a] != reached[b]), -1)
            if pick < 0:
                break
            tree.append(pick)
            a, b = g.edge_ends(pick)
            reached[b if reached[a] else a] = True
    return frozenset(tree), tuple(roots)


def scan_vertex_bijections(g: Multigraph) -> Iterator[tuple[int, ...]]:
    """Multiplicity-preserving vertex bijections, in lexicographic order:
    backtracking over the images of vertices 0, 1, ..., where v may go to
    any free vertex w of its (degree, loop count) invariant whose edge
    multiplicity to the image of each earlier vertex u equals that of
    {v, u}. O(V) per candidate."""
    n = g.vertex_count
    invariant = [(g.degree(v), g.loop_count(v)) for v in range(n)]
    # neighbours[v][u]: multiplicity of the edge {v, u}, loops left out
    neighbours: list[dict[int, int]] = [{} for _ in range(n)]
    for (a, b), m in g.edge_multiplicities.items():
        if a != b:
            neighbours[a][b] = neighbours[b][a] = m
    image = [-1] * n
    preimage = [-1] * n
    v = 0
    while v >= 0:
        if v == n:
            yield tuple(image)
            v -= 1
            continue
        w = image[v]
        if w >= 0:
            preimage[w] = -1
            image[v] = -1
        inv_v, nbrs_v = invariant[v], neighbours[v]
        for w in range(w + 1, n):
            if preimage[w] >= 0 or invariant[w] != inv_v:
                continue
            nbrs_w = neighbours[w]
            if any(nbrs_v.get(u, 0) != nbrs_w.get(image[u], 0) for u in range(v)):
                continue
            image[v] = w
            preimage[w] = v
            v += 1
            break
        else:
            v -= 1
