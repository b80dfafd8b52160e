"""Multigraph automorphisms: enumeration, group operations, induced edge data.

An automorphism is stored as the half-edge permutation (the single source of
truth) together with the vertex permutation it induces; the vertex images of
isolated vertices are the only extra freedom. Induced edge permutations and
per-edge orientation signs are derived on demand.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .multigraph import Multigraph, Orientation

# The most automorphisms enumerate_automorphisms lists before it gives up. The
# list is held in memory: reaching the cap on 12 isolated vertices (12!
# automorphisms) takes about 3 s and 130 MB, well under a 1 GiB address-space
# limit. Every group the sweeps and the benchmark pin is far below it (the
# largest, one vertex with 6 loops, has 46080 elements).
MAX_AUTOMORPHISMS = 500_000


class GroupTooLargeError(ValueError):
    """The automorphism group has more elements than MAX_AUTOMORPHISMS."""


def _too_large() -> GroupTooLargeError:
    return GroupTooLargeError(
        f"the automorphism group has more than {MAX_AUTOMORPHISMS} elements, "
        "too many to list"
    )


@dataclass(frozen=True)
class Automorphism:
    half_edge_perm: tuple[int, ...]
    vertex_perm: tuple[int, ...]


@dataclass(frozen=True)
class SignedEdgePermutation:
    """Edge permutation plus, per edge, whether the arrow direction survives."""

    edge_perm: tuple[int, ...]
    edge_sign: tuple[int, ...]


def permutation_sign(p: tuple[int, ...] | list[int]) -> int:
    """+1 for even permutations, -1 for odd: (-1)**(n - #cycles)."""
    seen = [False] * len(p)
    odd = False
    for i in range(len(p)):
        if seen[i]:
            continue
        seen[i] = True
        j = p[i]
        while j != i:
            # each element past the first of a cycle adds one transposition
            seen[j] = True
            j = p[j]
            odd = not odd
    return -1 if odd else 1


def cycle_notation(p: tuple[int, ...]) -> str:
    """Cycle string of a permutation, fixed points omitted; '()' for the identity."""
    seen = [False] * len(p)
    parts: list[str] = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        parts.append("(" + " ".join(str(x) for x in cyc) + ")")
    return "".join(parts) if parts else "()"


def identity_automorphism(g: Multigraph) -> Automorphism:
    return Automorphism(
        tuple(range(g.half_edge_count)), tuple(range(g.vertex_count))
    )


def check_automorphism(g: Multigraph, a: Automorphism) -> None:
    """Raise ValueError unless ``a`` really is an automorphism of ``g``."""
    hep, vperm = a.half_edge_perm, a.vertex_perm
    if len(hep) != g.half_edge_count or len(vperm) != g.vertex_count:
        raise ValueError("automorphism size does not match the graph")
    if sorted(hep) != list(range(g.half_edge_count)):
        raise ValueError("half_edge_perm is not a permutation")
    if sorted(vperm) != list(range(g.vertex_count)):
        raise ValueError("vertex_perm is not a permutation")
    for h in range(g.half_edge_count):
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


def induced_signed_edge_perm(
    g: Multigraph, o: Orientation, a: Automorphism
) -> SignedEdgePermutation:
    """Where each edge goes and whether its arrow is preserved (+1) or reversed (-1)."""
    hep, tail = a.half_edge_perm, o.tail
    edge_perm = []
    edge_sign = []
    for t in tail:
        image = hep[t]
        f = image >> 1
        edge_perm.append(f)
        edge_sign.append(1 if image == tail[f] else -1)
    return SignedEdgePermutation(tuple(edge_perm), tuple(edge_sign))


class _HalfEdgeExtensions:
    """Per-graph tables for extending a vertex bijection to half-edges.

    Parallel edges may be matched in any order within their endpoint-pair
    class; loops additionally may swap their two halves. Non-loop half-edge
    images are forced by the vertex images.
    """

    def __init__(self, g: Multigraph) -> None:
        classes: dict[tuple[int, int], list[int]] = {}
        for e, (a, b) in enumerate(g.edges()):
            classes.setdefault((a, b) if a <= b else (b, a), []).append(e)
        self.endpoint = g.endpoint
        self.classes = sorted(classes.items())
        loops = [e for e in range(g.edge_count) if g.is_loop(e)]
        # Every vertex bijection has this many extensions and the identity is
        # one of them, so a block above the cap puts the group above it.
        block = 2 ** len(loops)
        for _, edges in self.classes:
            block *= math.factorial(len(edges))
        if block > MAX_AUTOMORPHISMS:
            raise _too_large()
        self.matchings = {
            pair: list(itertools.permutations(edges)) for pair, edges in self.classes
        }
        self.loop_flips = [
            [e for e, flip in zip(loops, flips) if flip]
            for flips in itertools.product((0, 1), repeat=len(loops))
        ]

    def extend(self, vperm: tuple[int, ...]) -> list[Automorphism]:
        """All automorphisms over a multiplicity-preserving vertex bijection,
        sorted by half-edge permutation."""
        endpoint = self.endpoint
        choice_lists = []
        for (a, b), _ in self.classes:
            qa, qb = vperm[a], vperm[b]
            choice_lists.append(self.matchings[(qa, qb) if qa <= qb else (qb, qa)])
        block: list[tuple[int, ...]] = []
        for assignment in itertools.product(*choice_lists):
            base = [0] * len(endpoint)
            for (_, edges), targets in zip(self.classes, assignment):
                for e, f in zip(edges, targets):
                    # a loop takes the un-flipped matching here; flips come below
                    if endpoint[2 * f] == vperm[endpoint[2 * e]]:
                        base[2 * e] = 2 * f
                        base[2 * e + 1] = 2 * f + 1
                    else:
                        base[2 * e] = 2 * f + 1
                        base[2 * e + 1] = 2 * f
            for flipped in self.loop_flips:
                hep = base.copy()
                for e in flipped:
                    hep[2 * e], hep[2 * e + 1] = hep[2 * e + 1], hep[2 * e]
                block.append(tuple(hep))
        block.sort()
        return [Automorphism(hep, vperm) for hep in block]


def enumerate_automorphisms(g: Multigraph) -> list[Automorphism]:
    """The full automorphism group, identity first, then ordered
    lexicographically by (vertex_perm, half_edge_perm).

    Backtracks over vertex images, pruning on the (degree, loop count)
    invariant and on pairwise edge multiplicities; every surviving vertex
    bijection is extended over all compatible half-edge matchings. Vertex
    bijections come out in lexicographic order, so sorting each one's
    extensions orders the whole group. Raises GroupTooLargeError as soon as
    the group is known to have more than MAX_AUTOMORPHISMS elements.
    """
    n = g.vertex_count
    invariant = [(g.degree(v), g.loop_count(v)) for v in range(n)]
    # neighbours[v][u]: multiplicity of the edge {v, u}, loops left out
    neighbours: list[dict[int, int]] = [{} for _ in range(n)]
    for (a, b), m in g.edge_multiplicities.items():
        if a != b:
            neighbours[a][b] = neighbours[b][a] = m
    extensions = _HalfEdgeExtensions(g)
    found: list[Automorphism] = []
    image = [-1] * n
    preimage = [-1] * n
    v = 0
    while v >= 0:
        if v == n:
            found.extend(extensions.extend(tuple(image)))
            if len(found) > MAX_AUTOMORPHISMS:
                raise _too_large()
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
    return found
