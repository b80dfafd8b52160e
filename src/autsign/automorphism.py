"""Multigraph automorphisms: enumeration, permutation parity, induced edge data.

An automorphism is stored as the half-edge permutation (the single source of
truth) together with the vertex permutation it induces; the vertex images of
isolated vertices are the only extra freedom. Induced edge permutations and
per-edge orientation signs are derived on demand.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

from .multigraph import Multigraph, Orientation

# The largest group stream_automorphisms hands out. What is held is the vertex
# bijections and the one lift being built, so the cap bounds time. Reaching it
# on 12 isolated vertices (12! automorphisms) takes about 5 s and 90 MB on a
# 2-vCPU VM, well under a 1 GiB address-space limit. Every pinned group is far
# below it (the largest, one vertex with 6 loops, has 46080 elements).
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


def induced_signed_edge_perm(
    g: Multigraph, o: Orientation, a: Automorphism
) -> SignedEdgePermutation:
    """Where each edge goes and whether its arrow is preserved (+1) or reversed (-1)."""
    hep, tail = a.half_edge_perm, o.tail
    if len(tail) != g.edge_count or len(hep) != len(g.endpoint):
        raise ValueError("orientation or automorphism does not belong to the graph")
    edge_perm = []
    edge_sign = []
    for t in tail:
        image = hep[t]
        f = image >> 1
        edge_perm.append(f)
        edge_sign.append(1 if image == tail[f] else -1)
    return SignedEdgePermutation(tuple(edge_perm), tuple(edge_sign))


def _lifts(
    g: Multigraph, ends: dict[tuple[int, int], list[int]], vperm: tuple[int, ...]
) -> Iterator[Automorphism]:
    """The automorphisms over a multiplicity-preserving vertex bijection, in
    lexicographic order of half_edge_perm. ``ends[(a, b)]`` lists, ascending,
    the half-edges at a whose edge ends at b: both halves of each loop at a
    when b == a.

    Edge e's first half may go to any half-edge h in
    ends[(vperm[a], vperm[b])], where a and b are e's ends, and h fixes the
    rest: hep[2e] = h and hep[2e + 1] = h ^ 1. So the lexicographic order is
    depth-first order over the edges in index order, each trying those h of
    still free edges in ascending order: for a loop, the unflipped image
    before the flipped one. Only the current path is held.
    """
    m = g.edge_count
    if m == 0:
        yield Automorphism((), vperm)
        return
    endpoint = g.endpoint
    targets = [ends[(vperm[endpoint[h]], vperm[endpoint[h + 1]])] for h in range(0, 2 * m, 2)]
    hep = [0] * (2 * m)
    taken = [False] * m
    # stack[e] walks targets[e]; the edges below the top are placed and taken
    stack = [iter(targets[0])]
    while stack:
        e = len(stack) - 1
        for h in stack[e]:
            if taken[h >> 1]:
                continue
            hep[2 * e] = h
            hep[2 * e + 1] = h ^ 1
            if e == m - 1:
                yield Automorphism(tuple(hep), vperm)
                continue
            taken[h >> 1] = True
            stack.append(iter(targets[e + 1]))
            break
        else:
            stack.pop()
            if e:
                taken[hep[2 * e - 2] >> 1] = False


def _vertex_bijections(g: Multigraph) -> Iterator[tuple[int, ...]]:
    """Multiplicity-preserving vertex bijections, in lexicographic order.

    Backtracks over vertex images, pruning on the (degree, loop count)
    invariant and on pairwise edge multiplicities.
    """
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


def automorphism_shares(
    g: Multigraph,
) -> tuple[int, Callable[[Callable[[int], bool]], Iterator[Automorphism]]]:
    """The group's order and its share function.

    ``share(owns)`` yields, in the order of stream_automorphisms, the
    elements at the stream indices i with ``owns(i)``. A bijection's block of
    lifts is built only when one of its indices is owned.

    Each multiplicity-preserving vertex bijection has a block of lifts, all
    blocks of one size. The bijections are collected here, in lexicographic
    order, so GroupTooLargeError is raised before any automorphism is built;
    a share then builds each bijection's lifts one at a time, already in
    order. The automorphisms of a block share one vertex_perm tuple.
    """
    # A class of k parallel edges is matched in k! ways and each loop may
    # also flip, so every vertex bijection has this many lifts. The identity
    # is one of them, so a block above the cap puts the group above it.
    block = 1
    for (a, b), k in g.edge_multiplicities.items():
        block *= math.factorial(k) * (2**k if a == b else 1)
    if block > MAX_AUTOMORPHISMS:
        raise _too_large()
    most = MAX_AUTOMORPHISMS // block
    bijections: list[tuple[int, ...]] = []
    for vperm in _vertex_bijections(g):
        if len(bijections) == most:
            raise _too_large()
        bijections.append(vperm)
    ends: dict[tuple[int, int], list[int]] = {}
    for h, v in enumerate(g.endpoint):
        ends.setdefault((v, g.endpoint[h ^ 1]), []).append(h)
    order = len(bijections) * block

    def share(owns: Callable[[int], bool]) -> Iterator[Automorphism]:
        # lifts: the rest of the block of the last owned index, each lift
        # with its stream index; the block ends before index end
        lifts, end = iter(()), 0
        for i in filter(owns, range(order)):
            if i >= end:
                b = i // block
                end = (b + 1) * block
                lifts = enumerate(_lifts(g, ends, bijections[b]), b * block)
            for j, a in lifts:
                if j == i:
                    yield a
                    break

    return order, share


def stream_automorphisms(g: Multigraph) -> tuple[int, Iterator[Automorphism]]:
    """The group's order and a lazy stream of its elements, identity first,
    then ordered by (vertex_perm, half_edge_perm): the share of
    automorphism_shares that owns every index, which raises
    GroupTooLargeError before any element is built."""
    order, share = automorphism_shares(g)
    return order, share(lambda _i: True)


def enumerate_automorphisms(g: Multigraph) -> list[Automorphism]:
    """The full automorphism group as a list, in the order of
    stream_automorphisms."""
    return list(stream_automorphisms(g)[1])
