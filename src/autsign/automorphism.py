"""Multigraph automorphisms: enumeration, permutation parity, induced edge data.

An automorphism is stored as the half-edge permutation (the single source of
truth) together with the vertex permutation it induces; the vertex images of
isolated vertices are the only extra freedom. Induced edge permutations and
per-edge orientation signs are derived on demand.
"""
from __future__ import annotations

import math
from array import array
from itertools import islice
from typing import Callable, Iterator, NamedTuple, NoReturn, Sequence

from .multigraph import Multigraph, Orientation

# The largest group that stream_automorphisms hands out and has_odd_automorphism
# searches. The bijection table takes n bytes a row up to 256 vertices, so the
# cap bounds time: reaching it on 12 isolated vertices takes about 3 s and
# 22 MB on a 2-vCPU VM. Every pinned group is far below it (the largest, one
# vertex with 6 loops, has 46080 elements).
MAX_AUTOMORPHISMS = 500_000
# The most turns the vertex-bijection search takes. On some labelings (a
# shuffled path, a random cubic graph) its index order backtracks for a time
# exponential in the vertex count; the cap turns that into an error in about
# 16 s on a 2-vCPU VM. The largest pinned groups take far fewer: 9 isolated
# vertices 1,972,819 turns, K_{1,8} 219,203, no full-cap graph more than 651.
MAX_SEARCH_STEPS = 20_000_000


class GroupTooLargeError(ValueError):
    """The automorphism group has more elements than MAX_AUTOMORPHISMS."""


def _too_large() -> GroupTooLargeError:
    return GroupTooLargeError(
        f"the automorphism group has more than {MAX_AUTOMORPHISMS} elements, "
        "too many to list"
    )


class Automorphism:
    """A half-edge permutation and the vertex permutation it induces.

    Immutable, compared and hashed by value. Not a tuple, because a tuple
    cannot be weakly referenced, and a caller streaming a large group may
    watch its elements go.
    """

    __slots__ = ("half_edge_perm", "vertex_perm", "__weakref__")
    half_edge_perm: tuple[int, ...]
    vertex_perm: tuple[int, ...]

    def __init__(self, half_edge_perm: tuple[int, ...], vertex_perm: tuple[int, ...]) -> None:
        object.__setattr__(self, "half_edge_perm", half_edge_perm)
        object.__setattr__(self, "vertex_perm", vertex_perm)

    def __setattr__(self, name: str, value: object) -> NoReturn:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> NoReturn:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple[tuple[int, ...], tuple[int, ...]]]:
        return self.__class__, (self.half_edge_perm, self.vertex_perm)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.half_edge_perm, self.vertex_perm) == (other.half_edge_perm, other.vertex_perm)

    def __hash__(self) -> int:
        return hash((self.half_edge_perm, self.vertex_perm))

    def __repr__(self) -> str:
        return (f"Automorphism(half_edge_perm={self.half_edge_perm!r}, "
                f"vertex_perm={self.vertex_perm!r})")


class SignedEdgePermutation(NamedTuple):
    """Edge permutation plus, per edge, whether the arrow direction survives."""

    edge_perm: tuple[int, ...]
    edge_sign: tuple[int, ...]


def permutation_sign(p: Sequence[int]) -> int:
    """+1 for even permutations, -1 for odd: (-1)**(n - #cycles). Raises
    ValueError when an image repeats or is outside range(len(p))."""
    seen = [False] * len(p)
    odd = False
    try:
        for i in range(len(p)):
            if seen[i]:
                continue
            seen[i] = True
            j = p[i]
            while j != i:
                # each element past the first of a cycle adds one transposition
                if j < 0 or seen[j]:
                    raise IndexError  # as seen[j] does for an image past the end
                seen[j] = True
                j = p[j]
                odd = not odd
    except IndexError:
        raise ValueError(f"not a permutation: the image {j} repeats or is out of range") from None
    return -1 if odd else 1


def cycle_notation(p: tuple[int, ...]) -> str:
    """Cycle string of a permutation, fixed points omitted; '()' for the
    identity. Raises ValueError as permutation_sign does."""
    seen = [False] * len(p)
    parts: list[str] = []
    # a cycle is first reached at its least element, so only its later
    # elements need marking
    for i, j in enumerate(p):
        if seen[i] or j == i:
            continue
        cyc = [i]
        while j != i:
            if not 0 <= j < len(p) or seen[j]:
                raise ValueError(f"not a permutation: the image {j} repeats or is out of range")
            cyc.append(j)
            seen[j] = True
            j = p[j]
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) or "()"


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
) -> Iterator[list[int]]:
    """The half_edge_perms of the automorphisms over a multiplicity-preserving
    vertex bijection, in lexicographic order, each yielded as the one list
    that the walk rewrites in place. ``ends[(a, b)]`` lists, ascending, the
    half-edges at a whose edge ends at b: both halves of each loop at a when
    b == a.

    Edge e's first half may go to any half-edge h in
    ends[(vperm[a], vperm[b])], where a and b are e's ends, and h fixes the
    rest: hep[2e] = h and hep[2e + 1] = h ^ 1. So the lexicographic order is
    depth-first order over the edges in index order, each trying those h of
    still free edges in ascending order: for a loop, the unflipped image
    before the flipped one. Only the current path is held.
    """
    m = g.edge_count
    hep = [0] * (2 * m)
    if m == 0:
        yield hep
        return
    endpoint = g.endpoint
    targets = [ends[(vperm[endpoint[h]], vperm[endpoint[h + 1]])] for h in range(0, 2 * m, 2)]
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
                yield hep
                continue
            taken[h >> 1] = True
            stack.append(iter(targets[e + 1]))
            break
        else:
            stack.pop()
            if e:
                taken[hep[2 * e - 2] >> 1] = False


def _vertex_bijections(g: Multigraph) -> tuple[array, int, int]:
    """The bijection table ``(table, bijections, block)``: the b-th vertex
    bijection that keeps multiplicities, in lexicographic order, is
    ``table[b * n:(b + 1) * n]``, one byte per image up to 256 vertices, with
    ``block`` lifts. Raises GroupTooLargeError once the group passes the cap,
    and ValueError once the search takes more than MAX_SEARCH_STEPS turns.

    Backtracks over the images of vertices 0, 1, ... in turn. Vertex v may
    go to a free vertex w of its (degree, loop count) colour that has v's
    edge multiplicity to the image of each earlier neighbour of v, and no
    other placed neighbour: ``placed[w]`` counts w's placed neighbours and
    is kept up to date on each place and unplace. Such a w is a neighbour
    of the image of v's first earlier neighbour, so v tries those in
    ascending order, and its whole colour cell only when it has no earlier
    neighbour.
    """
    # A class of k parallel edges is matched in k! ways and each loop may
    # also flip, so every vertex bijection has this many lifts. The identity
    # is one of them, so a block above the cap puts the group above it.
    block = 1
    for (a, b), k in g.edge_multiplicities.items():
        block *= math.factorial(k) * (2**k if a == b else 1)
    if block > MAX_AUTOMORPHISMS:
        raise _too_large()
    n = g.vertex_count
    table = array("B" if n <= 256 else "I")
    bijections = 0
    colours: dict[tuple[int, int], int] = {}
    colour = [colours.setdefault((g.degree(v), g.loop_count(v)), len(colours)) for v in range(n)]
    cells: list[list[int]] = [[] for _ in colours]
    for v in range(n):
        cells[colour[v]].append(v)
    # neighbours[v][u]: multiplicity of the edge {v, u}, loops left out; the
    # pairs come in ascending order, so each u is entered in ascending order
    neighbours: list[dict[int, int]] = [{} for _ in range(n)]
    for (a, b), m in sorted(g.edge_multiplicities.items()):
        if a != b:
            neighbours[a][b] = neighbours[b][a] = m
    # back[v]: v's earlier neighbours and their multiplicities
    back = [[(u, m) for u, m in nbrs.items() if u < v] for v, nbrs in enumerate(neighbours)]
    image = [-1] * n
    taken = [False] * n
    placed = [0] * n
    tries: list[Iterator[int]] = [iter(())] * n
    steps = MAX_SEARCH_STEPS
    v = 0
    while v >= 0:
        steps -= 1
        if steps < 0:
            raise ValueError(f"the automorphism search took more than {MAX_SEARCH_STEPS} "
                             "steps, too many to finish")
        if v == n:
            if (bijections + 1) * block > MAX_AUTOMORPHISMS:
                raise _too_large()
            table.extend(image)
            bijections += 1
            v -= 1
            continue
        colour_v, back_v = colour[v], back[v]
        w = image[v]
        if w >= 0:
            image[v] = -1
            taken[w] = False
            for x in neighbours[w]:
                placed[x] -= 1
        else:
            tries[v] = iter(neighbours[image[back_v[0][0]]] if back_v else cells[colour_v])
        for w in tries[v]:
            if taken[w] or colour[w] != colour_v or placed[w] != len(back_v):
                continue
            nbrs_w = neighbours[w]
            if any(nbrs_w.get(image[u], 0) != m for u, m in back_v):
                continue
            image[v] = w
            taken[w] = True
            for x in nbrs_w:
                placed[x] += 1
            v += 1
            break
        else:
            v -= 1
    return table, bijections, block


def automorphism_shares(
    g: Multigraph,
) -> tuple[int, Callable[[Callable[[int], bool]], Iterator[Automorphism]]]:
    """The group's order and its share function.

    ``share(owns)`` yields, in the order of stream_automorphisms, the
    elements at the stream indices i with ``owns(i)``, and builds no other.

    Each row of the bijection table (_vertex_bijections, which refuses a
    group above the cap before any automorphism is built) heads a block of
    lifts. A share walks the lifts of each block in which it owns an index,
    from the block's start and in order, up to its last owned index there; it
    passes over the lifts of other indices without building them. The
    automorphisms of a block share one vertex_perm tuple.
    """
    table, bijections, block = _vertex_bijections(g)
    n = g.vertex_count
    ends: dict[tuple[int, int], list[int]] = {}
    for h, v in enumerate(g.endpoint):
        ends.setdefault((v, g.endpoint[h ^ 1]), []).append(h)
    order = bijections * block

    def share(owns: Callable[[int], bool]) -> Iterator[Automorphism]:
        # lifts walks block b from its start; it yields index ``at`` next
        b = at = -1
        for i in filter(owns, range(order)):
            if i // block != b:
                b = i // block
                vperm = tuple(table[b * n:(b + 1) * n])
                lifts = _lifts(g, ends, vperm)
                at = b * block
            if i != at:
                # pass over the lifts before i without building them
                next(islice(lifts, i - at - 1, None))
            at = i + 1
            yield Automorphism(tuple(next(lifts)), vperm)

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
