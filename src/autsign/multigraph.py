"""Half-edge multigraphs: text I/O, connectivity, spanning forests, orientations.

Edge ``e`` owns half-edges ``2e`` and ``2e + 1``, so the edge pairing is the
fixed-point-free involution ``h ^ 1``. ``endpoint[h]`` is the vertex half-edge
``h`` is attached to. Loops (both halves on one vertex) and parallel edges
(repeated endpoint pairs) are allowed. Everything here is immutable after
construction and safe to share between workers.
"""
from __future__ import annotations

import heapq
import random
from functools import cached_property
from typing import Any, Iterable, Iterator, NamedTuple, NoReturn


# The largest vertex count parse_graph accepts; the cap turns absurd
# declarations into a clear error before any per-vertex table is allocated.
# The automorphism search places vertices in index order, so a path numbered
# along itself is searched in linear time, but a path or cycle whose labels
# are shuffled backtracks for a time exponential in its length, until the
# search budget (automorphism.MAX_SEARCH_STEPS) refuses it.
MAX_VERTICES = 100_000
# The largest edge count parse_graph accepts. Every listed automorphism holds
# a half-edge permutation with two entries per edge (1.6 MB at the cap).
MAX_EDGES = 100_000
# The longest graph file `compute` reads. The largest graph parse_graph
# accepts, written one directive a line ("e 99999 99999"), takes 1.4 MB, so
# the cap leaves room for comments; reading stops one byte past it, so an
# endless file such as /dev/zero is refused without being held.
MAX_GRAPH_BYTES = 4 << 20


class GraphFormatError(ValueError):
    """Malformed graph text; the message carries the offending line number."""


class _Validated:
    """Base of the records whose fields are checked: the named tuple built
    from the arguments is handed to ``_check``, which raises ValueError on a
    bad field. ``_make``, and so ``_replace``, build through ``__new__`` too,
    as does unpickling."""

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> Any:
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> Any:
        return cls(*iterable)


class ComponentPartition(NamedTuple):
    """Connected components, indexed contiguously from 0."""

    component_of: tuple[int, ...]
    component_count: int


class SpanningForest(NamedTuple):
    """A spanning tree per component, as parent pointers.

    ``parent_edge[v]`` is the tree edge joining v to its parent, -1 at a root,
    and ``depth[v]`` counts the tree edges between v and its root. The tree
    edges are the entries >= 0, and the roots the vertices at -1.
    """

    parent_edge: tuple[int, ...]
    depth: tuple[int, ...]


class _OrientationFields(NamedTuple):
    tail: tuple[int, ...]


class Orientation(_Validated, _OrientationFields):
    """An arrow on every edge: ``tail[e]`` is the half-edge the arrow leaves."""

    __slots__ = ()

    def _check(self) -> None:
        for e, t in enumerate(self.tail):
            if t >> 1 != e:
                raise ValueError(
                    f"tail of edge {e} must be half-edge {2 * e} or {2 * e + 1}, got {t}"
                )

    def head(self, e: int) -> int:
        return self.tail[e] ^ 1


class _MultigraphFields(NamedTuple):
    vertex_count: int
    endpoint: tuple[int, ...]


class Multigraph(_Validated, _MultigraphFields):
    """A finite multigraph in half-edge form.

    Invariants enforced at construction: the half-edge count is even and every
    half-edge is attached to an existing vertex. The pairing ``h ^ 1`` is an
    involution without fixed points by encoding. No ``__slots__``: the cached
    structure queries live in the instance ``__dict__``, which
    ``cached_property`` writes without ``__setattr__``.
    """

    def __setattr__(self, name: str, value: object) -> NoReturn:
        raise AttributeError(f"cannot assign to field {name!r}")

    def _check(self) -> None:
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        if len(self.endpoint) % 2 != 0:
            raise ValueError("half-edge count must be even")
        for h, v in enumerate(self.endpoint):
            if not 0 <= v < self.vertex_count:
                raise ValueError(f"half-edge {h} attached to out-of-range vertex {v}")

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[tuple[int, int]]) -> Multigraph:
        """Build a graph from (a, b) endpoint pairs; edge i gets half-edges 2i @ a, 2i+1 @ b."""
        endpoint: list[int] = []
        for a, b in edges:
            endpoint.append(a)
            endpoint.append(b)
        return cls(vertex_count, tuple(endpoint))

    # -- structure queries -------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.endpoint) // 2

    def edge_ends(self, e: int) -> tuple[int, int]:
        return self.endpoint[2 * e], self.endpoint[2 * e + 1]

    def edges(self) -> Iterator[tuple[int, int]]:
        for e in range(self.edge_count):
            yield self.edge_ends(e)

    @cached_property
    def _half_edges_at(self) -> tuple[tuple[int, ...], ...]:
        at: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for h, v in enumerate(self.endpoint):
            at[v].append(h)
        return tuple(tuple(hs) for hs in at)

    def degree(self, v: int) -> int:
        """Number of half-edges at v; a loop contributes 2."""
        return len(self._half_edges_at[v])

    @cached_property
    def edge_multiplicities(self) -> dict[tuple[int, int], int]:
        """Multiplicity of each unordered endpoint pair; loops are keyed (v, v)."""
        mult: dict[tuple[int, int], int] = {}
        for a, b in self.edges():
            key = (a, b) if a <= b else (b, a)
            mult[key] = mult.get(key, 0) + 1
        return mult

    def loop_count(self, v: int) -> int:
        return self.edge_multiplicities.get((v, v), 0)

    @cached_property
    def components(self) -> ComponentPartition:
        """Connected components; component indices follow each component's smallest vertex."""
        comp = [-1] * self.vertex_count
        count = 0
        for start in range(self.vertex_count):
            if comp[start] >= 0:
                continue
            comp[start] = count
            stack = [start]
            while stack:
                v = stack.pop()
                for h in self._half_edges_at[v]:
                    w = self.endpoint[h ^ 1]
                    if comp[w] < 0:
                        comp[w] = count
                        stack.append(w)
            count += 1
        return ComponentPartition(tuple(comp), count)

    @property
    def is_connected(self) -> bool:
        return self.components.component_count == 1

    @property
    def cycle_rank(self) -> int:
        """dim of the cycle space: |E| - |V| + #components."""
        return self.edge_count - self.vertex_count + self.components.component_count


def reference_orientation(g: Multigraph) -> Orientation:
    """The canonical orientation: each edge's tail is its smaller half-edge."""
    return Orientation(tuple(2 * e for e in range(g.edge_count)))


def random_orientation(g: Multigraph, rng: random.Random) -> Orientation:
    """An arbitrary orientation, one coin flip per edge."""
    return Orientation(tuple(2 * e + rng.getrandbits(1) for e in range(g.edge_count)))


def spanning_forest(g: Multigraph, root: int | None = None) -> SpanningForest:
    """Grow a tree from ``root``, then from each unreached vertex in ascending
    order, by repeatedly adding the smallest-index non-loop edge joining a
    reached vertex to an unreached one.

    The half-edges at reached vertices wait in a heap keyed by index, so
    ``h >> 1`` orders them by edge; a popped half-edge whose far end is
    already reached (a loop among them) never joins the tree. Each component
    is rooted at its smallest vertex, except ``root``'s; the other trees do
    not depend on ``root``.
    """
    n = g.vertex_count
    if root is not None and not 0 <= root < n:
        raise ValueError(f"root vertex {root} out of range")
    parent_edge, depth, reached = [-1] * n, [0] * n, [False] * n
    for r in range(n) if root is None else (root, *range(n)):
        if reached[r]:
            continue
        reached[r] = True
        heap = list(g._half_edges_at[r])  # ascending, so already a heap
        while heap:
            h = heapq.heappop(heap)
            v, w = g.endpoint[h], g.endpoint[h ^ 1]
            if reached[w]:
                continue
            reached[w] = True
            parent_edge[w] = h >> 1
            depth[w] = depth[v] + 1
            for k in g._half_edges_at[w]:
                heapq.heappush(heap, k)
    return SpanningForest(tuple(parent_edge), tuple(depth))


def _int_field(fields: list[str], index: int, lineno: int, what: str) -> int:
    """An optional '-' and ASCII digits only: int() would also take '1_0',
    '+0' and non-ASCII digits."""
    field = fields[index]
    digits = field[1:] if field.startswith("-") else field
    try:
        if digits.isascii() and digits.isdigit():
            return int(field)
    except ValueError:  # more digits than int() converts
        pass
    raise GraphFormatError(f"line {lineno}: {what} is not an integer: {field!r}")


def parse_graph(text: str) -> Multigraph:
    """Parse the line-oriented graph format.

    ``v <n>`` must come first, exactly once, with 0 <= n <= MAX_VERTICES;
    each ``e <a> <b>`` adds one edge (a == b makes a loop, repeats make
    parallel edges), at most MAX_EDGES in all. A line ends at a line feed,
    a carriage return or the pair of them, and at no other character that
    ``str.splitlines`` breaks at (a form feed is whitespace within a line).
    ``#`` starts a comment that runs to the end of its line, blank lines are
    skipped, and ``;`` separates directives within a line so one-line
    serializations parse too.
    """
    vertex_count: int | None = None
    edges: list[tuple[int, int]] = []
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for chunk in line.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            fields = chunk.split()
            if fields[0] == "v":
                if len(fields) != 2:
                    raise GraphFormatError(f"line {lineno}: expected 'v <count>'")
                if vertex_count is not None:
                    raise GraphFormatError(f"line {lineno}: duplicate 'v' directive")
                vertex_count = _int_field(fields, 1, lineno, "vertex count")
                if vertex_count < 0:
                    raise GraphFormatError(f"line {lineno}: negative vertex count")
                if vertex_count > MAX_VERTICES:
                    raise GraphFormatError(
                        f"line {lineno}: vertex count {vertex_count} is above the "
                        f"limit of {MAX_VERTICES}"
                    )
            elif fields[0] == "e":
                if len(fields) != 3:
                    raise GraphFormatError(f"line {lineno}: expected 'e <a> <b>'")
                if vertex_count is None:
                    raise GraphFormatError(f"line {lineno}: 'e' before 'v'")
                a = _int_field(fields, 1, lineno, "vertex index")
                b = _int_field(fields, 2, lineno, "vertex index")
                if not (0 <= a < vertex_count and 0 <= b < vertex_count):
                    raise GraphFormatError(
                        f"line {lineno}: vertex index out of range 0..{vertex_count - 1}"
                    )
                if len(edges) == MAX_EDGES:
                    raise GraphFormatError(f"line {lineno}: more than {MAX_EDGES} edges")
                edges.append((a, b))
            else:
                raise GraphFormatError(f"line {lineno}: unknown directive {fields[0]!r}")
    if vertex_count is None:
        raise GraphFormatError("missing 'v' directive")
    return Multigraph.from_edges(vertex_count, edges)


def _directives(g: Multigraph) -> list[str]:
    return [f"v {g.vertex_count}"] + [f"e {a} {b}" for a, b in g.edges()]


def serialize(g: Multigraph) -> str:
    """Multi-line text form; parse_graph(serialize(g)) == g."""
    return "\n".join(_directives(g)) + "\n"


def serialize_compact(g: Multigraph) -> str:
    """One-line text form for reports; also accepted by parse_graph."""
    return "; ".join(_directives(g))
