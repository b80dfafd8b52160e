"""Desk-scale multigraph enumeration, exhaustive sign verification, and the
odd-automorphism census.

Enumeration is labeled (no isomorphism rejection) and streamed: graphs come
out one at a time, ordered by vertex count and then lexicographically by the
upper-triangular multiplicity vector, so runs are reproducible bit for bit.

One ordered map, ``ordered_map``, serves ``sweep_verify``,
``census_orientable`` and the ``compute`` command: a stream of items (graphs,
or one graph's automorphisms) is cut into chunks of CHUNK_GRAPHS items, dealt
round-robin to forked workers, at most one per available CPU and one per
chunk; each worker makes only the items of its own chunks and sends one list
per chunk, and the parent reads the lists back in chunk order, so the output
does not depend on the worker count. Output stops at the end of the last
whole chunk before a failure. A census worker sends each graph's
one-line text with its flag, so the parent builds no graph.
"""
from __future__ import annotations

import itertools
import operator
import os
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, NoReturn, TypeVar

from . import automorphism
from .multigraph import Multigraph, _Validated, serialize_compact
from .signs import comparisons, has_odd_automorphism


class _SweepParamsFields(NamedTuple):
    max_vertices: int
    max_edges: int
    max_multiplicity: int = 1
    allow_loops: bool = False
    connected_only: bool = False


class SweepParams(_Validated, _SweepParamsFields):
    __slots__ = ()

    def _check(self) -> None:
        if self.max_vertices < 1:
            raise ValueError("max_vertices must be >= 1")
        if self.max_edges < 0:
            raise ValueError("max_edges must be >= 0")
        if self.max_multiplicity < 1:
            raise ValueError("max_multiplicity must be >= 1")


class TheoremFailure(NamedTuple):
    """One automorphism whose two signs disagreed (never happens when correct)."""

    graph: str
    vertex_perm: tuple[int, ...]
    half_edge_perm: tuple[int, ...]
    homological: int
    combinatorial: int


class VerificationReport(NamedTuple):
    graphs_checked: int
    automorphisms_checked: int
    odd_graph_count: int
    failures: list[TheoremFailure]

    @property
    def ok(self) -> bool:
        return not self.failures


def _bounded_vectors(length: int, cap: int, budget: int) -> Iterator[tuple[int, ...]]:
    """Vectors in {0..cap}^length with sum <= budget, lexicographic ascending.

    An odometer: each step increments the last position that can still grow
    and zeroes the positions after it.
    """
    vec = [0] * length
    total = 0
    while True:
        yield tuple(vec)
        i = length - 1
        while i >= 0 and (vec[i] == cap or total == budget):
            total -= vec[i]
            vec[i] = 0
            i -= 1
        if i < 0:
            return
        vec[i] += 1
        total += 1


def _spans_all(vertex_count: int, slot_masks: list[int], vector: tuple[int, ...]) -> bool:
    """Whether the occupied slots connect all the vertices; ``slot_masks[k]``
    has the bits of slot k's two endpoints."""
    occupied = list(itertools.compress(slot_masks, vector))
    everything = (1 << vertex_count) - 1
    reached = 1
    while reached != everything:
        before = reached
        for mask in occupied:
            if mask & reached:
                reached |= mask
        if reached == before:
            return False
    return True


# Items per chunk of the ordered map, graphs in a sweep and automorphisms in
# compute: small enough that the workers' shares of the connected sweep (197
# chunks) stay even, large enough that pickling and unpickling a chunk is a
# small part of its work.
CHUNK_GRAPHS = 64

Slots = list[tuple[int, int]]
T = TypeVar("T")
# Whether the item at a stream index is in a share.
Owns = Callable[[int], bool]


def _dealt(share: int, shares: int) -> Owns:
    """Share ``share`` of ``shares``: the items of the chunks whose index is
    ``share`` modulo ``shares``."""
    return lambda i: i // CHUNK_GRAPHS % shares == share


def _kept_vectors(params: SweepParams) -> Iterator[tuple[int, Slots, tuple[int, ...]]]:
    """(vertex count, slots, multiplicity vector) of every graph within the caps.

    For each vertex count n = 1..max_vertices, the vertex-pair slots are the
    upper triangle in row-major order (diagonal slots are loop counts, present
    only when loops are allowed); each slot multiplicity runs 0..cap and the
    total edge budget is enforced during generation. With ``connected_only``
    connectivity is read off the vector, before any graph is built, and the
    walk stops at max_edges + 1 vertices, the most that max_edges edges
    connect.
    """
    last = params.max_vertices
    if params.connected_only:
        last = min(last, params.max_edges + 1)
    for n in range(1, last + 1):
        slots = [
            (i, j)
            for i in range(n)
            for j in range(i, n)
            if params.allow_loops or i != j
        ]
        slot_masks = [(1 << i) | (1 << j) for i, j in slots]
        for vector in _bounded_vectors(len(slots), params.max_multiplicity, params.max_edges):
            if params.connected_only and not _spans_all(n, slot_masks, vector):
                continue
            yield n, slots, vector


def _share_graphs(params: SweepParams, owns: Owns) -> Iterator[Multigraph]:
    """The graphs i of the enumeration with ``owns(i)``; only these graphs
    are built."""
    for i, (n, slots, vector) in enumerate(_kept_vectors(params)):
        if owns(i):
            edges: list[tuple[int, int]] = []
            for pair, m in zip(slots, vector):
                edges.extend([pair] * m)
            yield Multigraph.from_edges(n, edges)


def enumerate_multigraphs(params: SweepParams) -> Iterator[Multigraph]:
    """All labeled multigraphs within the caps, streamed deterministically."""
    return _share_graphs(params, _dealt(0, 1))


def _worker_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _chunks(items: Iterable[T]) -> Iterator[list[T]]:
    """``items`` in lists of CHUNK_GRAPHS, the last one possibly shorter."""
    items = iter(items)
    while chunk := list(itertools.islice(items, CHUNK_GRAPHS)):
        yield chunk


def _work(out: BinaryIO, read_ends: list[BinaryIO], results: Iterator[object]) -> NoReturn:
    """Body of a forked worker: close the inherited read ends, pickle each of
    ``results`` into ``out``, or the exception that stopped them, then leave
    without returning to the caller's frames."""
    import pickle

    code = 1
    try:
        for reader in read_ends:
            reader.close()
        try:
            for result in results:
                pickle.dump(result, out, pickle.HIGHEST_PROTOCOL)
            failed = False
        except Exception as exc:
            failed = True
            try:
                data = pickle.dumps(exc, pickle.HIGHEST_PROTOCOL)
            except Exception:
                data = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
            out.write(data)
        out.flush()
        code = 1 if failed else 0
    finally:
        os._exit(code)


def ordered_map(
    share_items: Callable[[Owns], Iterable[T]], count: int | None = None
) -> Iterator[list[T]]:
    """The items of a stream as one list per chunk, in stream order.

    The stream is cut into chunks of CHUNK_GRAPHS items, and chunk i is
    dealt to worker i modulo the worker count. ``share_items(owns)`` yields,
    in stream order, the items at the indices i with ``owns(i)``. One forked
    worker per CPU, but no more than there are chunks when the stream's
    length ``count`` is known, runs its share and sends one list per chunk
    through its own pipe; the parent reads one list from each pipe in turn.
    With one worker, or without ``os.fork``, the whole stream is cut into
    chunks in this process.
    An exception in a share reaches the consumer with its type and message,
    after the chunks before the one it stopped. Every worker is reaped, also
    when the map is closed early; the exit statuses are checked at its end.
    """
    workers = _worker_count() if hasattr(os, "fork") else 1
    if count is not None:
        workers = min(workers, -(-count // CHUNK_GRAPHS))
    if workers <= 1:
        yield from _chunks(share_items(_dealt(0, 1)))
        return
    import pickle

    pids: list[int] = []
    readers: list[BinaryIO] = []
    try:
        for share in range(workers):
            read_fd, write_fd = os.pipe()
            readers.append(os.fdopen(read_fd, "rb"))
            with os.fdopen(write_fd, "wb") as writer:
                pid = os.fork()
                if pid == 0:
                    _work(writer, readers, _chunks(share_items(_dealt(share, workers))))
            pids.append(pid)
        # Chunk i comes from worker i modulo the worker count, so the first
        # end of stream is the end of the map.
        for reader in itertools.cycle(readers):
            try:
                chunk = pickle.load(reader)
            except EOFError:
                break
            if isinstance(chunk, BaseException):
                raise chunk
            yield chunk
    except BaseException:
        import signal

        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        # Closed read ends also stop a worker blocked on a full pipe.
        for reader in readers:
            reader.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    if any(codes):
        raise RuntimeError(
            f"a worker stopped before the end of its share (exit statuses {codes})"
        )


def _verify_one(g: Multigraph) -> tuple[int, bool, list[TheoremFailure]]:
    """The automorphism count of ``g``, whether one is odd, and every
    disagreement; each record is dropped once counted, so a worker holds one
    at a time, not the group's."""
    count, odd, failures = 0, False, []
    for r in comparisons(g, automorphism.stream_automorphisms(g)[1]):
        count += 1
        odd = odd or r.combinatorial == -1
        if not r.agree:
            failures.append(TheoremFailure(
                serialize_compact(g), r.automorphism.vertex_perm,
                r.automorphism.half_edge_perm, r.homological, r.combinatorial))
    return count, odd, failures


def _per_graph(params: SweepParams, per_graph: Callable[[Multigraph], T]) -> Iterator[T]:
    """``per_graph`` of every enumerated graph, in stream order, made by the
    ordered map's workers. Before the first fork it raises
    GroupTooLargeError when the caps alone put a group over
    MAX_AUTOMORPHISMS in the sweep: without ``connected_only`` the empty
    graph on max_vertices vertices is always in it, with max_vertices!
    automorphisms. Closing the stream early stops and reaps the workers."""
    if not params.connected_only:
        # stops at the first factorial over the cap, however large max_vertices is
        factorials = itertools.accumulate(range(1, params.max_vertices + 1), operator.mul)
        if any(order > automorphism.MAX_AUTOMORPHISMS for order in factorials):
            raise automorphism._too_large()
    for chunk in ordered_map(lambda owns: map(per_graph, _share_graphs(params, owns))):
        yield from chunk


def sweep_verify(params: SweepParams) -> VerificationReport:
    """Check both signs on every automorphism of the whole enumeration and
    aggregate.

    Disagreements are collected verbatim, never raised: a failing sweep should
    show all its counterexamples. An exception raised while verifying a graph
    reaches the caller with its type and message. A group over the cap that
    the caps alone reveal is refused before the first fork.
    """
    graphs = automorphisms = odd = 0
    failures: list[TheoremFailure] = []
    for count, is_odd, found in _per_graph(params, _verify_one):
        graphs += 1
        automorphisms += count
        odd += is_odd
        failures.extend(found)
    return VerificationReport(graphs, automorphisms, odd, failures)


def _census_one(g: Multigraph) -> tuple[str, bool]:
    """The one-line text of ``g`` and whether it has an odd automorphism."""
    return serialize_compact(g), has_odd_automorphism(g)


def census_orientable(params: SweepParams) -> Iterator[tuple[str, bool]]:
    """Pair the one-line text of every enumerated graph with whether it admits
    an odd automorphism. Closing the stream early stops and reaps the workers.
    A group over the cap that the caps alone reveal is refused before the
    first fork."""
    return _per_graph(params, _census_one)
