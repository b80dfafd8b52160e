"""Desk-scale multigraph enumeration, exhaustive sign verification, and the
odd-automorphism census.

Enumeration is labeled (no isomorphism rejection) and streamed: graphs come
out one at a time, ordered by vertex count and then lexicographically by the
upper-triangular multiplicity vector, so runs are reproducible bit for bit.

``sweep_verify`` and ``census_orientable`` share one ordered map: chunks of
CHUNK_GRAPHS graphs are dealt round-robin to one forked worker per available
CPU, and the parent reads the per-graph results back in enumeration order, so
the output does not depend on the worker count.
"""
from __future__ import annotations

import contextlib
import itertools
import os
import time
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Iterator, NoReturn, TypeVar

from .multigraph import Multigraph, serialize_compact
from .signs import has_odd_automorphism, verify_graph


@dataclass(frozen=True)
class SweepParams:
    max_vertices: int
    max_edges: int
    max_multiplicity: int = 1
    allow_loops: bool = False
    connected_only: bool = False

    def __post_init__(self) -> None:
        if self.max_vertices < 1:
            raise ValueError("max_vertices must be >= 1")
        if self.max_edges < 0:
            raise ValueError("max_edges must be >= 0")
        if self.max_multiplicity < 1:
            raise ValueError("max_multiplicity must be >= 1")


@dataclass(frozen=True)
class TheoremFailure:
    """One automorphism whose two signs disagreed (never happens when correct)."""

    graph: str
    vertex_perm: tuple[int, ...]
    half_edge_perm: tuple[int, ...]
    homological: int
    combinatorial: int


@dataclass
class VerificationReport:
    graphs_checked: int = 0
    automorphisms_checked: int = 0
    odd_graph_count: int = 0
    failures: list[TheoremFailure] = field(default_factory=list)
    elapsed_seconds: float = 0.0  # diagnostic only; not part of the payload

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


# Graphs per chunk of a sweep: small enough that the workers' shares of the
# connected sweep (197 chunks) stay even, large enough that a worker's turn
# at the pipe is a small part of its work.
CHUNK_GRAPHS = 64

Slots = list[tuple[int, int]]
T = TypeVar("T")


def _kept_vectors(params: SweepParams) -> Iterator[tuple[int, Slots, tuple[int, ...]]]:
    """(vertex count, slots, multiplicity vector) of every graph within the caps.

    For each vertex count n = 1..max_vertices, the vertex-pair slots are the
    upper triangle in row-major order (diagonal slots are loop counts, present
    only when loops are allowed); each slot multiplicity runs 0..cap and the
    total edge budget is enforced during generation. With ``connected_only``
    connectivity is read off the vector, before any graph is built.
    """
    for n in range(1, params.max_vertices + 1):
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


def _build(n: int, slots: Slots, vector: tuple[int, ...]) -> Multigraph:
    edges: list[tuple[int, int]] = []
    for pair, m in zip(slots, vector):
        edges.extend([pair] * m)
    return Multigraph.from_edges(n, edges)


def enumerate_multigraphs(params: SweepParams) -> Iterator[Multigraph]:
    """All labeled multigraphs within the caps, streamed deterministically."""
    for n, slots, vector in _kept_vectors(params):
        yield _build(n, slots, vector)


def _worker_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _share_graphs(params: SweepParams, share: int, shares: int) -> Iterator[Multigraph]:
    """The graphs of the chunks whose index is ``share`` modulo ``shares``;
    only these graphs are built."""
    for i, (n, slots, vector) in enumerate(_kept_vectors(params)):
        if i // CHUNK_GRAPHS % shares == share:
            yield _build(n, slots, vector)


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


def _ordered_map(params: SweepParams, per_graph: Callable[[Multigraph], T]) -> Iterator[T]:
    """``per_graph(g)`` for every graph of the enumeration, in its order.

    Each forked worker pipes one result per graph of its chunks, and the
    parent reads CHUNK_GRAPHS results from each pipe in turn; with one CPU, or
    without ``os.fork``, this is a plain ``map``. An exception in ``per_graph``
    reaches the consumer with its type and message. Every worker is reaped,
    also when the map is closed early; the exit statuses are checked at its end.
    """
    workers = _worker_count() if hasattr(os, "fork") else 1
    if workers == 1:
        yield from map(per_graph, enumerate_multigraphs(params))
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
                    _work(writer, readers, map(per_graph, _share_graphs(params, share, workers)))
            pids.append(pid)
        # Chunk i comes from worker i modulo the worker count, so the first
        # end of stream is the end of the sweep.
        for reader in itertools.cycle([r for r in readers for _ in range(CHUNK_GRAPHS)]):
            try:
                result = pickle.load(reader)
            except EOFError:
                break
            if isinstance(result, BaseException):
                raise result
            yield result
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
            f"a sweep worker stopped before the end of its share (exit statuses {codes})"
        )


def _verify_one(g: Multigraph) -> tuple[int, bool, list[TheoremFailure]]:
    """The automorphism count of ``g``, whether one is odd, and every
    disagreement."""
    results = verify_graph(g)
    failures = [
        TheoremFailure(serialize_compact(g), r.automorphism.vertex_perm,
                       r.automorphism.half_edge_perm, r.homological, r.combinatorial)
        for r in results if not r.agree
    ]
    return len(results), any(r.combinatorial == -1 for r in results), failures


def sweep_verify(params: SweepParams) -> VerificationReport:
    """Run verify_graph over the whole enumeration and aggregate.

    Disagreements are collected verbatim, never raised: a failing sweep should
    show all its counterexamples. An exception raised while verifying a graph
    reaches the caller with its type and message.
    """
    started = time.perf_counter()
    report = VerificationReport()
    for automorphisms, odd, failures in _ordered_map(params, _verify_one):
        report.graphs_checked += 1
        report.automorphisms_checked += automorphisms
        report.odd_graph_count += odd
        report.failures.extend(failures)
    report.elapsed_seconds = time.perf_counter() - started
    return report


def census_orientable(params: SweepParams) -> Iterator[tuple[Multigraph, bool]]:
    """Pair every enumerated graph with whether it admits an odd automorphism.
    Closing the stream early stops and reaps the workers."""
    # The map comes first in the zip, so it runs to its end and its check.
    with contextlib.closing(_ordered_map(params, has_odd_automorphism)) as flags:
        for is_odd, g in zip(flags, enumerate_multigraphs(params)):
            yield g, is_odd
