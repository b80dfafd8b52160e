"""Desk-scale multigraph enumeration, exhaustive sign verification, and the
odd-automorphism census.

Enumeration is labeled (no isomorphism rejection) and streamed: graphs come
out one at a time, ordered by vertex count and then lexicographically by the
upper-triangular multiplicity vector, so runs are reproducible bit for bit.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Iterator

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


def enumerate_multigraphs(params: SweepParams) -> Iterator[Multigraph]:
    """All labeled multigraphs within the caps, streamed deterministically.

    For each vertex count n = 1..max_vertices, the vertex-pair slots are the
    upper triangle in row-major order (diagonal slots are loop counts, present
    only when loops are allowed); each slot multiplicity runs 0..cap and the
    total edge budget is enforced during generation. With ``connected_only``
    connectivity is read off the multiplicity vector, so only the graphs kept
    are built.
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
            edges: list[tuple[int, int]] = []
            for pair, m in zip(slots, vector):
                edges.extend([pair] * m)
            yield Multigraph.from_edges(n, edges)


def sweep_verify(params: SweepParams, diagnostics: bool = False) -> VerificationReport:
    """Run verify_graph over the whole enumeration and aggregate.

    Disagreements are collected verbatim, never raised: a failing sweep should
    show all its counterexamples.
    """
    started = time.perf_counter()
    report = VerificationReport()
    for g in enumerate_multigraphs(params):
        results = verify_graph(g, diagnostics=diagnostics)
        report.graphs_checked += 1
        report.automorphisms_checked += len(results)
        if any(r.combinatorial == -1 for r in results):
            report.odd_graph_count += 1
        report.failures.extend(
            TheoremFailure(
                serialize_compact(g),
                r.automorphism.vertex_perm,
                r.automorphism.half_edge_perm,
                r.homological,
                r.combinatorial,
            )
            for r in results
            if not r.agree
        )
    report.elapsed_seconds = time.perf_counter() - started
    return report


def census_orientable(params: SweepParams) -> Iterator[tuple[Multigraph, bool]]:
    """Pair every enumerated graph with whether it admits an odd automorphism."""
    for g in enumerate_multigraphs(params):
        yield g, has_odd_automorphism(g)
