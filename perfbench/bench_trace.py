"""Traced replay: the per-layer split of a workload, measured from outside.

The replay runs a workload through autsign's public functions, in the order
the program calls them, and records one span per call. Spans are named
``<module>.<step>`` after the module that does the work; all spans of one
graph share a graph id. Because the replay calls every function itself, no
span contains another, and a span's self time is its duration.

For each graph the replay also times the program's own per-graph entry
(``verify_graph``, or ``compute`` through ``cli.main``) with tracing off,
and checks that the replay's signs match it.
"""
from __future__ import annotations

import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from autsign.automorphism import (
    cycle_notation,
    enumerate_automorphisms,
    induced_signed_edge_perm,
    permutation_sign,
)
from autsign.cli import build_parser
from autsign.homology import (
    UnimodularityError,
    det_sign,
    fundamental_cycles,
    induced_cycle_matrix,
)
from autsign.multigraph import (
    parse_graph,
    reference_orientation,
    serialize_compact,
    spanning_forest,
)
from autsign.signs import (
    combinatorial_sign,
    component_permutation_sign,
    verify_graph,
)
from autsign.sweep import SweepParams, enumerate_multigraphs
from bench_workloads import COMPUTE_TOKENS, Attempt, StdoutSink, run_attempt

LAYERS = (
    "sweep.enumerate",
    "multigraph.prepare",
    "homology.basis",
    "automorphism.search",
    "automorphism.signed_perm",
    "signs.combinatorial",
    "homology.cycle_matrix",
    "homology.det",
    "signs.component",
    "cli.format",
)
(ENUMERATE, PREPARE, BASIS, SEARCH, SIGNED_PERM, COMBINATORIAL,
 CYCLE_MATRIX, DET, COMPONENT, FORMAT) = range(len(LAYERS))

# Computed counts: they follow from the inputs alone and repeat exactly.
COUNTS = (
    "graphs", "odd_graphs", "automorphisms", "max_group",
    "det_mults", "unimodular_errors", "disagreements", "stdout_bytes",
)

now = time.perf_counter_ns


class Tracer:
    """Spans kept in memory as parallel arrays: layer, graph id, start, end (ns)."""

    def __init__(self) -> None:
        self.layer = array("B")
        self.graph = array("q")
        self.start = array("q")
        self.end = array("q")

    def record(self, layer: int, graph: int, t0: int, t1: int) -> None:
        self.layer.append(layer)
        self.graph.append(graph)
        self.start.append(t0)
        self.end.append(t1)

    def self_seconds(self) -> dict[str, float]:
        totals = [0] * len(LAYERS)
        for layer, t0, t1 in zip(self.layer, self.start, self.end):
            totals[layer] += t1 - t0
        return {name: ns / 1e9 for name, ns in zip(LAYERS, totals)}


def bareiss_multiplications(n: int) -> int:
    """Multiplications det_bareiss makes on a nonsingular n x n matrix: two
    per updated entry, and (n-1)^2 + ... + 1^2 entries are updated."""
    return (n - 1) * n * (2 * n - 1) // 3


@dataclass
class ReplayPass:
    """One traced pass over a workload."""

    tracer: Tracer = field(default_factory=Tracer)
    counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(COUNTS, 0))
    # Per-graph program entry, untraced, and the replay of the same graphs.
    entry_ns: list[int] = field(default_factory=list)
    replay_ns: int = 0
    attempts: int = 0
    failures: int = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempts += 1
        if not ok:
            self.failures += 1
            print(f"replay check failed: {what}", file=sys.stderr)

    def add_group(self, order: int) -> None:
        self.counts["automorphisms"] += order
        self.counts["max_group"] = max(self.counts["max_group"], order)


def _homological(rp: ReplayPass, gid: int, g, o, basis, a) -> int:
    """sign(edge perm) * det sign, split as _homological_sign computes it."""
    rec = rp.tracer.record
    t0 = now()
    sep = induced_signed_edge_perm(g, o, a)
    edge_sign = permutation_sign(sep.edge_perm)
    t1 = now()
    matrix = induced_cycle_matrix(g, o, basis, a)
    t2 = now()
    try:
        det = det_sign(matrix, require_unimodular=True)
    except UnimodularityError:
        rp.counts["unimodular_errors"] += 1
        det = 0
    t3 = now()
    rec(SIGNED_PERM, gid, t0, t1)
    rec(CYCLE_MATRIX, gid, t1, t2)
    rec(DET, gid, t2, t3)
    rp.counts["det_mults"] += bareiss_multiplications(matrix.rows)
    return edge_sign * det


def _replay_verify(rp: ReplayPass, gid: int, g) -> None:
    """verify_graph, call by call."""
    rec = rp.tracer.record
    begin = now()
    o = reference_orientation(g)
    forest = spanning_forest(g)
    t1 = now()
    basis = fundamental_cycles(g, o, forest)
    t2 = now()
    auts = enumerate_automorphisms(g)
    t3 = now()
    rec(PREPARE, gid, begin, t1)
    rec(BASIS, gid, t1, t2)
    rec(SEARCH, gid, t2, t3)
    signs = []
    for a in auts:
        t0 = now()
        comb = combinatorial_sign(g, o, a)
        rec(COMBINATORIAL, gid, t0, now())
        hom = _homological(rp, gid, g, o, basis, a)
        t0 = now()
        hom *= component_permutation_sign(g, a)
        rec(COMPONENT, gid, t0, now())
        signs.append((hom, comb))
    rp.replay_ns += now() - begin
    rp.add_group(len(auts))
    rp.counts["disagreements"] += sum(hom != comb for hom, comb in signs)
    rp.counts["odd_graphs"] += any(comb == -1 for _, comb in signs)

    t0 = now()
    results = verify_graph(g)
    rp.entry_ns.append(now() - t0)
    rp.check(signs == [(r.homological, r.combinatorial) for r in results],
             f"verify_graph signs differ on {serialize_compact(g)}")


def _replay_compute(rp: ReplayPass, gid: int, attempt: Attempt) -> None:
    """cmd_compute on one graph file, call by call, printing what it prints."""
    rec = rp.tracer.record
    sink = StdoutSink(COMPUTE_TOKENS)
    begin = now()
    g = parse_graph(Path(attempt.argv[1]).read_text(encoding="utf-8"))
    if not g.is_connected:
        raise ValueError("compute workloads use connected graphs")
    o = reference_orientation(g)
    forest = spanning_forest(g)
    t1 = now()
    basis = fundamental_cycles(g, o, forest)
    t2 = now()
    auts = enumerate_automorphisms(g)
    t3 = now()
    print(f"graph: {serialize_compact(g)}", file=sink)
    print(f"vertices: {g.vertex_count}  edges: {g.edge_count}  "
          f"components: {g.components.component_count}  cycle_rank: {g.cycle_rank}", file=sink)
    print(f"automorphisms: {len(auts)}", file=sink)
    t4 = now()
    rec(PREPARE, gid, begin, t1)
    rec(BASIS, gid, t1, t2)
    rec(SEARCH, gid, t2, t3)
    rec(FORMAT, gid, t3, t4)
    odd = False
    for i, a in enumerate(auts):
        t0 = now()
        sep = induced_signed_edge_perm(g, o, a)
        t1 = now()
        comb = combinatorial_sign(g, o, a)
        t2 = now()
        rec(SIGNED_PERM, gid, t0, t1)
        rec(COMBINATORIAL, gid, t1, t2)
        hom = _homological(rp, gid, g, o, basis, a)
        t0 = now()
        eps = "".join("+" if s > 0 else "-" for s in sep.edge_sign)
        print(
            f"[{i}] vperm={cycle_notation(a.vertex_perm)}"
            f" v_sign={permutation_sign(a.vertex_perm):+d}"
            f" e_sign={permutation_sign(sep.edge_perm):+d}"
            f" eps={eps or '(none)'}"
            f" hom={hom:+d} comb={comb:+d}"
            f" agree={'yes' if hom == comb else 'NO'}",
            file=sink,
        )
        rec(FORMAT, gid, t0, now())
        rp.counts["disagreements"] += hom != comb
        odd = odd or comb == -1
    rp.replay_ns += now() - begin
    sink.finish()
    rp.add_group(len(auts))
    rp.counts["odd_graphs"] += odd
    rp.counts["stdout_bytes"] += sink.bytes

    entry = run_attempt(attempt)
    rp.entry_ns.append(round(entry.seconds * 1e9))
    rp.check(entry.ok, f"compute fingerprint on {attempt.argv[1]}")
    rp.check(entry.digest == sink.digest, f"replayed compute output differs on {attempt.argv[1]}")


def sweep_params(attempt: Attempt) -> SweepParams:
    """The SweepParams the CLI builds from this command line."""
    args = build_parser().parse_args(list(attempt.argv))
    return SweepParams(
        max_vertices=args.max_vertices,
        max_edges=args.max_edges,
        max_multiplicity=args.max_multiplicity,
        allow_loops=args.loops,
        connected_only=args.connected_only,
    )


def _guarded(rp: ReplayPass, replay_one, *args) -> None:
    """Replay one graph; an exception counts as a failed check, not a crash."""
    try:
        replay_one(rp, *args)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        rp.check(False, f"{replay_one.__name__} raised")


def replay(attempts: list[Attempt]) -> ReplayPass:
    """One traced pass over a workload's attempts."""
    rp = ReplayPass()
    gid = 0
    for attempt in attempts:
        if attempt.command == "compute":
            _guarded(rp, _replay_compute, gid, attempt)
            gid += 1
            continue
        graphs = enumerate_multigraphs(sweep_params(attempt))
        while True:
            t0 = now()
            g = next(graphs, None)
            rp.tracer.record(ENUMERATE, gid, t0, now())
            if g is None:
                break
            rp.counts["graphs"] += 1
            _guarded(rp, _replay_verify, gid, g)
            gid += 1
    return rp
