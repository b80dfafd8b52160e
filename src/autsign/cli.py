"""Command-line front end: compute, verify, census, selftest.

All stdout payloads are deterministic; timing goes to stderr only. compute,
verify and census run on the sweep module's ordered map: compute parses the
graph, collects its vertex bijections and prints the header in this process,
and the workers format the lines of their chunks of the group, which the
parent writes one chunk at a time, in automorphism order.

An input the program refuses raises where it is found; ``main`` alone turns
the exception into ``error: ...`` on stderr and exit status 2.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys
import time
from dataclasses import asdict
from typing import Callable, Iterator

from .automorphism import automorphism_shares, cycle_notation
from .homology import (
    IntMatrix,
    check_cycle_rank,
    det_bareiss,
    det_cofactor,
    fundamental_cycles,
)
from .multigraph import (
    MAX_GRAPH_BYTES,
    parse_graph,
    random_orientation,
    reference_orientation,
    serialize,
    serialize_compact,
    spanning_forest,
)
from .signs import (
    SignComparison,
    combinatorial_sign,
    comparisons,
    homological_sign,
    verify_graph,
)
from .sweep import SweepParams, census_orientable, ordered_map, sweep_verify


# Texts of a sign (each one printed is +-1) and of an arrow, by lookup per line.
_SIGN_TEXT = {1: "+1", -1: "-1"}
_ARROW_TEXT = {1: "+", -1: "-"}


def _compute_line(i: int, vperm_cycles: str, r: SignComparison) -> str:
    """The line of `compute` for automorphism i, with its newline."""
    eps = "".join(map(_ARROW_TEXT.__getitem__, r.signed_edge_perm.edge_sign))
    line = (
        f"[{i}] vperm={vperm_cycles}"
        f" v_sign={_SIGN_TEXT[r.vertex_parity]}"
        f" e_sign={_SIGN_TEXT[r.edge_parity]}"
        f" eps={eps or '(none)'}"
        f" hom={_SIGN_TEXT[r.homological]} comb={_SIGN_TEXT[r.combinatorial]}"
        f" agree={'yes' if r.agree else 'NO'}"
    )
    if r.factors is not None:
        f = r.factors
        line += (
            f" det_edges={_SIGN_TEXT[f.edge_space_det]}"
            f" det_vertices={_SIGN_TEXT[f.vertex_space_det]}"
            f" det_cycles={_SIGN_TEXT[f.cycle_space_det]}"
            f" comp_sign={_SIGN_TEXT[f.component_sign]}"
        )
    return line + "\n"


def cmd_compute(args: argparse.Namespace) -> int:
    with open(args.graph_file, "rb") as f:
        data = f.read(MAX_GRAPH_BYTES + 1)
    if len(data) > MAX_GRAPH_BYTES:
        raise ValueError(
            f"{args.graph_file} is longer than the limit of {MAX_GRAPH_BYTES} bytes"
        )
    g = parse_graph(data.decode("utf-8"))
    if not g.is_connected and not args.extended:
        raise ValueError(
            "graph is disconnected; rerun with --extended to include "
            "the component-permutation sign"
        )
    check_cycle_rank(g)
    order, share = automorphism_shares(g)
    print(f"graph: {serialize_compact(g)}")
    print(
        f"vertices: {g.vertex_count}  edges: {g.edge_count}  "
        f"components: {g.components.component_count}  cycle_rank: {g.cycle_rank}"
    )
    print(f"automorphisms: {order}")

    def share_lines(owns: Callable[[int], bool]) -> Iterator[str]:
        """The lines of the automorphisms i with ``owns(i)``, in order."""
        # Without --extended the graph is connected, where the component sign is +1.
        records = comparisons(g, share(owns), args.diagnostics)
        vperm = None
        for i, r in zip(filter(owns, range(order)), records):
            if r.automorphism.vertex_perm is not vperm:
                # once per vertex-bijection block
                vperm = r.automorphism.vertex_perm
                vperm_cycles = cycle_notation(vperm)
            yield _compute_line(i, vperm_cycles, r)

    for lines in ordered_map(share_lines, order):
        sys.stdout.write("".join(lines))
    return 0


def _params_from_args(args: argparse.Namespace) -> SweepParams:
    """The sweep caps; a cap out of range raises ValueError."""
    return SweepParams(
        max_vertices=args.max_vertices,
        max_edges=args.max_edges,
        max_multiplicity=args.max_multiplicity,
        allow_loops=args.loops,
        connected_only=args.connected_only,
    )


def cmd_verify(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    started = time.perf_counter()
    report = sweep_verify(params)
    elapsed = time.perf_counter() - started
    if args.json:
        doc = asdict(report) | {"params": asdict(params), "ok": report.ok}
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"graphs_checked: {report.graphs_checked}")
        print(f"automorphisms_checked: {report.automorphisms_checked}")
        print(f"odd_graph_count: {report.odd_graph_count}")
        print(f"failures: {len(report.failures)}")
        for f in report.failures:
            print(
                f"failure: graph={f.graph!r} vperm={f.vertex_perm}"
                f" hep={f.half_edge_perm} hom={_SIGN_TEXT[f.homological]}"
                f" comb={_SIGN_TEXT[f.combinatorial]}"
            )
    print(f"elapsed: {elapsed:.2f}s", file=sys.stderr)
    return 0 if report.ok else 1


def cmd_census(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    total = odd = 0
    for text, is_odd in census_orientable(params):
        print(f"{text}\t{'odd' if is_odd else 'even'}")
        total += 1
        odd += is_odd
    print(f"# graphs: {total}\todd: {odd}")
    return 0


# Expected sign sequences per golden graph, in automorphism enumeration order;
# derived independently by brute force over all half-edge permutations and by
# the chain-determinant factorization.
_GOLDENS: list[tuple[str, str, tuple[int, ...]]] = [
    ("loop", "v 1; e 0 0", (1, -1)),
    ("single-edge", "v 2; e 0 1", (1, 1)),
    ("double-edge", "v 2; e 0 1; e 0 1", (1, 1, -1, -1)),
    ("triangle", "v 3; e 0 1; e 1 2; e 2 0", (1, 1, 1, 1, 1, 1)),
    ("path3", "v 3; e 0 1; e 1 2", (1, -1)),
]


def _selftest_checks() -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []

    def add(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, ok, detail))

    for name, text, expected in _GOLDENS:
        g = parse_graph(text)
        add(f"{name}: round-trip", parse_graph(serialize(g)) == g)
        results = verify_graph(g, diagnostics=True)
        got = tuple(r.combinatorial for r in results)
        add(f"{name}: automorphism count {len(expected)}", len(results) == len(expected))
        add(f"{name}: signs {expected}", got == expected, f"got {got}")
        add(f"{name}: both routes agree", all(r.agree for r in results))
        add(
            f"{name}: chain determinants consistent",
            all(r.factors is not None and r.factors.consistent for r in results),
        )
        o = reference_orientation(g)
        auts = [r.automorphism for r in results]
        roots_ok = True
        for root in range(g.vertex_count):
            basis = fundamental_cycles(g, o, spanning_forest(g, root=root))
            signs = tuple(homological_sign(g, o, basis, a) for a in auts)
            roots_ok = roots_ok and signs == tuple(r.homological for r in results)
        add(f"{name}: root-independent", roots_ok)
        rng = random.Random(12345)
        orient_ok = all(
            tuple(combinatorial_sign(g, random_orientation(g, rng), a) for a in auts)
            == got
            for _ in range(20)
        )
        add(f"{name}: orientation-independent", orient_ok)

    entries = (-1, 0, 1)
    ok = all(
        det_bareiss(m) == det_cofactor(m)
        for vals in itertools.product(entries, repeat=4)
        for m in [IntMatrix(2, 2, vals)]
    )
    add("determinant cross-check: all 2x2 over {-1,0,1}", ok)
    rng = random.Random(99)
    ok = True
    for _ in range(200):
        n = rng.choice((3, 4, 5))
        m = IntMatrix(n, n, tuple(rng.randint(-2, 2) for _ in range(n * n)))
        ok = ok and det_bareiss(m) == det_cofactor(m)
    add("determinant cross-check: random up to 5x5", ok)
    return checks


def cmd_selftest(_args: argparse.Namespace) -> int:
    failed = 0
    checks = _selftest_checks()
    for name, ok, detail in checks:
        if ok:
            print(f"ok   {name}")
        else:
            failed += 1
            print(f"FAIL {name}" + (f" ({detail})" if detail else ""))
    print(f"selftest: {'PASS' if failed == 0 else 'FAIL'} ({len(checks) - failed}/{len(checks)})")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autsign",
        description=(
            "Compute and cross-check the two sign invariants of multigraph "
            "automorphisms, and classify graphs by odd symmetries."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="signs of every automorphism of one graph")
    p.add_argument("graph_file", help="graph text file (v/e directives)")
    p.add_argument("--extended", action="store_true",
                   help="include the component-permutation sign (disconnected graphs)")
    p.add_argument("--diagnostics", action="store_true",
                   help="print chain-level determinant factors")
    p.set_defaults(func=cmd_compute)

    def add_sweep_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--max-vertices", type=int, required=True)
        p.add_argument("--max-edges", type=int, required=True)
        p.add_argument("--max-multiplicity", type=int, default=1)
        p.add_argument("--loops", action="store_true", help="allow loop edges")
        p.add_argument("--connected-only", action="store_true")

    p = sub.add_parser("verify", help="exhaustively check both signs agree")
    add_sweep_args(p)
    p.add_argument("--json", action="store_true", help="emit one JSON document")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("census", help="tab-separated odd/even classification")
    add_sweep_args(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("selftest", help="golden examples and oracle cross-checks")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        # Flushed here, so that a reader gone from stdout is met in this try.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout (as `| head` does): exit 1, as Python does
        # on EPIPE.
        status = 1
    except (OSError, ValueError) as exc:
        # The one refusal path: a file that cannot be read is an OSError, and
        # every other refused input a ValueError. A later OSError (a failed
        # fork, a full disk under stdout) is reported the same way, and so is
        # a ValueError from one of the program's own consistency checks.
        # UnimodularityError and a dead worker's RuntimeError are neither,
        # and keep their traceback.
        print(f"error: {exc}", file=sys.stderr)
        status = 2
    try:
        sys.stdout.flush()
    except OSError:
        # A failed flush keeps its bytes, and Python flushes stdout again at
        # exit; point stdout at devnull, as the Python docs' note on SIGPIPE
        # does, so that nothing more is printed.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(main())
