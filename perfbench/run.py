"""autsign benchmark: one workload, one seed, untraced or traced.

    for w in verify-connected compute-large-group; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 60 --trace 0
    done

Run from the root of a source checkout; the program is imported from its
``src/`` directory. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The line before it records the environment, the workload's reason, the
sample counts and ``fail_frac``.

Everything runs in this process, one pass after another, except set-up: that
is a fresh interpreter importing ``autsign.cli``, sampled between passes.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set-up samples: this many before each pass, topped up to the minimum.
SETUP_PER_PASS = 2
SETUP_MIN_SAMPLES = 15


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """This process's peak RSS since it was exec'd (VmHWM). ru_maxrss would
    also count the image of the parent that forked it."""
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError("no VmHWM in /proc/self/status")


def git_commit(root: Path) -> str:
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class SetupSampler:
    """Set-up time: a fresh interpreter importing autsign.cli. Samples are
    taken between passes, so that their median covers the whole run rather
    than one moment of a noisy machine."""

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self._env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def sample(self, count: int) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import autsign.cli"],
                           cwd=ROOT, env=self._env, check=True)
            self.seconds.append(time.perf_counter() - t0)

    def bare_import_rss_mb(self) -> float:
        """Peak RSS of a fresh interpreter that has imported autsign.cli."""
        code = ("import autsign.cli\n"
                "print(next(line.split()[1] for line in open('/proc/self/status')"
                " if line.startswith('VmHWM:')))")
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=self._env,
                             check=True, capture_output=True, text=True)
        return int(out.stdout) / 1024


def cli_counts(command: str, results) -> dict[str, int]:
    """The computed counts that the CLI's own output states."""
    fps = [r.fingerprint or {} for r in results]
    counts = {"stdout_bytes": sum(r.stdout_bytes for r in results)}
    if command == "verify":
        fp = fps[0]
        counts.update(graphs=fp.get("graphs_checked"), automorphisms=fp.get("automorphisms_checked"),
                      odd_graphs=fp.get("odd_graph_count"), disagreements=fp.get("failures"))
    else:
        orders = [fp.get("automorphisms", 0) for fp in fps]
        counts.update(automorphisms=sum(orders), max_group=max(orders),
                      odd_graphs=sum(fp.get(" comb=-1", 0) > 0 for fp in fps),
                      disagreements=sum(fp.get(" agree=NO", 0) for fp in fps))
    return counts


def timed_passes(one_pass, seconds: float, setup: SetupSampler) -> tuple[list, list[float]]:
    """Run passes until a typical one would no longer fit in ``seconds``
    (at least one); return their results and durations."""
    start = time.perf_counter()
    results, durations = [], []
    while True:
        setup.sample(SETUP_PER_PASS)
        gc.collect()
        t0 = time.perf_counter()
        results.append(one_pass())
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            break
    setup.sample(SETUP_MIN_SAMPLES - len(setup.seconds))
    return results, durations


def run_untraced(workload, seed: int, seconds: float, workdir: Path, setup: SetupSampler) -> dict:
    from bench_workloads import run_attempt

    attempts = workload.attempts(seed, workdir)
    t0 = time.perf_counter()
    # An untimed, checked warm-up pass. The peak RSS is taken after it: the
    # memory of running the workload once, before the allocations of later
    # passes and set-up samples can fragment the heap and add to it. Like the
    # timed passes it starts from a full collection, so the peak does not
    # depend on how much cyclic garbage the imports left.
    gc.collect()
    warmup = [run_attempt(a) for a in attempts]
    peak = peak_rss_mb()
    passes, _ = timed_passes(lambda: [run_attempt(a) for a in attempts],
                             seconds - (time.perf_counter() - t0), setup)
    walls = [sum(r.seconds for r in results) for results in passes]
    wall = statistics.median(walls)
    checked = [warmup, *passes]
    return {
        "attempted": sum(len(results) for results in checked),
        "failed": sum(not r.ok for results in checked for r in results),
        "counts": cli_counts(workload.command, passes[-1]),
        "samples": {"wall_s": walls},
        "metrics": {
            "wall_s": wall,
            "auts_per_s": workload.automorphisms / wall,
            "peak_rss_mb": peak,
        },
    }


def run_traced(workload, seed: int, seconds: float, workdir: Path, setup: SetupSampler) -> dict:
    from bench_trace import LAYERS, replay
    from bench_workloads import run_attempt

    attempts = workload.attempts(seed, workdir)
    t0 = time.perf_counter()
    results = [run_attempt(a) for a in attempts]
    from_cli = cli_counts(workload.command, results)
    passes, _ = timed_passes(lambda: replay(attempts), seconds - (time.perf_counter() - t0), setup)
    attempted = len(results) + sum(rp.attempts for rp in passes)
    failed = sum(not r.ok for r in results) + sum(rp.failures for rp in passes)
    if workload.command != "compute":
        # The replay of a sweep prints nothing; its output size is the CLI's.
        for rp in passes:
            rp.counts["stdout_bytes"] = from_cli["stdout_bytes"]

    counts = passes[0].counts
    checks = [rp.counts == counts for rp in passes[1:]]
    checks += [counts[k] == v for k, v in from_cli.items()]
    attempted += len(checks)
    failed += checks.count(False)
    if not all(checks):
        print(f"traced counts {[rp.counts for rp in passes]} disagree with the CLI's {from_cli}",
              file=sys.stderr)

    per_pass = [rp.tracer.self_seconds() for rp in passes]
    self_s = {name: statistics.median(p[name] for p in per_pass) for name in LAYERS}
    entry_ms = [[ns / 1e6 for ns in rp.entry_ns] for rp in passes]
    overhead = statistics.median(
        rp.replay_ns / sum(rp.entry_ns) - 1 for rp in passes)
    auts = counts["automorphisms"]
    metrics = {f"{name}.self_s": s for name, s in self_s.items()}
    metrics.update({
        "sweep.graphs": counts["graphs"],
        "automorphism.search.us_per_aut": self_s["automorphism.search"] / auts * 1e6,
        "automorphism.auts": auts,
        "automorphism.max_group": counts["max_group"],
        "homology.det.mults": counts["det_mults"],
        "homology.unimodular_errors": counts["unimodular_errors"],
        "signs.disagreements": counts["disagreements"],
        "signs.entry_p50_ms": statistics.median(statistics.median(ms) for ms in entry_ms),
        "signs.entry_p99_ms": statistics.median(percentile(ms, 0.99) for ms in entry_ms),
        "signs.entry_samples": len(entry_ms[0]),
        "cli.stdout_bytes": counts["stdout_bytes"],
        "trace.overhead_frac": overhead,
    })
    return {
        "attempted": attempted,
        "failed": failed,
        "counts": counts,
        "samples": {"replay_passes": len(passes)},
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(why))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "autsign" / "cli.py").is_file():
        print(f"error: no autsign sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from bench_workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    setup = SetupSampler()
    run = run_traced if args.trace else run_untraced
    out = run(workload, args.seed, args.seconds, ROOT / ".perfbench_work", setup)
    metrics = out["metrics"]
    metrics["setup_s"] = statistics.median(setup.seconds)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    info = {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "seed_sets_inputs": workload.seeded,
        "trace": args.trace,
        "env": {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(ROOT),
            "bare_import_rss_mb": setup.bare_import_rss_mb(),
        },
        "computed_counts": out["counts"],
        "samples": {"setup_s": setup.seconds, **out["samples"]},
        "fail_frac": {"value": out["failed"] / out["attempted"], "unit": "frac"},
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
