"""Smoke test of the benchmark: tiny caps and a small group go through both
the untraced and the traced paths, which must agree on every count.

    PYTHONPATH=src python -m pytest -q perfbench
"""
import json

import pytest

import run
from bench_workloads import LargeGroupGraph, Workload

TINY_CAPS = (
    "--max-vertices", "3", "--max-edges", "3", "--max-multiplicity", "2",
    "--loops", "--connected-only",
)
TINY_COMPUTE = Workload("tiny-compute", "compute", graphs=(
    # The star K_{1,3} with two loops at its centre: 48 automorphisms.
    LargeGroupGraph(4, ((0, 1), (0, 2), (0, 3), (0, 0), (0, 0))),
))
TINY = (Workload("tiny-verify", "verify", TINY_CAPS), TINY_COMPUTE)


class NoSetup:
    """Stands in for run.SetupSampler: the smoke test times no set-up."""

    seconds: list = []

    def sample(self, count):
        pass


SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_untraced_and_traced_paths_agree(workload, tmp_path):
    plain = run.run_untraced(workload, seed=7, seconds=0, workdir=tmp_path, setup=NoSetup())
    traced = run.run_traced(workload, seed=7, seconds=0, workdir=tmp_path, setup=NoSetup())
    assert plain["failed"] == 0
    assert traced["failed"] == 0
    assert plain["counts"]
    for key, value in plain["counts"].items():
        assert traced["counts"][key] == value, key
    assert traced["metrics"]["automorphism.auts"] > 0
    assert {m["name"] for m in SPEC["per_layer"]} <= traced["metrics"].keys()
    assert {m["name"] for m in SPEC["end_to_end"]} - {"setup_s"} <= plain["metrics"].keys()


def test_fingerprint_mismatch_counts_as_failure(tmp_path):
    wrong = Workload("tiny-verify", "verify", TINY_CAPS, expected={"graphs_checked": -1})
    out = run.run_untraced(wrong, seed=7, seconds=0, workdir=tmp_path, setup=NoSetup())
    assert out["failed"] == out["attempted"] == 2  # the warm-up pass and one timed pass


def test_seeded_relabeling_is_reproducible(tmp_path):
    texts = []
    for sub in ("a", "b"):
        (attempt,) = TINY_COMPUTE.attempts(3, tmp_path / sub)
        with open(attempt.argv[1], encoding="utf-8") as f:
            texts.append(f.read())
    assert texts[0] == texts[1]
