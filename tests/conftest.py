import os
import signal
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import strategies as st

import autsign.signs
import autsign.sweep
from autsign import Multigraph, parse_graph

# pyproject.toml puts src/ on this process's path; the interpreters that the
# tests start (`python -m autsign ...`) import autsign from there too.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])
)

class Golden(NamedTuple):
    text: str
    signs: tuple[int, ...]  # per automorphism, in enumeration order


# The golden graphs and the sign of each automorphism, derived independently
# by brute force over all half-edge permutations plus the chain determinants.
GOLDENS = {
    "loop": Golden("v 1\ne 0 0\n", (1, -1)),
    "single_edge": Golden("v 2\ne 0 1\n", (1, 1)),
    "double_edge": Golden("v 2\ne 0 1\ne 0 1\n", (1, 1, -1, -1)),
    "triangle": Golden("v 3\ne 0 1\ne 1 2\ne 2 0\n", (1, 1, 1, 1, 1, 1)),
    "path3": Golden("v 3\ne 0 1\ne 1 2\n", (1, -1)),
    "path4": Golden("v 4\ne 0 1\ne 1 2\ne 2 3\n", (1, -1)),
    "loop_plus_edge": Golden("v 2\ne 0 0\ne 0 1\n", (1, -1)),
    "two_edges_disjoint": Golden("v 4\ne 0 1\ne 2 3\n", (1, 1, 1, 1, 1, 1, 1, 1)),
}


def count_calls(functions, run):
    """Calls of each of ``functions`` while ``run()`` runs, by name. Calls are
    matched on the function's code object, so the count does not depend on
    the module a caller imported the name from."""
    codes = {f.__code__: f.__name__ for f in functions}
    counts = dict.fromkeys(codes.values(), 0)

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return counts


@contextmanager
def returns_within(seconds):
    """Raise TimeoutError in the body once it has run ``seconds`` seconds,
    so that a loop that never ends fails its test instead of hanging the
    suite."""

    def expire(_signum, _frame):
        raise TimeoutError(f"did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def use_workers(monkeypatch):
    """``use_workers(k)``: the ordered map runs on k workers for the rest of
    the test, in this process when k is 1."""

    def use(workers):
        monkeypatch.setattr(autsign.sweep, "_worker_count", lambda: workers)

    return use


@pytest.fixture
def swaps_disagree(monkeypatch):
    """Flip the homological sign of every automorphism that swaps vertices 0
    and 1, through the component parity it multiplies in, so that the sweeps
    report disagreements. The parity is shared by a vertex-bijection block,
    which has one vertex permutation."""
    real = autsign.signs.component_permutation_sign

    def wrong_on_swaps(g, a):
        sign = real(g, a)
        return -sign if a.vertex_perm[:2] == (1, 0) else sign

    monkeypatch.setattr(autsign.signs, "component_permutation_sign", wrong_on_swaps)


@pytest.fixture
def golden():
    return {name: parse_graph(text) for name, (text, _) in GOLDENS.items()}


@st.composite
def multigraphs(draw, max_vertices=5, max_edges=6):
    n = draw(st.integers(1, max_vertices))
    m = draw(st.integers(0, max_edges))
    edges = [
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
        for _ in range(m)
    ]
    return Multigraph.from_edges(n, edges)
