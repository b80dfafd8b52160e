import dataclasses
import itertools
import os

import pytest

import autsign.signs
import autsign.sweep
from autsign import (
    Multigraph,
    SweepParams,
    TheoremFailure,
    census_orientable,
    enumerate_automorphisms,
    enumerate_multigraphs,
    serialize_compact,
    sweep_verify,
    verify_graph,
)
from autsign.cli import main
from autsign.sweep import CHUNK_GRAPHS, _bounded_vectors


def graphs_for(**kwargs):
    return list(enumerate_multigraphs(SweepParams(**kwargs)))


def test_single_vertex_with_loops():
    graphs = graphs_for(max_vertices=1, max_edges=1, max_multiplicity=1, allow_loops=True)
    assert [serialize_compact(g) for g in graphs] == ["v 1", "v 1; e 0 0"]


def test_two_vertices_no_loops():
    graphs = graphs_for(max_vertices=2, max_edges=1)
    assert [serialize_compact(g) for g in graphs] == ["v 1", "v 2", "v 2; e 0 1"]


def test_connected_only_filters_edgeless_pair():
    graphs = graphs_for(max_vertices=2, max_edges=1, connected_only=True)
    assert [serialize_compact(g) for g in graphs] == ["v 1", "v 2; e 0 1"]


def test_enumeration_order_is_lexicographic_on_multiplicity_vector():
    graphs = graphs_for(max_vertices=2, max_edges=2, max_multiplicity=2, allow_loops=True)
    texts = [serialize_compact(g) for g in graphs]
    # slots for n=2 in row-major order: (0,0), (0,1), (1,1)
    assert texts == [
        "v 1",
        "v 1; e 0 0",
        "v 1; e 0 0; e 0 0",
        "v 2",
        "v 2; e 1 1",
        "v 2; e 1 1; e 1 1",
        "v 2; e 0 1",
        "v 2; e 0 1; e 1 1",
        "v 2; e 0 1; e 0 1",
        "v 2; e 0 0",
        "v 2; e 0 0; e 1 1",
        "v 2; e 0 0; e 0 1",
        "v 2; e 0 0; e 0 0",
    ]


@pytest.mark.parametrize(
    "caps",
    [
        dict(max_vertices=4, max_edges=4, max_multiplicity=2, allow_loops=True),
        dict(max_vertices=5, max_edges=4, max_multiplicity=1),
    ],
)
def test_connected_only_keeps_the_connected_members_in_order(caps):
    everything = graphs_for(**caps)
    kept = graphs_for(**caps, connected_only=True)
    assert kept == [g for g in everything if g.is_connected]
    assert 0 < len(kept) < len(everything)


@pytest.mark.parametrize(
    "length, cap, budget",
    [(0, 1, 0), (0, 3, 2), (1, 2, 0), (3, 1, 0), (3, 2, 2), (4, 3, 5), (5, 1, 3), (3, 3, 9)],
)
def test_bounded_vectors_are_the_lexicographic_filter_of_the_product(length, cap, budget):
    expected = [
        v for v in itertools.product(range(cap + 1), repeat=length) if sum(v) <= budget
    ]
    assert list(_bounded_vectors(length, cap, budget)) == expected


def test_enumeration_respects_caps():
    params = SweepParams(
        max_vertices=4, max_edges=3, max_multiplicity=2, allow_loops=True
    )
    seen = set()
    for g in enumerate_multigraphs(params):
        assert 1 <= g.vertex_count <= 4
        assert g.edge_count <= 3
        for (a, b), m in g.edge_multiplicities.items():
            assert m <= 2
        key = (g.vertex_count, g.endpoint)
        assert key not in seen  # no duplicates
        seen.add(key)
        Multigraph(g.vertex_count, g.endpoint)  # invariants hold


def test_enumeration_without_loops_has_no_loops():
    for g in graphs_for(max_vertices=3, max_edges=3, max_multiplicity=2):
        assert all(not g.is_loop(e) for e in range(g.edge_count))


def test_enumeration_deterministic():
    params = SweepParams(max_vertices=3, max_edges=3, max_multiplicity=2, allow_loops=True)
    first = list(enumerate_multigraphs(params))
    second = list(enumerate_multigraphs(params))
    assert first == second


def test_params_validation():
    with pytest.raises(ValueError):
        SweepParams(max_vertices=0, max_edges=1)
    with pytest.raises(ValueError):
        SweepParams(max_vertices=1, max_edges=-1)
    with pytest.raises(ValueError):
        SweepParams(max_vertices=1, max_edges=1, max_multiplicity=0)


def test_sweep_verify_smallest_space():
    report = sweep_verify(SweepParams(max_vertices=1, max_edges=0))
    assert report.graphs_checked == 1
    assert report.automorphisms_checked == 1
    assert report.odd_graph_count == 0
    assert report.ok


def test_sweep_verify_loop_space():
    report = sweep_verify(
        SweepParams(max_vertices=1, max_edges=1, max_multiplicity=1, allow_loops=True)
    )
    assert report.graphs_checked == 2
    assert report.automorphisms_checked == 3  # identity, plus loop id + reversal
    assert report.odd_graph_count == 1
    assert report.ok


def test_sweep_verify_small_space_no_failures():
    params = SweepParams(
        max_vertices=3, max_edges=3, max_multiplicity=2, allow_loops=True
    )
    report = sweep_verify(params)
    assert report.ok
    assert report.failures == []
    again = sweep_verify(params)
    payload = lambda r: dataclasses.asdict(r) | {"elapsed_seconds": None}
    assert payload(report) == payload(again)


def test_census_matches_expected_flags():
    params = SweepParams(
        max_vertices=3, max_edges=3, max_multiplicity=1, connected_only=True
    )
    flags = {serialize_compact(g): odd for g, odd in census_orientable(params)}
    assert flags["v 3; e 0 1; e 0 2; e 1 2"] is False  # triangle
    assert flags["v 3; e 0 1; e 1 2"] is True  # path3
    assert flags["v 2; e 0 1"] is False  # single edge
    assert flags["v 1"] is False


def test_census_flags_match_the_exhaustive_signs_on_the_connected_caps():
    params = SweepParams(
        max_vertices=5, max_edges=6, max_multiplicity=3, allow_loops=True,
        connected_only=True,
    )
    odd = 0
    for g, is_odd in census_orientable(params):
        assert is_odd is any(r.combinatorial == -1 for r in verify_graph(g)), g
        odd += is_odd
    assert odd == 9686


def test_census_order_matches_enumeration():
    params = SweepParams(max_vertices=2, max_edges=2, max_multiplicity=2, allow_loops=True)
    census_graphs = [g for g, _ in census_orientable(params)]
    assert census_graphs == list(enumerate_multigraphs(params))


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


def use_workers(monkeypatch, workers):
    monkeypatch.setattr(autsign.sweep, "_worker_count", lambda: workers)


def test_disagreement_reaches_the_report_with_its_permutations(monkeypatch, swaps_disagree):
    use_workers(monkeypatch, 2)
    report = sweep_verify(SweepParams(max_vertices=2, max_edges=2, max_multiplicity=2))
    assert report.graphs_checked == 4
    expected = []
    for text, g in [
        ("v 2", Multigraph(2, ())),
        ("v 2; e 0 1", Multigraph.from_edges(2, [(0, 1)])),
        ("v 2; e 0 1; e 0 1", Multigraph.from_edges(2, [(0, 1)] * 2)),
    ]:
        for a in enumerate_automorphisms(g):
            if a.vertex_perm == (1, 0):
                comb = autsign.combinatorial_sign(g, autsign.reference_orientation(g), a)
                expected.append(
                    TheoremFailure(text, a.vertex_perm, a.half_edge_perm, -comb, comb)
                )
    assert len(expected) == 4
    assert report.failures == expected
    assert not report.ok


def test_report_does_not_depend_on_the_worker_count(monkeypatch, swaps_disagree):
    params = SweepParams(max_vertices=4, max_edges=4, max_multiplicity=1, allow_loops=True)
    chunks = -(-len(list(enumerate_multigraphs(params))) // CHUNK_GRAPHS)
    assert chunks > 2 * 3
    reports = []
    for workers in (1, 2, 3):
        use_workers(monkeypatch, workers)
        reports.append(dataclasses.replace(sweep_verify(params), elapsed_seconds=0.0))
    assert len({f.graph for f in reports[0].failures}) > CHUNK_GRAPHS
    assert reports[0] == reports[1] == reports[2]


def _raise_lookup_error():
    raise LookupError("no signs for this graph")


def _raise_unpicklable_error():
    exc = LookupError("no signs for this graph")
    exc.callback = lambda: None
    raise exc


_FAILURES = [
    (_raise_lookup_error, LookupError, "^no signs for this graph$"),
    (_raise_unpicklable_error, RuntimeError, "^LookupError: no signs for this graph$"),
    (lambda: os._exit(3), RuntimeError, r"exit statuses \[.*\b3\b.*\]"),
]
_FAILURE_IDS = ["error", "unpicklable-error", "worker-exit"]


def _census_list(params):
    return list(census_orientable(params))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need os.fork")
@pytest.mark.parametrize(
    "per_graph, sweep, fail, error, message",
    [("verify_graph", sweep_verify, *f) for f in _FAILURES]
    + [("has_odd_automorphism", _census_list, *f) for f in _FAILURES],
    ids=_FAILURE_IDS + [f"census-{i}" for i in _FAILURE_IDS],
)
def test_a_worker_failure_reaches_the_caller_and_every_worker_is_reaped(
    monkeypatch, per_graph, sweep, fail, error, message
):
    params = SweepParams(max_vertices=4, max_edges=4, max_multiplicity=2, allow_loops=True)
    # In the fourth chunk, while the other workers are still busy.
    target = list(enumerate_multigraphs(params))[3 * CHUNK_GRAPHS + 5]
    real = getattr(autsign.sweep, per_graph)

    def fail_on_target(g):
        if g == target:
            fail()
        return real(g)

    monkeypatch.setattr(autsign.sweep, per_graph, fail_on_target)
    use_workers(monkeypatch, 3)
    with pytest.raises(error, match=message):
        sweep(params)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_census_output_does_not_depend_on_the_worker_count(monkeypatch, capsys):
    params = SweepParams(max_vertices=4, max_edges=4, max_multiplicity=1, allow_loops=True)
    graphs = len(list(enumerate_multigraphs(params)))
    assert -(-graphs // CHUNK_GRAPHS) > 2 * 3
    outputs = []
    for workers in (1, 2, 3):
        use_workers(monkeypatch, workers)
        assert main(["census", "--max-vertices", "4", "--max-edges", "4", "--loops"]) == 0
        outputs.append(capsys.readouterr().out)
    assert len(outputs[0].splitlines()) == graphs + 1
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need os.fork")
def test_closing_the_census_early_leaves_no_worker(monkeypatch):
    use_workers(monkeypatch, 2)
    params = SweepParams(max_vertices=4, max_edges=4, max_multiplicity=2, allow_loops=True)
    stream = census_orientable(params)
    g, is_odd = next(stream)
    stream.close()
    assert (serialize_compact(g), is_odd) == ("v 1", False)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
