import itertools
import math
import os
from collections import Counter
from fractions import Fraction

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
    parse_graph,
    serialize_compact,
    sweep_verify,
    verify_graph,
)
from autsign.cli import main
from autsign.sweep import CHUNK_GRAPHS, _bounded_vectors
from oracles import burnside_class_counts, scan_vertex_bijections


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
        assert all(a != b for a, b in g.edges())


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
    assert report == again


def test_census_matches_expected_flags():
    params = SweepParams(
        max_vertices=3, max_edges=3, max_multiplicity=1, connected_only=True
    )
    flags = dict(census_orientable(params))
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
    for g, (text, is_odd) in zip(enumerate_multigraphs(params), census_orientable(params),
                                 strict=True):
        assert text == serialize_compact(g)
        assert is_odd is any(r.combinatorial == -1 for r in verify_graph(g)), g
        odd += is_odd
    assert odd == 9686


def test_the_burnside_counts_match_the_labeled_classes_on_the_full_caps():
    # A class of n-vertex graphs holds n!/|Aut_V| labeled graphs, so the
    # labeled graphs of one class weigh |Aut_V|/n! and sum to 1. The signed
    # count is of loopless graphs; their flags come from the exhaustive signs
    # and |Aut_V| from the scan oracle, so nothing here reads the census rule.
    params = SweepParams(max_vertices=5, max_edges=6, max_multiplicity=3, allow_loops=True)
    classes, loopless, even = Counter(), Counter(), Counter()
    for g in enumerate_multigraphs(params):
        key = (g.vertex_count, g.edge_count)
        weight = Fraction(len(list(scan_vertex_bijections(g))), math.factorial(key[0]))
        classes[key] += weight
        if all(a != b for a, b in g.edge_multiplicities):
            loopless[key] += weight
            if all(r.combinatorial == 1 for r in verify_graph(g)):
                even[key] += weight
    for labeled, loops, signed, total in (
        (classes, True, False, 1439),
        (loopless, False, False, 205),
        (even, False, True, 104),
    ):
        assert sum(labeled.values()) == total
        for n in range(1, 6):
            counts = burnside_class_counts(n, 6, 3, loops, signed)
            assert counts == [labeled[n, e] for e in range(7)], (n, loops, signed)


def test_census_order_matches_enumeration():
    params = SweepParams(max_vertices=2, max_edges=2, max_multiplicity=2, allow_loops=True)
    census_texts = [text for text, _ in census_orientable(params)]
    assert census_texts == [serialize_compact(g) for g in enumerate_multigraphs(params)]


def test_disagreement_reaches_the_report_with_its_permutations(use_workers, swaps_disagree):
    use_workers(2)
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


def test_report_does_not_depend_on_the_worker_count(use_workers, swaps_disagree):
    params = SweepParams(max_vertices=4, max_edges=4, max_multiplicity=1, allow_loops=True)
    chunks = -(-len(list(enumerate_multigraphs(params))) // CHUNK_GRAPHS)
    assert chunks > 2 * 3
    reports = []
    for workers in (1, 2, 3):
        use_workers(workers)
        reports.append(sweep_verify(params))
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
    [("_verify_one", sweep_verify, *f) for f in _FAILURES]
    + [("has_odd_automorphism", _census_list, *f) for f in _FAILURES],
    ids=_FAILURE_IDS + [f"census-{i}" for i in _FAILURE_IDS],
)
def test_a_worker_failure_reaches_the_caller_and_every_worker_is_reaped(
    monkeypatch, use_workers, per_graph, sweep, fail, error, message
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
    use_workers(3)
    with pytest.raises(error, match=message):
        sweep(params)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need os.fork")
@pytest.mark.parametrize("fail, error, message", _FAILURES, ids=_FAILURE_IDS)
def test_a_compute_worker_failure_reaches_the_caller_and_every_worker_is_reaped(
    monkeypatch, use_workers, tmp_path, capsys, fail, error, message
):
    # one vertex with 4 loops: one block of 384 automorphisms, 6 chunks
    text = "v 1\n" + "e 0 0\n" * 4
    g = parse_graph(text)
    path = tmp_path / "graph.txt"
    path.write_text(text, encoding="utf-8")
    # In the fourth chunk, while the other workers are still busy.
    target = enumerate_automorphisms(g)[3 * CHUNK_GRAPHS + 5]
    real = autsign.signs.induced_signed_edge_perm

    def fail_on_target(g, o, a):
        if a == target:
            fail()
        return real(g, o, a)

    monkeypatch.setattr(autsign.signs, "induced_signed_edge_perm", fail_on_target)
    use_workers(3)
    with pytest.raises(error, match=message):
        main(["compute", str(path)])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # the first three chunks came out whole
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 + 3 * CHUNK_GRAPHS
    assert lines[-1].startswith(f"[{3 * CHUNK_GRAPHS - 1}] ")


def test_census_output_does_not_depend_on_the_worker_count(use_workers, capsys):
    params = SweepParams(max_vertices=4, max_edges=4, max_multiplicity=1, allow_loops=True)
    graphs = len(list(enumerate_multigraphs(params)))
    assert -(-graphs // CHUNK_GRAPHS) > 2 * 3
    outputs = []
    for workers in (1, 2, 3):
        use_workers(workers)
        assert main(["census", "--max-vertices", "4", "--max-edges", "4", "--loops"]) == 0
        outputs.append(capsys.readouterr().out)
    assert len(outputs[0].splitlines()) == graphs + 1
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need os.fork")
def test_the_census_parent_walks_no_vector(monkeypatch, use_workers):
    params = SweepParams(max_vertices=4, max_edges=4, max_multiplicity=2, allow_loops=True)
    graphs = len(list(enumerate_multigraphs(params)))
    parent = os.getpid()
    walked = 0
    real = autsign.sweep._kept_vectors

    def counted(params):
        nonlocal walked
        for item in real(params):
            walked += os.getpid() == parent
            yield item

    monkeypatch.setattr(autsign.sweep, "_kept_vectors", counted)
    use_workers(2)
    assert len(list(census_orientable(params))) == graphs
    assert walked == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need os.fork")
def test_closing_the_census_early_leaves_no_worker(use_workers):
    use_workers(2)
    params = SweepParams(max_vertices=4, max_edges=4, max_multiplicity=2, allow_loops=True)
    stream = census_orientable(params)
    first = next(stream)
    stream.close()
    assert first == ("v 1", False)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
