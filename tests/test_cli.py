import itertools
import json
import os
import subprocess
import sys

import pytest

import autsign.automorphism
import autsign.cli
import autsign.sweep
from autsign import (
    enumerate_automorphisms,
    induced_signed_edge_perm,
    parse_graph,
    permutation_sign,
    verify_graph,
)
from autsign.cli import main
from autsign.sweep import CHUNK_GRAPHS
from conftest import GOLDENS


@pytest.fixture
def graph_file(tmp_path):
    def write(text, name="graph.txt"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def test_compute_loop_golden_output(graph_file, capsys):
    rc = main(["compute", graph_file(GOLDENS["loop"].text)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == (
        "graph: v 1; e 0 0\n"
        "vertices: 1  edges: 1  components: 1  cycle_rank: 1\n"
        "automorphisms: 2\n"
        "[0] vperm=() v_sign=+1 e_sign=+1 eps=+ hom=+1 comb=+1 agree=yes\n"
        "[1] vperm=() v_sign=+1 e_sign=+1 eps=- hom=-1 comb=-1 agree=yes\n"
    )


@pytest.mark.parametrize(
    "name, flags, expected",
    [
        ("double_edge", ["--diagnostics"], (
            "graph: v 2; e 0 1; e 0 1\n"
            "vertices: 2  edges: 2  components: 1  cycle_rank: 1\n"
            "automorphisms: 4\n"
            "[0] vperm=() v_sign=+1 e_sign=+1 eps=++ hom=+1 comb=+1 agree=yes"
            " det_edges=+1 det_vertices=+1 det_cycles=+1 comp_sign=+1\n"
            "[1] vperm=() v_sign=+1 e_sign=-1 eps=++ hom=+1 comb=+1 agree=yes"
            " det_edges=-1 det_vertices=+1 det_cycles=-1 comp_sign=+1\n"
            "[2] vperm=(0 1) v_sign=-1 e_sign=+1 eps=-- hom=-1 comb=-1 agree=yes"
            " det_edges=+1 det_vertices=-1 det_cycles=-1 comp_sign=+1\n"
            "[3] vperm=(0 1) v_sign=-1 e_sign=-1 eps=-- hom=-1 comb=-1 agree=yes"
            " det_edges=-1 det_vertices=-1 det_cycles=+1 comp_sign=+1\n"
        )),
        ("two_edges_disjoint", ["--extended", "--diagnostics"], (
            "graph: v 4; e 0 1; e 2 3\n"
            "vertices: 4  edges: 2  components: 2  cycle_rank: 0\n"
            "automorphisms: 8\n"
            "[0] vperm=() v_sign=+1 e_sign=+1 eps=++ hom=+1 comb=+1 agree=yes"
            " det_edges=+1 det_vertices=+1 det_cycles=+1 comp_sign=+1\n"
            "[1] vperm=(2 3) v_sign=-1 e_sign=+1 eps=+- hom=+1 comb=+1 agree=yes"
            " det_edges=-1 det_vertices=-1 det_cycles=+1 comp_sign=+1\n"
            "[2] vperm=(0 1) v_sign=-1 e_sign=+1 eps=-+ hom=+1 comb=+1 agree=yes"
            " det_edges=-1 det_vertices=-1 det_cycles=+1 comp_sign=+1\n"
            "[3] vperm=(0 1)(2 3) v_sign=+1 e_sign=+1 eps=-- hom=+1 comb=+1 agree=yes"
            " det_edges=+1 det_vertices=+1 det_cycles=+1 comp_sign=+1\n"
            "[4] vperm=(0 2)(1 3) v_sign=+1 e_sign=-1 eps=++ hom=+1 comb=+1 agree=yes"
            " det_edges=-1 det_vertices=+1 det_cycles=+1 comp_sign=-1\n"
            "[5] vperm=(0 2 1 3) v_sign=-1 e_sign=-1 eps=+- hom=+1 comb=+1 agree=yes"
            " det_edges=+1 det_vertices=-1 det_cycles=+1 comp_sign=-1\n"
            "[6] vperm=(0 3 1 2) v_sign=-1 e_sign=-1 eps=-+ hom=+1 comb=+1 agree=yes"
            " det_edges=+1 det_vertices=-1 det_cycles=+1 comp_sign=-1\n"
            "[7] vperm=(0 3)(1 2) v_sign=+1 e_sign=-1 eps=-- hom=+1 comb=+1 agree=yes"
            " det_edges=-1 det_vertices=+1 det_cycles=+1 comp_sign=-1\n"
        )),
    ],
)
def test_compute_golden_output_with_diagnostics(graph_file, capsys, name, flags, expected):
    rc = main(["compute", graph_file(GOLDENS[name].text), *flags])
    assert rc == 0
    assert capsys.readouterr().out == expected


# Groups of several chunks: one block of 384; 120 blocks of one, the last
# chunk partial; and, disconnected, 8 blocks of 36 across chunk boundaries.
LOOP4 = "v 1\n" + "e 0 0\n" * 4
STAR_K15 = "v 6\n" + "".join(f"e 0 {i}\n" for i in range(1, 6))
TWO_TRIPLE_EDGES = "v 4\n" + "e 0 1\n" * 3 + "e 2 3\n" * 3


@pytest.mark.parametrize(
    "text, flags, order",
    [
        (LOOP4, [], 384),
        (STAR_K15, [], 120),
        (LOOP4, ["--diagnostics"], 384),
        (STAR_K15, ["--diagnostics"], 120),
        (TWO_TRIPLE_EDGES, ["--extended"], 288),
    ],
    ids=["loop4", "star-k15", "loop4-diagnostics", "star-k15-diagnostics", "extended"],
)
def test_compute_output_does_not_depend_on_the_worker_count(
    monkeypatch, graph_file, capsys, text, flags, order
):
    assert order > CHUNK_GRAPHS
    path = graph_file(text)
    outputs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(autsign.sweep, "_worker_count", lambda: workers)
        assert main(["compute", path, *flags]) == 0
        outputs.append(capsys.readouterr().out)
    lines = outputs[0].splitlines()
    assert lines[2] == f"automorphisms: {order}"
    assert [line.split()[0] for line in lines[3:]] == [f"[{i}]" for i in range(order)]
    assert outputs[0].count(" agree=yes") == order
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need os.fork")
def test_a_group_of_one_chunk_is_computed_without_a_fork(monkeypatch, graph_file, capsys):
    forks = 0
    real = os.fork

    def counted():
        nonlocal forks
        forks += 1
        return real()

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(autsign.sweep, "_worker_count", lambda: 3)
    for name, (text, _) in GOLDENS.items():
        assert main(["compute", "--extended", graph_file(text)]) == 0, name
    # the orders of the golden groups, none above one chunk
    assert capsys.readouterr().out.count(" agree=yes") == 2 + 2 + 4 + 6 + 2 + 2 + 2 + 8
    assert forks == 0
    # two chunks: two workers, not three
    assert main(["compute", graph_file(STAR_K15)]) == 0
    assert forks == 2


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


def test_each_automorphism_gets_one_signed_permutation_and_two_parities(graph_file, capsys):
    # The edge parity takes one permutation_sign call per automorphism and the
    # vertex parity one per vertex-bijection block. The component parity takes
    # one more per block on a disconnected graph, none on a connected one.
    # With diagnostics, the chain determinants reuse the automorphism's signed
    # permutation and the block's component parity.
    names = ("loop", "double_edge", "triangle", "path4", "loop_plus_edge", "two_edges_disjoint")
    for name in names:
        g = parse_graph(GOLDENS[name].text)
        auts = enumerate_automorphisms(g)
        order, blocks = len(auts), len({a.vertex_perm for a in auts})
        # one chunk, so compute runs in this process, where the profile sees it
        assert order <= CHUNK_GRAPHS, name
        parities = order + blocks * (1 if g.is_connected else 2)
        expected = {"induced_signed_edge_perm": order, "permutation_sign": parities}
        path = graph_file(GOLDENS[name].text)
        counted = (induced_signed_edge_perm, permutation_sign)
        plain = [] if g.is_connected else ["--extended"]
        for flags in (plain, [*plain, "--diagnostics"]):
            calls = count_calls(counted, lambda: main(["compute", path, *flags]))
            assert calls == expected, (name, flags)
            assert capsys.readouterr().out.count(" agree=yes") == order
        for diagnostics in (False, True):
            calls = count_calls(counted, lambda: verify_graph(g, diagnostics))
            assert calls == expected, (name, diagnostics)


def test_compute_diagnostics_columns(graph_file, capsys):
    rc = main(["compute", graph_file(GOLDENS["loop"].text), "--diagnostics"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "det_edges=-1 det_vertices=+1 det_cycles=-1 comp_sign=+1" in out


def test_compute_triangle_all_agree(graph_file, capsys):
    rc = main(["compute", graph_file(GOLDENS["triangle"].text)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("agree=yes") == 6
    assert "vperm=(1 2)" in out  # reflection fixing vertex 0, cycle notation


def test_compute_disconnected_requires_extended(graph_file, capsys):
    path = graph_file(GOLDENS["two_edges_disjoint"].text)
    rc = main(["compute", path])
    captured = capsys.readouterr()
    assert rc == 2
    assert "--extended" in captured.err
    rc = main(["compute", path, "--extended"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("agree=yes") == 8


def test_compute_parse_error_has_line_number(graph_file, capsys):
    rc = main(["compute", graph_file("v 2\ne 0 7\n")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "line 2" in captured.err


def test_compute_stops_at_the_group_cap_under_a_memory_limit(graph_file):
    # 12 isolated vertices have 12! automorphisms; without the cap, listing
    # them ran out of this address space with a MemoryError traceback.
    import resource

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "autsign", "compute", "--extended", graph_file("v 12\n")],
        capture_output=True,
        text=True,
        preexec_fn=limit_address_space,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: the automorphism group has more than")
    assert "Traceback" not in proc.stderr


def test_compute_lists_the_group_of_a_12000_vertex_path_in_seconds(graph_file):
    # In path order each vertex after the first draws its images from its
    # placed neighbour's image, so the search is linear; comparing each
    # candidate with every placed vertex ran for minutes.
    n = 12000
    text = f"v {n}\n" + "".join(f"e {i} {i + 1}\n" for i in range(n - 1))
    proc = subprocess.run(
        [sys.executable, "-m", "autsign", "compute", graph_file(text)],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[2] == "automorphisms: 2"
    assert len(lines) == 3 + 2


@pytest.mark.parametrize(
    "command, lines_before",
    [("verify", 0), ("census", CHUNK_GRAPHS)],
    ids=["verify-0", "census-64"],  # the command and the lines before the error
)
def test_sweeps_report_a_group_too_large(monkeypatch, capsys, command, lines_before):
    # A connected-only family, so that no refusal comes before the walk, and
    # loopless, since census settles a looped graph without its group: up to
    # 5 vertices and 4 edges of multiplicity up to 2. Its first graph above
    # the cap of 20 has 24 automorphisms, at index 98 in the second chunk,
    # and the output stops at the end of the first chunk.
    caps = ["--max-vertices", "5", "--max-edges", "4", "--max-multiplicity", "2",
            "--connected-only"]
    assert main(["census", *caps]) == 0
    first_chunk = capsys.readouterr().out.splitlines(keepends=True)[:CHUNK_GRAPHS]
    monkeypatch.setattr(autsign.automorphism, "MAX_AUTOMORPHISMS", 20)
    for workers in (1, 2):
        # with two workers the error is met in a worker and re-raised in the parent
        monkeypatch.setattr(autsign.sweep, "_worker_count", lambda: workers)
        rc = main([command, *caps])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == "".join(first_chunk[:lines_before])
        assert captured.err == (
            "error: the automorphism group has more than 20 elements, too many to list\n"
        )


@pytest.mark.parametrize("command", ["verify", "census"])
def test_sweeps_refuse_the_empty_graph_over_the_cap_before_any_fork(
    monkeypatch, capsys, command
):
    # Without --connected-only the empty graph on max_vertices vertices is in
    # the sweep; 10! is over the cap, and 5! = 120 over a cap patched to 100.
    forks = 0

    def no_fork():
        nonlocal forks
        forks += 1
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(autsign.sweep, "_worker_count", lambda: 2)
    cap = autsign.automorphism.MAX_AUTOMORPHISMS
    for vertices, max_automorphisms in (("10", cap), ("5", 100)):
        monkeypatch.setattr(autsign.automorphism, "MAX_AUTOMORPHISMS", max_automorphisms)
        rc = main([command, "--max-vertices", vertices, "--max-edges", "0"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: the automorphism group has more than {max_automorphisms} elements,"
            " too many to list\n"
        )
    assert forks == 0
    # in one process, the controls: connected-only, the same caps hold one
    # graph, a single vertex; and 4! = 24 is within a cap of 24
    monkeypatch.setattr(autsign.sweep, "_worker_count", lambda: 1)
    for caps, max_automorphisms, graphs in (
        (["10", "--connected-only"], cap, 1),
        (["4"], 24, 4),
    ):
        monkeypatch.setattr(autsign.automorphism, "MAX_AUTOMORPHISMS", max_automorphisms)
        assert main([command, "--max-edges", "0", "--max-vertices", *caps]) == 0
        out = capsys.readouterr().out
        assert f"graphs_checked: {graphs}\n" in out or f"# graphs: {graphs}\t" in out


def test_compute_refuses_a_cycle_space_too_large_under_a_memory_limit(graph_file):
    # A seeded simple graph with 300 vertices and 20000 edges, cycle rank
    # 19701: its dense cycle basis ran out of this address space with a
    # MemoryError traceback after the header was printed.
    import random
    import resource

    pairs = random.Random(1).sample(list(itertools.combinations(range(300), 2)), 20000)
    text = "v 300\n" + "".join(f"e {a} {b}\n" for a, b in pairs)

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "autsign", "compute", graph_file(text)],
        capture_output=True,
        text=True,
        preexec_fn=limit_address_space,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: the cycle space has rank 19701, more than 64, too large to hold\n"
    )


def test_census_settles_a_looped_graph_without_listing_its_group(monkeypatch, capsys):
    monkeypatch.setattr(autsign.sweep, "_worker_count", lambda: 2)
    monkeypatch.setattr(autsign.automorphism, "MAX_AUTOMORPHISMS", 1000)
    rc = main(["census", "--max-vertices", "1", "--max-edges", "5",
               "--max-multiplicity", "5", "--loops"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == "".join(
        ["v 1\teven\n"]
        + [f"v 1{'; e 0 0' * loops}\todd\n" for loops in range(1, 6)]
        + ["# graphs: 6\todd: 5\n"]
    )
    assert captured.err == ""


def test_compute_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "graph.txt"
    path.write_bytes(b"v 1\n\xff\n")
    rc = main(["compute", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("command", ["verify", "census"])
@pytest.mark.parametrize(
    "cap, value, message",
    [
        ("--max-vertices", "0", "max_vertices must be >= 1"),
        ("--max-edges", "-1", "max_edges must be >= 0"),
        ("--max-multiplicity", "0", "max_multiplicity must be >= 1"),
    ],
)
def test_sweeps_reject_a_cap_out_of_range(capsys, command, cap, value, message):
    caps = {"--max-vertices": "1", "--max-edges": "1", "--max-multiplicity": "1", cap: value}
    rc = main([command, *(token for pair in caps.items() for token in pair)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_compute_missing_file(capsys):
    rc = main(["compute", "/nonexistent/graph.txt"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_verify_text_report(capsys):
    rc = main(
        ["verify", "--max-vertices", "2", "--max-edges", "2",
         "--max-multiplicity", "2", "--loops"]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert "graphs_checked: 13\n" in captured.out
    assert "failures: 0\n" in captured.out
    assert "elapsed" in captured.err
    assert "elapsed" not in captured.out


def test_verify_json_report(capsys):
    rc = main(
        ["verify", "--max-vertices", "2", "--max-edges", "2",
         "--max-multiplicity", "2", "--loops", "--json"]
    )
    captured = capsys.readouterr()
    assert rc == 0
    doc = json.loads(captured.out)
    assert doc["ok"] is True
    assert doc["graphs_checked"] == 13
    assert doc["failures"] == []
    assert doc["params"]["max_multiplicity"] == 2
    assert "elapsed" not in doc


def test_verify_output_deterministic(capsys):
    argv = ["verify", "--max-vertices", "3", "--max-edges", "2", "--loops"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_census_output(capsys):
    rc = main(
        ["census", "--max-vertices", "1", "--max-edges", "1", "--loops"]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == ("v 1\teven\n" "v 1; e 0 0\todd\n" "# graphs: 2\todd: 1\n")


SELFTEST_STDOUT = (
    "ok   loop: round-trip\n"
    "ok   loop: automorphism count 2\n"
    "ok   loop: signs (1, -1)\n"
    "ok   loop: both routes agree\n"
    "ok   loop: chain determinants consistent\n"
    "ok   loop: root-independent\n"
    "ok   loop: orientation-independent\n"
    "ok   single-edge: round-trip\n"
    "ok   single-edge: automorphism count 2\n"
    "ok   single-edge: signs (1, 1)\n"
    "ok   single-edge: both routes agree\n"
    "ok   single-edge: chain determinants consistent\n"
    "ok   single-edge: root-independent\n"
    "ok   single-edge: orientation-independent\n"
    "ok   double-edge: round-trip\n"
    "ok   double-edge: automorphism count 4\n"
    "ok   double-edge: signs (1, 1, -1, -1)\n"
    "ok   double-edge: both routes agree\n"
    "ok   double-edge: chain determinants consistent\n"
    "ok   double-edge: root-independent\n"
    "ok   double-edge: orientation-independent\n"
    "ok   triangle: round-trip\n"
    "ok   triangle: automorphism count 6\n"
    "ok   triangle: signs (1, 1, 1, 1, 1, 1)\n"
    "ok   triangle: both routes agree\n"
    "ok   triangle: chain determinants consistent\n"
    "ok   triangle: root-independent\n"
    "ok   triangle: orientation-independent\n"
    "ok   path3: round-trip\n"
    "ok   path3: automorphism count 2\n"
    "ok   path3: signs (1, -1)\n"
    "ok   path3: both routes agree\n"
    "ok   path3: chain determinants consistent\n"
    "ok   path3: root-independent\n"
    "ok   path3: orientation-independent\n"
    "ok   determinant cross-check: all 2x2 over {-1,0,1}\n"
    "ok   determinant cross-check: random up to 5x5\n"
    "selftest: PASS (37/37)\n"
)


def test_selftest_passes(capsys):
    rc = main(["selftest"])
    assert rc == 0
    assert capsys.readouterr().out == SELFTEST_STDOUT


def test_the_selftest_goldens_are_rows_of_the_test_goldens():
    for name, text, signs in autsign.cli._GOLDENS:
        golden = GOLDENS[name.replace("-", "_")]
        assert parse_graph(text) == parse_graph(golden.text), name
        assert signs == golden.signs, name


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "autsign", "verify", "--max-vertices", "1",
         "--max-edges", "1", "--loops"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "failures: 0" in proc.stdout


def run_into_a_closed_pipe(argv, lines_read):
    """Run ``autsign *argv`` as in ``autsign ... | head -n <lines_read>``, with
    stdout block-buffered as it is by default, in a session of its own that
    its workers share. Return its exit status, the lines read and stderr;
    the session must be empty by then."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "autsign", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
        env=env,
    )
    lines = [proc.stdout.readline() for _ in range(lines_read)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    status = proc.wait(timeout=60)
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    return status, lines, err


@pytest.mark.parametrize(
    "caps, lines_read",
    [
        (("--max-vertices", "5", "--max-edges", "6", "--max-multiplicity", "3", "--loops"), 1),
        # all of it fits the stdout buffer, so only the final flush meets the pipe
        (("--max-vertices", "1", "--max-edges", "1"), 0),
    ],
    ids=["head-n-1", "closed-before-output"],
)
def test_census_into_a_closed_pipe_exits_1_and_leaves_no_worker(caps, lines_read):
    status, lines, err = run_into_a_closed_pipe(["census", *caps], lines_read)
    assert status == 1
    assert lines == [b"v 1\teven\n"][:lines_read]
    assert err == b""


def test_compute_into_a_closed_pipe_exits_1_and_leaves_no_worker(graph_file):
    # one vertex with 6 loops: 720 chunks, about 4 MB of lines
    path = graph_file("v 1\n" + "e 0 0\n" * 6)
    status, lines, err = run_into_a_closed_pipe(["compute", path], 1)
    assert status == 1
    assert lines == [b"graph: v 1; e 0 0; e 0 0; e 0 0; e 0 0; e 0 0; e 0 0\n"]
    assert err == b""


def test_importing_the_cli_loads_no_pickle_signal_or_process_pool():
    # Loaded only when a sweep forks; keeps set-up time and peak RSS flat.
    heavy = ("pickle", "signal", "multiprocessing", "concurrent.futures")
    code = (
        "import sys, autsign.cli\n"
        f"print(sorted(m for m in sys.modules for h in {heavy!r}"
        " if m == h or m.startswith(h + '.')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
