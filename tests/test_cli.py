import json
import os
import subprocess
import sys

import pytest

import autsign.automorphism
import autsign.sweep
from autsign import (
    enumerate_automorphisms,
    induced_signed_edge_perm,
    parse_graph,
    permutation_sign,
    verify_graph,
)
from autsign.cli import main
from conftest import GOLDEN_TEXTS


@pytest.fixture
def graph_file(tmp_path):
    def write(text, name="graph.txt"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def test_compute_loop_golden_output(graph_file, capsys):
    rc = main(["compute", graph_file(GOLDEN_TEXTS["loop"])])
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
    rc = main(["compute", graph_file(GOLDEN_TEXTS[name]), *flags])
    assert rc == 0
    assert capsys.readouterr().out == expected


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
    # vertex parity one per vertex-bijection block. On connected graphs the
    # component parity takes none.
    for name in ("loop", "double_edge", "triangle", "path4", "loop_plus_edge"):
        g = parse_graph(GOLDEN_TEXTS[name])
        auts = enumerate_automorphisms(g)
        order, blocks = len(auts), len({a.vertex_perm for a in auts})
        expected = {"induced_signed_edge_perm": order, "permutation_sign": order + blocks}
        path = graph_file(GOLDEN_TEXTS[name])
        counted = (induced_signed_edge_perm, permutation_sign)
        assert count_calls(counted, lambda: main(["compute", path])) == expected, name
        assert count_calls(counted, lambda: verify_graph(g)) == expected, name
        assert capsys.readouterr().out.count(" agree=yes") == order


def test_compute_diagnostics_columns(graph_file, capsys):
    rc = main(["compute", graph_file(GOLDEN_TEXTS["loop"]), "--diagnostics"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "det_edges=-1 det_vertices=+1 det_cycles=-1 comp_sign=+1" in out


def test_compute_triangle_all_agree(graph_file, capsys):
    rc = main(["compute", graph_file(GOLDEN_TEXTS["triangle"])])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("agree=yes") == 6
    assert "vperm=(1 2)" in out  # reflection fixing vertex 0, cycle notation


def test_compute_disconnected_requires_extended(graph_file, capsys):
    path = graph_file(GOLDEN_TEXTS["two_edges_disjoint"])
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


@pytest.mark.parametrize("command, lines_before", [("verify", 0), ("census", 5)])
def test_sweeps_report_a_group_too_large(monkeypatch, capsys, command, lines_before):
    # verify meets the error in a worker and re-raises it in the parent
    monkeypatch.setattr(autsign.sweep, "_worker_count", lambda: 2)
    monkeypatch.setattr(autsign.automorphism, "MAX_AUTOMORPHISMS", 1000)
    # one vertex with 5 loops has 5! * 2**5 = 3840 automorphisms
    rc = main([command, "--max-vertices", "1", "--max-edges", "5",
               "--max-multiplicity", "5", "--loops"])
    captured = capsys.readouterr()
    assert rc == 2
    assert len(captured.out.splitlines()) == lines_before
    assert captured.err == "error: the automorphism group has more than 1000 elements, too many to list\n"


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


def test_selftest_passes(capsys):
    rc = main(["selftest"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "selftest: PASS" in out
    assert "FAIL" not in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "autsign", "verify", "--max-vertices", "1",
         "--max-edges", "1", "--loops"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "failures: 0" in proc.stdout


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
    # As in `autsign census ... | head -n 1`, with stdout block-buffered as
    # it is by default; the workers share the new session's process group.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "autsign", "census", *caps],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
        env=env,
    )
    lines = [proc.stdout.readline() for _ in range(lines_read)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert lines == [b"v 1\teven\n"][:lines_read]
    assert err == b""
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


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
