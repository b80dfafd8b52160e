import json
import subprocess
import sys

import pytest

import autsign.automorphism
import autsign.sweep
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
