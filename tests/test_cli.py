import errno
import itertools
import json
import os
import random
import subprocess
import sys

import pytest

import autsign.automorphism
import autsign.cli
import autsign.sweep
from autsign import (
    SweepParams,
    enumerate_automorphisms,
    enumerate_multigraphs,
    induced_signed_edge_perm,
    parse_graph,
    permutation_sign,
    verify_graph,
)
from autsign.cli import main
from autsign.homology import _cycle_space_det
from autsign.multigraph import MAX_EDGES, MAX_GRAPH_BYTES, MAX_VERTICES
from autsign.sweep import CHUNK_GRAPHS, PIPE_BYTES
from conftest import GOLDENS, count_calls, returns_within


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
    use_workers, graph_file, capsys, text, flags, order
):
    assert order > CHUNK_GRAPHS
    path = graph_file(text)
    outputs = []
    for workers in (1, 2, 3):
        use_workers(workers)
        assert main(["compute", path, *flags]) == 0
        outputs.append(capsys.readouterr().out)
    lines = outputs[0].splitlines()
    assert lines[2] == f"automorphisms: {order}"
    assert [line.split()[0] for line in lines[3:]] == [f"[{i}]" for i in range(order)]
    assert outputs[0].count(" agree=yes") == order
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need os.fork")
@pytest.mark.parametrize("fallback", ["no-F_SETPIPE_SZ", "refused"])
def test_workers_keep_a_pipe_that_cannot_be_widened(
    monkeypatch, use_workers, graph_file, capsys, fallback
):
    fcntl = pytest.importorskip("fcntl")
    refused = []
    if fallback == "no-F_SETPIPE_SZ":
        monkeypatch.delattr(fcntl, "F_SETPIPE_SZ", raising=False)
    else:
        # as past Linux's pipe-user-pages-soft
        def refuse(*args):
            refused.append(args[1:])
            raise PermissionError(errno.EPERM, os.strerror(errno.EPERM))

        monkeypatch.setattr(fcntl, "fcntl", refuse)
    caps = ["--max-vertices", "4", "--max-edges", "4", "--loops"]
    runs = [
        ["compute", graph_file(LOOP4, "loop4.txt")],
        ["compute", graph_file(STAR_K15, "star.txt")],
        ["compute", "--diagnostics", graph_file(LOOP4, "loop4.txt")],
        ["compute", "--diagnostics", graph_file(STAR_K15, "star.txt")],
        ["verify", *caps],
        ["census", *caps],
    ]
    for argv in runs:
        outputs = []
        for workers in (1, 2, 3):
            use_workers(workers)
            assert main(argv) == 0, argv
            outputs.append(capsys.readouterr().out)
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        assert outputs[0] == outputs[1] == outputs[2], argv
    if fallback == "refused":
        # one request per forked worker: 2 + 3 per run, but 2 + 2 on the
        # star's two chunks
        assert refused == [(fcntl.F_SETPIPE_SZ, PIPE_BYTES)] * (4 * (2 + 3) + 2 * (2 + 2))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need os.fork")
def test_a_group_of_one_chunk_is_computed_without_a_fork(
    monkeypatch, use_workers, graph_file, capsys
):
    forks = 0
    real = os.fork

    def counted():
        nonlocal forks
        forks += 1
        return real()

    monkeypatch.setattr(os, "fork", counted)
    use_workers(3)
    for name, (text, _) in GOLDENS.items():
        assert main(["compute", "--extended", graph_file(text)]) == 0, name
    # the orders of the golden groups, none above one chunk
    assert capsys.readouterr().out.count(" agree=yes") == 2 + 2 + 4 + 6 + 2 + 2 + 2 + 8
    assert forks == 0
    # two chunks: two workers, not three
    assert main(["compute", graph_file(STAR_K15)]) == 0
    assert forks == 2


def test_each_automorphism_gets_one_signed_permutation_and_two_parities(graph_file, capsys):
    # The edge parity takes one permutation_sign call per automorphism and the
    # vertex parity one per vertex-bijection block. The component parity takes
    # one more per block on a disconnected graph, none on a connected one.
    # The cycle-space determinant is taken once per automorphism: with
    # diagnostics, the chain determinants reuse the automorphism's signed
    # permutation, its checked cycle-space determinant and the block's
    # component parity.
    names = ("loop", "double_edge", "triangle", "path4", "loop_plus_edge", "two_edges_disjoint")
    for name in names:
        g = parse_graph(GOLDENS[name].text)
        auts = enumerate_automorphisms(g)
        order, blocks = len(auts), len({a.vertex_perm for a in auts})
        # one chunk, so compute runs in this process, where the profile sees it
        assert order <= CHUNK_GRAPHS, name
        parities = order + blocks * (1 if g.is_connected else 2)
        expected = {
            "induced_signed_edge_perm": order,
            "permutation_sign": parities,
            "_cycle_space_det": order,
        }
        path = graph_file(GOLDENS[name].text)
        counted = (induced_signed_edge_perm, permutation_sign, _cycle_space_det)
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
def test_sweeps_report_a_group_too_large(
    monkeypatch, use_workers, capsys, command, lines_before
):
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
        use_workers(workers)
        rc = main([command, *caps])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == "".join(first_chunk[:lines_before])
        assert captured.err == (
            "error: the automorphism group has more than 20 elements, too many to list\n"
        )


@pytest.mark.parametrize("command", ["verify", "census"])
def test_sweeps_refuse_the_empty_graph_over_the_cap_before_any_fork(
    monkeypatch, use_workers, capsys, command
):
    # Without --connected-only the empty graph on max_vertices vertices is in
    # the sweep; 10! is over the cap, and 5! = 120 over a cap patched to 100.
    forks = 0

    def no_fork():
        nonlocal forks
        forks += 1
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    use_workers(2)
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
    use_workers(1)
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


def test_verify_streams_each_group_under_a_memory_limit():
    # The empty 9-vertex graph has 9! = 362880 automorphisms. Holding one
    # record per automorphism took 175 MB in a worker and ran out of this
    # address space with a MemoryError; streamed, the sweep takes 16 MB.
    import resource

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (128 << 20, 128 << 20))

    proc = subprocess.run(
        [sys.executable, "-m", "autsign", "verify", "--max-vertices", "9", "--max-edges", "0"],
        capture_output=True,
        text=True,
        preexec_fn=limit_address_space,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "graphs_checked: 9\n"
        "automorphisms_checked: 409113\n"
        "odd_graph_count: 8\n"
        "failures: 0\n"
    )


def compute_on_a_99000_vertex_path_with_64_chords_in_384_mib(graph_file, *options):
    """`compute` on a 99,000-vertex path with 64 chords from vertex 0 to the
    far end, under a 384 MiB address space: its one output line."""
    import resource

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (384 << 20, 384 << 20))

    n = 99_000
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1 - i) for i in range(64)]
    text = f"v {n}\n" + "".join(f"e {a} {b}\n" for a, b in edges)
    proc = subprocess.run(
        [sys.executable, "-m", "autsign", "compute", *options, graph_file(text)],
        capture_output=True,
        text=True,
        preexec_fn=limit_address_space,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1:3] == [
        f"vertices: {n}  edges: {n + 63}  components: 1  cycle_rank: 64",
        "automorphisms: 1",
    ]
    assert len(lines) == 4
    return lines[3]


def test_compute_on_a_99000_vertex_path_with_64_chords_runs_in_384_mib(graph_file):
    # The chords all leave vertex 0 for the far end, so every cycle runs
    # along almost the whole path. Held as (edge, coefficient) pairs, the
    # basis ran out of this address space with a MemoryError traceback after
    # the header; held as subtree intervals it takes O(V + E) ints.
    line = compute_on_a_99000_vertex_path_with_64_chords_in_384_mib(graph_file)
    assert line.endswith(" agree=yes")


def test_compute_diagnostics_on_a_99000_vertex_path_with_64_chords_runs_in_384_mib(graph_file):
    # Built as dense E x E and V x V matrices, the edge and vertex factors
    # ran out of this address space with a MemoryError traceback; held as
    # one entry per column they take O(V + E) ints.
    line = compute_on_a_99000_vertex_path_with_64_chords_in_384_mib(graph_file, "--diagnostics")
    assert line.endswith(
        " agree=yes det_edges=+1 det_vertices=+1 det_cycles=+1 comp_sign=+1"
    )


def run_compute_under_a_memory_limit(path):
    import resource

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "autsign", "compute", path],
        capture_output=True,
        text=True,
        preexec_fn=limit_address_space,
        timeout=60,
    )


# "v 1" and then the shortest comment lines, "#", up to the cap
AT_THE_FILE_CAP = "v 1\n" + "#\n" * ((MAX_GRAPH_BYTES - 4) // 2)


@pytest.mark.parametrize(
    "text", [AT_THE_FILE_CAP + "#", None], ids=["one-byte-over", "dev-zero"]
)
def test_compute_refuses_a_file_over_the_cap_before_reading_it_all(graph_file, text):
    # Read whole, /dev/zero ran out of this address space with a MemoryError
    # traceback, as did 200 MB of comment lines under 400 MB.
    if text is None:
        if not os.path.exists("/dev/zero"):
            pytest.skip("no /dev/zero")
        path = "/dev/zero"
    else:
        assert len(text.encode()) == MAX_GRAPH_BYTES + 1
        path = graph_file(text)
    proc = run_compute_under_a_memory_limit(path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: {path} is longer than the limit of {MAX_GRAPH_BYTES} bytes\n"
    )


def test_compute_parses_a_file_at_the_cap(graph_file):
    assert len(AT_THE_FILE_CAP.encode()) == MAX_GRAPH_BYTES
    proc = run_compute_under_a_memory_limit(graph_file(AT_THE_FILE_CAP))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:3] == [
        "graph: v 1",
        "vertices: 1  edges: 0  components: 1  cycle_rank: 0",
        "automorphisms: 1",
    ]


def test_the_largest_graph_fits_in_the_file_cap():
    # the highest vertex index in each of MAX_EDGES edges, one to a line
    largest = f"v {MAX_VERTICES}\n" + f"e {MAX_VERTICES - 1} {MAX_VERTICES - 1}\n" * MAX_EDGES
    assert len(largest.encode()) * 2 < MAX_GRAPH_BYTES
    assert parse_graph(largest).edge_count == MAX_EDGES


def test_census_settles_a_looped_graph_without_listing_its_group(
    monkeypatch, use_workers, capsys
):
    use_workers(2)
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


@pytest.mark.parametrize(
    "content, message",
    [
        (None, f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{{path}}'"),
        ("directory", f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{{path}}'"),
        (b"v 1\n\xff\n",
         "'utf-8' codec can't decode byte 0xff in position 4: invalid start byte"),
        ((AT_THE_FILE_CAP + "#").encode(),
         f"{{path}} is longer than the limit of {MAX_GRAPH_BYTES} bytes"),
        (b"v 2\ne 0 7\n", "line 2: vertex index out of range 0..1"),
        (GOLDENS["two_edges_disjoint"].text.encode(),
         "graph is disconnected; rerun with --extended to include"
         " the component-permutation sign"),
        # one vertex with 10 loops: a block of 10! * 2**10 lifts
        (b"v 1\n" + b"e 0 0\n" * 10,
         "the automorphism group has more than 500000 elements, too many to list"),
        (b"v 2\n" + b"e 0 1\n" * 66,
         "the cycle space has rank 65, more than 64, too large to hold"),
    ],
    ids=["missing-file", "directory", "not-utf8", "over-the-file-cap", "parse-error",
         "disconnected", "group-over-the-cap", "cycle-rank-over-the-cap"],
)
def test_compute_refuses_an_input_before_its_header(tmp_path, capsys, content, message):
    # Each refusal raises where it is found, and main alone reports it: one
    # line on stderr, exit status 2, no traceback and nothing on stdout.
    path = tmp_path / "graph.txt"
    if content == "directory":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    rc = main(["compute", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: {message.format(path=path)}\n"


def test_compute_refuses_a_search_over_the_step_budget(monkeypatch, graph_file, capsys):
    # A path on 25 vertices with shuffled labels: the index-order search
    # backtracks for seconds before it finds the two bijections, so a budget
    # of 10**5 steps refuses it, fast and before the header.
    labels = list(range(25))
    random.Random(1).shuffle(labels)
    text = "v 25\n" + "".join(f"e {a} {b}\n" for a, b in itertools.pairwise(labels))
    monkeypatch.setattr(autsign.automorphism, "MAX_SEARCH_STEPS", 10**5)
    with returns_within(10):
        rc = main(["compute", graph_file(text)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == (
        "error: the automorphism search took more than 100000 steps, too many to finish\n"
    )


def test_a_fork_that_fails_is_refused(monkeypatch, use_workers, capsys):
    # An OSError met after the input is read takes the refusal path too.
    def no_fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", no_fork)
    use_workers(2)
    rc = main(["census", "--max-vertices", "3", "--max-edges", "2"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: [Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}\n"


def test_a_consistency_check_failing_in_a_worker_exits_2(monkeypatch, use_workers, capsys):
    # Every ValueError takes the refusal path, including one of the program's
    # own checks: here permutation_sign's, raised in the second chunk.
    params = SweepParams(max_vertices=5, max_edges=4, max_multiplicity=2,
                         connected_only=True)
    target = list(enumerate_multigraphs(params))[CHUNK_GRAPHS + 5]
    real = autsign.sweep._verify_one

    def check_on_target(g):
        if g == target:
            permutation_sign((0, 0))
        return real(g)

    monkeypatch.setattr(autsign.sweep, "_verify_one", check_on_target)
    use_workers(2)
    rc = main(["verify", "--max-vertices", "5", "--max-edges", "4",
               "--max-multiplicity", "2", "--connected-only"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == (
        "error: not a permutation: the image 0 repeats or is out of range\n"
    )


def test_a_full_disk_under_stdout_is_refused():
    # With stdout block-buffered, as it is by default, the failed flush
    # leaves the selftest's lines in the buffer; Python's own flush at exit
    # must not fail on them again and add a second report.
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "autsign", "selftest"],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    assert proc.returncode == 2
    assert proc.stderr == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


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
    heavy = ("pickle", "signal", "fcntl", "multiprocessing", "concurrent.futures")
    code = (
        "import sys, autsign.cli\n"
        f"print(sorted(m for m in sys.modules for h in {heavy!r}"
        " if m == h or m.startswith(h + '.')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
