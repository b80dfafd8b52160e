import gc
import math
import random
import sys
import tracemalloc
import weakref
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st
from networkx.algorithms.isomorphism import MultiGraphMatcher

import autsign.automorphism
from autsign import (
    Automorphism,
    GroupTooLargeError,
    Multigraph,
    SweepParams,
    cycle_notation,
    enumerate_automorphisms,
    enumerate_multigraphs,
    induced_signed_edge_perm,
    parse_graph,
    permutation_sign,
    reference_orientation,
    stream_automorphisms,
)
from autsign.automorphism import _vertex_bijections, automorphism_shares
from autsign.cli import main
from autsign.signs import comparisons
from conftest import GOLDENS, multigraphs, returns_within
from oracles import (
    adjacency_preserving_vertex_perms,
    brute_force_automorphisms,
    check_automorphism,
    compose,
    identity_automorphism,
    inversion_count_sign,
    invert,
    scan_vertex_bijections,
)


@pytest.mark.parametrize(
    "name, count", sorted((name, len(signs)) for name, (_, signs) in GOLDENS.items())
)
def test_group_sizes(name, count):
    g = parse_graph(GOLDENS[name].text)
    assert len(enumerate_automorphisms(g)) == count


def test_single_vertex_no_edges():
    auts = enumerate_automorphisms(parse_graph("v 1\n"))
    assert auts == [Automorphism((), (0,))]


def test_isolated_vertices_permute_freely():
    assert len(enumerate_automorphisms(parse_graph("v 5\n"))) == math.factorial(5)


def test_two_disjoint_triangles_group_size():
    g = parse_graph("v 6\ne 0 1\ne 1 2\ne 2 0\ne 3 4\ne 4 5\ne 5 3\n")
    assert len(enumerate_automorphisms(g)) == 72  # (6 x 6) x 2 component swap


def test_dropped_group_is_freed_without_the_cycle_collector():
    star = parse_graph("v 9\n" + "".join(f"e 0 {i}\n" for i in range(1, 9)))
    gc.disable()
    try:
        auts = enumerate_automorphisms(star)
        ref = weakref.ref(auts[-1])
        del auts
        assert ref() is None
    finally:
        gc.enable()


STAR_K17 = "v 8\n" + "".join(f"e 0 {i}\n" for i in range(1, 8))


# one vertex with 6 loops is a single block of 46080; the star K_{1,7} has 5040
# blocks of one
@pytest.mark.parametrize("text", ["v 1\n" + "e 0 0\n" * 6, STAR_K17])
def test_streaming_holds_a_handful_of_automorphisms(text):
    g = parse_graph(text)
    order, auts = stream_automorphisms(g)
    alive = weakref.WeakSet()
    most = seen = 0
    gc.disable()
    try:
        for r in comparisons(g, auts):
            alive.add(r.automorphism)
            most = max(most, len(alive))
            seen += 1
    finally:
        gc.enable()
    assert seen == order
    assert most <= 3


def test_stream_order_and_elements_on_a_cap_set():
    params = SweepParams(max_vertices=4, max_edges=5, max_multiplicity=2, allow_loops=True)
    graphs = 0
    for g in enumerate_multigraphs(params):
        order, auts = stream_automorphisms(g)
        auts = list(auts)
        assert order == len(auts)
        assert auts[0] == identity_automorphism(g)
        keys = [(a.vertex_perm, a.half_edge_perm) for a in auts]
        assert all(x < y for x, y in zip(keys, keys[1:]))
        assert auts == enumerate_automorphisms(g)
        graphs += 1
    assert graphs > 1000


@pytest.mark.parametrize(
    "text, order",
    [
        ("v 1\n" + "e 0 0\n" * 5, 3840),  # one block of 3840
        (STAR_K17, 5040),  # 5040 blocks of 1
        ("v 3\ne 0 1\ne 0 1\ne 0 1\ne 0 2\ne 0 2\ne 0 2\n", 72),  # 2 blocks of 36
    ],
)
def test_a_group_above_the_cap_fails_before_its_first_element(
    monkeypatch, capsys, tmp_path, text, order
):
    g = parse_graph(text)
    path = tmp_path / "graph.txt"
    path.write_text(text, encoding="utf-8")
    real = autsign.automorphism.Automorphism
    built = []
    monkeypatch.setattr(
        autsign.automorphism, "Automorphism", lambda *args: built.append(args) or real(*args)
    )
    monkeypatch.setattr(autsign.automorphism, "MAX_AUTOMORPHISMS", order - 1)
    with pytest.raises(GroupTooLargeError):
        stream_automorphisms(g)
    assert main(["compute", "--extended", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: the automorphism group has more than {order - 1}")
    assert built == []
    monkeypatch.setattr(autsign.automorphism, "MAX_AUTOMORPHISMS", order)
    got, auts = stream_automorphisms(g)
    assert got == order == sum(1 for _ in auts) == len(built)


LOOP4 = "v 1\n" + "e 0 0\n" * 4  # one block of 384
STAR_K15 = "v 6\n" + "".join(f"e 0 {i}\n" for i in range(1, 6))  # 120 blocks of 1
TWO_TRIPLE_EDGES = "v 4\n" + "e 0 1\n" * 3 + "e 2 3\n" * 3  # 8 blocks of 36


def assert_the_shares_deal_the_stream_out_in_chunks(g, chunk):
    order, stream = stream_automorphisms(g)
    stream = list(stream)
    got, share = automorphism_shares(g)
    assert got == order
    for shares in (1, 2, 3):
        for k in range(shares):
            def owns(i):
                return i // chunk % shares == k

            expected = [a for i, a in enumerate(stream) if owns(i)]
            assert list(share(owns)) == expected, (shares, k)


@pytest.mark.parametrize("text", [LOOP4, STAR_K15, TWO_TRIPLE_EDGES])
@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_the_shares_deal_the_stream_out_in_chunks(text, chunk):
    assert_the_shares_deal_the_stream_out_in_chunks(parse_graph(text), chunk)


@settings(max_examples=60, deadline=None)
@given(multigraphs(max_vertices=4, max_edges=6))
def test_the_shares_deal_the_stream_out_in_chunks_on_random_multigraphs(g):
    # with chunks of 1 every owned index of two or three shares starts a run
    for chunk in (1, 5, 64):
        assert_the_shares_deal_the_stream_out_in_chunks(g, chunk)


@pytest.mark.parametrize(
    "text, order, owned",
    [
        # the second share starts at ranks 64, 192 and 320 of the block
        (LOOP4, 384, 192),
        # elements 64..119
        (STAR_K15, 120, 56),
        # elements 64..127 and 192..255, across blocks 1-3 and 5-7
        (TWO_TRIPLE_EDGES, 288, 128),
    ],
    ids=["loop4", "star-k15", "two-triple-edges"],
)
def test_a_share_builds_no_lift_outside_its_chunks(monkeypatch, text, order, owned):
    got, share = automorphism_shares(parse_graph(text))
    assert got == order
    real = autsign.automorphism.Automorphism
    built = []
    monkeypatch.setattr(
        autsign.automorphism, "Automorphism", lambda *args: built.append(args) or real(*args)
    )
    # the second of two shares of 64-element chunks
    assert len(list(share(lambda i: i // 64 % 2 == 1))) == len(built) == owned


def test_a_share_walks_a_block_up_to_its_last_owned_lift(monkeypatch):
    # LOOP4 is one block of 384. Of two shares of 64-element chunks, the
    # first owns up to rank 319 and the second up to rank 383; each walks the
    # block once, from its start, and stops at its last owned lift.
    real = autsign.automorphism._lifts
    walked = []

    def counted(*args):
        walked.append(0)
        for hep in real(*args):
            walked[-1] += 1
            yield hep

    monkeypatch.setattr(autsign.automorphism, "_lifts", counted)
    _, share = automorphism_shares(parse_graph(LOOP4))
    for k, last in ((0, 319), (1, 383)):
        walked.clear()
        assert len(list(share(lambda i: i // 64 % 2 == k))) == 192
        assert walked == [last + 1], k


def _kernel_order(g):
    """|K|: the lifts of one vertex bijection, from the edge multiplicities."""
    block = 1
    for (a, b), m in g.edge_multiplicities.items():
        block *= math.factorial(m) * (2**m if a == b else 1)
    return block


@settings(max_examples=60, deadline=None)
@given(multigraphs(max_vertices=6, max_edges=8))
def test_group_order_matches_networkx_times_the_kernel(g):
    nxg = nx.MultiGraph()
    nxg.add_nodes_from(range(g.vertex_count))
    nxg.add_edges_from(g.edges())
    vertex_bijections = sum(1 for _ in MultiGraphMatcher(nxg, nxg).isomorphisms_iter())
    expected = vertex_bijections * _kernel_order(g)
    if expected > autsign.automorphism.MAX_AUTOMORPHISMS:
        with pytest.raises(GroupTooLargeError):
            stream_automorphisms(g)
        return
    order, auts = stream_automorphisms(g)
    assert order == expected
    if order <= 10_000:
        keys = [(a.vertex_perm, a.half_edge_perm) for a in auts]
        assert len(keys) == order
        assert all(x < y for x, y in zip(keys, keys[1:]))


# random edge lists interleave the parallel classes and list endpoints both ways
@given(multigraphs(max_vertices=4, max_edges=4))
def test_stream_is_the_sorted_brute_force_group(g):
    order, auts = stream_automorphisms(g)
    keys = [(a.vertex_perm, a.half_edge_perm) for a in auts]
    assert keys == sorted(brute_force_automorphisms(g))
    assert order == len(keys)


def test_the_stream_holds_no_block():
    # one vertex with 6 loops: one block of 46080 lifts
    g = parse_graph("v 1\n" + "e 0 0\n" * 6)
    tracemalloc.start()
    try:
        order, auts = stream_automorphisms(g)
        first, second = next(auts), next(auts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert order == 46080
    assert first.half_edge_perm == tuple(range(12))
    assert second.half_edge_perm == (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 10)
    assert peak < 100_000


def bijection_rows(g):
    """The rows of the bijection table of ``g``, one tuple each, with the
    group cap lifted, so that a graph with a large block is read too."""
    with mock.patch.object(autsign.automorphism, "MAX_AUTOMORPHISMS", math.inf):
        table, bijections, _ = _vertex_bijections(g)
    n = g.vertex_count
    return [tuple(table[b * n:(b + 1) * n]) for b in range(bijections)]


def test_the_search_finds_the_scan_oracles_bijections_on_the_full_caps():
    params = SweepParams(max_vertices=5, max_edges=6, max_multiplicity=3, allow_loops=True)
    graphs = 0
    for g in enumerate_multigraphs(params):
        assert bijection_rows(g) == list(scan_vertex_bijections(g)), g
        graphs += 1
    assert graphs == 60386


@settings(max_examples=200, deadline=None)
@given(multigraphs(max_vertices=7, max_edges=10))
def test_the_search_finds_the_scan_oracles_bijections(g):
    assert bijection_rows(g) == list(scan_vertex_bijections(g))


# The graphs of perfbench's compute-large-group workload: the star K_{1,8},
# one vertex with 6 loops, 7 parallel edges between 2 vertices.
LARGE_GROUPS = [(9, [(0, i) for i in range(1, 9)]), (1, [(0, 0)] * 6), (2, [(0, 1)] * 7)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_search_finds_the_scan_oracles_bijections_on_relabeled_large_groups(seed):
    # the benchmark's relabeling: vertices permuted, edges shuffled and each
    # edge's ends listed in random order
    rng = random.Random(seed)
    for n, edges in LARGE_GROUPS:
        perm = list(range(n))
        rng.shuffle(perm)
        edges = [
            (perm[a], perm[b]) if rng.getrandbits(1) else (perm[b], perm[a]) for a, b in edges
        ]
        rng.shuffle(edges)
        g = Multigraph.from_edges(n, edges)
        assert bijection_rows(g) == list(scan_vertex_bijections(g)), g


def test_the_star_bijections_are_held_one_byte_per_image():
    # K_{1,8}: 40320 bijections of 9 vertices, 363 KB as bytes; as one tuple
    # each they took 4.87 MB
    star = parse_graph("v 9\n" + "".join(f"e 0 {i}\n" for i in range(1, 9)))
    tracemalloc.start()
    try:
        order, _ = automorphism_shares(star)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert order == 40320
    assert peak < 1_000_000


def test_a_graph_longer_than_the_recursion_limit():
    # the 10th power of the 120-vertex path: only the reversal maps it to itself
    n = 120
    g = Multigraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, min(i + 11, n))])
    assert g.edge_count == 1145 > sys.getrecursionlimit()
    order, auts = stream_automorphisms(g)
    auts = list(auts)
    assert order == len(auts) == 2
    assert auts[1].vertex_perm == tuple(reversed(range(n)))


def test_identity_first_and_lexicographic_order(golden):
    for g in golden.values():
        auts = enumerate_automorphisms(g)
        assert auts[0] == identity_automorphism(g)
        keys = [(a.vertex_perm, a.half_edge_perm) for a in auts]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_triangle_group_frozen_order(golden):
    auts = enumerate_automorphisms(golden["triangle"])
    assert [(a.vertex_perm, a.half_edge_perm) for a in auts] == [
        ((0, 1, 2), (0, 1, 2, 3, 4, 5)),
        ((0, 2, 1), (5, 4, 3, 2, 1, 0)),
        ((1, 0, 2), (1, 0, 5, 4, 3, 2)),
        ((1, 2, 0), (2, 3, 4, 5, 0, 1)),
        ((2, 0, 1), (4, 5, 0, 1, 2, 3)),
        ((2, 1, 0), (3, 2, 1, 0, 5, 4)),
    ]


@pytest.mark.parametrize(
    "name",
    ["loop", "single_edge", "double_edge", "path3", "loop_plus_edge", "triangle"],
)
def test_agrees_with_half_edge_brute_force(name):
    g = parse_graph(GOLDENS[name].text)
    got = {(a.vertex_perm, a.half_edge_perm) for a in enumerate_automorphisms(g)}
    assert got == brute_force_automorphisms(g)


def test_two_loops_one_vertex_against_brute_force():
    g = parse_graph("v 1\ne 0 0\ne 0 0\n")
    auts = enumerate_automorphisms(g)
    assert len(auts) == 8  # 2! loop swaps x 2^2 half flips
    assert {(a.vertex_perm, a.half_edge_perm) for a in auts} == brute_force_automorphisms(g)


@pytest.mark.parametrize(
    "text",
    ["v 3\ne 0 1\ne 1 2\ne 2 0\n", "v 3\ne 0 1\ne 1 2\n",
     "v 4\ne 0 1\ne 1 2\ne 2 3\ne 3 0\n", "v 4\ne 0 1\ne 0 2\ne 0 3\n"],
)
def test_simple_graph_counts_match_vertex_brute_force(text):
    g = parse_graph(text)
    assert len(enumerate_automorphisms(g)) == len(adjacency_preserving_vertex_perms(g))


def test_every_enumerated_automorphism_is_valid(golden):
    for g in golden.values():
        for a in enumerate_automorphisms(g):
            check_automorphism(g, a)


def test_group_closure_inverse_identity(golden):
    for g in golden.values():
        auts = enumerate_automorphisms(g)
        members = set(auts)
        assert identity_automorphism(g) in members
        for a in auts:
            assert invert(a) in members
            for b in auts:
                assert compose(a, b) in members


def test_group_order_divides_ambient_bound(golden):
    for g in golden.values():
        ambient = (
            math.factorial(g.vertex_count)
            * 2 ** g.edge_count
            * math.factorial(g.edge_count)
        )
        assert ambient % len(enumerate_automorphisms(g)) == 0


def test_compose_identity_and_inverse_laws(golden):
    g = golden["triangle"]
    ident = identity_automorphism(g)
    for a in enumerate_automorphisms(g):
        assert compose(ident, a) == a
        assert compose(a, ident) == a
        assert compose(a, invert(a)) == ident
        assert compose(invert(a), a) == ident


def test_loop_reversal_is_an_involution(golden):
    auts = enumerate_automorphisms(golden["loop"])
    reversal = auts[1]
    assert reversal.half_edge_perm == (1, 0)
    assert compose(reversal, reversal) == identity_automorphism(golden["loop"])
    assert invert(reversal) == reversal


def test_two_reflections_compose_to_rotation(golden):
    auts = enumerate_automorphisms(golden["triangle"])
    by_vperm = {a.vertex_perm: a for a in auts}
    product = compose(by_vperm[(0, 2, 1)], by_vperm[(1, 0, 2)])
    assert product.vertex_perm == (2, 0, 1)


def test_compose_size_mismatch(golden):
    with pytest.raises(ValueError):
        compose(
            identity_automorphism(golden["loop"]),
            identity_automorphism(golden["triangle"]),
        )


def test_signed_edge_perm_identity(golden):
    for g in golden.values():
        o = reference_orientation(g)
        sep = induced_signed_edge_perm(g, o, identity_automorphism(g))
        assert sep.edge_perm == tuple(range(g.edge_count))
        assert all(s == 1 for s in sep.edge_sign)


def test_signed_edge_perm_loop_reversal(golden):
    g = golden["loop"]
    sep = induced_signed_edge_perm(
        g, reference_orientation(g), enumerate_automorphisms(g)[1]
    )
    assert sep.edge_perm == (0,)
    assert sep.edge_sign == (-1,)


def test_signed_edge_perm_triangle_reflection(golden):
    # the reflection fixing vertex 0 swaps the two edges at vertex 0 and, with
    # the canonical all-cyclic orientation, reverses every arrow
    g = golden["triangle"]
    reflection = enumerate_automorphisms(g)[1]
    assert reflection.vertex_perm == (0, 2, 1)
    sep = induced_signed_edge_perm(g, reference_orientation(g), reflection)
    assert sep.edge_perm == (2, 1, 0)
    assert sep.edge_sign == (-1, -1, -1)


def test_signed_edge_perm_composition_fusion(golden):
    for g in golden.values():
        o = reference_orientation(g)
        auts = enumerate_automorphisms(g)
        seps = {a: induced_signed_edge_perm(g, o, a) for a in auts}
        for a in auts:
            for b in auts:
                ab = seps[compose(a, b)]
                sa, sb = seps[a], seps[b]
                for e in range(g.edge_count):
                    assert ab.edge_perm[e] == sa.edge_perm[sb.edge_perm[e]]
                    assert ab.edge_sign[e] == sa.edge_sign[sb.edge_perm[e]] * sb.edge_sign[e]


def test_permutation_sign_basics():
    assert permutation_sign((0, 1, 2, 3, 4)) == 1
    assert permutation_sign((1, 0, 2)) == -1
    assert permutation_sign((1, 2, 0)) == 1
    assert permutation_sign(()) == 1


@given(st.permutations(list(range(6))), st.permutations(list(range(6))))
def test_permutation_sign_multiplicative(p, q):
    pq = tuple(p[x] for x in q)
    assert permutation_sign(pq) == permutation_sign(p) * permutation_sign(q)


@given(st.permutations(list(range(7))))
def test_permutation_sign_matches_inversion_count(p):
    assert permutation_sign(tuple(p)) == inversion_count_sign(tuple(p))


def test_cycle_notation():
    assert cycle_notation((0, 1, 2)) == "()"
    assert cycle_notation((1, 0, 2)) == "(0 1)"
    assert cycle_notation((1, 0, 3, 2)) == "(0 1)(2 3)"
    assert cycle_notation((2, 0, 1)) == "(0 2 1)"


@pytest.mark.parametrize("p", [(0, 0), (1, 1), (1, 0, 0), (0, 2, 2), (1, 2, 1, 3)])
def test_a_map_with_a_repeated_image_is_refused(p):
    # each of these walks into a cycle that never comes back to its start
    with returns_within(5):
        with pytest.raises(ValueError, match="not a permutation"):
            permutation_sign(p)
        with pytest.raises(ValueError, match="not a permutation"):
            cycle_notation(p)


@pytest.mark.parametrize("p", [(-1, 0), (1, -2), (0, 2), (2, 0, 1, 4)])
def test_a_map_with_an_image_out_of_range_is_refused(p):
    # a negative image would otherwise be read as an index from the end
    with pytest.raises(ValueError, match="not a permutation"):
        permutation_sign(p)
    with pytest.raises(ValueError, match="not a permutation"):
        cycle_notation(p)


def test_check_automorphism_rejects_bad_maps(golden):
    edge = golden["single_edge"]
    with pytest.raises(ValueError, match="not a permutation"):
        check_automorphism(edge, Automorphism((0, 0), (0, 1)))
    with pytest.raises(ValueError, match="incompatible"):
        check_automorphism(edge, Automorphism((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="size"):
        check_automorphism(edge, Automorphism((0, 1), (0,)))
    double = golden["double_edge"]
    with pytest.raises(ValueError, match="pairing"):
        check_automorphism(double, Automorphism((0, 2, 1, 3), (0, 1)))


@given(multigraphs(max_vertices=4, max_edges=4))
def test_enumeration_valid_and_deterministic(g):
    auts = enumerate_automorphisms(g)
    assert auts == enumerate_automorphisms(g)
    for a in auts:
        check_automorphism(g, a)
