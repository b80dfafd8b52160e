import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import autsign.automorphism
from autsign import (
    GroupTooLargeError,
    Multigraph,
    SweepParams,
    chain_determinant_check,
    combinatorial_sign,
    component_permutation_sign,
    det_sign,
    enumerate_automorphisms,
    enumerate_multigraphs,
    fundamental_cycles,
    has_odd_automorphism,
    homological_sign,
    induced_cycle_matrix,
    induced_signed_edge_perm,
    parse_graph,
    permutation_sign,
    random_orientation,
    reference_orientation,
    spanning_forest,
    stream_automorphisms,
    verify_graph,
)
from autsign.automorphism import _lifts
from conftest import GOLDENS, count_calls, multigraphs
from oracles import compose, invert

GOLDEN_SIGNS = sorted((name, signs) for name, (_, signs) in GOLDENS.items())


def setup_graph(name):
    g = parse_graph(GOLDENS[name].text)
    o = reference_orientation(g)
    basis = fundamental_cycles(g, o, spanning_forest(g))
    return g, o, basis


@pytest.mark.parametrize("name, expected", GOLDEN_SIGNS)
def test_combinatorial_sign_goldens(name, expected):
    g, o, _ = setup_graph(name)
    got = tuple(combinatorial_sign(g, o, a) for a in enumerate_automorphisms(g))
    assert got == expected


@pytest.mark.parametrize("name, expected", GOLDEN_SIGNS)
def test_homological_sign_goldens(name, expected):
    g, o, basis = setup_graph(name)
    got = tuple(homological_sign(g, o, basis, a) for a in enumerate_automorphisms(g))
    assert got == expected


def test_component_swap_bookkeeping():
    # swapping two disjoint edges: odd edge permutation, trivial cycle space,
    # odd component permutation; everything cancels to +1 on both routes
    g, o, basis = setup_graph("two_edges_disjoint")
    swap = next(
        a for a in enumerate_automorphisms(g) if a.vertex_perm == (2, 3, 0, 1)
    )
    assert component_permutation_sign(g, swap) == -1
    assert homological_sign(g, o, basis, swap) == 1
    assert combinatorial_sign(g, o, swap) == 1
    factors = chain_determinant_check(g, o, basis, swap)
    assert factors.component_sign == -1
    assert factors.consistent


def test_chain_determinant_factors_loop_reversal():
    g, o, basis = setup_graph("loop")
    reversal = enumerate_automorphisms(g)[1]
    factors = chain_determinant_check(g, o, basis, reversal)
    assert (
        factors.edge_space_det,
        factors.vertex_space_det,
        factors.cycle_space_det,
        factors.component_sign,
    ) == (-1, 1, -1, 1)
    assert factors.consistent


def test_chain_determinant_factors_triangle_reflection():
    g, o, basis = setup_graph("triangle")
    reflection = enumerate_automorphisms(g)[1]
    assert reflection.vertex_perm == (0, 2, 1)
    factors = chain_determinant_check(g, o, basis, reflection)
    assert (
        factors.edge_space_det,
        factors.vertex_space_det,
        factors.cycle_space_det,
    ) == (1, -1, -1)
    assert factors.consistent


def test_chain_determinant_identity_factors(golden):
    for g in golden.values():
        o = reference_orientation(g)
        basis = fundamental_cycles(g, o, spanning_forest(g))
        factors = chain_determinant_check(
            g, o, basis, enumerate_automorphisms(g)[0]
        )
        assert factors == type(factors)(1, 1, 1, 1)


@given(multigraphs(max_vertices=4, max_edges=5))
@settings(max_examples=60, deadline=None)
def test_chain_determinants_consistent_everywhere(g):
    o = reference_orientation(g)
    basis = fundamental_cycles(g, o, spanning_forest(g))
    for a in enumerate_automorphisms(g):
        assert chain_determinant_check(g, o, basis, a).consistent


def test_verify_graph_loop_records(golden):
    records = verify_graph(golden["loop"], diagnostics=True)
    assert [(r.homological, r.combinatorial, r.agree) for r in records] == [
        (1, 1, True),
        (-1, -1, True),
    ]
    assert golden["loop"].cycle_rank == 1
    assert all(r.factors is not None and r.factors.consistent for r in records)


def test_an_orientation_or_automorphism_of_another_graph_is_refused(golden):
    # The triangle and the 3-vertex path have 3 vertices each, but 3 and 2 edges.
    triangle, path = golden["triangle"], golden["path3"]
    for g, other in ((triangle, path), (path, triangle)):
        o = reference_orientation(g)
        basis = fundamental_cycles(g, o, spanning_forest(g))
        o_other = reference_orientation(other)
        with pytest.raises(ValueError, match="orientation does not belong"):
            fundamental_cycles(g, o_other, spanning_forest(g))
        for a, o_wrong in [(a, o_other) for a in enumerate_automorphisms(g)] + [
            (a, o) for a in enumerate_automorphisms(other)
        ]:
            with pytest.raises(ValueError, match="does not belong to the graph"):
                combinatorial_sign(g, o_wrong, a)
            with pytest.raises(ValueError, match="does not belong to the graph"):
                homological_sign(g, o_wrong, basis, a)
            with pytest.raises(ValueError, match="does not belong to the graph"):
                induced_cycle_matrix(g, o_wrong, basis, a)


def test_verify_graph_diagnostics_optional(golden):
    assert all(r.factors is None for r in verify_graph(golden["loop"]))


@given(multigraphs(max_vertices=4, max_edges=5))
@settings(max_examples=60, deadline=None)
def test_both_routes_agree(g):
    assert all(r.agree for r in verify_graph(g))


@given(multigraphs(max_vertices=4, max_edges=5))
@settings(max_examples=60, deadline=None)
def test_verify_graph_records_match_the_unfused_routes(g):
    o = reference_orientation(g)
    basis = fundamental_cycles(g, o, spanning_forest(g))
    records = verify_graph(g)
    assert [r.automorphism for r in records] == enumerate_automorphisms(g)
    for r in records:
        a = r.automorphism
        assert r.combinatorial == combinatorial_sign(g, o, a)
        assert r.homological == homological_sign(g, o, basis, a)
        sep = induced_signed_edge_perm(g, o, a)
        matrix = induced_cycle_matrix(g, o, basis, a)
        assert r.homological == (
            permutation_sign(sep.edge_perm)
            * det_sign(matrix, require_unimodular=True)
            * component_permutation_sign(g, a)
        )
        assert len(basis.head) == matrix.rows == g.cycle_rank


@pytest.mark.parametrize(
    "name, expected", [(name, -1 in signs) for name, signs in GOLDEN_SIGNS]
)
def test_has_odd_automorphism_goldens(name, expected):
    assert has_odd_automorphism(parse_graph(GOLDENS[name].text)) is expected


def test_the_loop_rule_matches_the_exhaustive_stream_on_the_full_caps():
    # A graph with a loop is odd without a search; on the others the census
    # reads each bijection's sign off its row, where the stream builds lifts.
    params = SweepParams(max_vertices=5, max_edges=6, max_multiplicity=3, allow_loops=True)
    graphs = looped = 0
    for g in enumerate_multigraphs(params):
        o = reference_orientation(g)
        exhaustive = any(combinatorial_sign(g, o, a) == -1 for a in stream_automorphisms(g)[1])
        assert has_odd_automorphism(g) is exhaustive, g
        graphs += 1
        looped += any(a == b for a, b in g.edges())
    assert (graphs, looped) == (60386, 52223)


def test_two_isolated_vertices_are_odd():
    # the bare swap has vertex sign -1 and no edges to compensate
    assert has_odd_automorphism(parse_graph("v 2\n")) is True


def test_path5_flip_is_even():
    g = parse_graph("v 5\ne 0 1\ne 1 2\ne 2 3\ne 3 4\n")
    assert has_odd_automorphism(g) is False


def test_the_census_takes_one_vertex_parity_per_block():
    # 6 automorphisms, all over the identity bijection, and none odd: the
    # census reads the one row of the bijection table and builds no lift
    g = parse_graph("v 3\ne 0 1\ne 0 1\ne 0 1\ne 1 2\n")
    calls = count_calls(
        (permutation_sign, induced_signed_edge_perm, _lifts), lambda: has_odd_automorphism(g)
    )
    assert calls == {"permutation_sign": 1, "induced_signed_edge_perm": 0, "_lifts": 0}


def reversed_multiplicity(g, vertex_perm):
    """r: the edge multiplicity summed over the vertex pairs a < b whose
    images are in reverse order."""
    return sum(m for (a, b), m in g.edge_multiplicities.items() if vertex_perm[a] > vertex_perm[b])


def test_every_loopless_sign_is_the_vertex_parity_times_the_reversed_multiplicity():
    # the rule the census reads: on a loopless graph an automorphism's sign
    # depends on its vertex bijection alone, whatever the orientation
    params = SweepParams(max_vertices=5, max_edges=6, max_multiplicity=3, allow_loops=True)
    rng = random.Random(20)
    graphs = automorphisms = 0
    for g in enumerate_multigraphs(params):
        if any(a == b for a, b in g.edges()):
            continue
        o = random_orientation(g, rng)
        for a in stream_automorphisms(g)[1]:
            vertex_parity = permutation_sign(a.vertex_perm)
            sign = math.prod(induced_signed_edge_perm(g, o, a).edge_sign, start=vertex_parity)
            assert sign == vertex_parity * (-1) ** reversed_multiplicity(g, a.vertex_perm), g
            automorphisms += 1
        graphs += 1
    assert (graphs, automorphisms) == (60386 - 52223, 74589)


def test_the_census_refuses_the_groups_the_stream_refuses(monkeypatch):
    # with the cap at 5, a triple edge puts one block over it, and the
    # 6 bijections of the star K_{1,3} put a set of bijections over it
    monkeypatch.setattr(autsign.automorphism, "MAX_AUTOMORPHISMS", 5)
    params = SweepParams(max_vertices=4, max_edges=4, max_multiplicity=3)
    refused = Counter()
    for g in enumerate_multigraphs(params):
        try:
            stream_automorphisms(g)
        except GroupTooLargeError:
            with pytest.raises(GroupTooLargeError):
                has_odd_automorphism(g)
            block = math.prod(map(math.factorial, g.edge_multiplicities.values()))
            refused["block" if block > 5 else "bijections"] += 1
        else:
            has_odd_automorphism(g)
    assert refused["block"] > 0 and refused["bijections"] > 0
    # a looped graph is odd by the loop rule, without a search
    assert has_odd_automorphism(parse_graph("v 1\n" + "e 0 0\n" * 3)) is True


def test_sign_homomorphism_property(golden):
    for g in golden.values():
        o = reference_orientation(g)
        basis = fundamental_cycles(g, o, spanning_forest(g))
        auts = enumerate_automorphisms(g)
        comb = {a: combinatorial_sign(g, o, a) for a in auts}
        hom = {a: homological_sign(g, o, basis, a) for a in auts}
        for a in auts:
            for b in auts:
                ab = compose(a, b)
                assert comb[ab] == comb[a] * comb[b]
                assert hom[ab] == hom[a] * hom[b]


def test_inverse_consistency(golden):
    for g in golden.values():
        o = reference_orientation(g)
        basis = fundamental_cycles(g, o, spanning_forest(g))
        for a in enumerate_automorphisms(g):
            assert combinatorial_sign(g, o, a) * combinatorial_sign(
                g, o, invert(a)
            ) == 1
            assert homological_sign(g, o, basis, a) * homological_sign(
                g, o, basis, invert(a)
            ) == 1


@given(multigraphs(max_vertices=4, max_edges=5), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_combinatorial_sign_orientation_independent(g, seed):
    reference = reference_orientation(g)
    rng = random.Random(seed)
    auts = enumerate_automorphisms(g)
    expected = [combinatorial_sign(g, reference, a) for a in auts]
    for _ in range(5):
        o = random_orientation(g, rng)
        assert [combinatorial_sign(g, o, a) for a in auts] == expected


@given(multigraphs(max_vertices=4, max_edges=5), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_homological_sign_orientation_independent(g, seed):
    # the cycle basis follows the orientation, but the determinant sign cannot
    o_ref = reference_orientation(g)
    basis_ref = fundamental_cycles(g, o_ref, spanning_forest(g))
    o_rand = random_orientation(g, random.Random(seed))
    basis_rand = fundamental_cycles(g, o_rand, spanning_forest(g))
    for a in enumerate_automorphisms(g):
        assert homological_sign(g, o_rand, basis_rand, a) == homological_sign(
            g, o_ref, basis_ref, a
        )


@given(multigraphs(max_vertices=4, max_edges=5))
@settings(max_examples=40, deadline=None)
def test_homological_sign_basis_independent(g):
    o = reference_orientation(g)
    auts = enumerate_automorphisms(g)
    reference_signs = None
    for root in range(g.vertex_count):
        basis = fundamental_cycles(g, o, spanning_forest(g, root=root))
        signs = [homological_sign(g, o, basis, a) for a in auts]
        if reference_signs is None:
            reference_signs = signs
        assert signs == reference_signs


@given(multigraphs(max_vertices=4, max_edges=5), st.data())
@settings(max_examples=60, deadline=None)
def test_relabeling_keeps_the_group_order_signs_and_census_flag(g, data):
    n, edges = g.vertex_count, list(g.edges())
    relabel = data.draw(st.permutations(range(n)))
    order = data.draw(st.permutations(range(len(edges))))
    swaps = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    moved = []
    for e, swap in zip(order, swaps):
        a, b = edges[e]
        moved.append((relabel[b], relabel[a]) if swap else (relabel[a], relabel[b]))
    h = Multigraph.from_edges(n, moved)
    assert stream_automorphisms(h)[0] == stream_automorphisms(g)[0]
    signs = lambda x: Counter(r.combinatorial for r in verify_graph(x))
    assert signs(h) == signs(g)
    assert has_odd_automorphism(h) is has_odd_automorphism(g)
