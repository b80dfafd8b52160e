import itertools

import pytest
import sympy
from hypothesis import given, strategies as st

from autsign import (
    IntMatrix,
    UnimodularityError,
    det_bareiss,
    det_cofactor,
    det_sign,
    enumerate_automorphisms,
    fundamental_cycles,
    induced_cycle_matrix,
    parse_graph,
    reference_orientation,
    spanning_forest,
)
from conftest import GOLDEN_TEXTS, multigraphs
from oracles import (
    boundary_matrix,
    compose,
    det_permutation_sum,
    identity_automorphism,
    identity_matrix,
    matmul,
)


def basis_of(g):
    o = reference_orientation(g)
    return o, fundamental_cycles(g, o, spanning_forest(g))


def test_boundary_loop_is_zero():
    g = parse_graph(GOLDEN_TEXTS["loop"])
    m = boundary_matrix(g, reference_orientation(g))
    assert (m.rows, m.cols) == (1, 1)
    assert m.entries == (0,)


def test_boundary_single_edge():
    g = parse_graph(GOLDEN_TEXTS["single_edge"])
    m = boundary_matrix(g, reference_orientation(g))
    assert m.entry(0, 0) == -1  # tail vertex
    assert m.entry(1, 0) == 1  # head vertex


def test_boundary_triangle_columns():
    g = parse_graph(GOLDEN_TEXTS["triangle"])
    m = boundary_matrix(g, reference_orientation(g))
    for e in range(3):
        column = [m.entry(v, e) for v in range(3)]
        assert sorted(column) == [-1, 0, 1]
        assert sum(column) == 0


def test_cycle_goldens():
    g = parse_graph(GOLDEN_TEXTS["loop"])
    _, basis = basis_of(g)
    assert basis.non_tree_edges == (0,)
    assert basis.cycles == ((1,),)

    g = parse_graph(GOLDEN_TEXTS["triangle"])
    _, basis = basis_of(g)
    assert basis.non_tree_edges == (2,)
    assert basis.cycles == ((1, 1, 1),)

    g = parse_graph(GOLDEN_TEXTS["double_edge"])
    _, basis = basis_of(g)
    assert basis.non_tree_edges == (1,)
    assert basis.cycles == ((-1, 1),)


@given(multigraphs())
def test_cycles_lie_in_boundary_kernel(g):
    o = reference_orientation(g)
    basis = fundamental_cycles(g, o, spanning_forest(g))
    boundary = boundary_matrix(g, o)
    for z in basis.cycles:
        column = IntMatrix(g.edge_count, 1, z)
        image = matmul(boundary, column)
        assert all(x == 0 for x in image.entries)


@given(multigraphs(), st.integers(0, 2**32 - 1))
def test_cycles_in_kernel_for_any_orientation(g, seed):
    import random

    from autsign import random_orientation

    o = random_orientation(g, random.Random(seed))
    basis = fundamental_cycles(g, o, spanning_forest(g))
    boundary = boundary_matrix(g, o)
    for z in basis.cycles:
        image = matmul(boundary, IntMatrix(g.edge_count, 1, z))
        assert all(x == 0 for x in image.entries)


@given(multigraphs())
def test_cycle_count_is_first_betti_number(g):
    _, basis = basis_of(g)
    expected = g.edge_count - g.vertex_count + g.components.component_count
    assert len(basis.cycles) == expected
    assert g.cycle_rank == expected


@given(multigraphs())
def test_cycle_coefficient_structure(g):
    _, basis = basis_of(g)
    non_tree = set(basis.non_tree_edges)
    for i, z in enumerate(basis.cycles):
        assert z[basis.non_tree_edges[i]] == 1
        for e, c in enumerate(z):
            if e in non_tree and e != basis.non_tree_edges[i]:
                assert c == 0
            assert c in (-1, 0, 1)


def test_induced_matrix_identity(golden):
    for g in golden.values():
        o, basis = basis_of(g)
        m = induced_cycle_matrix(g, o, basis, identity_automorphism(g))
        assert m == identity_matrix(len(basis.cycles))


def test_induced_matrix_loop_reversal(golden):
    g = golden["loop"]
    o, basis = basis_of(g)
    reversal = enumerate_automorphisms(g)[1]
    assert induced_cycle_matrix(g, o, basis, reversal).entries == (-1,)


def test_induced_matrix_triangle_rotation_and_reflection(golden):
    g = golden["triangle"]
    o, basis = basis_of(g)
    by_vperm = {a.vertex_perm: a for a in enumerate_automorphisms(g)}
    assert induced_cycle_matrix(g, o, basis, by_vperm[(1, 2, 0)]).entries == (1,)
    assert induced_cycle_matrix(g, o, basis, by_vperm[(0, 2, 1)]).entries == (-1,)


def test_induced_matrix_functorial(golden):
    for g in golden.values():
        o, basis = basis_of(g)
        auts = enumerate_automorphisms(g)
        mats = {a: induced_cycle_matrix(g, o, basis, a) for a in auts}
        for a in auts:
            for b in auts:
                assert mats[compose(a, b)] == matmul(mats[a], mats[b])


def test_induced_matrix_basis_mismatch(golden):
    o, basis = basis_of(golden["triangle"])
    other = golden["double_edge"]
    with pytest.raises(ValueError):
        induced_cycle_matrix(
            other, reference_orientation(other), basis, identity_automorphism(other)
        )


def test_det_basics():
    assert det_bareiss(identity_matrix(3)) == 1
    assert det_bareiss(IntMatrix(1, 1, (-1,))) == -1
    assert det_bareiss(IntMatrix(2, 2, (0, 1, 1, 0))) == -1
    assert det_bareiss(IntMatrix(0, 0, ())) == 1
    assert det_sign(IntMatrix(0, 0, ())) == 1
    assert det_sign(IntMatrix(2, 2, (1, 2, 2, 4))) == 0


def test_det_requires_square():
    with pytest.raises(ValueError):
        det_bareiss(IntMatrix(1, 2, (1, 2)))
    with pytest.raises(ValueError):
        det_cofactor(IntMatrix(2, 1, (1, 2)))


def test_det_sign_unimodularity_gate():
    assert det_sign(IntMatrix(1, 1, (-1,)), require_unimodular=True) == -1
    with pytest.raises(UnimodularityError):
        det_sign(IntMatrix(1, 1, (2,)), require_unimodular=True)
    with pytest.raises(UnimodularityError):
        det_sign(IntMatrix(1, 1, (0,)), require_unimodular=True)


def test_det_exhaustive_2x2_cross_check():
    for vals in itertools.product((-1, 0, 1), repeat=4):
        m = IntMatrix(2, 2, vals)
        d = det_bareiss(m)
        assert d == det_cofactor(m) == det_permutation_sum(m)


@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.integers(-3, 3), min_size=n * n, max_size=n * n))))
def test_det_random_cross_check(case):
    n, vals = case
    m = IntMatrix(n, n, tuple(vals))
    d = det_bareiss(m)
    assert d == det_cofactor(m)
    assert d == det_permutation_sum(m)


@given(st.integers(0, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-50, 50), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_det_bareiss_matches_sympy(rows):
    assert det_bareiss(IntMatrix.from_rows(rows)) == sympy.Matrix(rows).det()


def test_det_bareiss_matches_sympy_on_every_golden_cycle_matrix(golden):
    matrices = 0
    for g in golden.values():
        o, basis = basis_of(g)
        for a in enumerate_automorphisms(g):
            m = induced_cycle_matrix(g, o, basis, a)
            assert det_bareiss(m) == sympy.Matrix(m.to_rows()).det()
            matrices += 1
    assert matrices == 28


@given(
    st.lists(st.integers(-2, 2), min_size=9, max_size=9),
    st.lists(st.integers(-2, 2), min_size=9, max_size=9),
)
def test_det_multiplicative(a_vals, b_vals):
    a = IntMatrix(3, 3, tuple(a_vals))
    b = IntMatrix(3, 3, tuple(b_vals))
    assert det_bareiss(matmul(a, b)) == det_bareiss(a) * det_bareiss(b)


def test_det_transpose_invariant():
    m = IntMatrix(3, 3, (2, -1, 0, 3, 5, 1, -2, 0, 4))
    t = IntMatrix(3, 3, tuple(m.entry(j, i) for i in range(3) for j in range(3)))
    assert det_bareiss(m) == det_bareiss(t)


def test_int_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        matmul(identity_matrix(2), IntMatrix(3, 3, tuple(range(9))))


def test_unimodularity_holds_on_small_family(golden):
    for g in golden.values():
        o, basis = basis_of(g)
        for a in enumerate_automorphisms(g):
            assert abs(det_bareiss(induced_cycle_matrix(g, o, basis, a))) == 1
