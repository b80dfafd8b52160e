import hashlib
import itertools
import math
import random
import time
import tracemalloc
from collections import Counter

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import autsign.homology
from autsign import (
    Automorphism,
    CycleSpaceTooLargeError,
    IntMatrix,
    Multigraph,
    SignedEdgePermutation,
    SpanningForest,
    SweepParams,
    UnimodularityError,
    chain_determinant_check,
    det_bareiss,
    det_cofactor,
    det_sign,
    enumerate_automorphisms,
    enumerate_multigraphs,
    fundamental_cycles,
    homological_sign,
    induced_cycle_matrix,
    induced_signed_edge_perm,
    parse_graph,
    random_orientation,
    reference_orientation,
    spanning_forest,
    stream_automorphisms,
)
from autsign.cli import main
from autsign.homology import (
    _bareiss,
    _cycle_matrix_rows,
    _cycle_space_det,
    _expanded_det,
    cycle_space_det_sign,
)
from conftest import GOLDENS, multigraphs, returns_within
from oracles import (
    boundary_matrix,
    climbed_cycles,
    compose,
    det_permutation_sum,
    identity_automorphism,
    identity_matrix,
    matmul,
)


def basis_of(g):
    o = reference_orientation(g)
    return o, fundamental_cycles(g, o, spanning_forest(g))


def non_tree_edges(basis):
    """The edges that have a cycle in ``basis``, in ascending order."""
    return tuple(e for e, i in enumerate(basis.row_of_edge) if i >= 0)


def cycles_of(basis):
    """Each cycle of ``basis`` as its ``(edge, coefficient)`` pairs."""
    return tuple(basis.cycle(i) for i in range(len(basis.head)))


def dense_cycles(basis):
    """Each cycle of ``basis`` as a dense edge-coefficient vector."""
    vectors = []
    for cycle in cycles_of(basis):
        z = [0] * len(basis.row_of_edge)
        for e, c in cycle:
            z[e] = c
        vectors.append(tuple(z))
    return tuple(vectors)


def test_boundary_loop_is_zero():
    g = parse_graph(GOLDENS["loop"].text)
    m = boundary_matrix(g, reference_orientation(g))
    assert (m.rows, m.cols) == (1, 1)
    assert m.entries == (0,)


def test_boundary_single_edge():
    g = parse_graph(GOLDENS["single_edge"].text)
    m = boundary_matrix(g, reference_orientation(g))
    assert m.entry(0, 0) == -1  # tail vertex
    assert m.entry(1, 0) == 1  # head vertex


def test_boundary_triangle_columns():
    g = parse_graph(GOLDENS["triangle"].text)
    m = boundary_matrix(g, reference_orientation(g))
    for e in range(3):
        column = [m.entry(v, e) for v in range(3)]
        assert sorted(column) == [-1, 0, 1]
        assert sum(column) == 0


def test_cycle_goldens():
    g = parse_graph(GOLDENS["loop"].text)
    _, basis = basis_of(g)
    assert basis.row_of_edge == (0,)
    assert cycles_of(basis) == (((0, 1),),)
    assert dense_cycles(basis) == ((1,),)

    g = parse_graph(GOLDENS["triangle"].text)
    _, basis = basis_of(g)
    assert basis.row_of_edge == (-1, -1, 0)
    assert cycles_of(basis) == (((0, 1), (1, 1), (2, 1)),)
    assert dense_cycles(basis) == ((1, 1, 1),)

    g = parse_graph(GOLDENS["double_edge"].text)
    _, basis = basis_of(g)
    assert basis.row_of_edge == (-1, 0)
    assert cycles_of(basis) == (((0, -1), (1, 1)),)
    assert dense_cycles(basis) == ((-1, 1),)


@given(multigraphs())
def test_cycles_lie_in_boundary_kernel(g):
    o = reference_orientation(g)
    basis = fundamental_cycles(g, o, spanning_forest(g))
    boundary = boundary_matrix(g, o)
    for z in dense_cycles(basis):
        column = IntMatrix(g.edge_count, 1, z)
        image = matmul(boundary, column)
        assert all(x == 0 for x in image.entries)


@given(multigraphs(), st.integers(0, 2**32 - 1))
def test_cycles_in_kernel_for_any_orientation(g, seed):
    o = random_orientation(g, random.Random(seed))
    basis = fundamental_cycles(g, o, spanning_forest(g))
    boundary = boundary_matrix(g, o)
    for z in dense_cycles(basis):
        image = matmul(boundary, IntMatrix(g.edge_count, 1, z))
        assert all(x == 0 for x in image.entries)


@given(multigraphs())
def test_cycle_count_is_first_betti_number(g):
    _, basis = basis_of(g)
    expected = g.edge_count - g.vertex_count + g.components.component_count
    assert len(cycles_of(basis)) == expected
    assert g.cycle_rank == expected


@given(multigraphs())
def test_cycle_coefficient_structure(g):
    _, basis = basis_of(g)
    non_tree = non_tree_edges(basis)
    # the tree edges are the forest's parent edges, and row i is the i-th non-tree edge's
    tree = {e for e in spanning_forest(g).parent_edge if e >= 0}
    assert set(range(g.edge_count)) - set(non_tree) == tree
    assert [basis.row_of_edge[e] for e in non_tree] == list(range(len(basis.head)))
    for cycle in cycles_of(basis):
        edges = [e for e, _ in cycle]
        assert edges == sorted(set(edges))
        assert all(c in (-1, 1) for _, c in cycle)
    for i, z in enumerate(dense_cycles(basis)):
        assert z[non_tree[i]] == 1
        for e, c in enumerate(z):
            if e in non_tree and e != non_tree[i]:
                assert c == 0
            assert c in (-1, 0, 1)


def test_induced_matrix_identity(golden):
    for g in golden.values():
        o, basis = basis_of(g)
        m = induced_cycle_matrix(g, o, basis, identity_automorphism(g))
        assert m == identity_matrix(len(basis.head))


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


def test_a_cycle_space_above_the_cap_is_refused_before_it_is_built(monkeypatch):
    # one vertex with 65 loops: cycle rank 65, one above the cap of 64
    g = parse_graph("v 1\n" + "e 0 0\n" * 65)
    o, forest = reference_orientation(g), spanning_forest(g)
    with pytest.raises(CycleSpaceTooLargeError, match="rank 65, more than 64"):
        fundamental_cycles(g, o, forest)
    monkeypatch.setattr(autsign.homology, "MAX_CYCLE_RANK", 65)
    assert len(fundamental_cycles(g, o, forest).head) == 65


def test_the_basis_of_a_20000_vertex_path_is_built_within_10_s():
    # A path plus one chord from end to end: the forest walk and the climb
    # take milliseconds here, where a forest that rescans every edge per
    # tree edge takes about a minute.
    n = 20_000
    g = Multigraph.from_edges(n, [(v, v + 1) for v in range(n - 1)] + [(0, n - 1)])
    o = reference_orientation(g)
    start = time.perf_counter()
    basis = fundamental_cycles(g, o, spanning_forest(g))
    assert time.perf_counter() - start < 10
    assert basis.row_of_edge == (-1,) * (n - 1) + (0,)
    # the chord runs 0 -> n-1, and the path back runs against every arrow
    assert cycles_of(basis) == (tuple((e, -1) for e in range(n - 1)) + ((n - 1, 1),),)


def test_the_basis_of_a_20000_vertex_path_with_64_chords_stays_small():
    # Rank 64, the cap, on 20063 edges: a dense basis would hold 64 vectors of
    # 20063 coefficients, about 10 MB of references; each short chord's cycle
    # has three nonzeros.
    n = 20_000
    chords = [(2 * k, 2 * k + 2) for k in range(64)]
    g = Multigraph.from_edges(n, [(v, v + 1) for v in range(n - 1)] + chords)
    o = reference_orientation(g)
    sep = induced_signed_edge_perm(g, o, identity_automorphism(g))
    g.components  # the graph's own cached tables, built by any first use
    tracemalloc.start()
    try:
        basis = fundamental_cycles(g, o, spanning_forest(g))
        rows = _cycle_matrix_rows(basis, sep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    assert rows == identity_matrix(64).to_rows()
    assert [len(cycle) for cycle in cycles_of(basis)] == [3] * 64


def test_the_basis_and_a_matrix_of_a_20000_vertex_path_with_64_long_chords_stay_small():
    # 64 chords from end to end: every cycle runs along the whole path, so
    # the cycles' (edge, coefficient) pairs alone would take 64 x 20000 of
    # them, 82.6 MB under tracemalloc; the subtree intervals take O(V + E) ints.
    n = 20_000
    g = Multigraph.from_edges(n, [(v, v + 1) for v in range(n - 1)] + [(0, n - 1)] * 64)
    o = reference_orientation(g)
    sep = induced_signed_edge_perm(g, o, identity_automorphism(g))
    g.components  # the graph's own cached tables, built by any first use
    tracemalloc.start()
    try:
        basis = fundamental_cycles(g, o, spanning_forest(g))
        rows = _cycle_matrix_rows(basis, sep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000
    assert rows == identity_matrix(64).to_rows()
    path_back = tuple((e, -1) for e in range(n - 1))
    assert basis.cycle(0) == path_back + ((n - 1, 1),)
    assert basis.cycle(63) == path_back + ((n + 62, 1),)


CONNECTED_CAPS = SweepParams(
    max_vertices=5, max_edges=6, max_multiplicity=3, allow_loops=True, connected_only=True
)


def test_the_cycles_equal_the_climb_on_the_connected_caps_from_every_root():
    graphs = 0
    for g in enumerate_multigraphs(CONNECTED_CAPS):
        o = reference_orientation(g)
        for root in range(g.vertex_count):
            forest = spanning_forest(g, root)
            assert cycles_of(fundamental_cycles(g, o, forest)) == climbed_cycles(g, o, forest)
        graphs += 1
    assert graphs == 12586


def rows_from_pairs(cycles, forest, sep):
    """The matrix of ``sep`` read off the cycles' ``(edge, coefficient)``
    pairs: entry (i, j) is cycle j's coefficient on the edge that maps onto
    the i-th non-tree edge, times that edge's arrow sign."""
    tree = set(forest.parent_edge)
    non_tree = [e for e in range(len(sep.edge_perm)) if e not in tree]
    rows = [[0] * len(cycles) for _ in cycles]
    for j, cycle in enumerate(cycles):
        for e, c in cycle:
            if sep.edge_perm[e] in non_tree:
                rows[non_tree.index(sep.edge_perm[e])][j] = c * sep.edge_sign[e]
    return rows


def random_signed_perm(rng, m):
    perm = list(range(m))
    rng.shuffle(perm)
    return SignedEdgePermutation(tuple(perm), tuple(rng.choice((-1, 1)) for _ in range(m)))


def check_det(basis, sep):
    """The row-by-row determinant against full Bareiss on the dense rows, and
    cycle_space_det_sign against both: the sign when it is +-1, else
    UnimodularityError."""
    d = _cycle_space_det(basis, sep)
    assert d == _bareiss(_cycle_matrix_rows(basis, sep))
    if d in (1, -1):
        assert cycle_space_det_sign(basis, sep) == d
    else:
        with pytest.raises(UnimodularityError):
            cycle_space_det_sign(basis, sep)
    return d


@given(multigraphs(max_vertices=4, max_edges=5), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_the_cycles_and_rows_equal_the_climbs_for_any_orientation_and_root(g, seed):
    rng = random.Random(seed)
    o = random_orientation(g, rng)
    forest = spanning_forest(g, rng.randrange(g.vertex_count))
    basis = fundamental_cycles(g, o, forest)
    cycles = climbed_cycles(g, o, forest)
    assert cycles_of(basis) == cycles
    for a in itertools.islice(stream_automorphisms(g)[1], 50):
        sep = induced_signed_edge_perm(g, o, a)
        assert _cycle_matrix_rows(basis, sep) == rows_from_pairs(cycles, forest, sep)
        assert check_det(basis, sep) in (1, -1)
    for _ in range(10):
        sep = random_signed_perm(rng, g.edge_count)
        assert _cycle_matrix_rows(basis, sep) == rows_from_pairs(cycles, forest, sep)
        check_det(basis, sep)


def test_the_determinant_equals_dense_bareiss_on_every_automorphism_of_the_connected_caps():
    automorphisms = 0
    for g in enumerate_multigraphs(CONNECTED_CAPS):
        o, basis = basis_of(g)
        for a in stream_automorphisms(g)[1]:
            assert check_det(basis, induced_signed_edge_perm(g, o, a)) in (1, -1)
            automorphisms += 1
    assert automorphisms == 92465


def test_the_determinant_equals_dense_bareiss_on_random_signed_edge_permutations():
    # Most signed edge permutations are no automorphism, and most of their
    # matrices are singular: their tree-edge rows eliminate to 0. Each matrix
    # is a signed choice of rank rows of the cycles' edge-coefficient matrix,
    # which is totally unimodular, so no other determinant occurs.
    rng = random.Random(17)
    dets = Counter()
    for _ in range(300):
        n = rng.randint(1, 5)
        g = Multigraph.from_edges(
            n, [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(4, 9))]
        )
        o = random_orientation(g, rng)
        basis = fundamental_cycles(g, o, spanning_forest(g, rng.randrange(n)))
        for _ in range(20):
            dets[check_det(basis, random_signed_perm(rng, g.edge_count))] += 1
    assert set(dets) == {-1, 0, 1}
    assert dets[0] > dets[1] + dets[-1]


@pytest.mark.parametrize(
    "text",
    ["v 2\ne 0 1\ne 0 1\ne 0 0\n", "v 3\ne 0 1\ne 1 2\ne 2 0\ne 0 0\n"],
    ids=["double_edge_and_loop", "triangle_and_loop"],
)
def test_the_determinant_of_every_signed_edge_map_is_dense_bareiss_or_0(text):
    # A map that sends one edge onto each non-tree edge gives the dense
    # matrix. Any other pairs a row with two columns or leaves a column with
    # none, and gives 0 without looping.
    g = parse_graph(text)
    o, basis = basis_of(g)
    m = g.edge_count
    non_tree = list(non_tree_edges(basis))
    with returns_within(10):
        for perm in itertools.product(range(m), repeat=m):
            one_each = sorted(f for f in perm if f in non_tree) == non_tree
            for signs in itertools.product((1, -1), repeat=m):
                sep = SignedEdgePermutation(perm, signs)
                dense = _bareiss(_cycle_matrix_rows(basis, sep))
                assert _cycle_space_det(basis, sep) == (dense if one_each else 0)


def test_a_map_of_two_loops_onto_one_fails_fast():
    # Not an automorphism: both loops go to loop 0, so the dense cycle
    # matrix has a zero row, and the edge map repeats an image.
    g = parse_graph("v 1\ne 0 0\ne 0 0\n")
    o, basis = basis_of(g)
    a = Automorphism((0, 1, 0, 1), (0,))
    sep = induced_signed_edge_perm(g, o, a)
    with returns_within(5):
        assert _bareiss(_cycle_matrix_rows(basis, sep)) == 0
        with pytest.raises(UnimodularityError):
            cycle_space_det_sign(basis, sep)
        with pytest.raises(ValueError, match="not a permutation"):
            homological_sign(g, o, basis, a)


def test_the_expanded_determinant_of_one_entry_columns_is_dense_bareiss():
    # Column j holds s[j] in row p[j] and nothing else, as the edge and
    # vertex matrices of chain_determinant_check do; a map p that is not a
    # permutation leaves a row of zeros.
    with returns_within(10):
        for n in range(5):
            for p in itertools.product(range(n), repeat=n):
                for s in itertools.product((1, -1), repeat=n):
                    rows = [[0] * n for _ in range(n)]
                    for j in range(n):
                        rows[p[j]][j] = s[j]
                    assert _expanded_det(list(p), math.prod(s)) == _bareiss(rows)


@pytest.mark.parametrize(
    "text, other",
    [
        ("v 3\ne 0 1\ne 1 2\ne 2 0\n", "v 4\ne 0 1\ne 1 2\ne 2 3\n"),  # one vertex more
        # parent edge 1 is 0-2 there, 1-2 here
        ("v 3\ne 0 1\ne 1 2\ne 2 0\n", "v 3\ne 0 1\ne 0 2\n"),
        # parent edge 0 is 2-0 there, 0-1 here
        ("v 3\ne 0 1\ne 1 2\ne 2 0\n", "v 3\ne 2 0\ne 0 1\n"),
        # one tree edge too few, or one too many
        ("v 3\ne 0 1\ne 1 2\ne 2 0\n", "v 3\ne 0 1\n"),
        ("v 2\ne 0 0\ne 1 1\n", "v 2\ne 0 1\n"),
    ],
    ids=["vertex-count", "parent-edge-1", "parent-edge-0", "too-few", "too-many"],
)
def test_fundamental_cycles_refuse_a_forest_of_another_graph(text, other):
    g = parse_graph(text)
    with pytest.raises(ValueError, match="forest does"):
        fundamental_cycles(g, reference_orientation(g), spanning_forest(parse_graph(other)))


@pytest.mark.parametrize(
    "forest",
    [
        # parent edges 0 and 1 lead 0 -> 1 -> 0, with depths that do not fall
        SpanningForest((0, 0, 1), (0, 0, 0)),
        # a parent edge past the graph's edges, or a root's -1 at depth 1,
        # which as an index would name the last edge from the end
        SpanningForest((-1, 0, 7), (0, 1, 2)),
        SpanningForest((-1, -1, 1), (0, 1, 2)),
    ],
    ids=["cyclic", "past-the-edges", "minus-one"],
)
def test_fundamental_cycles_refuse_an_inconsistent_forest(forest):
    # a triangle with edge 0-1 doubled, cycle rank 2
    g = parse_graph("v 3\ne 0 1\ne 1 2\ne 2 0\ne 0 1\n")
    with pytest.raises(ValueError, match="forest does not connect"):
        fundamental_cycles(g, reference_orientation(g), forest)


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
    # one negative dimension times the other, 0, matches the empty entries
    for rows, cols in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="negative matrix dimension"):
            IntMatrix(rows, cols, ())
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        matmul(identity_matrix(2), IntMatrix(3, 3, tuple(range(9))))


def test_unimodularity_holds_on_small_family(golden):
    for g in golden.values():
        o, basis = basis_of(g)
        for a in enumerate_automorphisms(g):
            assert abs(det_bareiss(induced_cycle_matrix(g, o, basis, a))) == 1


def assert_det(rows, expected=None):
    """det_bareiss of ``rows`` against the cofactor expansion and, up to 6x6,
    the permutation sum, or sympy beyond; and against ``expected`` if given."""
    m = IntMatrix.from_rows(rows)
    d = det_bareiss(m)
    assert d == det_cofactor(m)
    assert d == (det_permutation_sum(m) if m.rows <= 6 else sympy.Matrix(rows).det())
    if expected is not None:
        assert d == expected
    return d


def signed_permutation_rows(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[p[i]][i] = rng.choice((-1, 1))
    return rows


def test_det_of_random_signed_permutations_up_to_8x8():
    rng = random.Random(2024)
    pivots = set()
    for n in range(1, 9):
        for _ in range(25):
            rows = signed_permutation_rows(rng, n)
            pivots.add(next(r[0] for r in rows if r[0]))
            assert assert_det(rows) in (1, -1)
    assert pivots == {1, -1}


def test_det_with_negative_pivots():
    assert_det([[-1, 0, 0], [0, -1, 0], [0, 0, -1]], -1)
    assert_det([[0, -1, 0], [-1, 0, 0], [0, 0, 1]], -1)
    assert_det([[-1, 2, 3], [0, 1, 4], [5, 6, -1]])
    # after a pivot of 2, the next pivot is -2, the previous one negated
    assert_det([[2, 0, 0], [0, -1, 1], [0, 3, 1]], -8)


def test_det_with_a_non_unit_first_pivot():
    # the pivot is the 2 in row 0, with a 1 below it
    assert_det([[2, 1, 0], [1, 0, 1], [0, 1, 1]], -3)
    assert_det([[3, 1, 2, 0], [-2, 5, 1, 1], [-1, 0, 2, 3], [4, 1, 0, 2]])
    # no unit in column 0
    assert_det([[3, 1, 0], [-2, 1, 1], [5, 0, 2]])
    assert_det([[4, 2, 1], [6, 3, 0], [-2, 5, 7]])


def test_det_rescales_zero_factor_rows_below_a_non_unit_pivot():
    # pivot 2 with prev 1: the rows below, whose factor is 0, are rescaled
    assert_det([[2, 1, 1], [0, 3, 1], [0, 1, 2]], 10)
    assert_det([[2, 0, 0, 1], [0, 3, 1, 0], [0, 1, 3, 0], [1, 0, 0, 2]], 24)
    # a unit pivot after a non-unit one, with zero factors below it
    assert_det([[2, 1, 0, 0], [0, 1, 0, 0], [0, 0, 3, 1], [0, 0, 1, -3]], -20)
    rng = random.Random(11)
    for n in range(2, 7):
        for _ in range(40):
            rows = [[rng.choice((0, 0, 0, 1, -1, 2, -2, 3)) for _ in range(n)] for _ in range(n)]
            assert_det(rows)


def test_det_of_singular_matrices_whose_zero_column_comes_late():
    # a zero column at step k returns 0 before the last step
    assert_det([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 0, 1]], 0)
    # column 2 becomes zero only after eliminating columns 0 and 1
    assert_det([[1, 0, 1, 2], [0, 1, 1, 3], [1, 1, 2, 0], [2, -1, 1, 1]], 0)
    # the last column is zero
    assert_det([[1, 2, 0], [3, 4, 0], [5, 6, 0]], 0)
    # the last pivot is 0 after elimination
    assert_det([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 0)
    assert_det([[2, 4, 1, 3], [1, 2, 0, 1], [3, 6, 1, 4], [0, 0, 1, 1]], 0)


def chain_matrices(g, o, basis, a):
    """The edge, vertex and cycle matrices chain_determinant_check eliminates."""
    sep = induced_signed_edge_perm(g, o, a)
    m, n = g.edge_count, g.vertex_count
    edge_rows = [[0] * m for _ in range(m)]
    for e in range(m):
        edge_rows[sep.edge_perm[e]][e] = sep.edge_sign[e]
    vertex_rows = [[0] * n for _ in range(n)]
    for v in range(n):
        vertex_rows[a.vertex_perm[v]][v] = 1
    return edge_rows, vertex_rows, induced_cycle_matrix(g, o, basis, a).to_rows()


LOOP4 = "v 1\n" + "e 0 0\n" * 4
PARALLEL5 = "v 2\n" + "e 0 1\n" * 5


def assert_chain_determinants_match_the_oracles(g, o, auts):
    basis = fundamental_cycles(g, o, spanning_forest(g))
    for a in auts:
        factors = chain_determinant_check(g, o, basis, a)
        edge_rows, vertex_rows, cycle_rows = chain_matrices(g, o, basis, a)
        assert factors.edge_space_det == assert_det(edge_rows)
        assert factors.vertex_space_det == assert_det(vertex_rows)
        assert factors.cycle_space_det == assert_det(cycle_rows)
        assert factors.consistent


@pytest.mark.parametrize(
    "text, order",
    [(LOOP4, 384), (PARALLEL5, 240), *((t, len(signs)) for t, signs in GOLDENS.values())],
    ids=["loop4", "parallel5", *GOLDENS],
)
def test_every_chain_determinant_matches_the_oracles(text, order):
    g = parse_graph(text)
    auts = enumerate_automorphisms(g)
    assert len(auts) == order
    assert_chain_determinants_match_the_oracles(g, reference_orientation(g), auts)


@given(multigraphs(max_vertices=4, max_edges=4), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_every_chain_determinant_matches_the_oracles_on_random_multigraphs(g, seed):
    o = random_orientation(g, random.Random(seed))
    assert_chain_determinants_match_the_oracles(g, o, enumerate_automorphisms(g))


@pytest.mark.parametrize(
    "text, digest",
    [
        (LOOP4, "cd6e94974fcc884236d43376f80ac733231ca3861e02d227969cae62b3495c23"),
        (PARALLEL5, "b90f73212356164bfbeea8bec66b6c9b23f01362ff8a24284b6585e383deddc4"),
    ],
    ids=["loop4", "parallel5"],
)
def test_compute_diagnostics_output_is_pinned(tmp_path, capsys, text, digest):
    path = tmp_path / "graph.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["compute", "--diagnostics", str(path)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
