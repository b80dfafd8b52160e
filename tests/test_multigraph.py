import random

import pytest
from hypothesis import given

from autsign import (
    GraphFormatError,
    Multigraph,
    parse_graph,
    random_orientation,
    reference_orientation,
    serialize,
    serialize_compact,
    spanning_forest,
)
from autsign.multigraph import MAX_EDGES
from conftest import GOLDEN_TEXTS, multigraphs


def test_parse_loop():
    g = parse_graph(GOLDEN_TEXTS["loop"])
    assert g.vertex_count == 1
    assert g.edge_count == 1
    assert g.endpoint == (0, 0)
    assert g.is_loop(0)


def test_parse_triangle():
    g = parse_graph(GOLDEN_TEXTS["triangle"])
    assert g.vertex_count == 3
    assert g.edge_count == 3
    assert list(g.edges()) == [(0, 1), (1, 2), (2, 0)]


def test_parse_double_edge_keeps_distinct_orbits():
    g = parse_graph(GOLDEN_TEXTS["double_edge"])
    assert g.edge_count == 2
    assert g.edge_ends(0) == g.edge_ends(1) == (0, 1)
    assert g.multiplicity(0, 1) == 2


def test_parse_comments_blanks_and_compact_form():
    text = "# header\n\nv 2\n# middle\ne 0 1\n"
    assert parse_graph(text) == Multigraph.from_edges(2, [(0, 1)])
    assert parse_graph("v 2; e 0 1") == Multigraph.from_edges(2, [(0, 1)])


def test_pairing_is_fixed_point_free_involution():
    g = parse_graph(GOLDEN_TEXTS["triangle"])
    for h in range(g.half_edge_count):
        assert g.pair(g.pair(h)) == h
        assert g.pair(h) != h


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("e 0 1", "line 1"),
        ("v 2\nv 3\n", "line 2"),
        ("v -1\n", "negative"),
        ("v 1000000000\ne 0 1\n", "above the limit"),
        pytest.param(
            "v 1\n" + "e 0 0\n" * (MAX_EDGES + 1),
            f"line {MAX_EDGES + 2}: more than {MAX_EDGES} edges",
            id="edge-cap",
        ),
        ("v 2\ne 0 5\n", "out of range"),
        ("v 2\ne 0 -1\n", "out of range"),
        ("v 2\nq 1 2\n", "unknown directive"),
        ("v 2\ne 0\n", "expected 'e <a> <b>'"),
        ("v 2\ne 0 1 2\n", "expected 'e <a> <b>'"),
        ("v x\n", "not an integer"),
        ("", "missing 'v'"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(GraphFormatError, match=fragment):
        parse_graph(text)


def test_parse_error_reports_correct_line():
    with pytest.raises(GraphFormatError, match="line 4"):
        parse_graph("v 3\n# fine\ne 0 1\ne 0 9\n")


@pytest.mark.parametrize("name", sorted(GOLDEN_TEXTS))
def test_round_trip_goldens(name):
    g = parse_graph(GOLDEN_TEXTS[name])
    assert parse_graph(serialize(g)) == g
    assert parse_graph(serialize_compact(g)) == g


@given(multigraphs())
def test_round_trip_random(g):
    assert parse_graph(serialize(g)) == g


def test_empty_graph_is_accepted():
    g = parse_graph("v 0\n")
    assert g.vertex_count == 0
    assert g.edge_count == 0
    assert g.components.component_count == 0
    assert spanning_forest(g).tree_edges == frozenset()


def test_reference_orientation_tails():
    assert reference_orientation(parse_graph(GOLDEN_TEXTS["loop"])).tail == (0,)
    assert reference_orientation(parse_graph(GOLDEN_TEXTS["triangle"])).tail == (0, 2, 4)
    assert reference_orientation(parse_graph(GOLDEN_TEXTS["double_edge"])).tail == (0, 2)


def test_random_orientation_is_valid_and_seeded(golden):
    g = golden["triangle"]
    o1 = random_orientation(g, random.Random(7))
    o2 = random_orientation(g, random.Random(7))
    assert o1 == o2
    for e, t in enumerate(o1.tail):
        assert t in (2 * e, 2 * e + 1)
        assert o1.head(e) == t ^ 1


def test_components_goldens(golden):
    assert golden["triangle"].components.component_count == 1
    assert golden["loop"].components.component_count == 1
    two = parse_graph("v 2\n")
    assert two.components.component_count == 2
    assert two.components.component_of == (0, 1)


def test_component_indices_follow_smallest_vertex():
    g = parse_graph("v 4\ne 0 2\ne 1 3\n")
    assert g.components.component_of == (0, 1, 0, 1)
    assert g.components.component_count == 2


def test_degree_and_loop_count(golden):
    g = golden["loop_plus_edge"]
    assert g.degree(0) == 3  # loop counts twice
    assert g.degree(1) == 1
    assert g.loop_count(0) == 1
    assert g.loop_count(1) == 0


def test_spanning_forest_goldens(golden):
    assert spanning_forest(golden["triangle"]).tree_edges == frozenset({0, 1})
    assert spanning_forest(golden["loop"]).tree_edges == frozenset()
    assert spanning_forest(golden["double_edge"]).tree_edges == frozenset({0})
    forest = spanning_forest(golden["two_edges_disjoint"])
    assert forest.tree_edges == frozenset({0, 1})
    assert forest.root_of_component == (0, 2)


def test_spanning_forest_alternate_root(golden):
    g = golden["triangle"]
    forest = spanning_forest(g, root=2)
    assert forest.root_of_component == (2,)
    assert len(forest.tree_edges) == 2
    with pytest.raises(ValueError):
        spanning_forest(g, root=9)


@given(multigraphs())
def test_spanning_forest_invariants(g):
    forest = spanning_forest(g)
    parts = g.components
    assert not any(g.is_loop(e) for e in forest.tree_edges)
    assert len(forest.tree_edges) == g.vertex_count - parts.component_count
    # within each component the tree edges connect every vertex to the root
    reach = {r: r for r in forest.root_of_component}
    changed = True
    while changed:
        changed = False
        for e in forest.tree_edges:
            a, b = g.edge_ends(e)
            for x, y in ((a, b), (b, a)):
                if x in reach and y not in reach:
                    reach[y] = reach[x]
                    changed = True
    for v in range(g.vertex_count):
        assert reach[v] == forest.root_of_component[parts.component_of[v]]


@given(multigraphs())
def test_components_and_forest_deterministic(g):
    assert g.components == Multigraph(g.vertex_count, g.endpoint).components
    assert spanning_forest(g) == spanning_forest(g)


def test_multigraph_rejects_bad_data():
    with pytest.raises(ValueError):
        Multigraph(1, (0,))  # odd half-edge count
    with pytest.raises(ValueError):
        Multigraph(1, (0, 1))  # endpoint out of range
    with pytest.raises(ValueError):
        Multigraph(-1, ())
