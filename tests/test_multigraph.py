import random
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from autsign import (
    GraphFormatError,
    Multigraph,
    SpanningForest,
    SweepParams,
    enumerate_multigraphs,
    parse_graph,
    random_orientation,
    reference_orientation,
    serialize,
    serialize_compact,
    spanning_forest,
)
from autsign.multigraph import MAX_EDGES
from conftest import GOLDENS, multigraphs
from oracles import scan_spanning_forest


def tree_edges(forest):
    """The edges of ``forest``: its parent edges."""
    return frozenset(e for e in forest.parent_edge if e >= 0)


def roots(g, forest):
    """The vertices without a parent edge, in the order of their components."""
    tops = (v for v, e in enumerate(forest.parent_edge) if e < 0)
    return tuple(sorted(tops, key=g.components.component_of.__getitem__))


def test_parse_loop():
    g = parse_graph(GOLDENS["loop"].text)
    assert g.vertex_count == 1
    assert g.edge_count == 1
    assert g.endpoint == (0, 0)
    assert g.edge_ends(0) == (0, 0)


def test_parse_triangle():
    g = parse_graph(GOLDENS["triangle"].text)
    assert g.vertex_count == 3
    assert g.edge_count == 3
    assert list(g.edges()) == [(0, 1), (1, 2), (2, 0)]


def test_parse_double_edge_keeps_distinct_orbits():
    g = parse_graph(GOLDENS["double_edge"].text)
    assert g.edge_count == 2
    assert g.edge_ends(0) == g.edge_ends(1) == (0, 1)
    assert g.edge_multiplicities == {(0, 1): 2}


def test_parse_comments_blanks_and_compact_form():
    text = "# header\n\nv 2\n# middle\ne 0 1\n"
    assert parse_graph(text) == Multigraph.from_edges(2, [(0, 1)])
    assert parse_graph("v 2; e 0 1") == Multigraph.from_edges(2, [(0, 1)])
    # CRLF and CR end lines too
    assert parse_graph("v 2\r\n# middle\r\ne 0 1\r\n") == Multigraph.from_edges(2, [(0, 1)])
    assert parse_graph("v 2\r# middle\re 0 1\r") == Multigraph.from_edges(2, [(0, 1)])
    # a comment runs to the end of its line, past the other characters
    # str.splitlines breaks at
    assert parse_graph("v 2\n# note\x0cmore\ne 0 1\n") == Multigraph.from_edges(2, [(0, 1)])
    for brk in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
        assert parse_graph(f"v 2\n# see{brk}e 0 1\n") == Multigraph(2, ()), repr(brk)


def test_readme_format_example_parses_to_the_triangle():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Graph file format", 1)[1]
    example = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    assert "v 3        #" in example
    assert parse_graph(example) == parse_graph(GOLDENS["triangle"].text)


@given(st.text())
def test_only_format_errors_escape_the_parser(text):
    try:
        parse_graph(text)
    except GraphFormatError:
        pass


def test_pairing_is_fixed_point_free_involution():
    g = parse_graph(GOLDENS["triangle"].text)
    for h in range(len(g.endpoint)):
        assert h ^ 1 ^ 1 == h
        assert h ^ 1 != h


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
        ("v 1_0\n", "not an integer"),
        ("v \u0663\n", "not an integer"),
        ("v 2\ne +0 0\n", "not an integer"),
        pytest.param("v " + "9" * 5000 + "\n", "not an integer", id="digit-limit"),
        ("", "missing 'v'"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(GraphFormatError, match=fragment):
        parse_graph(text)


@pytest.mark.parametrize(
    "text",
    [
        "v 3\n# fine\ne 0 1\ne 0 9\n",
        "v 3\r\n# fine\r\ne 0 1\r\ne 0 9\r\n",
        "v 3\r# fine\re 0 1\re 0 9\r",
        "v 3\n# fine\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029fine\ne 0 1\ne 0 9\n",
    ],
    ids=["lf", "crlf", "cr", "other-breaks-in-a-comment"],
)
def test_parse_error_reports_correct_line(text):
    with pytest.raises(GraphFormatError, match="^line 4: vertex index out of range"):
        parse_graph(text)


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_round_trip_goldens(name):
    g = parse_graph(GOLDENS[name].text)
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
    assert spanning_forest(g) == SpanningForest((), ())


def test_reference_orientation_tails():
    assert reference_orientation(parse_graph(GOLDENS["loop"].text)).tail == (0,)
    assert reference_orientation(parse_graph(GOLDENS["triangle"].text)).tail == (0, 2, 4)
    assert reference_orientation(parse_graph(GOLDENS["double_edge"].text)).tail == (0, 2)


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
    assert spanning_forest(golden["triangle"]) == SpanningForest((-1, 0, 1), (0, 1, 2))
    assert spanning_forest(golden["loop"]) == SpanningForest((-1,), (0,))
    assert spanning_forest(golden["double_edge"]) == SpanningForest((-1, 0), (0, 1))
    g = golden["two_edges_disjoint"]
    forest = spanning_forest(g)
    assert tree_edges(forest) == frozenset({0, 1})
    assert roots(g, forest) == (0, 2)


def test_spanning_forest_alternate_root(golden):
    g = golden["triangle"]
    forest = spanning_forest(g, root=2)
    assert roots(g, forest) == (2,)
    assert len(tree_edges(forest)) == 2
    with pytest.raises(ValueError):
        spanning_forest(g, root=9)


@given(multigraphs())
def test_spanning_forest_invariants(g):
    forest = spanning_forest(g)
    parts = g.components
    tree, tops = tree_edges(forest), roots(g, forest)
    assert not any(a == b for a, b in map(g.edge_ends, tree))
    assert len(tree) == g.vertex_count - parts.component_count
    # one root per component, and the tree edges connect every vertex to it
    assert [parts.component_of[r] for r in tops] == list(range(parts.component_count))
    reach = {r: r for r in tops}
    changed = True
    while changed:
        changed = False
        for e in tree:
            a, b = g.edge_ends(e)
            for x, y in ((a, b), (b, a)):
                if x in reach and y not in reach:
                    reach[y] = reach[x]
                    changed = True
    for v in range(g.vertex_count):
        assert reach[v] == tops[parts.component_of[v]]


def check_forest_from_every_root(g):
    """spanning_forest from each root picks the scan oracle's forest, and its
    parent edges and depths describe that forest."""
    for root in range(g.vertex_count):
        forest = spanning_forest(g, root=root)
        tree, tops = scan_spanning_forest(g, root=root)
        assert (tree_edges(forest), roots(g, forest)) == (tree, tops)
        # no two vertices share a parent edge
        assert sum(e >= 0 for e in forest.parent_edge) == len(tree)
        for v, e in enumerate(forest.parent_edge):
            if e < 0:
                assert v in tops and forest.depth[v] == 0
            else:
                a, b = g.edge_ends(e)
                assert v in (a, b)
                assert forest.depth[b if a == v else a] == forest.depth[v] - 1


@given(multigraphs())
def test_spanning_forest_matches_the_scan_oracle(g):
    check_forest_from_every_root(g)


def test_spanning_forest_matches_the_scan_oracle_on_the_connected_caps():
    params = SweepParams(
        max_vertices=5, max_edges=6, max_multiplicity=3, allow_loops=True, connected_only=True
    )
    graphs = 0
    for g in enumerate_multigraphs(params):
        check_forest_from_every_root(g)
        graphs += 1
    assert graphs == 12586


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
