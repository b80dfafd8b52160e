"""Acceptance gate: every criterion as one test, exact equalities throughout.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion. The sweeps are exhaustive and take a couple of minutes total.
"""
import bisect
import itertools
import random
import time
from dataclasses import dataclass, field

import pytest

from autsign import (
    IntMatrix,
    SweepParams,
    chain_determinant_check,
    combinatorial_sign,
    det_bareiss,
    det_cofactor,
    enumerate_automorphisms,
    enumerate_multigraphs,
    fundamental_cycles,
    homological_sign,
    induced_cycle_matrix,
    induced_signed_edge_perm,
    parse_graph,
    permutation_sign,
    random_orientation,
    reference_orientation,
    spanning_forest,
    sweep_verify,
    verify_graph,
)
from autsign.cli import main
from oracles import compose

CONNECTED_SWEEP = SweepParams(
    max_vertices=5,
    max_edges=6,
    max_multiplicity=3,
    allow_loops=True,
    connected_only=True,
)
FULL_SWEEP = SweepParams(
    max_vertices=5, max_edges=6, max_multiplicity=3, allow_loops=True
)


@dataclass
class SweepScan:
    graphs: int = 0
    automorphisms: int = 0
    disagreements: int = 0
    nonunimodular: int = 0
    relation_failures: int = 0
    factor_mismatches: int = 0
    graph_pool: list = field(default_factory=list)  # (Multigraph, |Aut|)
    small_graphs: list = field(default_factory=list)  # <= 4 vertices


@pytest.fixture(scope="module")
def connected_scan():
    """One instrumented pass over the connected sweep, shared by criteria 3-6."""
    scan = SweepScan()
    for g in enumerate_multigraphs(CONNECTED_SWEEP):
        o = reference_orientation(g)
        basis = fundamental_cycles(g, o, spanning_forest(g))
        auts = enumerate_automorphisms(g)
        scan.graphs += 1
        scan.automorphisms += len(auts)
        scan.graph_pool.append((g, len(auts)))
        if g.vertex_count <= 4:
            scan.small_graphs.append(g)
        for a in auts:
            sep = induced_signed_edge_perm(g, o, a)
            comb = combinatorial_sign(g, o, a)
            hom = homological_sign(g, o, basis, a)
            factors = chain_determinant_check(g, o, basis, a)
            if hom != comb:
                scan.disagreements += 1
            if abs(factors.cycle_space_det) != 1:
                scan.nonunimodular += 1
            if not factors.consistent or factors.component_sign != 1:
                scan.relation_failures += 1
            eps_product = 1
            for s in sep.edge_sign:
                eps_product *= s
            matrix = induced_cycle_matrix(g, o, basis, a)
            if (
                factors.edge_space_det != permutation_sign(sep.edge_perm) * eps_product
                or factors.vertex_space_det != permutation_sign(a.vertex_perm)
                or factors.cycle_space_det != det_cofactor(matrix)
            ):
                scan.factor_mismatches += 1
    return scan


def test_criterion_01_connected_sweep_theorem(capsys):
    started = time.perf_counter()
    rc = main(
        ["verify", "--max-vertices", "5", "--max-edges", "6",
         "--max-multiplicity", "3", "--loops", "--connected-only"]
    )
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert rc == 0
    assert "failures: 0\n" in out
    assert "graphs_checked: 12586\n" in out
    assert "automorphisms_checked: 92465\n" in out
    assert elapsed < 300.0


def test_criterion_02_extended_sweep_theorem():
    report = sweep_verify(FULL_SWEEP)
    assert report.failures == []
    assert report.graphs_checked == 60386
    assert report.automorphisms_checked == 3220743


def test_criterion_03_unimodularity(connected_scan):
    assert connected_scan.automorphisms == 92465
    assert connected_scan.nonunimodular == 0


def test_criterion_04_determinant_relation(connected_scan):
    assert connected_scan.relation_failures == 0
    assert connected_scan.factor_mismatches == 0
    assert connected_scan.disagreements == 0


def test_criterion_05_orientation_independence(connected_scan):
    rng = random.Random(20260809)
    pool = connected_scan.graph_pool
    cumulative = list(itertools.accumulate(count for _, count in pool))
    total_pairs = cumulative[-1]
    picks = sorted(rng.sample(range(total_pairs), 200))
    by_graph: dict[int, list[int]] = {}
    for pick in picks:
        graph_index = bisect.bisect_right(cumulative, pick)
        offset = pick - (cumulative[graph_index - 1] if graph_index else 0)
        by_graph.setdefault(graph_index, []).append(offset)
    checked = 0
    for graph_index, offsets in by_graph.items():
        g, _ = pool[graph_index]
        o_ref = reference_orientation(g)
        auts = enumerate_automorphisms(g)
        for offset in offsets:
            a = auts[offset]
            expected = combinatorial_sign(g, o_ref, a)
            for _ in range(100):
                o = random_orientation(g, rng)
                assert combinatorial_sign(g, o, a) == expected
            checked += 1
    assert checked == 200


def test_criterion_06_basis_independence(connected_scan):
    assert connected_scan.small_graphs
    for g in connected_scan.small_graphs:
        o = reference_orientation(g)
        auts = enumerate_automorphisms(g)
        reference_signs = None
        for root in range(g.vertex_count):
            basis = fundamental_cycles(g, o, spanning_forest(g, root=root))
            signs = [homological_sign(g, o, basis, a) for a in auts]
            if reference_signs is None:
                reference_signs = signs
            assert signs == reference_signs


def test_criterion_07_homomorphism_property():
    groups_checked = 0
    for g in enumerate_multigraphs(CONNECTED_SWEEP):
        auts = enumerate_automorphisms(g)
        if len(auts) > 24:
            continue
        o = reference_orientation(g)
        basis = fundamental_cycles(g, o, spanning_forest(g))
        comb = {}
        hom = {}
        for a in auts:
            key = (a.vertex_perm, a.half_edge_perm)
            comb[key] = combinatorial_sign(g, o, a)
            hom[key] = homological_sign(g, o, basis, a)
        for a in auts:
            ka = (a.vertex_perm, a.half_edge_perm)
            for b in auts:
                kb = (b.vertex_perm, b.half_edge_perm)
                ab = compose(a, b)
                kab = (ab.vertex_perm, ab.half_edge_perm)
                assert comb[kab] == comb[ka] * comb[kb]
                assert hom[kab] == hom[ka] * hom[kb]
        groups_checked += 1
    assert groups_checked > 0


def test_criterion_08_golden_examples(capsys):
    rc = main(["selftest"])
    assert rc == 0, capsys.readouterr().out
    capsys.readouterr()
    stated = [
        ("v 1; e 0 0", (-1, 1)),
        ("v 3; e 0 1; e 1 2; e 2 0", (1, 1, 1, 1, 1, 1)),
        ("v 2; e 0 1", (1, 1)),
        ("v 3; e 0 1; e 1 2", (1, 1)),
    ]
    mismatches = []
    for text, expected in stated:
        g = parse_graph(text)
        results = verify_graph(g)
        assert all(r.agree for r in results), text
        got = tuple(sorted(r.combinatorial for r in results))
        if got != tuple(sorted(expected)):
            mismatches.append((text, tuple(sorted(expected)), got))
    assert not mismatches, (
        "stated golden sign multisets not reproduced "
        "(entries are (graph, stated, computed); both sign routes and the "
        f"chain-determinant oracle agree on the computed values): {mismatches}"
    )


def test_criterion_09_determinant_oracle():
    entries = (-1, 0, 1)
    for n in (1, 2, 3):
        for vals in itertools.product(entries, repeat=n * n):
            m = IntMatrix(n, n, vals)
            assert det_bareiss(m) == det_cofactor(m)
    rng = random.Random(424242)
    for n in (4, 5):
        for _ in range(500):
            m = IntMatrix(n, n, tuple(rng.randint(-2, 2) for _ in range(n * n)))
            assert det_bareiss(m) == det_cofactor(m)
