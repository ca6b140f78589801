"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines on
stdout.  Tolerances are pinned here: integer criteria use exact equality,
log-space comparisons use 1e-9.
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from tests.oracles import copies_in_slot_order, copy_weight, homs_by_exhaustion, random_tree
from treebound.bounds import compare_count_to_bound, evaluate_bounds
from treebound.counting import count_copies, count_homomorphisms, count_walks
from treebound.graphs import (
    gen_disjoint_cliques,
    gen_random_min_degree,
    good_labeling,
)
from treebound.harness import (
    ConjectureScanConfig,
    conjecture_scan,
    conjecture_to_json,
    instance_report,
    run_suite,
    standard_suite_config,
)
from treebound.measure import (
    MeasureKind,
    copy_ledger,
    g_table_exact,
    g_table_monte_carlo,
    sample_embeddings,
)

LOG_TOL = 1e-9


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number:02d}: {title}")
        raise
    print(f"[PASS] criterion {number:02d}: {title}")


@pytest.fixture(scope="module")
def suite_rows():
    return run_suite(standard_suite_config(seed=0))


@pytest.fixture(scope="module")
def suite_pairs():
    config = standard_suite_config(seed=0)
    return [
        (gname, graph, tname, tree)
        for gname, graph in config.graphs
        for tname, tree in config.trees
    ]


def test_criterion_1_clique_sharpness(p3, s3):
    with criterion(1, "cliques(3,5): 360 copies of P3 and S3, exact"):
        g = gen_disjoint_cliques(3, 5)
        assert g.n == 15 and g.average_degree == 4
        expected = 15 * 4 * 3 * 2
        assert expected == 360
        assert count_copies(g, p3).value == 360
        assert count_copies(g, s3).value == 360


def test_criterion_2_equality_cases(k4, c5, p2):
    with criterion(2, "local bound equality on (K4,P2) and (C5,P2)"):
        for graph, expected in ((k4, 24), (c5, 10)):
            count = count_copies(graph, p2)
            assert count.value == expected
            bound = evaluate_bounds(graph, 2).copies_local
            cmp = compare_count_to_bound(count, bound.log_value)
            assert cmp.holds
            assert abs(cmp.log_margin) <= LOG_TOL


def test_criterion_3_strict_cases(k4, petersen, p3):
    with criterion(3, "local bound strict on (K4,P3) 24>=12 and (Petersen,P3) 120>=30"):
        for graph, count_expected, bound_expected in ((k4, 24, 12), (petersen, 120, 30)):
            count = count_copies(graph, p3)
            assert count.value == count_expected
            bound = evaluate_bounds(graph, 3).copies_local
            assert math.exp(bound.log_value) == pytest.approx(bound_expected, rel=1e-9)
            assert compare_count_to_bound(count, bound.log_value).holds


def test_criterion_4_hom_bound_and_oracle_agreement(k4, p2):
    with criterion(4, "hom bound equality on (K4,P2); DP == exhaustion on 20 instances"):
        homs = count_homomorphisms(k4, p2)
        assert homs.value == 36
        bound = evaluate_bounds(k4, 2).homs_local
        cmp = compare_count_to_bound(homs, bound.log_value)
        assert cmp.holds and abs(cmp.log_margin) <= LOG_TOL
        rng = random.Random(404)
        for _ in range(20):
            n = rng.randint(3, 8)
            g = gen_random_min_degree(n, rng.uniform(0.3, 0.9), 0, seed=rng.randrange(10**6))
            tree = random_tree(rng, rng.randint(1, 4))
            assert count_homomorphisms(g, tree).value == homs_by_exhaustion(g, tree)


def test_criterion_5_walk_bound(suite_rows, k4, c5):
    with criterion(5, "walk bound holds on all 66 suite rows; equality on K4/C5"):
        for row in suite_rows:
            bound = next(b for b in row.bounds if b.name == "walks_blakley_roy")
            assert bound.applicable and bound.holds, (row.graph_name, row.tree_name)
        for graph, t, walks in ((k4, 3, 108), (c5, 2, 20)):
            assert count_walks(graph, t).value == walks
            cmp = compare_count_to_bound(
                walks, evaluate_bounds(graph, t).walks_blakley_roy.log_value
            )
            assert abs(cmp.log_margin) <= LOG_TOL


def test_criterion_6_majorant_floor(suite_rows, k4, p3):
    with criterion(6, "exact majorant floor g[i][v] >= d(v)/nd on 20+ instances"):
        checked = [r for r in suite_rows if r.slack_majorant is not None]
        assert len(checked) >= 20
        assert all(r.n <= 8 and r.t <= 4 for r in checked)
        assert all(r.slack_majorant >= 0 for r in checked)
        table = g_table_exact(k4, p3, good_labeling(p3), MeasureKind.MAJORANT)
        for i in range(1, 5):
            for v in range(4):
                assert table.g(i, v) == Fraction(1, 2)
                assert Fraction(k4.degree(v), k4.degree_sum) == Fraction(1, 4)


def test_criterion_7_hom_profile_equality(k4_minus_edge, p2):
    with criterion(7, "hom table equals degree profile on K4-e and 10 random instances"):
        table = g_table_exact(k4_minus_edge, p2, good_labeling(p2), MeasureKind.HOM)
        for i in (1, 2, 3):
            for v in range(4):
                assert table.g(i, v) == Fraction(k4_minus_edge.degree(v), 10)
        rng = random.Random(707)
        for _ in range(10):
            n = rng.randint(3, 7)
            g = gen_random_min_degree(n, rng.uniform(0.5, 0.9), 1, seed=rng.randrange(10**6))
            tree = random_tree(rng, rng.randint(1, 3))
            hom = g_table_exact(g, tree, good_labeling(tree), MeasureKind.HOM)
            assert hom.equals_degree_profile(g)


def test_criterion_8_measure_identities(suite_pairs):
    with criterion(8, "sum P = 1, P <= p, reversal, product form on every suite instance"):
        names = {
            "iso-total-probability",
            "iso-below-majorant",
            "reversal-symmetry",
            "majorant-product-form",
        }
        instances = 0
        for gname, graph, tname, tree in suite_pairs:
            if graph.min_degree < tree.t:
                continue
            instances += 1
            for check in instance_report(graph, tree)[0]:
                if check.name in names:
                    assert check.passed, (gname, tname, check.name, check.detail)
        assert instances >= 20


def test_criterion_9_sampler_law(k4, p3):
    with criterion(9, "24000 seeded samples on (K4,P3): all 24 copies within 5 SE"):
        labeling = good_labeling(p3)
        first = g_table_monte_carlo(k4, p3, labeling, samples=24000, seed=7)
        again = g_table_monte_carlo(k4, p3, labeling, samples=24000, seed=7)
        assert first == again
        # per-copy frequencies, not just per-position marginals
        counts: dict[tuple[int, ...], int] = {}
        for draw in sample_embeddings(k4, p3, labeling, random.Random(7), 24000):
            counts[draw] = counts.get(draw, 0) + 1
        assert len(counts) == 24
        se = math.sqrt((1 / 24) * (23 / 24) / 24000)
        for count in counts.values():
            assert abs(count / 24000 - 1 / 24) <= 5 * se


def test_criterion_10_bound_relations():
    with criterion(10, "local >= average on 50 instances; P3 and k=t specializations"):
        rng = random.Random(1001)
        instances = 0
        while instances < 50:
            t = rng.choice([2, 3, 4])
            # the local-vs-average comparison is derived from convexity of
            # x*ln(x-t+1), which needs degrees >= 2(t-1)
            floor = max(t, 2 * (t - 1))
            n = rng.randint(floor + 2, floor + 5)
            g = gen_random_min_degree(n, rng.uniform(0.75, 0.95), floor, seed=rng.randrange(10**6))
            report = evaluate_bounds(g, t, k=t)
            assert report.copies_local.log_value >= report.copies_average.log_value - LOG_TOL
            assert abs(report.copies_induced.log_value - report.copies_local.log_value) <= LOG_TOL
            if t == 3:
                assert report.copies_p3.applicable
                assert abs(report.copies_local.log_value - report.copies_p3.log_value) <= LOG_TOL
            instances += 1


def test_criterion_11_chain_report(suite_rows, k4, p3):
    with criterion(11, "chain on (K4,P3) = (24, 24, 144, 12), links (T,F,T,T)"):
        labeling = good_labeling(p3)
        copies = list(copies_in_slot_order(k4, labeling))
        iso_weights = [copy_weight(k4, labeling, omega, "P") for omega in copies]
        majorant_weights = [copy_weight(k4, labeling, omega, "p") for omega in copies]
        # exact rational confirmation: P is uniform 1/24 so exp H(P) = 24;
        # p is constantly 1/12 with total 2, so prod p^-p = 12^2 = 144
        assert iso_weights == [Fraction(1, 24)] * 24
        assert majorant_weights == [Fraction(1, 12)] * 24
        assert sum(majorant_weights) == 2
        ledger = copy_ledger(k4, p3, labeling)
        report = ledger.chain(evaluate_bounds(k4, 3).copies_local.log_value)
        assert report.omega_count == 24
        assert report.entropy_value == pytest.approx(24, rel=1e-9)
        assert report.majorant_product == pytest.approx(144, rel=1e-9)
        assert report.bound_value == pytest.approx(12, rel=1e-9)
        assert report.links() == (True, False, True, True)
        for row in suite_rows:
            if row.chain_links is not None:
                assert row.chain_links[3], (row.graph_name, row.tree_name)


def test_criterion_12_conjecture_scan():
    with criterion(12, "falling factorial: cliques hold at margin 0; 50-graph scan runs"):
        clique_rows = conjecture_scan(
            ConjectureScanConfig(family="cliques", n=15, t=3, trials=3, seed=1, min_degree=4)
        )
        assert all(r.verdict == "holds" for r in clique_rows)
        assert all(abs(r.log_margin) <= LOG_TOL for r in clique_rows)
        random_rows = conjecture_scan(
            ConjectureScanConfig(family="random", n=10, t=3, trials=50, seed=2024, min_degree=4)
        )
        assert len(random_rows) == 50
        summary = conjecture_to_json(random_rows)["summary"]
        assert summary["total"] == 50
        recorded = [r for r in random_rows if r.verdict in ("holds", "violated")]
        assert all(r.log_margin is not None for r in recorded)
        assert summary["minLogMargin"] is not None
