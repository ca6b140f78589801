import math
import random
from collections import Counter

import pytest

from treebound.bounds import (
    LOG_TOLERANCE,
    compare_count_to_bound,
    evaluate_bounds,
)
from treebound.counting import count_copies, count_homomorphisms, count_walks
from treebound.families import gen_cycle, gen_disjoint_cliques, gen_random_min_degree
from treebound.graphs import Graph, Tree, path_tree, star_tree
from tests.oracles import bounds_by_fractions, free_trees


def exp_or_none(bound):
    return None if bound.log_value is None else math.exp(bound.log_value)


class TestEvaluateBounds:
    def test_k4_t2(self, k4):
        r = evaluate_bounds(k4, 2)
        assert exp_or_none(r.copies_local) == pytest.approx(24, rel=1e-12)
        assert exp_or_none(r.copies_average) == pytest.approx(24, rel=1e-12)
        assert exp_or_none(r.homs_local) == pytest.approx(36, rel=1e-12)
        assert exp_or_none(r.walks_blakley_roy) == pytest.approx(36, rel=1e-12)
        assert exp_or_none(r.falling_factorial) == pytest.approx(24, rel=1e-12)
        assert not r.copies_p3.applicable

    def test_c5_t2(self, c5):
        r = evaluate_bounds(c5, 2)
        assert exp_or_none(r.copies_local) == pytest.approx(10, rel=1e-12)
        assert exp_or_none(r.copies_average) == pytest.approx(10, rel=1e-12)
        assert exp_or_none(r.walks_blakley_roy) == pytest.approx(20, rel=1e-12)
        assert exp_or_none(r.falling_factorial) == pytest.approx(10, rel=1e-12)

    def test_k4_t3(self, k4):
        r = evaluate_bounds(k4, 3)
        assert exp_or_none(r.copies_local) == pytest.approx(12, rel=1e-12)
        assert exp_or_none(r.copies_average) == pytest.approx(12, rel=1e-12)
        assert exp_or_none(r.copies_p3) == pytest.approx(12, rel=1e-12)
        assert exp_or_none(r.walks_blakley_roy) == pytest.approx(108, rel=1e-12)
        assert exp_or_none(r.falling_factorial) == pytest.approx(24, rel=1e-12)

    def test_petersen_t3(self, petersen):
        r = evaluate_bounds(petersen, 3)
        assert exp_or_none(r.copies_local) == pytest.approx(30, rel=1e-12)

    def test_min_degree_hypothesis_flags(self, c5):
        r = evaluate_bounds(c5, 3)
        assert not r.copies_local.applicable
        assert "min degree 2 < t = 3" in r.copies_local.reason
        assert not r.copies_average.applicable
        assert not r.copies_p3.applicable
        # walk and hom bounds need no degree hypothesis
        assert r.walks_blakley_roy.applicable
        assert r.homs_local.applicable

    def test_falling_factorial_nonpositive_factor(self, c5):
        r = evaluate_bounds(c5, 3)  # d = 2, factor d-2 = 0
        assert not r.falling_factorial.applicable
        assert "nonpositive factor" in r.falling_factorial.reason

    def test_no_edges(self):
        r = evaluate_bounds(Graph.from_edges(3, []), 1)
        assert not r.homs_local.applicable
        assert not r.walks_blakley_roy.applicable

    def test_single_vertex_everything_flagged(self):
        r = evaluate_bounds(Graph.from_edges(1, []), 2)
        assert all(not b.applicable for b in r.named_bounds().values())

    def test_reason_texts(self, k4, c5):
        path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])  # d = 3/2
        assert evaluate_bounds(path, 3).falling_factorial.reason == "nonpositive factor d - 2 = -1/2"
        # an integer factor is written as str(Fraction) writes it: no denominator
        c4 = gen_cycle(4)
        assert evaluate_bounds(c4, 4).falling_factorial.reason == "nonpositive factor d - 3 = -1"
        assert evaluate_bounds(c4, 3).falling_factorial.reason == "nonpositive factor d - 2 = 0"
        assert evaluate_bounds(k4, 4).copies_p3.reason == "defined only for t = 3, got t = 4"
        assert evaluate_bounds(c5, 3).copies_p3.reason == "min degree 2 < 3"
        edgeless = evaluate_bounds(Graph.from_edges(3, []), 1)
        assert edgeless.homs_local.reason == edgeless.walks_blakley_roy.reason == "graph has no edges"

    def test_report_holds_the_six_bounds_in_order(self, k4):
        assert tuple(evaluate_bounds(k4, 3).named_bounds()) == (
            "copies_local", "copies_average", "homs_local", "copies_p3",
            "walks_blakley_roy", "falling_factorial",
        )

    def test_invalid_parameters(self, k4):
        with pytest.raises(ValueError):
            evaluate_bounds(k4, 0)


class TestSameLogsOnEveryPython:
    """The logs are computed from integers and added in a plain loop, so they
    do not depend on the interpreter: sum() compensates its float rounding
    from Python 3.12 on."""

    def test_falling_factorial_adds_factor_logs_left_to_right(self):
        # A compensated sum of the six factor logs ends in ...431p+3.
        r = evaluate_bounds(gen_disjoint_cliques(1, 9), 6)
        assert r.falling_factorial.log_value.hex() == "0x1.837a4f1b85430p+3"

    def test_logs_and_reasons_match_the_fraction_evaluation(self):
        rng = random.Random(1511)
        applicable = Counter()
        for _ in range(2400):
            n = rng.randint(1, 30)
            p = rng.choice((0.0, rng.random(), rng.uniform(0.7, 1.0)))
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            g = Graph.from_edges(n, edges)
            t = rng.randint(1, 6)
            got = {
                name: (b.applicable, b.log_value.hex() if b.applicable else b.reason)
                for name, b in evaluate_bounds(g, t).named_bounds().items()
            }
            assert got == bounds_by_fractions(g, t), (n, edges, t)
            applicable.update(name for name, (ok, _) in got.items() if ok)
        # every bound took its log path often, not just its reason path
        assert len(applicable) == 6 and min(applicable.values()) >= 100, applicable


class TestCompareCountToBound:
    def test_equality_case(self):
        cmp = compare_count_to_bound(24, math.log(24))
        assert cmp.holds
        assert abs(cmp.log_margin) <= LOG_TOLERANCE

    def test_petersen_margin(self):
        cmp = compare_count_to_bound(120, math.log(30))
        assert cmp.holds
        assert cmp.log_margin == pytest.approx(math.log(4), rel=1e-12)

    def test_zero_count_fails_real_bound(self):
        cmp = compare_count_to_bound(0, math.log(10))
        assert not cmp.holds
        assert cmp.log_margin == float("-inf")

    def test_zero_count_passes_trivial_bound(self):
        assert compare_count_to_bound(0, 0.0).holds

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            compare_count_to_bound(-1, 0.0)
        with pytest.raises(ValueError):
            compare_count_to_bound(5, float("inf"))


def _random_valid_instances(count, seed, ts=(2, 3, 4), jensen_floor=False):
    """Random instances meeting the min-degree hypothesis.

    With jensen_floor=True the floor is raised to max(t, 2t-2): that is the
    region where x*ln(x-t+1) is convex in the degree, which the local-vs-
    average comparison needs.  Degrees in [t, 2t-2) can flip it (see
    test_average_bound_can_cross_local_bound).
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        t = ts[i % len(ts)]
        floor = max(t, 2 * (t - 1)) if jensen_floor else t
        n = rng.randint(floor + 2, floor + 5)
        p = rng.uniform(0.75, 0.95)
        g = gen_random_min_degree(n, p, floor, seed=rng.randrange(10**6))
        out.append((g, t))
    return out


class TestBoundRelations:
    def test_jensen_direction_on_random_instances(self):
        for g, t in _random_valid_instances(50, seed=20, jensen_floor=True):
            r = evaluate_bounds(g, t)
            assert r.copies_local.log_value >= r.copies_average.log_value - LOG_TOLERANCE

    def test_average_bound_can_cross_local_bound(self):
        # K5 minus two disjoint edges, t=3: degrees (3,3,3,3,4) sit inside
        # [t, 2t-2), the non-convex stretch, and the average-degree bound
        # (23.04) exceeds the local one (16*sqrt(2)); the exact count obeys
        # both.  Pinning the crossing keeps it from being "fixed" later.
        g = Graph.from_edges(
            5,
            [(u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) not in ((0, 1), (2, 3))],
        )
        r = evaluate_bounds(g, 3)
        assert r.copies_local.log_value < r.copies_average.log_value - LOG_TOLERANCE
        count = count_copies(g, path_tree(3)).value
        assert count == 56
        assert compare_count_to_bound(count, r.copies_local.log_value).holds
        assert compare_count_to_bound(count, r.copies_average.log_value).holds

    def test_jensen_equality_on_regular_graphs(self, k4, c5, petersen):
        for g, t in [(k4, 2), (k4, 3), (c5, 2), (petersen, 3)]:
            r = evaluate_bounds(g, t)
            assert r.copies_local.log_value == pytest.approx(
                r.copies_average.log_value, abs=1e-9
            )

    def test_p3_specialization(self):
        for g, _ in _random_valid_instances(12, seed=21, ts=(3,)):
            r = evaluate_bounds(g, 3)
            assert r.copies_p3.applicable
            assert r.copies_p3 == r.copies_local

    def test_local_bound_below_exact_count(self):
        for g, t in _random_valid_instances(15, seed=23, ts=(2, 3)):
            r = evaluate_bounds(g, t)
            count = count_copies(g, path_tree(t)).value
            assert compare_count_to_bound(count, r.copies_local.log_value).holds

    def test_hom_bound_below_exact_count(self):
        rng = random.Random(24)
        for _ in range(12):
            g = gen_random_min_degree(rng.randint(3, 8), 0.6, 1, seed=rng.randrange(10**6))
            t = rng.randint(1, 4)
            r = evaluate_bounds(g, t)
            count = count_homomorphisms(g, path_tree(t)).value
            assert compare_count_to_bound(count, r.homs_local.log_value).holds

    def test_walk_bound_below_exact_count(self):
        rng = random.Random(25)
        for _ in range(12):
            g = gen_random_min_degree(rng.randint(3, 8), 0.6, 1, seed=rng.randrange(10**6))
            t = rng.randint(1, 5)
            r = evaluate_bounds(g, t)
            count = count_walks(g, t).value
            assert compare_count_to_bound(count, r.walks_blakley_roy.log_value).holds

    def test_walk_bound_equality_on_regular_graphs(self, k4, c5):
        for g, t, expected in [(k4, 3, 108), (c5, 2, 20)]:
            r = evaluate_bounds(g, t)
            assert count_walks(g, t).value == expected
            cmp = compare_count_to_bound(expected, r.walks_blakley_roy.log_value)
            assert abs(cmp.log_margin) <= 1e-9

    def test_falling_factorial_exact_on_cliques(self):
        for c, q, t in [(1, 4, 3), (3, 5, 3), (2, 6, 4)]:
            g = gen_disjoint_cliques(c, q)
            r = evaluate_bounds(g, t)
            count = count_copies(g, path_tree(t)).value
            cmp = compare_count_to_bound(count, r.falling_factorial.log_value)
            assert abs(cmp.log_margin) <= 1e-9


# each proven bound and the count it bounds from below
PROVEN = {
    "copies_local": "copies",
    "copies_average": "copies",
    "copies_p3": "copies",
    "homs_local": "homs",
    "walks_blakley_roy": "walks",
}


def _proven_bounds_hold(g, tree):
    """Assert that each applicable proven bound is at most its count, and
    return the names of the applicable ones.  falling_factorial is the open
    conjecture, which the scanner tests, and is not checked here."""
    counts = {
        "copies": count_copies(g, tree).value,
        "homs": count_homomorphisms(g, tree).value,
        "walks": count_walks(g, tree.t).value,
    }
    applied = set()
    for name, b in evaluate_bounds(g, tree.t).named_bounds().items():
        if name in PROVEN and b.applicable:
            count = counts[PROVEN[name]]
            assert compare_count_to_bound(count, b.log_value).holds, (name, count, g.edges)
            applied.add(name)
    return applied


class TestProvenBoundsOnEveryTreeShape:
    # the 13 tree shapes with 1 to 5 edges, each named by its edge list
    @pytest.mark.parametrize(
        "edges",
        [pytest.param(e, id="-".join(f"{u}{v}" for u, v in e)) for k in range(2, 7)
         for e in free_trees(k)],
    )
    def test_on_random_graphs_around_the_degree_floor(self, edges):
        tree = Tree.from_edges(edges)
        t = tree.t
        rng = random.Random(len(edges) * 1000 + sum(u * v for u, v in edges))
        sides, applied = set(), set()
        for floor in (t - 1, t, t + 1):
            for _ in range(5):
                n = rng.randint(floor + 2, floor + 4)
                # a mean degree within 1 above the floor, which the graph often meets
                p = min(0.95, rng.uniform(floor, floor + 1) / (n - 1))
                g = gen_random_min_degree(n, p, floor, seed=rng.randrange(10**6))
                sides.add((g.min_degree > t) - (g.min_degree < t))
                applied |= _proven_bounds_hold(g, tree)
        # graphs with min degree below, at and above t; every bound applied
        assert sides == {-1, 0, 1}
        assert applied == set(PROVEN) - ({"copies_p3"} if t != 3 else set())

    @pytest.mark.parametrize("tree", [path_tree(4), star_tree(4)], ids=["P4", "S4"])
    def test_k5(self, tree):
        # each of the 5! maps of a 5-vertex tree into K5 is a copy
        k5 = gen_disjoint_cliques(1, 5)
        assert count_copies(k5, tree).value == 120
        assert _proven_bounds_hold(k5, tree) == set(PROVEN) - {"copies_p3"}
