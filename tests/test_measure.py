import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.oracles import (
    copies_in_slot_order,
    copy_weight,
    draws_by_randrange,
    fraction_rows,
    g_tables_by_enumeration,
    hom_embeddings_by_exhaustion,
    random_tree,
    reversed_labeling,
    slacks_by_cells,
)
from treebound.bounds import evaluate_bounds
from treebound.families import gen_cycle, gen_disjoint_cliques, gen_random_min_degree
from treebound.graphs import (
    Graph,
    Tree,
    good_labeling,
    good_labeling_between,
    path_tree,
    star_tree,
)
from treebound.ledger import copy_ledger
from treebound.measure import (
    GTable,
    MeasureKind,
    g_table_exact,
    g_table_monte_carlo,
    sample_embeddings,
)


def chain_report(graph, tree):
    """The chain from one copy pass, ending at the degree-local copy bound."""
    ledger = copy_ledger(graph, tree, good_labeling(tree))
    return ledger.chain(evaluate_bounds(graph, tree.t).copies_local.log_value)


class TestWeight:
    """The oracle's per-copy weight, which the g-table oracle sums."""

    def test_k4_p3_iso(self, k4, p3):
        L = good_labeling(p3)
        assert copy_weight(k4, L, (0, 1, 2, 3), "P") == Fraction(1, 24)

    def test_k4_p3_majorant(self, k4, p3):
        L = good_labeling(p3)
        assert copy_weight(k4, L, (0, 1, 2, 3), "p") == Fraction(1, 12)

    def test_k4_p3_hom_walk(self, k4, p3):
        L = good_labeling(p3)
        assert copy_weight(k4, L, (0, 1, 0, 1), "Pprime") == Fraction(1, 108)

    def test_single_edge_tree_all_kinds(self, k4):
        L = good_labeling(path_tree(1))
        for kind in MeasureKind:
            assert copy_weight(k4, L, (2, 3), kind.value) == Fraction(1, 12)

    def test_iso_sums_to_one(self, k4, p3):
        L = good_labeling(p3)
        total = sum(copy_weight(k4, L, omega, "P") for omega in copies_in_slot_order(k4, L))
        assert total == 1

    def test_hom_sums_to_one(self, k4_minus_edge, p2):
        L = good_labeling(p2)
        total = sum(
            copy_weight(k4_minus_edge, L, omega, "Pprime")
            for omega in hom_embeddings_by_exhaustion(k4_minus_edge, p2, L)
        )
        assert total == 1

    def test_iso_dominated_by_majorant(self, petersen, s3):
        L = good_labeling(s3)
        for omega in copies_in_slot_order(petersen, L):
            assert copy_weight(petersen, L, omega, "P") <= copy_weight(petersen, L, omega, "p")


class TestSampler:
    def test_c5_p2_law_is_exactly_uniform(self, c5, p2):
        L = good_labeling(p2)
        exact = g_table_exact(c5, p2, L, MeasureKind.ISO)
        # 10 copies, each with one forced third vertex: P is uniform 1/10
        for omega in copies_in_slot_order(c5, L):
            assert copy_weight(c5, L, omega, "P") == Fraction(1, 10)
        empirical = g_table_monte_carlo(c5, p2, L, samples=10000, seed=3)
        for i in range(1, 4):
            for v in range(5):
                assert abs(float(empirical.g(i, v) - exact.g(i, v))) < 0.05

    def test_k4_p3_frequencies_within_five_sigma(self, k4, p3):
        L = good_labeling(p3)
        counts = {}
        n_samples = 24000
        for draw in sample_embeddings(k4, p3, L, random.Random(7), n_samples):
            counts[draw] = counts.get(draw, 0) + 1
        assert len(counts) == 24
        se = math.sqrt((1 / 24) * (23 / 24) / n_samples)
        for count in counts.values():
            assert abs(count / n_samples - 1 / 24) <= 5 * se

    def test_deterministic_given_seed(self, petersen, s3):
        L = good_labeling(s3)
        a = list(sample_embeddings(petersen, s3, L, random.Random(11), 5))
        b = list(sample_embeddings(petersen, s3, L, random.Random(11), 5))
        assert a == b

    def test_seeded_stream_is_pinned(self, k4, p3):
        # a changed random call, call order or candidate order changes these draws
        L = good_labeling(p3)
        pinned = [(1, 0, 3, 2), (3, 2, 1, 0), (0, 3, 1, 2), (0, 1, 3, 2), (0, 1, 2, 3)]
        stream = sample_embeddings(k4, p3, L, random.Random(4), 5)
        assert list(stream) == pinned

    @pytest.mark.parametrize(
        "tree, pinned",
        [
            (path_tree(4), [(37, 6, 20, 26, 3), (10, 36, 31, 21, 33), (34, 21, 24, 38, 18),
                            (26, 4, 16, 5, 30), (5, 29, 3, 20, 30)]),
            (star_tree(4), [(37, 6, 20, 24, 8), (10, 36, 31, 25, 20), (34, 21, 24, 39, 13),
                            (26, 4, 16, 13, 15), (5, 29, 3, 27, 11)]),
            (Tree.from_edges([(1, 2), (2, 3), (3, 4), (3, 5)]),
             [(37, 6, 20, 26, 1), (10, 36, 31, 21, 18), (34, 21, 24, 38, 6),
              (26, 4, 16, 5, 14), (5, 29, 3, 20, 39)]),
        ],
        ids=["P4", "S4", "fork"],
    )
    def test_seeded_stream_is_pinned_on_a_sparse_graph(self, tree, pinned):
        # degrees 6..21 on 40 vertices: unlike K4, a parent image's used
        # neighbours are few, and the chosen vertex's position varies widely
        graph = gen_random_min_degree(40, 0.3, 6, 1)
        stream = sample_embeddings(graph, tree, good_labeling(tree), random.Random(0), 5)
        assert list(stream) == pinned

    def test_stream_checks_run_before_any_draw(self, k4, p3):
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(ValueError, match="need at least 1 sample, got 0"):
            sample_embeddings(k4, p3, good_labeling(p3), rng, 0)
        with pytest.raises(ValueError, match="not a leaf"):
            sample_embeddings(k4, p3, good_labeling(star_tree(3)), rng, 5)
        with pytest.raises(ValueError, match="no edges"):
            sample_embeddings(Graph.from_edges(4, []), p3, good_labeling(p3), rng, 5)
        assert rng.getstate() == state

    def test_single_edge_tree_is_uniform_directed_edge(self, c5):
        tree = path_tree(1)
        L = good_labeling(tree)
        seen = set(sample_embeddings(c5, tree, L, random.Random(0), 2000))
        directed = {(u, v) for u, v in c5.edges} | {(v, u) for u, v in c5.edges}
        assert seen == directed

    def test_empty_candidate_set_aborts(self, p3):
        star_graph = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])  # min degree 1 < 3
        L = good_labeling(p3)
        with pytest.raises(ValueError, match="empty candidate set"):
            for _ in sample_embeddings(star_graph, p3, L, random.Random(1), 50):
                pass


class TestGTables:
    def test_k4_p3_majorant_table(self, k4, p3):
        table = g_table_exact(k4, p3, good_labeling(p3), MeasureKind.MAJORANT)
        assert all(table.g(i, v) == Fraction(1, 2) for i in range(1, 5) for v in range(4))
        assert table.min_slack(k4) == Fraction(1, 4)

    def test_k4_p3_iso_table_matches_degree_profile(self, k4, p3):
        table = g_table_exact(k4, p3, good_labeling(p3), MeasureKind.ISO)
        assert all(table.g(i, v) == Fraction(1, 4) for i in range(1, 5) for v in range(4))
        assert table.equals_degree_profile(k4)

    def test_k4_minus_edge_hom_table_equality(self, k4_minus_edge, p2):
        table = g_table_exact(k4_minus_edge, p2, good_labeling(p2), MeasureKind.HOM)
        # degrees (2,2,3,3), nd = 10: every row must be exactly d(v)/10
        for i in 1, 2, 3:
            for v in range(4):
                assert table.g(i, v) == Fraction(k4_minus_edge.degree(v), 10)
        assert table.equals_degree_profile(k4_minus_edge)

    def test_probability_rows_sum_to_one(self, petersen, p3):
        L = good_labeling(p3)
        for kind in (MeasureKind.ISO, MeasureKind.HOM):
            table = g_table_exact(petersen, p3, L, kind)
            assert all(table.row_sum(i) == 1 for i in range(1, 5))

    def test_majorant_rows_sum_to_at_least_one(self, k4, p3, s3):
        for tree in (p3, s3):
            table = g_table_exact(k4, tree, good_labeling(tree), MeasureKind.MAJORANT)
            assert all(table.row_sum(i) >= 1 for i in range(1, 5))

    def test_majorant_floor_on_random_instances(self):
        rng = random.Random(31)
        for _ in range(20):
            t = rng.randint(1, 4)
            n = rng.randint(t + 2, 8)
            g = gen_random_min_degree(n, rng.uniform(0.6, 0.95), t, seed=rng.randrange(10**6))
            tree = random_tree(rng, t)
            table = g_table_exact(g, tree, good_labeling(tree), MeasureKind.MAJORANT)
            assert table.min_slack(g) >= 0

    def test_hom_profile_equality_on_random_instances(self):
        rng = random.Random(32)
        for _ in range(12):
            t = rng.randint(1, 3)
            n = rng.randint(3, 7)
            g = gen_random_min_degree(n, rng.uniform(0.5, 0.9), 1, seed=rng.randrange(10**6))
            tree = random_tree(rng, t)
            table = g_table_exact(g, tree, good_labeling(tree), MeasureKind.HOM)
            assert table.equals_degree_profile(g)

    def test_monte_carlo_converges_to_exact(self, k4, p3):
        L = good_labeling(p3)
        exact = g_table_exact(k4, p3, L, MeasureKind.ISO)
        estimate = g_table_monte_carlo(k4, p3, L, samples=24000, seed=5)
        sigma = math.sqrt(0.25 * 0.75 / 24000)
        for i in range(1, 5):
            for v in range(4):
                assert abs(float(estimate.g(i, v) - exact.g(i, v))) <= 3 * sigma

    def test_monte_carlo_rejects_zero_samples(self, k4, p3):
        with pytest.raises(ValueError, match="at least 1 sample"):
            g_table_monte_carlo(k4, p3, good_labeling(p3), samples=0, seed=1)

    def test_monte_carlo_empty_candidate_set_aborts(self, p3):
        star_graph = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])  # min degree 1 < 3
        with pytest.raises(ValueError, match="empty candidate set"):
            g_table_monte_carlo(star_graph, p3, good_labeling(p3), samples=50, seed=1)

    def test_entry_index_is_checked(self, k4, p3):
        # i = 0 would read row t+1 through negative indexing
        table = g_table_exact(k4, p3, good_labeling(p3), MeasureKind.MAJORANT)
        for i in (0, 5, -1):
            with pytest.raises(ValueError, match=f"1 <= i <= 4, got {i}"):
                table.g(i, 0)

    def test_entry_vertex_is_checked(self, k4, p3):
        # v = -1 would read vertex 3's entry, and v = 4 would raise IndexError
        table = g_table_exact(k4, p3, good_labeling(p3), MeasureKind.HOM)
        assert table.g(1, 3) == Fraction(1, 4)
        for v in (-1, 4):
            with pytest.raises(ValueError, match=f"vertex {v} is outside 0..3"):
                table.g(1, v)

    def test_row_sum_index_is_checked(self, k4, p3):
        table = g_table_exact(k4, p3, good_labeling(p3), MeasureKind.ISO)
        assert table.row_sum(4) == 1
        for i in (0, 5, -1):
            with pytest.raises(ValueError, match=f"1 <= i <= 4, got {i}"):
                table.row_sum(i)

    def test_degree_floor_required_for_injective_kinds(self, c5, p3):
        with pytest.raises(ValueError, match="min degree"):
            g_table_exact(c5, p3, good_labeling(p3), MeasureKind.MAJORANT)


class TestReversalAndProductForm:
    def test_petersen_star_reversal(self, petersen, s3):
        L = good_labeling(s3)
        index_tree, reversed_L = reversed_labeling(L)
        for omega in copies_in_slot_order(petersen, L):
            # the copy read from its far end, as an embedding of its own index tree
            z = tuple(omega[idx - 1] for idx in reversed_L.order)
            assert z[0] == omega[-1] and z[-1] == omega[0]
            image = dict(zip(reversed_L.order, z))
            assert all(petersen.has_edge(image[a], image[b]) for a, b in index_tree.edges)
            assert copy_weight(petersen, reversed_L, z, "p") == copy_weight(petersen, L, omega, "p")
        assert copy_ledger(petersen, s3, L).product_form_equal

    def test_petersen_star_product_form(self, petersen, s3):
        L = good_labeling(s3)
        # star labeling puts the center at index 2 with two late children
        assert L.f(3) == 2 and L.f(4) == 2
        t = s3.t
        for omega in copies_in_slot_order(petersen, L):
            expected = Fraction(1, petersen.degree_sum)
            for j in range(1, t + 2):
                base = petersen.degree(omega[j - 1]) - t + 1
                expected /= base ** (s3.tree_degree(L.vertex(j)) - 1)
            assert copy_weight(petersen, L, omega, "p") == expected
        assert copy_ledger(petersen, s3, L).product_form_equal


class TestVerifyChain:
    def test_k4_p3_chain(self, k4, p3):
        report = chain_report(k4, p3)
        assert report.omega_count == 24
        assert report.entropy_value == pytest.approx(24, rel=1e-9)
        assert report.majorant_product == pytest.approx(144, rel=1e-9)
        assert report.bound_value == pytest.approx(12, rel=1e-9)
        assert report.links() == (True, False, True, True)

    def test_c5_p2_chain_collapses_to_equality(self, c5, p2):
        report = chain_report(c5, p2)
        assert report.omega_count == 10
        assert report.entropy_value == pytest.approx(10, rel=1e-9)
        assert report.majorant_product == pytest.approx(10, rel=1e-9)
        assert report.bound_value == pytest.approx(10, rel=1e-9)
        assert report.links() == (True, True, True, True)

    def test_k4_p2_final_link_equality(self, k4, p2):
        report = chain_report(k4, p2)
        assert report.omega_count == 24
        assert report.bound_value == pytest.approx(24, rel=1e-9)
        assert report.count_ge_bound

    def test_support_bound_on_random_instances(self):
        rng = random.Random(34)
        for _ in range(10):
            t = rng.randint(1, 3)
            n = rng.randint(t + 2, 7)
            g = gen_random_min_degree(n, rng.uniform(0.7, 0.95), t, seed=rng.randrange(10**6))
            report = chain_report(g, random_tree(rng, t))
            assert report.count_ge_entropy
            assert report.product_ge_bound
            assert report.count_ge_bound

    def test_requires_degree_floor(self, c5, p3):
        with pytest.raises(ValueError, match="min degree"):
            chain_report(c5, p3)


def test_measure_kind_tokens():
    assert MeasureKind("P") is MeasureKind.ISO
    assert MeasureKind("p") is MeasureKind.MAJORANT
    assert MeasureKind("Pprime") is MeasureKind.HOM
    with pytest.raises(ValueError, match="'q' is not a valid MeasureKind"):
        MeasureKind("q")


def test_strict_floor_exists(k4, p3):
    # the floor g[i][v] >= d(v)/nd can be strict: on K4/P3 every entry is
    # 1/2 against a floor of 1/4
    table = g_table_exact(k4, p3, good_labeling(p3), MeasureKind.MAJORANT)
    assert all(slack > 0 for row in slacks_by_cells(k4, fraction_rows(table)) for slack in row)


@st.composite
def sampled_streams(draw):
    """A random tree with t <= 4 edges in a graph of min degree >= t, and a
    seeded stream of 1..40 draws."""
    t = draw(st.integers(1, 4))
    tree = random_tree(draw(st.randoms(use_true_random=False)), t)
    n = draw(st.integers(t + 1, 10))
    p = draw(st.sampled_from([0.7, 0.85, 1.0]))
    graph = gen_random_min_degree(n, p, t, seed=draw(st.integers(0, 10**6)))
    return graph, tree, draw(st.integers(1, 40)), draw(st.integers(0, 10**6))


@settings(max_examples=40, deadline=None)
@given(sampled_streams())
def test_stream_draws_copies_and_feeds_the_monte_carlo_table(case):
    graph, tree, samples, seed = case
    L = good_labeling(tree)
    stream = sample_embeddings(graph, tree, L, random.Random(seed), samples)
    draws = list(stream)
    assert len(draws) == samples
    for verts in draws:
        image = dict(zip(L.order, verts))
        assert len(set(verts)) == tree.t + 1
        assert all(graph.has_edge(image[a], image[b]) for a, b in tree.edges)
    # one-draw streams on a shared generator continue one another
    rng = random.Random(seed)
    one_draw = [next(sample_embeddings(graph, tree, L, rng, 1)) for _ in range(samples)]
    assert one_draw == draws
    table = g_table_monte_carlo(graph, tree, L, samples, seed)
    expected = [
        [Fraction(sum(verts[i] == v for verts in draws), samples) for v in range(graph.n)]
        for i in range(tree.t + 1)
    ]
    assert fraction_rows(table) == expected


@st.composite
def oracle_streams(draw):
    """A graph on 2..40 vertices, sparse ones with isolated vertices or min
    degree below t among them, a random tree with 2 <= t <= 6 (t = 1 has no
    slot past the start edge) under a breadth-first or good_labeling_between
    labeling, 1..30 draws and a seed."""
    t = draw(st.integers(2, 6))
    tree = random_tree(draw(st.randoms(use_true_random=False)), t)
    n = draw(st.integers(2, 40))
    p = draw(st.sampled_from([0.05, 0.15, 0.3, 0.6, 1.0]))
    rng = random.Random(draw(st.integers(0, 10**6)))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    graph = Graph.from_edges(n, edges or [(0, 1)])
    first = draw(st.sampled_from(tree.leaves))
    if draw(st.booleans()):
        labeling = good_labeling(tree, first)
    else:
        last = draw(st.sampled_from([x for x in tree.leaves if x != first]))
        labeling = good_labeling_between(tree, first, last)
    return graph, tree, labeling, draw(st.integers(1, 30)), draw(st.integers(0, 10**6))


def _drain(stream, rng):
    """The draws a stream yields before it ends or fails, its error text (None
    if it ended) and the generator's state afterwards."""
    draws = []
    try:
        for verts in stream:
            draws.append(verts)
    except ValueError as exc:
        return draws, str(exc), rng.getstate()
    return draws, None, rng.getstate()


def _oracle_case(graph, tree, samples=20, seed=0):
    return graph, tree, good_labeling(tree), samples, seed


@settings(max_examples=150, deadline=None)
@given(oracle_streams())
# a star under K6: each leaf slot's parent image (the centre) has several used neighbours
@example(_oracle_case(gen_disjoint_cliques(1, 6), star_tree(4)))
# a path along C12: each parent image has one used neighbour, its own parent's image
@example(_oracle_case(gen_cycle(12), path_tree(5)))
# a path in the star K_{1,3}: the first draw is stuck
@example(_oracle_case(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), path_tree(3), seed=1))
def test_stream_equals_the_randrange_oracle(case):
    """The sampler reads the same bits as one randrange per choice: equal
    draws, the same stuck-draw error at the same draw, and an equal
    generator state afterwards."""
    graph, tree, labeling, samples, seed = case
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    got = _drain(sample_embeddings(graph, tree, labeling, rng, samples), rng)
    want = _drain(draws_by_randrange(graph, tree, labeling, oracle_rng, samples), oracle_rng)
    assert got == want


def _assert_slacks_match_oracle(graph, table):
    """min_slack, equals_degree_profile, their one pass slack_and_profile and
    row_sum, all computed in integers over the table's common denominator,
    against the table's Fraction cells."""
    rows = fraction_rows(table)
    cells = slacks_by_cells(graph, rows)
    low, flat = min(min(row) for row in cells), all(x == 0 for row in cells for x in row)
    assert table.min_slack(graph) == low
    assert table.equals_degree_profile(graph) == flat
    ratio, profile = table.slack_and_profile(graph)
    assert ratio == table.min_slack_ratio(graph)
    assert (Fraction(*ratio), profile) == (low, flat)
    for i, row in enumerate(rows, 1):
        assert table.row_sum(i) == sum(row)


@settings(max_examples=30, deadline=None)
@given(sampled_streams())
def test_integer_slacks_match_fraction_cells(case):
    graph, tree, samples, seed = case
    L = good_labeling(tree)
    for kind in MeasureKind:
        _assert_slacks_match_oracle(graph, g_table_exact(graph, tree, L, kind))
    _assert_slacks_match_oracle(graph, g_table_monte_carlo(graph, tree, L, samples, seed))


def test_integer_slacks_with_an_isolated_vertex_and_negative_slack(k4, p3):
    # K4 plus the isolated vertex 4: weight 0 against a floor of 0
    graph = Graph.from_edges(5, k4.edges)
    L = good_labeling(p3)
    hom = g_table_exact(graph, p3, L, MeasureKind.HOM)
    _assert_slacks_match_oracle(graph, hom)
    assert hom.equals_degree_profile(graph) and hom.min_slack(graph) == 0
    estimate = g_table_monte_carlo(graph, p3, L, 7, seed=3)
    _assert_slacks_match_oracle(graph, estimate)
    assert estimate.min_slack(graph) < 0


def table_from_fractions(kind, rows, scale=1):
    """A GTable from rows of Fractions, over `scale` times their common denominator."""
    common = scale * math.lcm(*(x.denominator for row in rows for x in row))
    return GTable(kind, common, [[int(x * common) for x in row] for row in rows])


@pytest.mark.parametrize("bump", [Fraction(1, 7), Fraction(-1, 7)], ids=["above", "below"])
def test_one_cell_off_the_degree_profile_is_seen(k4_minus_edge, bump):
    # every cell of the degree profile in turn moved by a denominator no other
    # cell shares, so the common denominator must take in every cell
    graph, positions = k4_minus_edge, 3
    profile = [Fraction(graph.degree(v), graph.degree_sum) for v in range(graph.n)]
    for i in range(positions):
        for v in range(graph.n):
            rows = [list(profile) for _ in range(positions)]
            rows[i][v] += bump
            table = table_from_fractions(MeasureKind.HOM, rows, scale=3)
            assert table.denominator == 70 and fraction_rows(table) == rows
            _assert_slacks_match_oracle(graph, table)
            assert not table.equals_degree_profile(graph)
            assert table.min_slack(graph) == min(bump, 0)
            assert table.row_sum(i + 1) == 1 + bump


@pytest.mark.parametrize("scale", [1, 6])
def test_tables_from_fraction_rows_equal_the_library_tables(scale):
    # K5 with P3: min degree 4 >= t, and cells over several denominators
    graph, tree = gen_disjoint_cliques(1, 5), path_tree(3)
    L = good_labeling(tree)
    ledger = copy_ledger(graph, tree, L)
    expected = {"P": ledger.iso, "p": ledger.majorant,
                "Pprime": g_table_exact(graph, tree, L, MeasureKind.HOM)}
    for token, rows in g_tables_by_enumeration(graph, tree, L).items():
        kind = MeasureKind(token)
        built = table_from_fractions(kind, rows, scale)
        assert built == expected[token] == g_table_exact(graph, tree, L, kind)
        assert hash(built) == hash(expected[token])


def test_a_graph_of_another_size_is_refused(k4, p3):
    table = g_table_exact(k4, p3, good_labeling(p3), MeasureKind.ISO)
    k5, c3 = gen_disjoint_cliques(1, 5), gen_cycle(3)
    for graph in (k5, c3):
        with pytest.raises(ValueError, match="table has 4 vertices, graph has"):
            table.min_slack(graph)
        with pytest.raises(ValueError, match="table has 4 vertices, graph has"):
            table.equals_degree_profile(graph)
