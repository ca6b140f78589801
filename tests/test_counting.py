import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.oracles import (
    copies_by_permutations,
    copies_in_slot_order,
    copy_weight,
    fraction_rows,
    free_trees,
    g_tables_by_enumeration,
    homs_by_exhaustion,
    random_tree,
    search_nodes_by_permutations,
    star_copies_by_formula,
    walks_by_matrix_power,
)
from treebound.counting import (
    CountResult,
    count_copies,
    count_homomorphisms,
    count_walks,
)
from treebound.errors import WorkCapExceeded
from treebound.graphs import (
    Graph,
    Tree,
    gen_cycle,
    gen_disjoint_cliques,
    gen_random_min_degree,
    good_labeling,
    good_labeling_between,
    path_tree,
    star_tree,
)
from treebound.measure import copy_ledger


class TestCountCopies:
    def test_k4_p2(self, k4, p2):
        result = count_copies(k4, p2)
        assert result.value == 24
        assert result.method == "enumeration"
        assert copies_by_permutations(k4, p2) == 24

    def test_disjoint_cliques_any_three_edge_tree(self, p3, s3):
        g = gen_disjoint_cliques(3, 5)
        assert count_copies(g, p3).value == 360
        assert count_copies(g, s3).value == 360

    def test_petersen_star(self, petersen, s3):
        assert count_copies(petersen, s3).value == 60
        assert star_copies_by_formula(petersen, 3) == 60

    def test_petersen_path(self, petersen, p3):
        assert count_copies(petersen, p3).value == 120
        assert copies_by_permutations(petersen, p3) == 120

    def test_no_copies_in_too_small_graph(self, p2):
        k2 = Graph.from_edges(2, [(0, 1)])
        assert count_copies(k2, p2).value == 0

    def test_work_cap(self, petersen, p3):
        with pytest.raises(WorkCapExceeded):
            count_copies(petersen, p3, work_cap=50)

    def test_k4_p3_charges_65_nodes(self, k4, p3):
        # 1 empty prefix + 4 + 4*3 + 4*3*2 + 4*3*2*1 partial copies
        assert count_copies(k4, p3, work_cap=65).nodes == 65
        with pytest.raises(WorkCapExceeded, match="copy count exceeded the work cap of 64"):
            count_copies(k4, p3, work_cap=64)
        labeling = good_labeling(p3)
        assert copy_ledger(k4, p3, labeling, work_cap=65).count == 24
        with pytest.raises(WorkCapExceeded, match="copy enumeration exceeded the work cap of 64"):
            copy_ledger(k4, p3, labeling, work_cap=64)

    def test_negative_work_cap_is_rejected(self, k4, p3):
        with pytest.raises(ValueError, match="work cap must be >= 0, got -5"):
            count_copies(k4, p3, work_cap=-5)
        with pytest.raises(ValueError, match="work cap must be >= 0, got -1"):
            copy_ledger(k4, p3, good_labeling(p3), work_cap=-1)
        # a cap of 0 is valid: the empty prefix already exceeds it
        with pytest.raises(WorkCapExceeded, match="work cap of 0 search nodes"):
            count_copies(k4, p3, work_cap=0)

    def test_nodes_are_a_statistic_not_part_of_the_result(self):
        assert CountResult(24, "enumeration", 65) == CountResult(24, "enumeration", 1)
        assert count_homomorphisms(gen_disjoint_cliques(1, 4), path_tree(2)).nodes == 0

    def test_tree_too_deep_for_the_search_is_a_value_error(self):
        # the search recurses once per slot, so 1101 slots outgrow the
        # interpreter's default recursion limit of 1000
        with pytest.raises(ValueError, match=r"tree with 1100 edges \(1101 vertices\) is too deep"):
            count_copies(gen_cycle(1200), path_tree(1100))

    def test_labeling_choice_does_not_matter(self, petersen, p3):
        for first, last in [(1, 4), (4, 1)]:
            labeling = good_labeling_between(p3, first, last)
            assert count_copies(petersen, p3, labeling=labeling).value == 120

    def test_clique_falling_factorial_for_every_tree_shape(self):
        fork = Tree.from_edges([(1, 2), (2, 3), (3, 4), (3, 5)])
        for c, q in [(1, 5), (2, 5), (2, 6)]:
            g = gen_disjoint_cliques(c, q)
            n, d = g.n, q - 1
            for t, tree in [(3, path_tree(3)), (3, star_tree(3)), (4, fork)]:
                expected = n
                for j in range(t):
                    expected *= d - j
                assert count_copies(g, tree).value == expected


class TestStarFormula:
    """count_copies on stars against the closed form sum_v t! * C(d(v), t)."""

    def test_k4(self, k4):
        assert count_copies(k4, star_tree(2)).value == star_copies_by_formula(k4, 2) == 24

    def test_c5(self, c5):
        assert count_copies(c5, star_tree(2)).value == star_copies_by_formula(c5, 2) == 10

    def test_vanishes_above_max_degree(self, c5):
        assert count_copies(c5, star_tree(3)).value == star_copies_by_formula(c5, 3) == 0

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_matches_enumeration(self, t):
        rng = random.Random(52)
        for trial in range(6):
            g = gen_random_min_degree(rng.randint(4, 8), 0.6, 0, seed=trial)
            assert star_copies_by_formula(g, t) == count_copies(g, star_tree(t)).value

    def test_larger_instance_matches_enumeration(self):
        g = gen_random_min_degree(12, 0.7, 6, seed=5)
        for t in (5, 6):
            assert star_copies_by_formula(g, t) == count_copies(g, star_tree(t)).value


class TestHomomorphisms:
    def test_k4_examples(self, k4, p2, p3, s3):
        assert count_homomorphisms(k4, p2).value == 36
        assert count_homomorphisms(k4, p3).value == 108
        assert count_homomorphisms(k4, s3).value == 108
        for tree in (p2, p3, s3):
            assert count_homomorphisms(k4, tree).value == homs_by_exhaustion(k4, tree)

    def test_bruteforce_examples(self, p2):
        k3 = gen_disjoint_cliques(1, 3)
        k2 = Graph.from_edges(2, [(0, 1)])
        assert count_homomorphisms(k3, p2).value == homs_by_exhaustion(k3, p2) == 12
        assert count_homomorphisms(k2, p2).value == homs_by_exhaustion(k2, p2) == 2

    def test_dp_agrees_with_bruteforce_on_random_instances(self):
        rng = random.Random(99)
        for _ in range(20):
            n = rng.randint(3, 8)
            g = gen_random_min_degree(n, rng.uniform(0.3, 0.9), 0, seed=rng.randrange(10**6))
            tree = random_tree(rng, rng.randint(1, 4))
            assert count_homomorphisms(g, tree).value == homs_by_exhaustion(g, tree)

    def test_copies_never_exceed_homomorphisms(self):
        rng = random.Random(4)
        for _ in range(10):
            g = gen_random_min_degree(rng.randint(3, 7), 0.5, 0, seed=rng.randrange(10**6))
            tree = random_tree(rng, rng.randint(1, 4))
            assert count_copies(g, tree).value <= count_homomorphisms(g, tree).value


class TestWalks:
    def test_k4_length_three(self, k4):
        assert count_walks(k4, 3).value == 108

    def test_c5_length_two(self, c5):
        assert count_walks(c5, 2).value == 20

    def test_length_zero_counts_vertices(self, petersen):
        assert count_walks(petersen, 0).value == 10

    def test_matches_matrix_power_oracle(self, petersen, k4, c5):
        for g in (petersen, k4, c5):
            for t in range(5):
                assert count_walks(g, t).value == walks_by_matrix_power(g, t)

    def test_equals_path_homomorphisms(self):
        rng = random.Random(11)
        for _ in range(8):
            g = gen_random_min_degree(rng.randint(2, 10), 0.5, 0, seed=rng.randrange(10**6))
            for t in range(1, 6):
                assert count_walks(g, t).value == count_homomorphisms(g, path_tree(t)).value


# ---------------------------------------------------------------------------
# Invariance properties


@st.composite
def small_graph_and_tree(draw):
    n = draw(st.integers(2, 7))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(0, 2 ** len(possible) - 1))
    graph = Graph.from_edges(n, [e for i, e in enumerate(possible) if mask >> i & 1])
    t = draw(st.integers(1, 3))
    parents = [draw(st.integers(1, j - 1)) for j in range(2, t + 2)]
    tree = Tree.from_edges((p, j) for j, p in enumerate(parents, 2))
    return graph, tree


@settings(max_examples=50)
@given(small_graph_and_tree())
def test_count_matches_permutation_oracle(pair):
    graph, tree = pair
    assert count_copies(graph, tree).value == copies_by_permutations(graph, tree)


@settings(max_examples=50)
@given(small_graph_and_tree())
def test_hom_count_matches_exhaustion_oracle(pair):
    graph, tree = pair
    assert count_homomorphisms(graph, tree).value == homs_by_exhaustion(graph, tree)


@settings(max_examples=50)
@given(st.integers(1, 6), st.integers(0, 60), st.integers(0, 4))
def test_walks_match_matrix_oracle(n, mask, t):
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    graph = Graph.from_edges(n, [e for i, e in enumerate(possible) if mask >> i & 1])
    assert count_walks(graph, t).value == walks_by_matrix_power(graph, t)


@settings(max_examples=60)
@given(small_graph_and_tree(), st.randoms(use_true_random=False))
def test_count_invariant_under_graph_relabeling(pair, rng):
    graph, tree = pair
    baseline = count_copies(graph, tree).value
    relabel = list(range(graph.n))
    rng.shuffle(relabel)
    shuffled = Graph.from_edges(
        graph.n, [(relabel[u], relabel[v]) for u, v in graph.edges]
    )
    assert count_copies(shuffled, tree).value == baseline


@settings(max_examples=60)
@given(small_graph_and_tree(), st.data())
def test_count_invariant_under_labeling_choice(pair, data):
    graph, tree = pair
    baseline = count_copies(graph, tree).value
    leaf = data.draw(st.sampled_from(tree.leaves))
    assert count_copies(graph, tree, labeling=good_labeling(tree, leaf)).value == baseline


@settings(max_examples=40)
@given(small_graph_and_tree(), st.randoms(use_true_random=False))
def test_count_invariant_under_tree_renaming(pair, rng):
    graph, tree = pair
    baseline = count_copies(graph, tree).value
    names = list(tree.vertices)
    rng.shuffle(names)
    rename = dict(zip(tree.vertices, names))
    renamed = Tree.from_edges((rename[a], rename[b]) for a, b in tree.edges)
    assert count_copies(graph, renamed).value == baseline


FORK = Tree.from_edges([(1, 2), (2, 3), (3, 4), (3, 5)])


@st.composite
def graph_tree_labeling(draw):
    """A graph on up to 7 vertices, a path, star, fork or random tree with
    1..4 edges, and a labeling that starts, or starts and ends, at chosen
    leaves, so the trailing leaf block holds one slot or several."""
    n = draw(st.integers(1, 7))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(0, 2 ** len(possible) - 1))
    graph = Graph.from_edges(n, [e for i, e in enumerate(possible) if mask >> i & 1])
    t = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["path", "star", "fork", "random"]))
    if shape == "path":
        tree = path_tree(t)
    elif shape == "star":
        tree = star_tree(t)
    elif shape == "fork":
        tree = FORK
    else:
        tree = random_tree(draw(st.randoms(use_true_random=False)), t)
    first = draw(st.sampled_from(tree.leaves))
    last = draw(st.sampled_from([None] + [x for x in tree.leaves if x != first]))
    if last is None:
        labeling = good_labeling(tree, first)
    else:
        labeling = good_labeling_between(tree, first, last)
    return graph, tree, labeling


NO_COPY = (Graph.from_edges(4, [(0, 1), (2, 3)]), path_tree(2), good_labeling(path_tree(2)))
SINGLE_EDGE = (gen_cycle(5), path_tree(1), good_labeling(path_tree(1)))
LOW_DEGREE_STAR = (gen_cycle(5), star_tree(3), good_labeling_between(star_tree(3), 2, 4))
DENSE_STAR = (gen_disjoint_cliques(1, 6), star_tree(4), good_labeling(star_tree(4)))
# Order (2, 1, 3, 4, 5), parent positions (-1, 0, 1, 1, 2): the block is slot 4
# under slot 2, while the last placed slot is 3.
SPIDER = Tree.from_edges([(1, 2), (1, 3), (1, 4), (3, 5)])
SPIDER_BLOCK_UNDER_EARLIER_SLOT = (gen_disjoint_cliques(1, 6), SPIDER, good_labeling(SPIDER, 2))
# Shapes of the two-level tail, which counts the last two slots at slot q = t - 2.
# P2 has q = 0: nothing is placed before it, so it needs no codegree dicts.
TWO_EDGE_PATH = (
    Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)]),
    path_tree(2),
    good_labeling(path_tree(2)),
)
# P4 on a graph with two isolated vertices, far below min degree t.
PATH_WITH_ISOLATED_VERTICES = (
    Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4)]),
    path_tree(4),
    good_labeling(path_tree(4)),
)
# P4 with a leaf on its second vertex, labeled from that leaf to the path's far
# end: order (6, 2, 1, 3, 4, 5), parent positions (-1, 0, 1, 1, 3, 4).  The
# labeling ends along the leg 3-4-5, and the placed set holds the leaf 1 too.
LEG = Tree.from_edges([(1, 2), (2, 3), (3, 4), (4, 5), (2, 6)])
LABELING_ENDS_ALONG_A_LEG = (
    gen_random_min_degree(8, 0.75, 5, seed=4),
    LEG,
    good_labeling_between(LEG, 6, 5),
)


@settings(max_examples=80, deadline=None)
@given(graph_tree_labeling())
@example(NO_COPY)
@example(SINGLE_EDGE)
@example(LOW_DEGREE_STAR)
@example(SPIDER_BLOCK_UNDER_EARLIER_SLOT)
@example(TWO_EDGE_PATH)
@example(PATH_WITH_ISOLATED_VERTICES)
@example(LABELING_ENDS_ALONG_A_LEG)
def test_leaf_block_count_matches_oracles_and_enumeration(case):
    graph, tree, labeling = case
    result = count_copies(graph, tree, labeling)
    assert result.value == copies_by_permutations(graph, tree)
    assert result.value == sum(1 for _ in copies_in_slot_order(graph, labeling))
    assert result.nodes == search_nodes_by_permutations(graph, labeling)


@settings(max_examples=60, deadline=None)
@given(graph_tree_labeling())
@example(NO_COPY)
@example(LOW_DEGREE_STAR)
def test_slot_order_oracle_lists_every_copy(case):
    """copies_in_slot_order lists each copy once, in lexicographic order, as
    an injective tuple that carries every tree edge to a graph edge when slot
    i holds tree vertex order[i], and whose oracle ISO weight is positive."""
    graph, tree, labeling = case
    copies = list(copies_in_slot_order(graph, labeling))
    assert len(copies) == copies_by_permutations(graph, tree)
    assert copies == sorted(set(copies))
    for omega in copies:
        image = dict(zip(labeling.order, omega))
        assert len(set(omega)) == len(omega)
        assert all(graph.has_edge(image[a], image[b]) for a, b in tree.edges)
        assert copy_weight(graph, labeling, omega, "P") > 0


@settings(max_examples=60, deadline=None)
@given(graph_tree_labeling())
@example(NO_COPY)
@example(SINGLE_EDGE)
@example(DENSE_STAR)
@example(SPIDER_BLOCK_UNDER_EARLIER_SLOT)
@example(TWO_EDGE_PATH)
@example(PATH_WITH_ISOLATED_VERTICES)
@example(LABELING_ENDS_ALONG_A_LEG)
def test_count_and_enumeration_hit_the_work_cap_at_the_same_node(case):
    graph, tree, labeling = case
    nodes = search_nodes_by_permutations(graph, labeling)
    copies = copies_by_permutations(graph, tree)
    assert count_copies(graph, tree, labeling, work_cap=nodes).value == copies
    with pytest.raises(WorkCapExceeded, match="copy count exceeded the work cap"):
        count_copies(graph, tree, labeling, work_cap=nodes - 1)
    if graph.min_degree >= tree.t:  # the copy ledger's hypothesis
        assert copy_ledger(graph, tree, labeling, work_cap=nodes).count == copies
        with pytest.raises(WorkCapExceeded, match="copy enumeration exceeded the work cap"):
            copy_ledger(graph, tree, labeling, work_cap=nodes - 1)


def test_spider_block_sits_under_an_earlier_slot():
    labeling = SPIDER_BLOCK_UNDER_EARLIER_SLOT[2]
    assert labeling.order == (2, 1, 3, 4, 5)
    assert labeling.parent_positions() == (-1, 0, 1, 1, 2)


def test_leg_labeling_ends_along_a_leg():
    labeling = LABELING_ENDS_ALONG_A_LEG[2]
    assert labeling.order == (6, 2, 1, 3, 4, 5)
    assert labeling.parent_positions() == (-1, 0, 1, 1, 3, 4)
    assert LABELING_ENDS_ALONG_A_LEG[0].min_degree == LEG.t


@pytest.mark.parametrize(
    "tree, labeling, copies, nodes",
    [
        (path_tree(4), None, 638_298, 703_439),
        (star_tree(4), None, 696_792, 763_441),
        (FORK, None, 657_532, 722_673),
        (SPIDER, good_labeling(SPIDER, 2), 657_532, 724_181),
        (path_tree(3), None, 59_314, 65_141),
        (path_tree(5), None, 6_633_682, 7_337_121),
    ],
    ids=["path", "star", "fork", "spider", "path3", "path5"],
)
def test_counts_and_nodes_on_a_40_vertex_graph(tree, labeling, copies, nodes):
    """Long backtracking on a larger graph than the property tests draw, so
    a neighbour tally left stale by one branch, or a codegree term missed
    by the two-level tail of the paths, would change these values."""
    graph = gen_random_min_degree(40, 0.3, 6, 1)
    result = count_copies(graph, tree, labeling)
    assert (result.value, result.nodes) == (copies, nodes)
    with pytest.raises(WorkCapExceeded, match=f"work cap of {nodes - 1} search nodes"):
        count_copies(graph, tree, labeling, work_cap=nodes - 1)


def test_free_trees_match_a000055():
    """The shape oracle against OEIS A000055, the number of trees on k
    vertices up to isomorphism."""
    shapes = [free_trees(k) for k in range(1, 8)]
    assert [len(trees) for trees in shapes] == [1, 1, 1, 2, 3, 6, 11]
    for k, trees in enumerate(shapes[1:], 2):
        for edges in trees:
            assert Tree.from_edges(edges).t == k - 1


# K6, and K7 less the matching 01, 23, 45: both meet the degree floor t <= 5
# of the copy ledger, and only K7 less the matching has unequal degrees.
MATCHING = [{0, 1}, {2, 3}, {4, 5}]
SHAPE_GRAPHS = {
    "K6": gen_disjoint_cliques(1, 6),
    "K7-matching": Graph.from_edges(
        7, [(u, v) for u in range(7) for v in range(u + 1, 7) if {u, v} not in MATCHING]
    ),
}
SHAPES = [(t, i, edges) for t in range(1, 7) for i, edges in enumerate(free_trees(t + 1))]


@pytest.mark.parametrize("graph_name", SHAPE_GRAPHS)
@pytest.mark.parametrize("t, i, edges", SHAPES, ids=[f"t{t}-{i}" for t, i, _ in SHAPES])
def test_every_tree_shape_matches_the_oracles(graph_name, t, i, edges):
    """Every tree shape with t <= 6 edges under good_labeling, so the
    kernel's two-level tail and its leaf blocks under the last placed slot
    and under an earlier one are reached by shape, not by random draw:
    count_copies' value and nodes against the permutation oracles and, for
    t <= 5, where both graphs meet the degree floor, the copy ledger's
    tables against the enumerating oracle."""
    graph, tree = SHAPE_GRAPHS[graph_name], Tree.from_edges(edges)
    labeling = good_labeling(tree)
    result = count_copies(graph, tree)
    assert result.value == copies_by_permutations(graph, tree)
    assert result.nodes == search_nodes_by_permutations(graph, labeling)
    if t <= 5:
        oracle = g_tables_by_enumeration(graph, tree, labeling, homs=False)
        ledger = copy_ledger(graph, tree, labeling)
        assert fraction_rows(ledger.iso) == oracle["P"]
        assert fraction_rows(ledger.majorant) == oracle["p"]
