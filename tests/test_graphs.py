import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treebound import families
from treebound.errors import FormatError, RetryLimitExceeded
from treebound.families import (
    gen_complete_bipartite,
    gen_cycle,
    gen_disjoint_cliques,
    gen_random_min_degree,
)
from treebound.graphs import (
    GoodLabeling,
    Graph,
    Tree,
    good_labeling,
    good_labeling_between,
    parse_graph,
    parse_tree,
    path_tree,
    serialize_graph,
    serialize_tree,
    star_tree,
)

from tests.oracles import is_good_labeling, random_min_degree_by_rejection

K4_TEXT = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3"
C5_TEXT = "5 5\n0 1\n1 2\n2 3\n3 4\n4 0"
P3_TEXT = "4 3\n1 2\n2 3\n3 4"
S3_TEXT = "4 3\n1 2\n1 3\n1 4"


class TestParseGraph:
    def test_k4(self):
        g = parse_graph(K4_TEXT)
        assert g.n == 4
        assert g.edge_count == 6
        assert g.degrees() == (3, 3, 3, 3)

    def test_c5(self):
        g = parse_graph(C5_TEXT)
        assert g.degrees() == (2, 2, 2, 2, 2)
        assert g.min_degree == 2

    def test_self_loop_rejected_with_line_number(self):
        with pytest.raises(FormatError, match="self-loop") as exc:
            parse_graph("2 1\n0 0")
        assert exc.value.line == 2

    def test_comments_and_blank_lines_skipped(self):
        text = "# complete graph\n\n4 6\n# edges follow\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
        assert parse_graph(text) == parse_graph(K4_TEXT)

    @pytest.mark.parametrize(
        "text, pattern",
        [
            ("", "empty input"),
            ("4\n", "header"),
            ("4 x\n", "two integers"),
            ("2 1\n0 5", "out of range"),
            ("3 1\n-1 2", "out of range"),
            ("3 2\n0 1\n1 0", "duplicate edge"),
            ("3 3\n0 1\n1 2", "expected 3 edge lines, found 2"),
            ("3 1\n0 1\n1 2", "extra data"),
            ("2 1\n0 1 2", "edge line"),
        ],
    )
    def test_malformed_inputs(self, text, pattern):
        with pytest.raises(FormatError, match=pattern):
            parse_graph(text)


class TestParseTree:
    def test_path(self):
        tree = parse_tree(P3_TEXT)
        assert tree.t == 3
        assert sorted(tree.tree_degree(x) for x in tree.vertices) == [1, 1, 2, 2]

    def test_star(self):
        tree = parse_tree(S3_TEXT)
        assert tree.tree_degree(1) == 3
        assert tree.leaves == (2, 3, 4)

    def test_cyclic_rejected(self):
        with pytest.raises(FormatError, match="cyclic"):
            parse_tree("3 3\n1 2\n2 3\n3 1")

    def test_wrong_edge_count_rejected(self):
        with pytest.raises(FormatError, match="disconnected"):
            parse_tree("4 2\n1 2\n2 3")

    def test_disconnected_rejected(self):
        # right edge count, but a triangle plus an isolated vertex
        with pytest.raises(FormatError, match="disconnected"):
            parse_tree("4 3\n1 2\n2 3\n1 3")

    def test_vertex_out_of_range(self):
        with pytest.raises(FormatError, match="out of range"):
            parse_tree("3 2\n1 2\n2 9")


class TestEdgeValidation:
    """Parsers and constructors share one edge check; parsers add line numbers."""

    @pytest.mark.parametrize(
        "parse, text, pattern, line",
        [
            (parse_graph, "3 2\n0 1\n# note\n1 0", "duplicate edge", 4),
            (parse_graph, "3 2\n0 1\n1 3", "out of range", 3),
            (parse_tree, "3 2\n1 2\n2 2", "self-loop", 3),
            (parse_tree, "3 2\n\n1 2\n2 1", "duplicate edge", 4),
        ],
    )
    def test_edge_errors_report_their_line(self, parse, text, pattern, line):
        with pytest.raises(FormatError, match=pattern) as exc:
            parse(text)
        assert exc.value.line == line

    @pytest.mark.parametrize(
        "edges, pattern",
        [([(0, 3)], "out of range"), ([(1, 1)], "self-loop"), ([(0, 1), (1, 0)], "duplicate edge")],
    )
    def test_constructor_rejects_like_the_parser(self, edges, pattern):
        with pytest.raises(ValueError, match=pattern):
            Graph.from_edges(3, edges)
        text = f"3 {len(edges)}\n" + "\n".join(f"{u} {v}" for u, v in edges)
        with pytest.raises(FormatError, match=pattern):
            parse_graph(text)


class TestGoodLabeling:
    def test_path_from_leaf_one(self):
        L = good_labeling(parse_tree(P3_TEXT), 1)
        assert L.order == (1, 2, 3, 4)
        assert [L.f(j) for j in (2, 3, 4)] == [1, 2, 3]

    def test_star_from_leaf_two(self):
        L = good_labeling(parse_tree(S3_TEXT), 2)
        assert L.order == (2, 1, 3, 4)
        assert L.f(2) == 1
        assert L.f(3) == 2 and L.f(4) == 2

    def test_single_edge(self):
        L = good_labeling(path_tree(1))
        assert L.order == (1, 2)
        assert L.f(2) == 1

    def test_default_starts_at_lowest_leaf(self):
        L = good_labeling(parse_tree(S3_TEXT))
        assert L.order[0] == 2  # center 1 is not a leaf

    def test_non_leaf_start_rejected(self):
        with pytest.raises(ValueError, match="not a leaf"):
            good_labeling(parse_tree(S3_TEXT), 1)

    def test_between_on_path(self):
        L = good_labeling_between(parse_tree(P3_TEXT), 4, 1)
        assert L.order == (4, 3, 2, 1)

    def test_between_on_star(self):
        L = good_labeling_between(parse_tree(S3_TEXT), 3, 4)
        assert L.order == (3, 1, 2, 4)
        assert L.f(2) == 1 and L.f(3) == 2 and L.f(4) == 2

    def test_between_single_edge(self):
        assert good_labeling_between(path_tree(1), 1, 2).order == (1, 2)

    def test_between_rejects_equal_or_internal(self):
        star = parse_tree(S3_TEXT)
        with pytest.raises(ValueError, match="distinct"):
            good_labeling_between(star, 2, 2)
        with pytest.raises(ValueError, match="not a leaf"):
            good_labeling_between(star, 1, 2)

    @pytest.mark.parametrize("x", [-1, 0, 5], ids=["minus-one", "zero", "t-plus-two"])
    def test_vertex_outside_the_tree_rejected(self, x):
        # -1 would alias vertex 4 and 5 would index past the adjacency lists
        p3 = path_tree(3)
        with pytest.raises(ValueError, match=f"start vertex {x} is not a vertex of the tree"):
            good_labeling(p3, x)
        for first, last in ((x, 1), (1, x)):
            with pytest.raises(ValueError, match=f"vertex {x} is not a vertex of the tree"):
                good_labeling_between(p3, first, last)

    def test_vertex_index_is_checked(self):
        L = good_labeling(path_tree(3))
        assert [L.vertex(j) for j in range(1, 5)] == list(L.order)
        for j in (0, 5, -1):
            with pytest.raises(ValueError, match=f"1 <= j <= 4, got {j}"):
                L.vertex(j)


class TestVertexChecks:
    # a negative vertex would alias one counted from the end, and one past
    # the end would raise IndexError; tree slot 0 is unused
    @pytest.mark.parametrize("v", [-1, 4], ids=["minus-one", "n"])
    def test_graph_degree(self, v):
        k4 = gen_disjoint_cliques(1, 4)
        assert k4.degree(3) == 3
        with pytest.raises(ValueError, match=f"vertex {v} is outside 0..3"):
            k4.degree(v)

    @pytest.mark.parametrize("v", [-1, 4], ids=["minus-one", "n"])
    def test_graph_neighbors(self, v):
        k4 = gen_disjoint_cliques(1, 4)
        assert k4.neighbors(3) == (0, 1, 2)
        with pytest.raises(ValueError, match=f"vertex {v} is outside 0..3"):
            k4.neighbors(v)

    @pytest.mark.parametrize("v", [-1, 4], ids=["minus-one", "n"])
    def test_graph_has_edge(self, v):
        k4 = gen_disjoint_cliques(1, 4)
        assert k4.has_edge(3, 0) and not k4.has_edge(0, 0)
        for u, w in ((v, 0), (0, v)):
            with pytest.raises(ValueError, match=f"vertex {v} is outside 0..3"):
                k4.has_edge(u, w)

    @pytest.mark.parametrize("x", [-1, 0, 5], ids=["minus-one", "zero", "t-plus-two"])
    def test_tree_degree(self, x):
        p3 = path_tree(3)
        assert p3.tree_degree(4) == 1
        with pytest.raises(ValueError, match=f"vertex {x} is outside 1..4"):
            p3.tree_degree(x)

    @pytest.mark.parametrize("x", [-1, 0, 5], ids=["minus-one", "zero", "t-plus-two"])
    def test_tree_neighbors(self, x):
        p3 = path_tree(3)
        assert p3.neighbors(4) == (3,)
        with pytest.raises(ValueError, match=f"vertex {x} is outside 1..4"):
            p3.neighbors(x)


# P3 is the path 1-2-3-4; its breadth-first labeling is (1, 2, 3, 4) with
# parents (0, 1, 2, 3).  One case per way a labeling can fail the definition.
BAD_P3_LABELINGS = {
    "order-too-short": ((1, 2, 3), (0, 1, 2)),
    "order-repeats-a-vertex": ((1, 2, 2, 4), (0, 1, 2, 3)),
    "order-leaves-the-tree": ((1, 2, 3, 5), (0, 1, 2, 3)),
    "first-vertex-not-a-leaf": ((2, 1, 3, 4), (0, 1, 1, 3)),
    "parents-too-short": ((1, 2, 3, 4), (0, 1, 2)),
    "parents-too-long": ((1, 2, 3, 4), (0, 1, 2, 3, 4)),
    "first-parent-not-zero": ((1, 2, 3, 4), (1, 1, 2, 3)),
    "parent-zero-after-the-first": ((1, 2, 3, 4), (0, 0, 2, 3)),
    "parent-negative": ((1, 2, 3, 4), (0, 1, 2, -1)),
    "parent-not-earlier": ((1, 2, 3, 4), (0, 1, 3, 3)),
    "parent-not-a-neighbour": ((1, 2, 3, 4), (0, 1, 1, 3)),
    "vertex-with-no-earlier-neighbour": ((1, 3, 2, 4), (0, 1, 1, 2)),
    "vertex-with-two-earlier-neighbours": ((1, 2, 4, 3), (0, 1, 2, 3)),
}


class TestValidate:
    def test_good_labeling_passes(self):
        p3 = path_tree(3)
        assert is_good_labeling(p3, (1, 2, 3, 4), (0, 1, 2, 3))
        GoodLabeling((1, 2, 3, 4), (0, 1, 2, 3)).validate(p3)

    @pytest.mark.parametrize("order, parents", BAD_P3_LABELINGS.values(), ids=BAD_P3_LABELINGS)
    def test_each_rejection(self, order, parents):
        p3 = path_tree(3)
        assert not is_good_labeling(p3, order, parents)
        if sorted(order) != [1, 2, 3, 4]:
            pattern = "not a permutation of the tree's vertices"
        elif order[0] not in p3.leaves:
            pattern = f"first vertex {order[0]} is not a leaf"
        else:
            pattern = None
        with pytest.raises(ValueError, match=pattern):
            GoodLabeling(order, parents).validate(p3)


class TestGenerators:
    def test_disjoint_cliques(self):
        g = gen_disjoint_cliques(3, 5)
        assert g.n == 15
        assert g.edge_count == 30
        assert set(g.degrees()) == {4}

    def test_single_clique_is_complete(self):
        assert gen_disjoint_cliques(1, 4) == parse_graph(K4_TEXT)

    def test_two_by_two_is_perfect_matching(self):
        g = gen_disjoint_cliques(2, 2)
        assert g.edges == ((0, 1), (2, 3))

    def test_cycle_three_is_triangle(self):
        assert gen_cycle(3).edges == ((0, 1), (0, 2), (1, 2))

    def test_complete_bipartite(self):
        g = gen_complete_bipartite(2, 3)
        assert sorted(g.degrees()) == [2, 2, 2, 3, 3]
        assert g.edge_count == 6

    @pytest.mark.parametrize(
        "builder", [lambda: gen_disjoint_cliques(0, 3), lambda: gen_cycle(2),
                    lambda: gen_complete_bipartite(0, 2), lambda: path_tree(0),
                    lambda: star_tree(-1)]
    )
    def test_bad_parameters(self, builder):
        with pytest.raises(ValueError):
            builder()

    def test_random_with_p_one_is_complete(self):
        g = gen_random_min_degree(6, 1.0, 5, seed=3)
        assert g.edge_count == 15
        assert set(g.degrees()) == {5}

    def test_random_respects_degree_floor_and_seed(self):
        a = gen_random_min_degree(10, 0.5, 3, seed=7)
        b = gen_random_min_degree(10, 0.5, 3, seed=7)
        assert a.min_degree >= 3
        assert a == b

    def test_random_retry_cap(self):
        with pytest.raises(RetryLimitExceeded):
            gen_random_min_degree(4, 0.1, 3, seed=1, max_tries=10)

    def test_random_output_round_trips(self):
        g = gen_random_min_degree(9, 0.4, 2, seed=13)
        assert parse_graph(serialize_graph(g)) == g

    @pytest.mark.parametrize("max_tries", [0, -3])
    def test_random_rejects_max_tries_below_one(self, max_tries):
        with pytest.raises(ValueError, match=f"max tries must be >= 1, got {max_tries}"):
            gen_random_min_degree(10, 0.5, 2, seed=1, max_tries=max_tries)


class TestRandomStream:
    """The generator draws the same stream as drawing every pair and then
    checking the floor; the pins below were taken from that plain loop."""

    # (n, p, floor, seed) -> (edge count, sha256 of serialize_graph)
    PINS = {
        (200, 0.1, 5, 3): (1976, "db92bab74c52e87e1d784ac6b337283818688f923b9983eb230a91696320bb22"),
        (32, 0.3, 6, 1): (143, "84b1fa15630dc80ee6b38bb99baf0624fbae64934ddd9c18863e7f8680719f4c"),
        (18, 0.45, 6, 2): (74, "66836bc7f0304f1c93bdaf9111402764f725620e6f1a21595d923d7312980e88"),
        # the 197th draw is the first to hold the floor
        (60, 0.2, 8, 0): (391, "fe0bd7cc8c5486508995a1d72dda179646ebbd4828fa9f8ff285465e168af6e0"),
        # the 581st draw is the first to hold the floor
        (100, 0.1, 6, 1): (535, "f725a5dc44340c9b9ab658f98f59a1edb864304d14bef3d5d3228498865fa151"),
    }

    @pytest.mark.parametrize("case", sorted(PINS))
    def test_pinned_digests(self, case):
        graph = gen_random_min_degree(*case)
        text = serialize_graph(graph)
        assert (graph.edge_count, hashlib.sha256(text.encode()).hexdigest()) == self.PINS[case]

    def test_retry_cap_lands_on_the_same_draw(self):
        with pytest.raises(RetryLimitExceeded) as exc:
            gen_random_min_degree(60, 0.2, 8, 0, max_tries=196)
        assert str(exc.value) == "no graph with min degree >= 8 in 196 draws of G(60, 0.2)"
        graph = gen_random_min_degree(60, 0.2, 8, 0, max_tries=197)
        assert graph.edge_count == self.PINS[(60, 0.2, 8, 0)][0]

    @pytest.mark.parametrize("k", [1, 2, 3, 1000])
    def test_getrandbits_advances_like_random(self, k):
        # the skip in gen_random_min_degree rests on this CPython property
        a, b = random.Random(5), random.Random(5)
        a.getrandbits(64 * k)
        for _ in range(k):
            b.random()
        assert a.getstate() == b.getstate()

    @pytest.mark.parametrize("count", [0, 1, families._SKIP_CHUNK, 2 * families._SKIP_CHUNK + 7])
    def test_skip_draws_spans_chunks(self, count):
        a, b = random.Random(11), random.Random(11)
        families._skip_draws(a, count)
        for _ in range(count):
            b.random()
        assert a.getstate() == b.getstate()
        assert a.random() == b.random()


def _outcome(build, *args):
    try:
        return build(*args)
    except RetryLimitExceeded as exc:
        return f"RetryLimitExceeded: {exc}"


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 30),
    st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
    st.data(),
    st.integers(0, 2**32),
    st.integers(1, 30),
)
def test_random_min_degree_matches_rejection_oracle(n, p, data, seed, max_tries):
    floor = data.draw(st.integers(0, n - 1))
    args = (n, p, floor, seed, max_tries)
    assert _outcome(gen_random_min_degree, *args) == _outcome(random_min_degree_by_rejection, *args)


# ---------------------------------------------------------------------------
# Properties


@st.composite
def random_trees(draw, max_edges=6):
    t = draw(st.integers(1, max_edges))
    parents = [draw(st.integers(1, j - 1)) for j in range(2, t + 2)]
    return Tree.from_edges((p, j) for j, p in enumerate(parents, 2))


@st.composite
def random_graphs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(0, 2 ** len(possible) - 1))
    return Graph.from_edges(n, [e for i, e in enumerate(possible) if mask >> i & 1])


@given(random_trees())
def test_labeling_covers_tree_edges(tree):
    L = good_labeling(tree)
    k = tree.t + 1
    assert sorted(L.order) == list(tree.vertices)
    for j in range(2, k + 1):
        assert L.f(j) < j
    claimed = sorted(
        tuple(sorted((L.vertex(j), L.vertex(L.f(j))))) for j in range(2, k + 1)
    )
    assert claimed == list(tree.edges)
    # the final vertex is forced to be a leaf
    assert tree.tree_degree(L.order[-1]) == 1


@given(random_trees(), st.data())
def test_between_pins_both_ends(tree, data):
    leaves = tree.leaves
    first = data.draw(st.sampled_from(leaves))
    last = data.draw(st.sampled_from([x for x in leaves if x != first]))
    L = good_labeling_between(tree, first, last)
    assert L.order[0] == first
    assert L.order[-1] == last
    assert tuple(reversed(L.order))[0] == last and tuple(reversed(L.order))[-1] == first
    L.validate(tree)


def _first_earlier_neighbours(tree: Tree, order) -> list[int]:
    """Per slot, the 1-based index of its first earlier neighbour, 0 if none."""
    edges = {frozenset(edge) for edge in tree.edges}
    return [
        next((i for i in range(1, j) if frozenset((order[i - 1], x)) in edges), 0)
        for j, x in enumerate(order, 1)
    ]


@given(random_trees(), st.data())
def test_validate_agrees_with_the_definition(tree, data):
    """validate raises exactly when the definition says no, on breadth-first
    and good_labeling_between labelings, shuffled orders, and any of those
    with one parents entry changed."""
    first = data.draw(st.sampled_from(tree.leaves))
    source = data.draw(st.sampled_from(["bfs", "between", "shuffled"]))
    if source == "bfs":
        base = good_labeling(tree, first)
    else:
        last = data.draw(st.sampled_from([x for x in tree.leaves if x != first]))
        base = good_labeling_between(tree, first, last)
    order, parents = list(base.order), list(base.parents)
    if source == "shuffled":
        order = data.draw(st.permutations(order))
        if data.draw(st.booleans()):
            parents = _first_earlier_neighbours(tree, order)
    if data.draw(st.booleans()):
        slot = data.draw(st.integers(0, tree.t))
        parents[slot] = data.draw(st.integers(-1, tree.t + 2))
    labeling = GoodLabeling(tuple(order), tuple(parents))
    if is_good_labeling(tree, order, parents):
        labeling.validate(tree)
    else:
        with pytest.raises(ValueError):
            labeling.validate(tree)


@given(random_graphs())
def test_graph_serialize_parse_round_trip(graph):
    assert parse_graph(serialize_graph(graph)) == graph


@given(random_trees())
def test_tree_serialize_parse_round_trip(tree):
    assert parse_tree(serialize_tree(tree)) == tree


@settings(max_examples=25)
@given(st.integers(1, 3), st.integers(2, 5))
def test_generator_outputs_round_trip(c, q):
    for g in (gen_disjoint_cliques(c, q), gen_cycle(q + 1), gen_complete_bipartite(c, q)):
        assert parse_graph(serialize_graph(g)) == g


def _assert_canonical(graph: Graph) -> None:
    """Adjacency lists come out ascending with no sort, and a rebuild from
    the edge list gives the same graph."""
    assert Graph.from_edges(graph.n, graph.edges) == graph
    for a in graph.adjacency:
        assert all(x < y for x, y in zip(a, a[1:]))


@settings(max_examples=40)
@given(st.integers(1, 3), st.integers(2, 5), st.integers(0, 2**16))
def test_generators_build_canonical_graphs(c, q, seed):
    for g in (
        gen_disjoint_cliques(c, q),
        gen_cycle(q + 1),
        gen_complete_bipartite(c, q),
        gen_random_min_degree(3 * q, 0.5, q - 2, seed),
    ):
        _assert_canonical(g)


@given(random_graphs(), st.randoms(use_true_random=False))
def test_parsed_graphs_are_canonical(graph, rng):
    lines = [f"{v} {u}" if rng.random() < 0.5 else f"{u} {v}" for u, v in graph.edges]
    rng.shuffle(lines)
    parsed = parse_graph(f"{graph.n} {len(lines)}\n" + "\n".join(lines))
    assert parsed == graph
    _assert_canonical(parsed)


@given(random_trees(max_edges=8))
def test_tree_adjacency_is_ascending(tree):
    for x in tree.vertices:
        a = tree.neighbors(x)
        assert all(u < v for u, v in zip(a, a[1:]))
