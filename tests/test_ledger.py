"""The copy ledger against the enumerating oracles and their per-copy weight.

copy_ledger folds each trailing leaf block of copies at once into every
copy-side accumulator: _LedgerSums.fold takes one block (its free set, its
copies and their two denominators), writes the block row that the block's
slots share, and returns the block's P and p mass, which the search adds to
each placed slot's cell once per search node.  The HOM g-table is propagated
along the labeling without enumerating maps.  These tests check that both
match tables built one Fraction per map, also on stars and brooms whose
blocks hold up to t-1 slots and on a spider whose block hangs under a slot
placed before the last, that the majorant table equals the labeling-free
product form under several good labelings (the identity behind the reversal
and product-form checks), that under every good labeling, and under the one
that reads a copy from its far end, each slot parents treedeg(x) - 1 slots
from the third on (the exponent identity by which the reversal row reports
the product form's verdict), that the chain floats
are bit-identical to summing the oracle's copy_weight copy by copy, that each
per-copy check fails when fold is handed a wrong weight for one block, that
the ledger charges the work cap the nodes of a full search on count_copies'
leaf block, which never holds slot 1, that ledgers on graphs of max degree
10 and 14, whose common denominator is a 41- or 63-bit integer, keep their
pinned values, that a tree too deep for the recursive search is a
ValueError, that an instance makes one ledger pass and no count_copies pass,
and that the ledger is a value: two passes compare and hash equal, and its
tables are the GTables g_table_exact returns.
"""

import hashlib
import inspect
import json
import math
import random
import sys
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracles import (
    copies_by_permutations,
    copies_in_slot_order,
    copy_weight,
    fraction_rows,
    g_tables_by_enumeration,
    majorant_table_by_product_form,
    random_tree,
    reversed_labeling,
    search_nodes_by_permutations,
)
from treebound import _search, counting
from treebound import ledger as ledger_module
from treebound.bounds import evaluate_bounds
from treebound.checks import instance_report
from treebound.errors import WorkCapExceeded
from treebound.families import gen_disjoint_cliques, gen_random_min_degree
from treebound.graphs import (
    Graph,
    Tree,
    good_labeling,
    good_labeling_between,
    path_tree,
    star_tree,
)
from treebound.harness import SuiteConfig, run_suite
from treebound.ledger import copy_ledger
from treebound.measure import MeasureKind, g_table_exact


@st.composite
def degree_instances(draw):
    """A random tree with t <= 3 edges in a small graph of min degree >= t."""
    t = draw(st.integers(1, 3))
    tree = random_tree(draw(st.randoms(use_true_random=False)), t)
    n = draw(st.integers(t + 1, 7))
    p = draw(st.sampled_from([0.6, 0.8, 1.0]))
    graph = gen_random_min_degree(n, p, t, seed=draw(st.integers(0, 10**6)))
    return graph, tree


@st.composite
def any_instances(draw):
    """A random tree with t <= 4 edges in any small graph with an edge."""
    n = draw(st.integers(2, 6))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(1, 2 ** len(possible) - 1))
    graph = Graph.from_edges(n, [e for i, e in enumerate(possible) if mask >> i & 1])
    tree = random_tree(draw(st.randoms(use_true_random=False)), draw(st.integers(1, 4)))
    return graph, tree


@settings(max_examples=40, deadline=None)
@given(degree_instances())
def test_copy_tables_match_enumerating_oracle(instance):
    graph, tree = instance
    labeling = good_labeling(tree)
    oracle = g_tables_by_enumeration(graph, tree, labeling)
    ledger = copy_ledger(graph, tree, labeling)
    assert ledger.count == copies_by_permutations(graph, tree)
    assert fraction_rows(ledger.iso) == oracle["P"]
    assert fraction_rows(ledger.majorant) == oracle["p"]
    for kind, token in ((MeasureKind.ISO, "P"), (MeasureKind.MAJORANT, "p")):
        assert fraction_rows(g_table_exact(graph, tree, labeling, kind)) == oracle[token]


@settings(max_examples=40, deadline=None)
@given(any_instances())
def test_hom_table_matches_enumerating_oracle(instance):
    graph, tree = instance
    labeling = good_labeling(tree)
    table = g_table_exact(graph, tree, labeling, MeasureKind.HOM)
    assert fraction_rows(table) == g_tables_by_enumeration(graph, tree, labeling)["Pprime"]


@settings(max_examples=40, deadline=None)
@given(degree_instances())
def test_ledger_matches_public_per_copy_path(instance):
    graph, tree = instance
    labeling = good_labeling(tree)
    count, iso_total, entropy_log, product_log = 0, 0, 0.0, 0.0
    dominated = True
    for omega in copies_in_slot_order(graph, labeling):
        iso = copy_weight(graph, labeling, omega, "P")
        maj = copy_weight(graph, labeling, omega, "p")
        count += 1
        iso_total += iso
        entropy_log -= float(iso) * (math.log(iso.numerator) - math.log(iso.denominator))
        product_log -= float(maj) * (math.log(maj.numerator) - math.log(maj.denominator))
        dominated = dominated and iso <= maj
    ledger = copy_ledger(graph, tree, labeling)
    assert ledger.count == count
    assert ledger.iso.row_sum(1) == iso_total == 1
    # bit-identical floats: same terms, same order
    assert ledger.entropy_log == entropy_log
    assert ledger.product_log == product_log
    assert ledger.iso_below_majorant == dominated
    assert ledger.product_form_equal
    bound_log = evaluate_bounds(graph, tree.t).copies_local.log_value
    report = ledger.chain(bound_log)
    assert report.entropy_value == math.exp(entropy_log)
    assert report.majorant_product == math.exp(product_log)


def _labelings(tree):
    """The default labeling and up to three good_labeling_between ones."""
    pairs = list(permutations(tree.leaves, 2))[-3:]
    return [good_labeling(tree)] + [good_labeling_between(tree, a, b) for a, b in pairs]


def _check_majorant_against_product_form(graph, tree):
    for labeling in _labelings(tree):
        ledger = copy_ledger(graph, tree, labeling)
        assert ledger.product_form_equal
        table = fraction_rows(ledger.majorant)
        assert table == majorant_table_by_product_form(graph, tree, labeling)


@pytest.mark.parametrize(
    "graph_name, tree",
    [("k4", path_tree(3)), ("petersen", star_tree(3)), ("c5", path_tree(1))],
    ids=["K4-P3", "petersen-S3", "C5-P1"],
)
def test_majorant_table_matches_product_form(request, graph_name, tree):
    _check_majorant_against_product_form(request.getfixturevalue(graph_name), tree)


def test_majorant_table_matches_product_form_on_random_instances():
    rng = random.Random(33)
    for _ in range(10):
        t = rng.randint(1, 4)
        n = rng.randint(t + 2, 7)
        graph = gen_random_min_degree(n, rng.uniform(0.7, 0.95), t, seed=rng.randrange(10**6))
        _check_majorant_against_product_form(graph, random_tree(rng, t))


@settings(max_examples=40, deadline=None)
@given(degree_instances(), st.randoms(use_true_random=False))
def test_majorant_table_is_labeling_free(instance, rng):
    graph, tree = instance
    first, last = rng.sample(tree.leaves, 2)
    by_vertex = []
    for labeling in (good_labeling(tree), good_labeling_between(tree, first, last)):
        rows = fraction_rows(copy_ledger(graph, tree, labeling).majorant)
        assert rows == majorant_table_by_product_form(graph, tree, labeling)
        by_vertex.append(dict(zip(labeling.order, rows)))
    # each copy weighs the same whichever labeling reads it
    assert by_vertex[0] == by_vertex[1]


@pytest.mark.parametrize("tree", [path_tree(3), star_tree(3)], ids=["P3", "S3"])
def test_reversed_labeling_runs_from_far_end(tree):
    labeling = good_labeling(tree)
    k = tree.t + 1
    index_tree, far_end = reversed_labeling(labeling)
    assert far_end.vertex(1) == k and far_end.vertex(k) == 1
    far_end.validate(index_tree)


def _tamper_first_block(monkeypatch, change):
    """Give every copy of the first folded leaf block the denominators
    change(D_iso, D_maj); return the list that records that block's size."""
    original = ledger_module._LedgerSums.fold
    sizes = []

    def tampered(self, free, copies, each, d_iso, d_maj, *checks):
        if not sizes:
            sizes.append(copies)
            d_iso, d_maj = change(d_iso, d_maj)
        return original(self, free, copies, each, d_iso, d_maj, *checks)

    monkeypatch.setattr(ledger_module._LedgerSums, "fold", tampered)
    return sizes


WRONG_ISO = (lambda d_iso, d_maj: (2 * d_iso, d_maj), {"iso-total-probability"})
ISO_ABOVE = (
    lambda d_iso, d_maj: (d_maj - 1, d_maj),
    {"iso-total-probability", "iso-below-majorant"},
)
WRONG_MAJORANT = (
    lambda d_iso, d_maj: (d_iso, d_maj - 1),
    {"reversal-symmetry", "majorant-product-form"},
)


@pytest.mark.parametrize(
    "graph_name, tree_name, block, change, failing",
    [
        ("k4", "p3", 1, *WRONG_ISO),
        ("k4", "p3", 1, *ISO_ABOVE),
        ("k4", "p3", 1, *WRONG_MAJORANT),
        ("petersen", "s3", 2, *WRONG_ISO),
        ("petersen", "s3", 2, *ISO_ABOVE),
        ("petersen", "s3", 2, *WRONG_MAJORANT),
    ],
    ids=[
        "wrong-iso-weight",
        "iso-above-majorant",
        "wrong-majorant-weight",
        "petersen-S3-wrong-iso-weight",
        "petersen-S3-iso-above-majorant",
        "petersen-S3-wrong-majorant-weight",
    ],
)
def test_wrong_weight_on_one_copy_fails_matching_check(
    request, monkeypatch, graph_name, tree_name, block, change, failing
):
    graph, tree = request.getfixturevalue(graph_name), request.getfixturevalue(tree_name)
    assert all(check.passed for check in instance_report(graph, tree)[0])
    sizes = _tamper_first_block(monkeypatch, change)
    checks = instance_report(graph, tree)[0]
    assert sizes == [block]
    assert {check.name for check in checks if check.passed is False} == failing


def _count_passes(monkeypatch):
    """Count copy_ledger passes, and count_copies calls in every module that binds it."""
    calls = {"ledger": 0, "count_copies": 0}
    bound = [(ledger_module, "copy_ledger", "ledger")] + [
        (module, "count_copies", "count_copies")
        for name, module in list(sys.modules.items())
        if name.startswith("treebound") and "count_copies" in vars(module)
    ]
    for module, attribute, key in bound:
        original = getattr(module, attribute)

        def counted(*args, _original=original, _key=key, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, attribute, counted)
    return calls


def test_verify_enumerates_copies_once(monkeypatch, petersen, s3):
    calls = _count_passes(monkeypatch)
    checks, chain = instance_report(petersen, s3)
    assert all(check.passed for check in checks) and chain is not None
    assert calls == {"ledger": 1, "count_copies": 0}


def test_suite_row_enumerates_copies_once(monkeypatch, petersen, s3):
    calls = _count_passes(monkeypatch)
    config = SuiteConfig(graphs=(("petersen", petersen),), trees=(("S3", s3),))
    (row,) = run_suite(config)
    assert row.error is None and row.chain_links is not None
    assert calls == {"ledger": 1, "count_copies": 0}


def test_ledger_too_deep_for_the_search_is_a_value_error():
    # A graph that meets the degree hypothesis for a tree deeper than the
    # default recursion limit is too large for a test, so the limit is
    # lowered below the 40 levels the search needs on K41 with P40.
    tree = path_tree(40)
    graph = gen_disjoint_cliques(1, 41)
    labeling = good_labeling(tree)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        with pytest.raises(ValueError, match=r"tree with 40 edges \(41 vertices\) is too deep"):
            copy_ledger(graph, tree, labeling)
    finally:
        sys.setrecursionlimit(limit)


def test_hom_table_is_not_charged_to_the_work_cap(petersen, p3):
    p4 = path_tree(4)
    table = g_table_exact(petersen, p4, good_labeling(p4), MeasureKind.HOM, work_cap=10)
    assert table.equals_degree_profile(petersen)
    # the copy tables still are (P4 would fail the degree hypothesis first)
    for kind in (MeasureKind.ISO, MeasureKind.MAJORANT):
        with pytest.raises(WorkCapExceeded):
            g_table_exact(petersen, p3, good_labeling(p3), kind, work_cap=10)


def _broom(handle: int, bristles: int) -> Tree:
    """A path of `handle` edges whose far end carries `bristles` leaves."""
    edges = [(j, j + 1) for j in range(1, handle + 1)]
    edges += [(handle + 1, handle + 1 + b) for b in range(1, bristles + 1)]
    return Tree.from_edges(edges)


@st.composite
def long_block_instances(draw):
    """A star or broom with t <= 5 edges, a labeling that starts, or starts and
    ends, at chosen leaves, and a graph on up to 7 vertices of min degree >= t,
    so the trailing leaf block holds up to t-1 slots."""
    t = draw(st.integers(2, 5))
    if draw(st.booleans()):
        tree = star_tree(t)
    else:
        handle = draw(st.integers(1, t - 2)) if t > 2 else 1
        tree = _broom(handle, t - handle)
    first = draw(st.sampled_from(tree.leaves))
    last = draw(st.sampled_from([None] + [x for x in tree.leaves if x != first]))
    if last is None:
        labeling = good_labeling(tree, first)
    else:
        labeling = good_labeling_between(tree, first, last)
    n = draw(st.integers(t + 1, 7))
    graph = gen_random_min_degree(n, 0.9, t, seed=draw(st.integers(0, 10**6)))
    return graph, tree, labeling


@settings(max_examples=40, deadline=None)
@given(long_block_instances())
def test_ledger_folds_long_blocks_like_the_oracles(case):
    graph, tree, labeling = case
    oracle = g_tables_by_enumeration(graph, tree, labeling, homs=False)
    ledger = copy_ledger(graph, tree, labeling)
    assert ledger.count == copies_by_permutations(graph, tree)
    assert fraction_rows(ledger.iso) == oracle["P"]
    assert fraction_rows(ledger.majorant) == oracle["p"]
    assert ledger.iso_below_majorant and ledger.product_form_equal
    nodes = search_nodes_by_permutations(graph, labeling)
    assert ledger.nodes == nodes
    assert copy_ledger(graph, tree, labeling, work_cap=nodes).count == ledger.count
    with pytest.raises(WorkCapExceeded, match="copy enumeration exceeded the work cap"):
        copy_ledger(graph, tree, labeling, work_cap=nodes - 1)


_SPIDER = Tree.from_edges([(1, 2), (1, 3), (1, 4), (3, 5), (3, 6)])


@pytest.mark.parametrize(
    "graph",
    [gen_disjoint_cliques(1, 7), gen_random_min_degree(8, 0.9, 5, 3)],
    ids=["K7", "G8"],
)
def test_shared_block_row_under_a_slot_placed_before_the_last(graph):
    """The spider's order is 2,1,3,4,5,6: its r = 2 block slots 4-5 (0-based)
    hang under slot 2, while slot 3 is the last placed slot."""
    labeling = good_labeling(_SPIDER)
    assert labeling.order == (2, 1, 3, 4, 5, 6)
    assert labeling.parent_positions()[3:] == (1, 2, 2)
    oracle = g_tables_by_enumeration(graph, _SPIDER, labeling, homs=False)
    ledger = copy_ledger(graph, _SPIDER, labeling)
    assert ledger.count == copies_by_permutations(graph, _SPIDER)
    assert fraction_rows(ledger.iso) == oracle["P"]
    assert fraction_rows(ledger.majorant) == oracle["p"]
    assert ledger.nodes == search_nodes_by_permutations(graph, labeling)


def test_ledger_nodes_are_a_statistic(k4, p3):
    labeling = good_labeling(p3)
    ledger = copy_ledger(k4, p3, labeling)
    assert ledger.nodes == counting.count_copies(k4, p3, labeling).nodes == 65
    copy = ledger_module.CopyLedger(
        ledger.count, ledger.iso, ledger.majorant, ledger.iso_below_majorant,
        ledger.product_form_equal, ledger.entropy_log, ledger.product_log, nodes=0,
    )
    assert ledger == copy


def _assert_ledger_is_a_value(graph, tree):
    """Two passes over one instance give equal ledgers, whose tables are
    the GTables g_table_exact returns."""
    labeling = good_labeling(tree)
    ledger, again = copy_ledger(graph, tree, labeling), copy_ledger(graph, tree, labeling)
    assert ledger == again and hash(ledger) == hash(again)
    assert ledger.iso == g_table_exact(graph, tree, labeling, MeasureKind.ISO)
    assert ledger.majorant == g_table_exact(graph, tree, labeling, MeasureKind.MAJORANT)


def test_ledger_is_a_value(k4, p3):
    _assert_ledger_is_a_value(k4, p3)


@settings(max_examples=20, deadline=None)
@given(degree_instances())
def test_ledger_is_a_value_on_random_instances(instance):
    _assert_ledger_is_a_value(*instance)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 6))
def test_ledger_block_is_the_count_block(rng, t):
    tree = random_tree(rng, t)
    first, last = rng.sample(tree.leaves, 2)
    graph = gen_disjoint_cliques(1, t + 1)
    original = _search._leaf_block
    for labeling in (good_labeling(tree, first), good_labeling_between(tree, first, last)):
        starts = []

        def recorded(*args):
            block = original(*args)
            starts.append(block[0])
            return block

        with pytest.MonkeyPatch.context() as patch:
            # both passes read _search's _leaf_block when they run
            patch.setattr(_search, "_leaf_block", recorded)
            counted = counting.count_copies(graph, tree, labeling)
            ledger = copy_ledger(graph, tree, labeling)
        # one block, past slot 1, so both searches charge the same nodes
        assert len(starts) == 2 and starts[0] == starts[1] >= 2
        assert ledger.nodes == counted.nodes


def _later_children(labeling):
    """Per 1-based slot, how many slots from the third on it is the parent of:
    its power of d(omega_slot)-t+1 in the majorant read under this labeling."""
    counts = Counter(labeling.parents[2:])
    return [counts[slot] for slot in range(1, len(labeling.order) + 1)]


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 9))
def test_reversal_exponents_are_tree_degrees_less_one(rng, t):
    """The identity that makes the reversal row the product form's verdict:
    under every leaf-started and every leaf-pair good labeling, slot x is the
    parent of treedeg(x) - 1 slots from the third on, and so it is under the
    labeling that reads the copy from its far end, slot t+1 back to slot 1."""
    tree = random_tree(rng, t)
    labelings = [good_labeling(tree, leaf) for leaf in tree.leaves] + [
        good_labeling_between(tree, first, last)
        for first, last in permutations(tree.leaves, 2)
    ]
    for labeling in labelings:
        powers = [tree.tree_degree(x) - 1 for x in labeling.order]
        assert _later_children(labeling) == powers
        index_tree, far_end = reversed_labeling(labeling)
        assert far_end.order[0] == t + 1 and far_end.order[-1] == 1
        far_end.validate(index_tree)
        by_slot = dict(zip(far_end.order, _later_children(far_end)))
        assert [by_slot[slot] for slot in range(1, t + 2)] == powers


_FORK = Tree.from_edges([(1, 2), (2, 3), (3, 4), (3, 5)])


@pytest.mark.parametrize(
    "graph_args, tree, max_degree, count, nodes, entropy_hex, product_hex, digest",
    [
        ((12, 0.5, 4, 2), path_tree(4), 10, 11_124, 14_117,
         "0x1.26a1b0c3d5030p+3", "0x1.a7598c7197a58p+4", "00a21e20277679f6"),
        ((16, 0.8, 4, 1), _FORK, 14, 217_808, 242_967,
         "0x1.88507930f958dp+3", "0x1.0e2a0225aa075p+4", "7ce2992372147e8a"),
        ((16, 0.8, 4, 1), star_tree(4), 14, 215_208, 240_239,
         "0x1.86f652a11fdb1p+3", "0x1.01f8dcec4fd6cp+4", "9a6706d79ef29304"),
    ],
    ids=["G12-P4", "G16-fork", "G16-S4"],
)
def test_ledger_with_big_common_denominator_keeps_pinned_values(
    graph_args, tree, max_degree, count, nodes, entropy_hex, product_hex, digest
):
    """With max degree 10 or 14 and t = 4, the tables' common denominator
    nd * lcm(1..Delta)^3 has 41 or 63 bits, where the hypothesis draws (max
    degree <= 6) stay under 2^30; the values are pinned bit for bit."""
    graph = gen_random_min_degree(*graph_args)
    assert graph.max_degree == max_degree
    ledger = copy_ledger(graph, tree, good_labeling(tree))
    assert (ledger.count, ledger.nodes) == (count, nodes)
    assert ledger.entropy_log.hex() == entropy_hex
    assert ledger.product_log.hex() == product_hex
    tables = json.dumps([ledger.iso.to_json_dict(), ledger.majorant.to_json_dict()], sort_keys=True)
    assert hashlib.sha256(tables.encode()).hexdigest().startswith(digest)
    assert ledger.iso_below_majorant and ledger.product_form_equal
