import csv
import hashlib
import inspect
import io
import json
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest

from treebound import formats, harness
from treebound.checks import instance_report
from treebound.conjecture import (
    ConjectureScanConfig,
    conjecture_scan,
    conjecture_to_csv,
    conjecture_to_json,
)
from treebound.counting import count_copies
from treebound.errors import FrozenInstanceError, WorkCapExceeded
from treebound.families import gen_cycle, gen_disjoint_cliques
from treebound.formats import csv_table
from treebound.graphs import GoodLabeling, Graph, Tree, path_tree, star_tree
from treebound.harness import (
    RowBound,
    SuiteConfig,
    SuiteRow,
    run_suite,
    standard_suite_config,
    suite_csv_columns,
    suite_to_csv,
    suite_to_json,
)


@pytest.fixture(scope="module")
def suite_rows():
    return run_suite(standard_suite_config(seed=0))


class TestRunSuite:
    def test_row_count_and_hypothesis_coverage(self, suite_rows):
        assert len(suite_rows) == 66
        applicable = [r for r in suite_rows if r.min_degree >= r.t and r.error is None]
        assert len(applicable) >= 20
        assert all(r.n <= 8 for r in suite_rows)

    def test_no_row_errors_in_standard_battery(self, suite_rows):
        assert [r.error for r in suite_rows if r.error] == []

    def test_asserted_bounds_hold_everywhere(self, suite_rows):
        for row in suite_rows:
            for bound in row.bounds:
                if bound.name in ("copies_local", "homs_local", "walks_blakley_roy"):
                    if bound.applicable:
                        assert bound.holds, (row.graph_name, row.tree_name, bound.name)

    def test_majorant_floor_and_hom_equality(self, suite_rows):
        for row in suite_rows:
            if row.slack_majorant is not None:
                assert row.slack_majorant >= 0
            assert row.hom_table_equal is True
            assert row.slack_hom == 0

    def test_chain_final_link_true_when_computed(self, suite_rows):
        chains = [r.chain_links for r in suite_rows if r.chain_links is not None]
        assert chains
        assert all(links[0] and links[2] and links[3] for links in chains)

    def test_rows_are_reproducible(self):
        config = standard_suite_config(seed=0, include_gtables=True)
        cold = run_suite(config)
        hits = harness._finished_row.cache_info().hits
        warm = run_suite(config)
        assert harness._finished_row.cache_info().hits == hits + 66
        assert warm == cold
        assert [r.g_tables for r in warm] == [r.g_tables for r in cold]

    def test_fixed_battery_is_shared_across_seeds(self):
        a, b = standard_suite_config(seed=0), standard_suite_config(seed=5)
        assert all(x is y for x, y in zip(a.graphs[:9], b.graphs[:9]))
        assert a.trees is b.trees
        assert [name for name, _ in a.graphs[9:]] == ["rand7", "rand8"]
        assert a.graphs[9:] != b.graphs[9:]

    # sha256 of suite_to_csv + sorted-key suite_to_json with g-tables, taken
    # when standard_suite_config still built every graph and tree per call
    PINS = {
        3: "507fe0b1d5242196bd93a815a18e9386e5c2336bd4c0eaeeb721006f14f2badc",
        9: "10c73331226ad2ff88bff389a3d388de5a73d4c26b6bb2cfcbc990b46fe63f15",
        11: "b3241cb6530552ebf31f5daf2c8c63789039b6d5889b358e10d083d28350c2a6",
    }

    @pytest.mark.parametrize("seed", sorted(PINS))
    def test_reports_with_g_tables_are_pinned(self, seed):
        rows = run_suite(standard_suite_config(seed, include_gtables=True))
        text = suite_to_csv(rows) + json.dumps(
            suite_to_json(rows, include_gtables=True), sort_keys=True
        )
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINS[seed]

    # one sha256 over both reports at seeds 0-39, with and without g-tables,
    # from an empty row cache and again from a warm one; taken before the
    # writers kept a render memo per cached instance
    SWEEP_PIN = "3d587d574b7e69e3907bf27f1cecee4bfa8bc2c270dcb8809f95ed9100a3284a"

    def test_cold_and_warm_reports_over_forty_seeds_are_pinned(self):
        digest = hashlib.sha256()
        for order in ((False, True), (True, False)):
            for seed in range(40):
                for gtables in order:
                    rows = run_suite(standard_suite_config(seed, include_gtables=gtables))
                    digest.update(suite_to_csv(rows).encode())
                    doc = suite_to_json(rows, include_gtables=gtables)
                    digest.update(json.dumps(doc, sort_keys=True).encode())
        assert digest.hexdigest() == self.SWEEP_PIN

    def test_copies_p3_cells_equal_copies_local_cells(self, suite_rows):
        records = list(csv.DictReader(io.StringIO(suite_to_csv(suite_rows))))
        cells = ("log", "holds", "margin")
        checked = 0
        for record in records:
            if record["t"] == "3" and int(record["min_degree"]) >= 3:
                local = [record[f"copies_local_{cell}"] for cell in cells]
                assert [record[f"copies_p3_{cell}"] for cell in cells] == local
                assert local[0] != ""
                checked += 1
        assert checked > 0

    def test_known_rows(self, suite_rows):
        by_key = {(r.graph_name, r.tree_name): r for r in suite_rows}
        k4_p2 = by_key[("K4", "P2")]
        assert k4_p2.copies == 24
        local = next(b for b in k4_p2.bounds if b.name == "copies_local")
        assert local.holds and abs(local.log_margin) <= 1e-9
        c5_p2 = by_key[("C5", "P2")]
        assert c5_p2.copies == 10
        c5_p3 = by_key[("C5", "P3")]
        local = next(b for b in c5_p3.bounds if b.name == "copies_local")
        assert not local.applicable  # min degree 2 < 3
        assert c5_p3.homs is not None and c5_p3.walks is not None

    def test_per_row_errors_do_not_abort(self, p3):
        config = SuiteConfig(
            graphs=(("K4", gen_disjoint_cliques(1, 4)), ("3xK7", gen_disjoint_cliques(3, 7))),
            trees=(("P3", p3),),
            work_cap=2000,
        )
        rows = run_suite(config)
        assert rows[0].error is None and rows[0].copies == 24
        assert rows[1].error is not None and "work cap" in rows[1].error
        assert rows[1].copies is None

    def test_tree_too_deep_for_the_search_gives_an_error_row(self, p3):
        config = SuiteConfig(
            graphs=(("C1200", gen_cycle(1200)),), trees=(("P1100", path_tree(1100)), ("P3", p3))
        )
        deep, shallow = run_suite(config)
        assert deep.error == (
            "ValueError: tree with 1100 edges (1101 vertices) is too deep for the copy search"
        )
        assert deep.copies is None
        assert shallow.error is None and shallow.copies == 1200 * 2

    def test_edgeless_graph_gives_a_row_without_error(self, p2):
        edgeless = Graph.from_edges(3, [])
        config = SuiteConfig(graphs=(("e", edgeless),), trees=(("P2", p2),), include_gtables=True)
        (row,) = run_suite(config)
        assert row.error is None
        assert (row.copies, row.homs, row.walks) == (0, 0, 0)
        assert row.bounds and not any(bound.applicable for bound in row.bounds)
        assert (row.slack_hom, row.hom_table_equal, row.g_tables) == (None, None, None)

    def test_negative_work_cap_gives_error_rows(self, p3, k4, c5):
        config = SuiteConfig(graphs=(("K4", k4), ("C5", c5)), trees=(("P3", p3),), work_cap=-1)
        for row in run_suite(config):
            assert row.error == "ValueError: work cap must be >= 0, got -1"
            assert row.copies is None

    def test_gtables_attached_on_request(self, p3, k4):
        config = SuiteConfig(graphs=(("K4", k4),), trees=(("P3", p3),), include_gtables=True)
        rows = run_suite(config)
        assert set(rows[0].g_tables) == {"Pprime", "p", "P"}

    def test_rows_equal_rows_built_one_pair_at_a_time(self):
        config = standard_suite_config(seed=0, include_gtables=True)
        rows = run_suite(config)
        harness._finished_row.cache_clear()
        alone = [
            harness._build_row(gname, graph, tname, tree, config.work_cap, True)
            for gname, graph in config.graphs
            for tname, tree in config.trees
        ]
        assert rows == alone
        assert [r.g_tables for r in rows] == [r.g_tables for r in alone]

    def test_build_row_leads_with_the_instance(self):
        # bench/tracing.py reads a traced row's graph and tree as args[1] and args[3]
        names = list(inspect.signature(harness._build_row).parameters)
        assert names[:4] == ["graph_name", "graph", "tree_name", "tree"]

    def test_shared_work_runs_once_per_tree_and_per_graph_and_size(self, monkeypatch):
        calls, seen = Counter(), set()
        for name in ("good_labeling", "count_walks", "evaluate_bounds"):
            def counted(*args, _name=name, _original=getattr(harness, name)):
                calls[_name] += 1
                seen.add(args[0])
                return _original(*args)

            monkeypatch.setattr(harness, name, counted)
        config = standard_suite_config(seed=0)
        rows = run_suite(config)
        sizes = {tree.t for _, tree in config.trees}
        assert calls["good_labeling"] == len(config.trees) == 6
        assert calls["count_walks"] == len(config.graphs) * len(sizes) == 33
        assert calls["evaluate_bounds"] == len(config.graphs) * len(sizes) == 33
        assert [r.error for r in rows if r.error] == []
        # at another seed the 54 fixed rows come from the row cache and the
        # trees' labelings from theirs, so only the two random graphs get
        # walks and bounds
        calls.clear()
        seen.clear()
        config = standard_suite_config(seed=1)
        rows = run_suite(config)
        assert calls == {"count_walks": 6, "evaluate_bounds": 6}
        assert seen == {graph for _, graph in config.graphs[9:]}
        assert [r.error for r in rows if r.error] == []

    def test_each_trees_labeling_is_checked_once(self, monkeypatch):
        checked = []
        original = GoodLabeling._check

        def counted(self, tree):
            checked.append(tree)
            original(self, tree)

        monkeypatch.setattr(GoodLabeling, "_check", counted)
        config = standard_suite_config(seed=0)
        run_suite(config)
        # the kernels of 66 rows validate 132 times, and each of the six
        # labelings is checked in full for its tree only the first time
        assert len(checked) == 6
        assert {id(tree) for tree in checked} == {id(tree) for _, tree in config.trees}
        checked.clear()
        # a fresh seed computes 12 rows, with the trees' labelings already checked
        run_suite(standard_suite_config(seed=1))
        assert checked == []

    def test_a_failing_shared_step_fails_only_its_rows(self, monkeypatch, p2, p3, k4, c5):
        original = harness.evaluate_bounds

        def refuse_k4(graph, t):
            if graph == k4:
                raise ValueError("refused")
            return original(graph, t)

        monkeypatch.setattr(harness, "evaluate_bounds", refuse_k4)
        config = SuiteConfig(graphs=(("K4", k4), ("C5", c5)), trees=(("P2", p2), ("P3", p3)))
        rows = run_suite(config)
        assert [r.error for r in rows] == ["ValueError: refused"] * 2 + [None] * 2


class TestRowCache:
    @staticmethod
    def reports(seed, include_gtables):
        rows = run_suite(standard_suite_config(seed, include_gtables=include_gtables))
        return suite_to_csv(rows), json.dumps(suite_to_json(rows, include_gtables))

    def test_warm_reports_equal_cold_ones(self):
        keys = [(seed, gtables) for seed in range(10) for gtables in (False, True)]
        warm = {key: self.reports(*key) for key in keys}
        assert harness._finished_row.cache_info().hits > 0
        for key in keys:
            harness._finished_row.cache_clear()
            assert self.reports(*key) == warm[key], key

    def test_a_value_equal_graph_hits(self, p3):
        k4 = gen_disjoint_cliques(1, 4)
        same = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert same == k4 and same is not k4
        (first,) = run_suite(SuiteConfig(graphs=(("K4", k4),), trees=(("P3", p3),)))
        before = harness._finished_row.cache_info()
        (second,) = run_suite(SuiteConfig(graphs=(("same", same),), trees=(("P3", p3),)))
        after = harness._finished_row.cache_info()
        assert (after.hits, after.currsize) == (before.hits + 1, before.currsize)
        assert second.graph_name == "same" and second.copies == first.copies == 24

    def test_work_cap_is_in_the_key(self):
        k5_p4 = dict(graphs=(("K5", gen_disjoint_cliques(1, 5)),), trees=(("P4", path_tree(4)),))
        capped, free = (SuiteConfig(**k5_p4, work_cap=cap) for cap in (10, None))
        failed = "WorkCapExceeded: copy enumeration exceeded the work cap of 10 search nodes"
        assert run_suite(capped)[0].error == failed
        assert run_suite(free)[0].error is None and run_suite(free)[0].copies == 120
        assert run_suite(capped)[0].error == failed

    def test_a_rows_g_tables_dict_is_its_own(self, p3, k4):
        config = SuiteConfig(graphs=(("K4", k4),), trees=(("P3", p3),), include_gtables=True)
        (first,) = run_suite(config)
        tables = dict(first.g_tables)
        first.g_tables.clear()
        (second,) = run_suite(config)
        assert second.g_tables == tables
        assert all(second.g_tables[key] is table for key, table in tables.items())

    def test_error_rows_are_made_again(self, monkeypatch, p3, k4):
        original = harness.evaluate_bounds

        def refuse(graph, t):
            raise ValueError("refused")

        monkeypatch.setattr(harness, "evaluate_bounds", refuse)
        config = SuiteConfig(graphs=(("K4", k4),), trees=(("P3", p3),))
        (failed,) = run_suite(config)
        # an error row carries only the graph's fields, t and the error
        assert failed == SuiteRow("K4", "P3", 4, 6, Fraction(3), 3, 3, error="ValueError: refused")
        assert run_suite(config) == [failed]
        monkeypatch.setattr(harness, "evaluate_bounds", original)
        (row,) = run_suite(config)
        assert row.error is None and row.bounds

    def test_cache_size_is_bounded(self):
        for seed in range(8):
            run_suite(standard_suite_config(seed))
            assert harness._finished_row.cache_info().currsize <= harness._ROW_CACHE_SIZE
        # 54 fixed rows and 12 random rows per seed overflow it by the eighth seed
        assert harness._finished_row.cache_info().currsize == harness._ROW_CACHE_SIZE


class TestRenderMemo:
    """An error-free row from run_suite is written from the JSON record its
    cache entry keeps, and a g-table from the JSON it rendered once."""

    @staticmethod
    def reports(config):
        rows = run_suite(config)
        return suite_to_csv(rows), json.dumps(suite_to_json(rows, config.include_gtables))

    def test_edits_to_a_report_reach_no_later_report(self):
        config = standard_suite_config(0, include_gtables=True)
        run_suite(config)
        first = self.reports(config)
        doc = suite_to_json(run_suite(config), include_gtables=True)
        for entry in doc["rows"]:
            entry["counts"]["copies"] = "poison"
            entry["bounds"]["copies_local"]["applicable"] = "poison"
            entry["bounds"].clear()
            if entry["chainLinks"]:
                entry["chainLinks"][0] = "poison"
            # a HOM table's rows are all equal, and are rendered once
            hom_rows = entry["gTables"]["Pprime"]["rows"]
            siblings = [list(row) for row in hom_rows[1:]]
            assert siblings == [hom_rows[0]] * len(siblings)
            hom_rows[0][0] = "poison"
            assert hom_rows[1:] == siblings
            entry["gTables"]["Pprime"]["kind"] = "poison"
            hom_rows.append(["poison"])
        assert self.reports(config) == first

    def test_a_rows_own_g_tables_are_written(self, p3, k4, c5):
        config = SuiteConfig(graphs=(("K4", k4),), trees=(("P3", p3),), include_gtables=True)
        run_suite(config)
        written = suite_to_json(run_suite(config), include_gtables=True)
        (row,) = run_suite(config)
        (c5_row,) = run_suite(SuiteConfig(graphs=(("C5", c5),), trees=(("P3", p3),),
                                          include_gtables=True))
        row.g_tables["Pprime"] = c5_row.g_tables["Pprime"]
        del row.g_tables["P"]
        tables = suite_to_json([row], include_gtables=True)["rows"][0]["gTables"]
        assert tables == {
            "Pprime": c5_row.g_tables["Pprime"].to_json_dict(),
            "p": written["rows"][0]["gTables"]["p"],
        }
        assert tables["Pprime"] != written["rows"][0]["gTables"]["Pprime"]

    @pytest.mark.parametrize("order", [(False, True), (True, False)])
    def test_writing_with_and_without_g_tables_matches_cold(self, order):
        configs = [standard_suite_config(2, include_gtables=gtables) for gtables in order]
        cold = [self.reports(config) for config in configs]
        harness._finished_row.cache_clear()
        for config in configs:
            run_suite(config)
        assert [self.reports(config) for config in configs] == cold
        assert [self.reports(config) for config in configs] == cold

    def test_the_memo_is_invisible(self):
        config = standard_suite_config(0, include_gtables=True)
        fresh = run_suite(config)
        cached = run_suite(config)
        instances = [(graph, tree) for _, graph in config.graphs for _, tree in config.trees]
        # fresh and cached rows carry the one record and CSV cells their cache entry keeps
        for new, old, (graph, tree) in zip(fresh, cached, instances):
            entry = harness._finished_row(graph, tree, None)
            assert new._record is old._record is entry[2]
            assert new._cells is old._cells is entry[3]
        suite_to_csv(cached), suite_to_json(cached, include_gtables=True)
        by_hand = [
            SuiteRow(**{name: getattr(row, name) for name in SuiteRow.__match_args__})
            for row in cached
        ]
        assert not any(hasattr(row, "_record") or hasattr(row, "_cells") for row in by_hand)
        assert by_hand == cached
        assert [hash(row) for row in by_hand] == [hash(row) for row in cached]
        assert [repr(row) for row in by_hand] == [repr(row) for row in cached]
        assert suite_to_csv(by_hand) == suite_to_csv(cached)
        assert suite_to_json(by_hand, True) == suite_to_json(cached, True)
        for row in fresh + cached:
            with pytest.raises(FrozenInstanceError):
                row.copies = 0

    def test_a_warm_report_renders_no_cached_row_again(self, monkeypatch):
        from functools import cached_property

        from treebound.measure import GTable

        config = standard_suite_config(0, include_gtables=True)
        run_suite(config)
        rows = run_suite(config)
        suite_to_csv(rows), suite_to_json(rows, include_gtables=True)
        calls = Counter()

        def counted(name, original):
            def call(*args):
                calls[name] += 1
                return original(*args)

            return call

        monkeypatch.setattr(harness, "_suite_record", counted("record", harness._suite_record))
        monkeypatch.setattr(formats, "_csv_cell", counted("cell", formats._csv_cell))
        rendered = cached_property(counted("table", GTable._json.func))
        rendered.__set_name__(GTable, "_json")
        monkeypatch.setattr(GTable, "_json", rendered)
        rows = run_suite(config)
        suite_to_csv(rows), suite_to_json(rows, include_gtables=True)
        # a cached row's CSV formats only its two names
        assert calls == {"cell": 2 * 66}
        calls.clear()
        # a fresh seed renders only its 12 computed rows and their tables, and
        # formats the 35 record cells of each of them
        rows = run_suite(standard_suite_config(1, include_gtables=True))
        suite_to_csv(rows), suite_to_json(rows, include_gtables=True)
        assert calls == {"record": 12, "table": sum(len(row.g_tables) for row in rows[54:]),
                         "cell": 12 * 35 + 66 * 2}

    def test_error_rows_get_no_memo(self, p3, k4):
        config = SuiteConfig(graphs=(("K4", k4),), trees=(("P3", p3),), work_cap=2)
        for _ in range(2):
            (row,) = run_suite(config)
            assert row.error is not None
            assert not hasattr(row, "_record") and not hasattr(row, "_cells")
        size = harness._finished_row.cache_info().currsize
        with pytest.raises(WorkCapExceeded):
            harness._finished_row(k4, p3, 2)
        assert harness._finished_row.cache_info().currsize == size

    def test_a_work_cap_error_row_is_pinned(self, p3, k4):
        config = SuiteConfig(graphs=(("K4", k4),), trees=(("P3", p3),), work_cap=2)
        (row,) = run_suite(config)
        error = "WorkCapExceeded: copy enumeration exceeded the work cap of 2 search nodes"
        assert row == SuiteRow("K4", "P3", 4, 6, Fraction(3), 3, 3, error=error)
        assert suite_to_json([row])["rows"] == [{
            "graph": "K4", "tree": "P3", "n": 4, "m": 6, "d": "3/1", "minDegree": 3, "t": 3,
            "counts": {"copies": None, "homs": None, "walks": None}, "bounds": {},
            "slackMajorant": None, "slackIso": None, "slackHom": None, "homTableEqual": None,
            "chainLinks": None, "error": error,
        }]
        assert suite_to_csv([row]).splitlines()[1] == "K4,P3,4,6,3/1,3,3," + "," * 29 + error


def _csv_from_records(rows: list[SuiteRow]) -> str:
    """The suite CSV re-packed from each row's JSON record, column by column."""
    lines = []
    for record in suite_to_json(rows)["rows"]:
        values = dict(
            record,
            **record["counts"],
            min_degree=record["minDegree"],
            slack_majorant=record["slackMajorant"],
            slack_iso=record["slackIso"],
            slack_hom=record["slackHom"],
            hom_table_equal=record["homTableEqual"],
        )
        for name, bound in record["bounds"].items():
            values.update({f"{name}_log": bound.get("log"), f"{name}_holds": bound.get("holds"),
                           f"{name}_margin": bound.get("logMargin")})
        values.update(zip(harness._CHAIN_COLUMNS, record["chainLinks"] or ()))
        lines.append([values.get(column) for column in suite_csv_columns()])
    return csv_table(suite_csv_columns(), lines)


class TestSuiteSerialization:
    def test_csv_cells_are_the_json_values(self, p3, k4, c5):
        # computed rows, then the same instances read from the row cache, the
        # last of them under names that the CSV writer must quote
        rows = run_suite(standard_suite_config(0)) + run_suite(standard_suite_config(0))
        quoted = SuiteConfig(graphs=(("K,4", k4), ('C"5"', c5)), trees=(("P\n3", p3),))
        rows += run_suite(quoted) + run_suite(quoted)
        rows += run_suite(SuiteConfig(graphs=(("K4", k4),), trees=(("P3", p3),), work_cap=2))
        rows += run_suite(SuiteConfig(graphs=(('K"4",\n', k4),), trees=(("P3", p3),), work_cap=2))
        rows.append(SuiteRow("hand", "made", 3, 2, Fraction(4, 3), 1, 2, copies=2,
                             bounds=(RowBound("copies_local", True, 1 / 3, False, -2 / 7),
                                     RowBound("walks_blakley_roy", False, reason="why"))))
        rows.append(SuiteRow('"hand",', "ma\nde", 3, 2, Fraction(4, 3), 1, 2))
        assert [row.error is not None for row in rows[132:]] == [False] * 4 + [True] * 2 + [False] * 2
        assert all(hasattr(row, "_cells") for row in rows[:136])
        assert suite_to_csv(rows) == _csv_from_records(rows)

    def test_csv_shape(self, suite_rows):
        text = suite_to_csv(suite_rows)
        records = list(csv.reader(io.StringIO(text)))
        assert records[0] == suite_csv_columns()
        assert len(records) == len(suite_rows) + 1
        width = len(records[0])
        assert all(len(rec) == width for rec in records)

    def test_json_schema_and_rationals(self, suite_rows):
        doc = suite_to_json(suite_rows)
        assert doc["schemaVersion"] == "1"
        assert len(doc["rows"]) == 66
        first = doc["rows"][0]
        num, den = first["d"].split("/")
        assert int(den) > 0 and int(num) >= 0
        json.dumps(doc)  # must be serializable as-is

    def test_rationals_are_written_in_lowest_terms(self):
        # a Fraction is already reduced: zero is 0/1, a sign goes on the numerator
        row = SuiteRow("hand", "made", 3, 0, Fraction(0), 0, 2,
                       slack_iso=Fraction(-4, 14), slack_hom=Fraction(6, 3))
        record = suite_to_json([row])["rows"][0]
        assert (record["d"], record["slackIso"], record["slackHom"]) == ("0/1", "-2/7", "2/1")
        assert record["slackMajorant"] is None

    def test_counts_past_the_digit_limit_are_written(self, k4):
        # 4 * 3^10000 homomorphisms of the 10000-edge path (and as many walks)
        # in K4: 4,772 digits, past the 4,300 that str() of an int allows from
        # Python 3.11 on.  Decimal parses the text without that limit.
        (row,) = run_suite(SuiteConfig(graphs=(("K4", k4),), trees=(("P10000", path_tree(10000)),)))
        assert row.error is None and row.copies == 0
        want = 4 * 3**10000
        counts = suite_to_json([row])["rows"][0]["counts"]
        assert counts["copies"] == "0"
        (record,) = csv.DictReader(io.StringIO(suite_to_csv([row])))
        for text in (counts["homs"], counts["walks"], record["homs"], record["walks"]):
            assert len(text) == 4772 and Decimal(text) == want

    def test_json_includes_gtables_when_asked(self, k4, p3):
        config = SuiteConfig(graphs=(("K4", k4),), trees=(("P3", p3),), include_gtables=True)
        doc = suite_to_json(run_suite(config), include_gtables=True)
        tables = doc["rows"][0]["gTables"]
        assert tables["p"]["rows"][0][0] == "1/2"
        assert tables["P"]["rows"][0][0] == "1/4"


class TestConjectureScan:
    def test_cliques_hold_with_zero_margin(self):
        config = ConjectureScanConfig(
            family="cliques", n=15, t=3, trials=3, seed=1, min_degree=4
        )
        rows = conjecture_scan(config)
        assert [r.verdict for r in rows] == ["holds"] * 3
        assert all(abs(r.log_margin) <= 1e-9 for r in rows)
        assert rows[0].copies == 120  # K5: 5*4*3*2

    def test_k4_holds_with_zero_margin(self):
        config = ConjectureScanConfig(
            family="cliques", n=4, t=3, trials=1, seed=1, min_degree=3
        )
        row = conjecture_scan(config)[0]
        assert row.copies == 24
        assert row.verdict == "holds"
        assert abs(row.log_margin) <= 1e-9

    def test_random_family_reports_without_asserting(self):
        config = ConjectureScanConfig(
            family="random", n=10, t=3, trials=50, seed=12345, min_degree=4
        )
        rows = conjecture_scan(config)
        assert len(rows) == 50
        assert all(r.verdict in ("holds", "violated", "inapplicable") for r in rows)
        summary = conjecture_to_json(rows)["summary"]
        assert summary["total"] == 50
        assert summary["holds"] + summary["violated"] + summary["inapplicable"] == 50
        assert summary["minLogMargin"] is not None

    def test_scan_is_deterministic(self):
        config = ConjectureScanConfig(
            family="random", n=8, t=2, trials=10, seed=9, min_degree=3
        )
        assert conjecture_scan(config) == conjecture_scan(config)

    def test_low_degree_cliques_are_inapplicable(self):
        # q = 3 and t = 3: cliques too small to host the tree, factor d-2 = 0
        config = ConjectureScanConfig(
            family="cliques", n=9, t=3, trials=2, seed=0, min_degree=2
        )
        rows = conjecture_scan(config)
        assert all(r.verdict == "inapplicable" for r in rows)
        assert all(r.copies == 0 for r in rows)

    def test_custom_tree_override(self, s3):
        config = ConjectureScanConfig(
            family="cliques", n=15, t=3, trials=2, seed=0, min_degree=4, tree=s3
        )
        rows = conjecture_scan(config)
        assert all(r.verdict == "holds" and abs(r.log_margin) <= 1e-9 for r in rows)

    def test_mismatched_tree_rejected(self, s3):
        config = ConjectureScanConfig(
            family="cliques", n=15, t=2, trials=1, seed=0, min_degree=4, tree=s3
        )
        with pytest.raises(ValueError, match="config.t"):
            conjecture_scan(config)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_scan_without_trials_rejected(self, trials):
        config = ConjectureScanConfig(
            family="random", n=8, t=2, trials=trials, seed=0, min_degree=3
        )
        with pytest.raises(ValueError, match=f"need at least 1 trial, got {trials}"):
            conjecture_scan(config)

    @pytest.mark.parametrize(
        "family, n, min_degree, p, message",
        [
            ("random", 0, None, 0.5, "degree floor must be in 0..-1, got 4"),
            ("random", 8, None, 1.5, r"edge probability must be in \(0, 1\], got 1.5"),
            ("random", 8, None, 0.0, r"edge probability must be in \(0, 1\], got 0.0"),
            ("random", 8, -1, 0.5, "degree floor must be in 0..7, got -1"),
            ("random", 8, 8, 0.5, "degree floor must be in 0..7, got 8"),
            ("cliques", 8, -1, 0.5, "clique order must be >= 2, got 0"),
            ("cliques", 8, 0, 0.5, "clique order must be >= 2, got 1"),
        ],
        ids=["random-n0", "random-p-above-1", "random-p0", "random-floor-below-0",
             "random-floor-n", "cliques-floor-below-0", "cliques-floor-0"],
    )
    def test_family_parameters_checked_before_any_trial(self, family, n, min_degree, p, message):
        config = ConjectureScanConfig(
            family=family, n=n, t=2, trials=3, seed=0, min_degree=min_degree,
            edge_probability=p,
        )
        with pytest.raises(ValueError, match=message):
            conjecture_scan(config)

    def test_unknown_family_rejected(self):
        config = ConjectureScanConfig(
            family="tori", n=8, t=2, trials=1, seed=0, min_degree=2
        )
        with pytest.raises(ValueError, match="unknown family"):
            conjecture_scan(config)

    def test_degree_floor_defaults_to_twice_t(self):
        config = ConjectureScanConfig(family="cliques", n=10, t=2, trials=1, seed=0)
        assert config.degree_floor == 4
        row = conjecture_scan(config)[0]
        assert row.descriptor == "cliques(c=1,q=5)"
        assert row.min_degree == 4
        assert row.verdict == "holds"

    def test_retry_cap_yields_error_rows(self):
        config = ConjectureScanConfig(
            family="random", n=6, t=3, trials=3, seed=1, min_degree=5,
            edge_probability=0.3,
        )
        rows = conjecture_scan(config)
        assert len(rows) == 3
        for row in rows:
            assert row.verdict == "inapplicable"
            assert row.error.startswith("RetryLimitExceeded: ")
            assert (row.n, row.average_degree, row.min_degree, row.copies) == (6, None, None, None)
        assert len({row.descriptor for row in rows}) == 3
        assert conjecture_to_json(rows)["summary"]["inapplicable"] == 3
        records = list(csv.reader(io.StringIO(conjecture_to_csv(rows))))
        assert records[1][2:4] == ["", ""]
        assert conjecture_to_json(rows)["rows"][0]["d"] is None

    def test_negative_work_cap_gives_error_rows(self):
        config = ConjectureScanConfig(family="cliques", n=5, t=2, trials=2, seed=0, work_cap=-1)
        rows = conjecture_scan(config)
        assert [row.verdict for row in rows] == ["inapplicable"] * 2
        assert {row.error for row in rows} == {"ValueError: work cap must be >= 0, got -1"}

    def test_serializers(self):
        config = ConjectureScanConfig(
            family="cliques", n=15, t=3, trials=2, seed=1, min_degree=4
        )
        rows = conjecture_scan(config)
        text = conjecture_to_csv(rows)
        assert text.splitlines()[0].startswith("instance,")
        doc = conjecture_to_json(rows)
        assert doc["schemaVersion"] == "1"
        assert doc["summary"]["holds"] == 2
        assert doc["summary"]["violations"] == []


def _clique_copies(c: int, q: int, tree: Tree) -> tuple[int, int]:
    """The copies of the tree in c disjoint cliques of order q, and the
    falling factorial n(q-1)(q-2)...(q-t) they must equal."""
    graph = gen_disjoint_cliques(c, q)
    expected = graph.n
    for j in range(1, tree.t + 1):
        expected *= q - j
    return count_copies(graph, tree).value, expected


class TestSharpness:
    """Disjoint cliques hold exactly n(q-1)(q-2)...(q-t) copies of every
    t-edge tree: the path, the star and fork4."""

    def test_examples(self, p3, s3):
        for c, q in ((3, 5), (1, 4)):
            for tree in (p3, s3):
                copies, expected = _clique_copies(c, q, tree)
                assert copies == expected
        assert _clique_copies(3, 5, p3) == (360, 360)

    def test_precondition(self, p3, s3):
        # below q-1 >= t a clique has no room for the tree: both sides are 0
        for tree in (p3, s3):
            assert _clique_copies(2, 3, tree) == (0, 0)

    def test_sweep(self):
        for q in range(3, 8):
            for c in (1, 2, 3):
                for t in range(1, min(q - 1, 4) + 1):
                    for tree in (path_tree(t), star_tree(t)):
                        copies, expected = _clique_copies(c, q, tree)
                        assert copies == expected, (q, c, t, tree)

    def test_extra_tree(self):
        fork = Tree.from_edges([(1, 2), (2, 3), (3, 4), (3, 5)])
        for tree in (path_tree(4), star_tree(4), fork):
            copies, expected = _clique_copies(2, 6, tree)
            assert copies == expected


class TestInstanceChecks:
    @pytest.mark.parametrize("seed", range(4))
    def test_report_agrees_with_suite_row(self, seed):
        # a check is skipped (None) exactly where the row's field is None
        config = standard_suite_config(seed)
        pairs = [(graph, tree) for _, graph in config.graphs for _, tree in config.trees]
        for row, (graph, tree) in zip(run_suite(config), pairs, strict=True):
            checks = {c.name: c.passed for c in instance_report(graph, tree)[0]}
            floor = None if row.slack_majorant is None else row.slack_majorant >= 0
            local = None if row.chain_links is None else row.chain_links[3]
            assert (
                checks["majorant-floor"],
                checks["copies-ge-local-bound"],
                checks["hom-degree-profile"],
            ) == (floor, local, row.hom_table_equal), (row.graph_name, row.tree_name)

    def test_all_pass_on_k4_p3(self, k4, p3):
        results = instance_report(k4, p3)[0]
        assert {r.name for r in results} == {
            "iso-total-probability",
            "iso-below-majorant",
            "majorant-floor",
            "reversal-symmetry",
            "majorant-product-form",
            "copies-ge-local-bound",
            "hom-total-probability",
            "hom-degree-profile",
        }
        assert all(r.passed for r in results)

    def test_degree_gated_checks_skipped(self, c5, p3):
        results = instance_report(c5, p3)[0]
        skipped = {r.name for r in results if r.passed is None}
        assert "majorant-floor" in skipped and "copies-ge-local-bound" in skipped
        ran = {r.name: r.passed for r in results if r.passed is not None}
        assert ran == {"hom-total-probability": True, "hom-degree-profile": True}
