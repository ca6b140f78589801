import csv
import io
import json

import pytest

from treebound.graphs import Tree, gen_disjoint_cliques
from treebound.harness import (
    ConjectureScanConfig,
    SuiteConfig,
    conjecture_scan,
    conjecture_to_csv,
    conjecture_to_json,
    instance_checks,
    run_suite,
    sharpness_check,
    standard_suite_config,
    suite_csv_columns,
    suite_to_csv,
    suite_to_json,
    summarize_conjecture,
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

    def test_rows_are_reproducible(self, suite_rows):
        again = run_suite(standard_suite_config(seed=0))
        assert again == suite_rows

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

    def test_negative_work_cap_gives_error_rows(self, p3, k4, c5):
        config = SuiteConfig(graphs=(("K4", k4), ("C5", c5)), trees=(("P3", p3),), work_cap=-1)
        for row in run_suite(config):
            assert row.error == "ValueError: work cap must be >= 0, got -1"
            assert row.copies is None

    def test_gtables_attached_on_request(self, p3, k4):
        config = SuiteConfig(graphs=(("K4", k4),), trees=(("P3", p3),), include_gtables=True)
        rows = run_suite(config)
        assert set(rows[0].g_tables) == {"Pprime", "p", "P"}


class TestSuiteSerialization:
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
        summary = summarize_conjecture(rows)
        assert summary.total == 50
        assert summary.holds + summary.violated + summary.inapplicable == 50
        assert summary.min_log_margin is not None

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
            edge_probability=0.3, max_tries=5,
        )
        rows = conjecture_scan(config)
        assert len(rows) == 3
        for row in rows:
            assert row.verdict == "inapplicable"
            assert row.error.startswith("RetryLimitExceeded: ")
            assert (row.n, row.average_degree, row.min_degree, row.copies) == (6, None, None, None)
        assert len({row.descriptor for row in rows}) == 3
        assert summarize_conjecture(rows).inapplicable == 3
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


class TestSharpness:
    def test_examples(self):
        assert sharpness_check(5, 3, 3)
        assert sharpness_check(4, 1, 3)

    def test_precondition(self):
        with pytest.raises(ValueError, match="q-1 >= t"):
            sharpness_check(3, 2, 3)

    def test_sweep(self):
        for q in range(3, 8):
            for c in (1, 2, 3):
                for t in range(1, min(q - 1, 4) + 1):
                    assert sharpness_check(q, c, t)

    def test_extra_tree(self):
        fork = Tree.from_edges([(1, 2), (2, 3), (3, 4), (3, 5)])
        assert sharpness_check(6, 2, 4, extra_trees=(("fork4", fork),))


class TestInstanceChecks:
    def test_all_pass_on_k4_p3(self, k4, p3):
        results = instance_checks(k4, p3)
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
        results = instance_checks(c5, p3)
        skipped = {r.name for r in results if r.passed is None}
        assert "majorant-floor" in skipped and "copies-ge-local-bound" in skipped
        ran = {r.name: r.passed for r in results if r.passed is not None}
        assert ran == {"hom-total-probability": True, "hom-degree-profile": True}
