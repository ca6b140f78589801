"""The package's lazy exports and each CLI command's import budget.

A CLI run is a fresh process that compiles every module it imports when no
bytecode cache is written, so each command must load only what it runs.
The budget tests run ``treebound.cli.main`` in a child process and read
``sys.modules`` afterwards.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treebound
from treebound import formats, harness
from treebound.graphs import gen_disjoint_cliques, serialize_graph

SRC = Path(__file__).resolve().parents[1] / "src"

# The names `from treebound import *` bound when the package imported every
# submodule eagerly: the exports plus the six submodules it loaded.
STAR_NAMES = {
    "BoundComparison", "BoundReport", "BoundValue", "ChainReport", "CheckResult",
    "ConjectureRow", "ConjectureScanConfig", "ConjectureSummary", "CopyLedger",
    "CountResult", "DEFAULT_WORK_CAP", "Embedding", "FormatError", "GTable",
    "GoodLabeling", "Graph", "GroupedWeights", "LOG_TOLERANCE", "MeasureKind",
    "RetryLimitExceeded", "SCHEMA_VERSION", "SuiteConfig", "SuiteRow", "Tree",
    "WorkCapExceeded", "bounds", "compare_count_to_bound", "conjecture_scan",
    "conjecture_to_csv", "conjecture_to_json", "copy_ledger", "count_copies",
    "count_homomorphisms", "count_star_formula", "count_walks", "counting", "errors",
    "evaluate_bounds", "g_table_exact", "g_table_monte_carlo", "gen_complete_bipartite",
    "gen_cycle", "gen_disjoint_cliques", "gen_random_min_degree", "good_labeling",
    "good_labeling_between", "graphs", "harness", "instance_checks", "instance_report",
    "iter_copies", "max_induced_copy_degree", "measure", "parse_graph", "parse_tree",
    "path_tree", "path_walk_ratio", "run_suite", "sample_embedding", "sample_embeddings",
    "serialize_graph", "serialize_tree", "sharpness_check", "standard_suite_config",
    "star_tree", "suite_to_csv", "suite_to_json", "summarize_conjecture", "verify_chain",
    "weight",
}
SUBMODULES = ("graphs", "counting", "bounds", "measure", "harness", "cli", "errors", "formats")


def run_child(code: str, *argv: str) -> list:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    child = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


class TestLazyExports:
    def test_every_export_resolves_through_getattr(self):
        for name in treebound.__all__:
            value = treebound.__getattr__(name)
            home = sys.modules[f"treebound.{treebound._HOME.get(name, name)}"]
            assert value is (home if name in SUBMODULES else getattr(home, name)), name
            assert getattr(treebound, name) is value, name

    def test_submodules_resolve_as_attributes(self):
        for name in SUBMODULES:
            module = treebound.__getattr__(name)
            assert module is sys.modules[f"treebound.{name}"]
            assert getattr(treebound, name) is module

    def test_star_import_binds_the_same_names(self):
        namespace: dict = {}
        exec("from treebound import *", namespace)
        assert set(namespace) - {"__builtins__"} == STAR_NAMES
        assert set(treebound.__all__) == STAR_NAMES

    def test_resolved_names_are_cached(self):
        value = treebound.__getattr__("count_star_formula")
        assert vars(treebound)["count_star_formula"] is value

    def test_dir_lists_unresolved_names(self):
        assert set(dir(treebound)) >= STAR_NAMES | {"cli", "formats", "__version__"}

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            treebound.no_such_name  # noqa: B018

    def test_harness_re_exports_the_formatters(self):
        for name in formats.__all__:
            assert name in harness.__all__
            assert getattr(harness, name) is getattr(formats, name)


class TestImportBudget:
    CLI_CHILD = """
import contextlib, io, json, sys
from treebound.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("treebound"))]))
"""
    BASE = {
        "treebound", "treebound.cli", "treebound.counting", "treebound.errors",
        "treebound.formats", "treebound.graphs",
    }

    @pytest.fixture(scope="class")
    def k4_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("budget") / "k4.txt"
        path.write_text(serialize_graph(gen_disjoint_cliques(1, 4)))
        return str(path)

    @pytest.mark.parametrize(
        "argv, extra",
        [
            (["count", "--graph", "{g}", "--tree", "star:3"], set()),
            (["hom", "--graph", "{g}", "--tree", "path:3"], set()),
            (["walks", "--graph", "{g}", "--length", "3"], set()),
            (["gen", "cycle", "5"], set()),
            (["bounds", "--graph", "{g}", "--t", "3"], {"bounds"}),
            (["conjecture", "--family", "cliques", "--n", "4", "--t", "3", "--trials", "2",
              "--seed", "0", "--min-degree", "3"], {"bounds", "harness"}),
            (["sample", "--graph", "{g}", "--tree", "path:3", "--samples", "20", "--seed", "0"],
             {"bounds", "measure"}),
            (["gtable", "--graph", "{g}", "--tree", "path:3", "--measure", "P",
              "--samples", "20", "--seed", "0"], {"bounds", "measure"}),
            (["verify", "--graph", "{g}", "--tree", "path:3"], {"bounds", "harness", "measure"}),
        ],
        ids=["count", "hom", "walks", "gen", "bounds", "conjecture", "sample",
             "gtable-monte-carlo", "verify"],
    )
    def test_command_loads_only_what_it_runs(self, k4_file, argv, extra):
        argv = [arg.format(g=k4_file) for arg in argv]
        code, loaded = run_child(self.CLI_CHILD, *argv)
        assert code == 0
        assert set(loaded) == self.BASE | {f"treebound.{name}" for name in extra}

    def test_package_import_loads_no_submodule_until_used(self):
        code = """
import json, sys
import treebound
before = sorted(m for m in sys.modules if m.startswith("treebound"))
names = ("graphs", "counting", "bounds", "measure", "harness", "cli", "errors")
same = all(getattr(treebound, n) is sys.modules["treebound." + n] for n in names)
print(json.dumps([before, same, treebound.g_table_exact.__module__]))
"""
        before, same, home = run_child(code)
        assert before == ["treebound"]
        assert same
        assert home == "treebound.measure"
