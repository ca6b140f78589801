"""The package's lazy exports and each CLI command's import budget.

A CLI run is a fresh process that compiles every module it imports when no
bytecode cache is written, so each command must load only what it runs,
and none loads ``dataclasses`` (with ``inspect`` behind it).
The budget tests run ``treebound.cli.main`` in a child process and read
``sys.modules`` afterwards.  The test oracles, which the benchmark's checks
import too, need only the standard library.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treebound
from treebound.graphs import gen_disjoint_cliques, serialize_graph

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# The names `from treebound import *` binds: the exports plus the six library
# submodules.
STAR_NAMES = {
    "BoundComparison", "BoundReport", "BoundValue", "ChainReport", "CheckResult",
    "ConjectureRow", "ConjectureScanConfig", "CopyLedger",
    "CountResult", "DEFAULT_WORK_CAP", "FormatError", "GTable",
    "GoodLabeling", "Graph", "LOG_TOLERANCE", "MeasureKind",
    "RetryLimitExceeded", "SCHEMA_VERSION", "SuiteConfig", "SuiteRow", "Tree",
    "WorkCapExceeded", "bounds", "compare_count_to_bound", "conjecture_scan",
    "conjecture_to_csv", "conjecture_to_json", "copy_ledger", "count_copies",
    "count_homomorphisms", "count_walks", "counting", "errors",
    "evaluate_bounds", "g_table_exact", "g_table_monte_carlo", "gen_complete_bipartite",
    "gen_cycle", "gen_disjoint_cliques", "gen_random_min_degree", "good_labeling",
    "good_labeling_between", "graphs", "harness", "instance_report", "measure",
    "parse_graph", "parse_tree", "path_tree", "run_suite", "sample_embeddings",
    "serialize_graph", "serialize_tree", "standard_suite_config", "star_tree",
    "suite_to_csv", "suite_to_json",
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
        value = treebound.__getattr__("count_walks")
        assert vars(treebound)["count_walks"] is value

    def test_dir_lists_unresolved_names(self):
        assert set(dir(treebound)) >= STAR_NAMES | {"cli", "formats", "__version__"}

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            treebound.no_such_name  # noqa: B018

    @pytest.mark.parametrize(
        "home, name",
        [("graphs", "Embedding"), ("measure", "GroupedWeights"), ("measure", "weight")],
        ids=["Embedding", "GroupedWeights", "weight"],
    )
    def test_retired_names_are_gone(self, home, name):
        # draws are plain tuples, the copy ledger's tables are GTables, and
        # the one per-copy weight is the test oracles' copy_weight
        assert name not in dir(treebound)
        assert not hasattr(getattr(treebound, home), name)
        with pytest.raises(AttributeError, match=name):
            getattr(treebound, name)

    def test_gtable_reads_cells_only_through_g(self):
        # the retired readers rows and slacks repeated g(i, v) and min_slack
        for name in ("rows", "slacks"):
            assert not hasattr(treebound.GTable, name)


class TestImportBudget:
    CLI_CHILD = """
import contextlib, io, json, sys
from treebound.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.startswith("treebound"))
print(json.dumps([code, loaded, "dataclasses" in sys.modules]))
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
        code, loaded, dataclasses_loaded = run_child(self.CLI_CHILD, *argv)
        assert code == 0
        assert set(loaded) == self.BASE | {f"treebound.{name}" for name in extra}
        # the value types define their methods without the dataclasses machinery
        assert not dataclasses_loaded

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


def test_oracles_import_without_site_packages():
    # python -S skips site-packages, so any third-party import fails here
    code = """
import json, sys
import tests.oracles
print(json.dumps(sorted({m.split(".")[0] for m in sys.modules} - sys.stdlib_module_names)))
"""
    env = {**os.environ, "PYTHONPATH": f"{SRC}{os.pathsep}{ROOT}"}
    child = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout.splitlines()[-1]) == ["__main__", "tests", "treebound"]
