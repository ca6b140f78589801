"""The package's lazy exports and each CLI command's import budget.

A CLI run is a fresh process that compiles every module it imports when no
bytecode cache is written, so each command must load only what it runs,
and none loads ``dataclasses`` (with ``inspect`` behind it).  The standard
library has a budget too: no command loads ``hashlib`` (OpenSSL) where the
interpreter has a built-in SHA-256, only the conjecture scanner loads
``fractions`` (with ``decimal`` and ``numbers``), only ``gen`` and help load
``argparse`` (with ``gettext`` and ``locale``), and none loads ``pathlib``
or ``typing``.
The budget tests run ``treebound.cli.main`` in a ``python -S`` child, so
no site-packages start-up hook imports anything, and read ``sys.modules``
afterwards.  The test oracles, which the benchmark's checks
import too, need only the standard library.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treebound
from treebound.families import gen_disjoint_cliques
from treebound.graphs import serialize_graph

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# The names `from treebound import *` binds: the exports plus the ten library
# submodules.
STAR_NAMES = {
    "BoundComparison", "BoundReport", "BoundValue", "ChainReport", "CheckResult",
    "ConjectureRow", "ConjectureScanConfig", "CopyLedger",
    "CountResult", "DEFAULT_WORK_CAP", "FormatError", "GTable",
    "GoodLabeling", "Graph", "LOG_TOLERANCE", "MeasureKind",
    "RetryLimitExceeded", "SCHEMA_VERSION", "SuiteConfig", "SuiteRow", "Tree",
    "WorkCapExceeded", "bounds", "checks", "compare_count_to_bound", "conjecture",
    "conjecture_scan", "conjecture_to_csv", "conjecture_to_json", "copy_ledger", "count_copies",
    "count_homomorphisms", "count_walks", "counting", "errors", "evaluate_bounds", "families",
    "g_table_exact", "g_table_monte_carlo", "gen_complete_bipartite",
    "gen_cycle", "gen_disjoint_cliques", "gen_random_min_degree", "good_labeling",
    "good_labeling_between", "graphs", "harness", "instance_report", "ledger", "measure",
    "parse_graph", "parse_tree", "path_tree", "run_suite", "sample_embeddings",
    "serialize_graph", "serialize_tree", "standard_suite_config", "star_tree",
    "suite_to_csv", "suite_to_json",
}
SUBMODULES = (
    "graphs", "families", "counting", "bounds", "measure", "ledger", "checks", "conjecture",
    "harness", "cli", "errors", "formats",
)


# hashlib is avoidable only where the interpreter has its own SHA-256
BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))


def run_child(code: str, *argv: str, flags: tuple[str, ...] = ()) -> list:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    child = subprocess.run(
        [sys.executable, *flags, "-c", code, *argv],
        capture_output=True, text=True, env=env, timeout=60,
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

    # (home, name, where it lives now, or None for a name retired outright)
    RETIRED = [
        ("graphs", "Embedding", None),
        ("measure", "GroupedWeights", None),
        ("measure", "weight", None),
        *(("graphs", name, "families") for name in (
            "gen_disjoint_cliques", "gen_cycle", "gen_complete_bipartite",
            "gen_random_min_degree", "_check_clique_order", "_check_random_min_degree",
            "_skip_draws", "_SKIP_CHUNK")),
        *(("harness", name, "conjecture") for name in (
            "ConjectureScanConfig", "ConjectureRow", "conjecture_scan", "conjecture_csv_rows",
            "conjecture_to_csv", "conjecture_to_json", "_conjecture_instances",
            "_conjecture_record")),
        ("harness", "CheckResult", "checks"),
        ("harness", "instance_report", "checks"),
        ("harness", "_instance_tables", "measure"),
        *(("measure", name, "ledger") for name in ("ChainReport", "CopyLedger", "copy_ledger")),
        ("harness", "_or_none", "formats"),
    ]

    @pytest.mark.parametrize(
        "home, name, new_home",
        RETIRED,
        ids=[name if new_home is None else f"{home}.{name}" for home, name, new_home in RETIRED],
    )
    def test_retired_names_are_gone(self, home, name, new_home):
        # draws are plain tuples, the copy ledger's tables are GTables, and
        # the one per-copy weight is the test oracles' copy_weight
        if new_home is None:
            assert name not in dir(treebound)
            assert not hasattr(getattr(treebound, home), name)
            with pytest.raises(AttributeError, match=name):
                getattr(treebound, name)
            return
        # A moved name has no re-export at its old home, which would load that
        # module again; the old home binds it only where it still uses it
        # (harness formats with _or_none), and then as the new home's object.
        moved = getattr(getattr(treebound, new_home), name)
        assert getattr(getattr(treebound, home), name, moved) is moved
        if name in treebound._HOME:
            assert treebound._HOME[name] == new_home
            assert getattr(treebound, name) is moved

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
stdlib = sorted({
    "dataclasses", "hashlib", "_hashlib", "fractions", "decimal", "numbers",
    "argparse", "gettext", "locale", "pathlib", "typing",
} & set(sys.modules))
print(json.dumps([code, loaded, stdlib]))
"""
    BASE = {"treebound", "treebound.cli", "treebound.errors", "treebound.formats", "treebound.graphs"}

    @pytest.fixture(scope="class")
    def k4_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("budget") / "k4.txt"
        path.write_text(serialize_graph(gen_disjoint_cliques(1, 4)))
        return str(path)

    @pytest.mark.parametrize(
        "argv, extra",
        [
            # counting takes its work cap from _search, so every counting
            # command loads it
            (["count", "--graph", "{g}", "--tree", "star:3"], {"counting", "_search"}),
            (["hom", "--graph", "{g}", "--tree", "path:3"], {"counting", "_search"}),
            (["walks", "--graph", "{g}", "--length", "3"], {"counting", "_search"}),
            # gen, and only gen, is parsed by argparse on a well-formed line
            (["gen", "cycle", "5"], {"families", "_parser"}),
            (["gen", "random", "12", "0.5", "4", "0"], {"families", "_parser"}),
            (["bounds", "--graph", "{g}", "--t", "3"], {"bounds"}),
            (["conjecture", "--family", "cliques", "--n", "4", "--t", "3", "--trials", "2",
              "--seed", "0", "--min-degree", "3"],
             {"bounds", "conjecture", "counting", "families", "_search"}),
            (["conjecture", "--family", "random", "--n", "12", "--t", "3", "--trials", "2",
              "--seed", "0", "--min-degree", "4"],
             {"bounds", "conjecture", "counting", "families", "_search"}),
            (["sample", "--graph", "{g}", "--tree", "path:3", "--samples", "20", "--seed", "0"],
             {"measure"}),
            (["gtable", "--graph", "{g}", "--tree", "path:3", "--measure", "P",
              "--samples", "20", "--seed", "0"], {"measure"}),
            (["gtable", "--graph", "{g}", "--tree", "path:3", "--measure", "Pprime"],
             {"measure"}),
            # the copy ledger's search runs without counting
            (["gtable", "--graph", "{g}", "--tree", "path:3", "--measure", "P"],
             {"measure", "ledger", "_search"}),
            (["verify", "--graph", "{g}", "--tree", "path:3"],
             {"bounds", "checks", "measure", "ledger", "_search"}),
            (["verify", "--help"], {"_parser"}),
        ],
        ids=["count", "hom", "walks", "gen", "gen-random", "bounds", "conjecture",
             "conjecture-random", "sample",
             "gtable-monte-carlo", "gtable-exact-hom", "gtable-exact-copies", "verify",
             "verify-help"],
    )
    def test_command_loads_only_what_it_runs(self, k4_file, argv, extra):
        argv = [arg.format(g=k4_file) for arg in argv]
        code, loaded, stdlib = run_child(self.CLI_CHILD, *argv, flags=("-S",))
        assert code == 0
        assert set(loaded) == self.BASE | {f"treebound.{name}" for name in extra}
        # the value types define their methods without the dataclasses machinery
        assert "dataclasses" not in stdlib
        if BUILTIN_SHA256:
            # the input digests take the built-in SHA-256, not OpenSSL's
            assert not {"hashlib", "_hashlib"} & set(stdlib)
        if argv[0] != "conjecture":
            # payload rationals are formatted from integer pairs
            assert not {"fractions", "decimal", "numbers"} & set(stdlib)
        # argparse parses only the lines the command table does not read:
        # gen's and help; no command loads pathlib or typing
        if argv[0] == "gen" or "--help" in argv:
            assert "argparse" in stdlib
        else:
            assert not {"argparse", "gettext", "locale"} & set(stdlib)
        assert not {"pathlib", "typing"} & set(stdlib)

    def test_cli_run_as_main_is_loaded_once(self):
        # under -m treebound.cli the module runs as __main__; the parser it
        # builds for gen must not import treebound.cli a second time
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        child = subprocess.run(
            [sys.executable, "-S", "-X", "importtime", "-m", "treebound.cli", "gen", "cycle", "5"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert child.returncode == 0, child.stderr
        imported = [line.rsplit("|", 1)[-1].strip() for line in child.stderr.splitlines()]
        assert "treebound._parser" in imported
        assert "treebound.cli" not in imported

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
