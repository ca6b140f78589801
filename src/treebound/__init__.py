"""Exact tree-copy counting in graphs and the degree-product bounds it obeys.

The package counts labeled copies, homomorphisms, and walks of trees in
simple graphs; evaluates the associated log-space lower bounds; runs the
oriented random embedding process with exact-rational measures; and ships a
harness that checks every identity and inequality on desk-scale instances,
including a scanner for the open falling-factorial bound.

Names are resolved lazily (PEP 562): ``import treebound`` loads no
submodule, and the first use of an exported name or a submodule attribute
(``treebound.count_copies``, ``treebound.measure``) imports its home module.
Every CLI invocation is a fresh process that compiles each module it
imports when no bytecode cache is written (``PYTHONDONTWRITEBYTECODE``), so
each command loads only the modules it runs:

- ``count``, ``hom``, ``walks``, ``gen``: graphs, counting, errors, formats;
- ``bounds``: those plus bounds;
- ``conjecture``: those plus bounds and harness, but not measure;
- ``gtable``, ``sample``: those plus bounds and measure, but not harness;
- ``verify``: every module.
"""

import importlib

# home submodule -> the names the package exports from it
_EXPORTS = {
    "bounds": (
        "LOG_TOLERANCE",
        "BoundComparison",
        "BoundReport",
        "BoundValue",
        "compare_count_to_bound",
        "evaluate_bounds",
    ),
    "counting": (
        "DEFAULT_WORK_CAP",
        "CountResult",
        "count_copies",
        "count_homomorphisms",
        "count_walks",
    ),
    "errors": ("FormatError", "RetryLimitExceeded", "WorkCapExceeded"),
    "formats": ("SCHEMA_VERSION",),
    "graphs": (
        "GoodLabeling",
        "Graph",
        "Tree",
        "gen_complete_bipartite",
        "gen_cycle",
        "gen_disjoint_cliques",
        "gen_random_min_degree",
        "good_labeling",
        "good_labeling_between",
        "parse_graph",
        "parse_tree",
        "path_tree",
        "serialize_graph",
        "serialize_tree",
        "star_tree",
    ),
    "harness": (
        "CheckResult",
        "ConjectureRow",
        "ConjectureScanConfig",
        "SuiteConfig",
        "SuiteRow",
        "conjecture_scan",
        "conjecture_to_csv",
        "conjecture_to_json",
        "instance_report",
        "run_suite",
        "standard_suite_config",
        "suite_to_csv",
        "suite_to_json",
    ),
    "measure": (
        "ChainReport",
        "CopyLedger",
        "GTable",
        "MeasureKind",
        "copy_ledger",
        "g_table_exact",
        "g_table_monte_carlo",
        "sample_embeddings",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("bounds", "cli", "counting", "errors", "formats", "graphs", "harness", "measure")

# `from treebound import *` binds the exports and the library submodules
__all__ = [*_HOME, "bounds", "counting", "errors", "graphs", "harness", "measure"]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule binds it on the package
        return importlib.import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
