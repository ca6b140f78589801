"""Exact tree-copy counting in graphs and the degree-product bounds it obeys.

The package counts labeled copies, homomorphisms, and walks of trees in
simple graphs; evaluates the associated log-space lower bounds; runs the
oriented random embedding process with exact-rational measures; and ships
per-instance checks of every identity and inequality, a suite runner over
desk-scale instances, and a scanner for the open falling-factorial bound.

Names are resolved lazily (PEP 562): ``import treebound`` loads no
submodule, and the first use of an exported name or a submodule attribute
(``treebound.count_copies``, ``treebound.measure``) imports its home module.
Every CLI invocation is a fresh process that compiles each module it
imports when no bytecode cache is written (``PYTHONDONTWRITEBYTECODE``), so
each command loads only the modules it runs:

- ``gen``: graphs, errors, formats, families and _parser;
- ``count``, ``hom``, ``walks``: graphs, errors, formats, counting, _search;
- ``bounds``: graphs, errors, formats and bounds;
- ``conjecture``: those plus counting, _search, conjecture and families,
  but not measure or harness;
- ``sample`` and a Monte Carlo ``gtable``: graphs, errors, formats and
  measure only; an exact ``gtable`` of ``Pprime`` the same;
- an exact ``gtable`` of ``P`` or ``p``: those plus ledger and _search, but
  not counting or bounds;
- ``verify``: graphs, errors, formats, _search, bounds, measure, ledger and
  checks, but not counting, harness, conjecture or families.

The rule holds within modules too: code lives in the module of the
commands that run it, so ``verify`` compiles no counter, suite runner,
scanner or generator.  The suite (``harness``) is the library's own and no
command loads it, and no command loads ``hashlib`` where the interpreter
has a built-in SHA-256; only ``conjecture`` loads ``fractions``.  On a
well-formed command line no command but ``gen`` loads ``argparse`` (and
the private ``_parser``): the CLI reads it from its command table.
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
    "checks": ("CheckResult", "instance_report"),
    "conjecture": (
        "ConjectureRow",
        "ConjectureScanConfig",
        "conjecture_scan",
        "conjecture_to_csv",
        "conjecture_to_json",
    ),
    "counting": (
        "DEFAULT_WORK_CAP",
        "CountResult",
        "count_copies",
        "count_homomorphisms",
        "count_walks",
    ),
    "errors": ("FormatError", "RetryLimitExceeded", "WorkCapExceeded"),
    "families": (
        "gen_complete_bipartite",
        "gen_cycle",
        "gen_disjoint_cliques",
        "gen_random_min_degree",
    ),
    "formats": ("SCHEMA_VERSION",),
    "graphs": (
        "GoodLabeling",
        "Graph",
        "Tree",
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
        "SuiteConfig",
        "SuiteRow",
        "run_suite",
        "standard_suite_config",
        "suite_to_csv",
        "suite_to_json",
    ),
    "ledger": ("ChainReport", "CopyLedger", "copy_ledger"),
    "measure": (
        "GTable",
        "MeasureKind",
        "g_table_exact",
        "g_table_monte_carlo",
        "sample_embeddings",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

# `from treebound import *` binds the exports and every library submodule
# but formats, whose one export, SCHEMA_VERSION, is bound by name
__all__ = [*_HOME, *(module for module in _EXPORTS if module != "formats")]

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
