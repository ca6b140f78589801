"""Suite runner and its report writers.

run_suite sweeps (graph, tree) pairs and records, per row: the exact copy,
homomorphism, and walk counts; every bound with its holds/margin verdict;
the exact g-table floor slack per measure; and the chain-link verdicts.
The conjecture scanner lives in ``conjecture`` and the per-instance checks
of ``verify`` in ``checks``; neither loads this module.

Reports persist as flat CSV (fixed columns, see suite_csv_columns) and as
nested JSON carrying a schemaVersion field; exact rationals serialize as
"numerator/denominator" strings and logs as doubles with 15 significant
digits.  Each report has one writer: a row's JSON record holds its values,
and the CSV is that record flattened in column order, each cell formatted
by formats.csv_cells.  A suite row and instance_report read one instance's
copy ledger and HOM table from the same step, measure._instance_tables.

run_suite computes and renders each instance once per process: the row
cache, an lru_cache of _finished_row keyed by value on (graph, tree,
work_cap), keeps the last _ROW_CACHE_SIZE (128) instances' row state (every
field, with the JSON record and the record's CSV cells as _record and
_cells) and g-tables.  Each row is made from that state with one update of
its instance dict, adding its config's names and a fresh g_tables dict of
the shared, immutable GTables, so the CSV writer formats only a cached
row's names; each GTable renders its JSON cells once per distinct row.  A
computed row reads each table's floor slack, and the HOM table's identity
verdict, off one pass over the table, and its labeling is checked in full
once per tree (GoodLabeling.validate).  A failing step raises out of
_finished_row, and lru_cache keeps no exception, so error rows are never
cached: an error can follow process state (the recursion limit).  The
writers put the names and new containers around what is kept, so no report
shares a dict or list with another.
"""

from __future__ import annotations

from functools import cache, lru_cache
from fractions import Fraction

from .bounds import BoundReport, compare_count_to_bound, evaluate_bounds
from .counting import count_copies, count_homomorphisms, count_walks
from .errors import WorkCapExceeded
from .families import (
    gen_complete_bipartite,
    gen_cycle,
    gen_disjoint_cliques,
    gen_random_min_degree,
)
from .formats import (
    SCHEMA_VERSION,
    _fraction_text,
    _or_none,
    csv_cells,
    csv_text,
    format_count,
    format_log,
)
from .graphs import GoodLabeling, Graph, Tree, _value_type, good_labeling, path_tree, star_tree

__all__ = [
    "SuiteConfig",
    "SuiteRow",
    "RowBound",
    "run_suite",
    "standard_suite_config",
    "suite_csv_columns",
    "suite_to_csv",
    "suite_to_json",
]

# Which count each bound is checked against in a suite row.
_BOUND_TARGETS = (
    ("copies_local", "copies"),
    ("copies_average", "copies"),
    ("copies_p3", "copies"),
    ("falling_factorial", "copies"),
    ("homs_local", "homs"),
    ("walks_blakley_roy", "walks"),
)
# CSV columns of a suite row's chain links, in ChainReport.links() order.
_CHAIN_COLUMNS = (
    "chain_count_ge_entropy",
    "chain_entropy_ge_product",
    "chain_product_ge_bound",
    "chain_count_ge_bound",
)


@_value_type
class RowBound:
    """One bound's verdict inside a suite row."""

    name: str
    applicable: bool
    log_value: float | None = None
    holds: bool | None = None
    log_margin: float | None = None
    reason: str | None = None


@_value_type(uncompared=("g_tables",))
class SuiteRow:
    """One (graph, tree) row of run_suite.  Rows of equal instances share
    their field values, which are immutable; g_tables is each row's own dict
    of the shared GTables, or None, and equality ignores it.  An error-free
    row from run_suite also carries its instance's JSON record and CSV
    cells, private attributes that equality, hash and repr do not see; a row
    built by hand from the same values is rendered from its fields to the
    same reports."""

    graph_name: str
    tree_name: str
    n: int
    edge_count: int
    average_degree: Fraction
    min_degree: int
    t: int
    copies: int | None = None
    homs: int | None = None
    walks: int | None = None
    bounds: tuple[RowBound, ...] = ()
    slack_majorant: Fraction | None = None
    slack_iso: Fraction | None = None
    slack_hom: Fraction | None = None
    hom_table_equal: bool | None = None
    chain_links: tuple[bool, bool, bool, bool] | None = None
    g_tables: dict | None = None
    error: str | None = None


@_value_type
class SuiteConfig:
    """Instance battery for run_suite: named graphs crossed with named trees."""

    graphs: tuple[tuple[str, Graph], ...]
    trees: tuple[tuple[str, Tree], ...]
    work_cap: int | None = None
    include_gtables: bool = False


def _row_bounds(report: BoundReport, counts: dict[str, int]) -> tuple[RowBound, ...]:
    rows = []
    named = report.named_bounds()
    for name, target in _BOUND_TARGETS:
        bound = named[name]
        if not bound.applicable:
            rows.append(RowBound(name, False, reason=bound.reason))
            continue
        cmp = compare_count_to_bound(counts[target], bound.log_value)
        rows.append(
            RowBound(name, True, bound.log_value, cmp.holds, cmp.log_margin)
        )
    return tuple(rows)


# How many instances the row cache keeps: the standard battery's 54 fixed
# rows and the 12 random rows of six seeds.
_ROW_CACHE_SIZE = 128


def _graph_fields(graph: Graph, tree: Tree) -> dict:
    """The SuiteRow fields read off the graph, and t, which every row has,
    an error row too."""
    return dict(
        n=graph.n,
        edge_count=graph.edge_count,
        average_degree=graph.average_degree,
        min_degree=graph.min_degree,
        t=tree.t,
    )


@lru_cache(maxsize=_ROW_CACHE_SIZE)
def _labeling(tree: Tree) -> GoodLabeling:
    """The tree's good labeling, which every row of the tree shares."""
    return good_labeling(tree)


# run_suite computes one graph's rows after another, so a few entries serve
# every tree size of the graph in hand; more would keep old graphs alive.
@lru_cache(maxsize=8)
def _graph_work(graph: Graph, t: int) -> tuple[int, BoundReport]:
    """One graph's walk count and bound report for trees with t edges,
    which every such tree's row shares."""
    return count_walks(graph, t).value, evaluate_bounds(graph, t)


@lru_cache(maxsize=_ROW_CACHE_SIZE)
def _finished_row(
    graph: Graph, tree: Tree, work_cap: int | None
) -> tuple[dict, dict, dict, tuple[str, ...]]:
    """One instance's row state, g-tables, JSON record and CSV cells; a
    failing step raises.  The state is the instance dict of a SuiteRow with
    empty names and no g_tables, plus its record and cells as _record and
    _cells; the record is _suite_record of that row, and the cells are the
    record's, in suite_csv_columns order after the names."""
    from .measure import _instance_tables

    labeling = _labeling(tree)
    ledger, hom_table = _instance_tables(graph, tree, labeling, work_cap)
    # with min degree >= t the ledger's copy pass also yields the count
    copies = ledger.count if ledger else count_copies(graph, tree, labeling, work_cap).value
    homs = count_homomorphisms(graph, tree).value
    walks, report = _graph_work(graph, tree.t)
    counts = dict(copies=copies, homs=homs, walks=walks)
    fields = _graph_fields(graph, tree) | counts | {"bounds": _row_bounds(report, counts)}
    tables: dict = {}
    if hom_table:
        tables["Pprime"] = hom_table
        slack, fields["hom_table_equal"] = hom_table.slack_and_profile(graph)
        fields["slack_hom"] = Fraction(*slack)
    if ledger:
        tables["p"] = ledger.majorant
        tables["P"] = ledger.iso
        fields["slack_majorant"] = tables["p"].min_slack(graph)
        fields["slack_iso"] = tables["P"].min_slack(graph)
        fields["chain_links"] = ledger.chain(report.copies_local.log_value).links()
    row = SuiteRow("", "", **fields)
    record = _suite_record(row)
    cells = csv_cells(_record_values(record))
    return vars(row) | {"_record": record, "_cells": cells}, tables, record, cells


def _build_row(
    graph_name: str,
    graph: Graph,
    tree_name: str,
    tree: Tree,
    work_cap: int | None,
    include_gtables: bool,
) -> SuiteRow:
    try:
        state, tables, _, _ = _finished_row(graph, tree, work_cap)
    except (WorkCapExceeded, ValueError) as exc:
        error = f"{type(exc).__name__}: {exc}"
        return SuiteRow(graph_name, tree_name, **_graph_fields(graph, tree), error=error)
    # a SuiteRow set up as its __init__ would, from the kept state in one update
    row = object.__new__(SuiteRow)
    vars(row).update(
        state,
        graph_name=graph_name,
        tree_name=tree_name,
        g_tables=(dict(tables) or None) if include_gtables else None,
    )
    return row


def run_suite(config: SuiteConfig) -> list[SuiteRow]:
    """Evaluate every (graph, tree) pair; per-row failures never abort the run.

    An instance that completed without error earlier in the process is
    neither computed nor rendered again: a row cache keyed by value on
    (graph, tree, work_cap) keeps the last _ROW_CACHE_SIZE instances' row
    state and g-tables.  The state holds every field and the JSON record and
    CSV cells, which the writers read in place of the fields; a cached row
    is that state, its config's names and a fresh g_tables dict of the
    shared, immutable GTables, set in one update of its instance dict.
    An error row holds the graph's fields, t and the error, and is never
    cached.  Computed rows share one labeling per tree, and one walk count
    and bound report per graph and t, from two more caches.
    """
    return [
        _build_row(gname, graph, tname, tree, config.work_cap, config.include_gtables)
        for gname, graph in config.graphs
        for tname, tree in config.trees
    ]


@cache
def _fixed_battery() -> tuple[tuple[tuple[str, Graph], ...], tuple[tuple[str, Tree], ...]]:
    """The standard battery's nine fixed graphs and six trees, built once per
    process: they are immutable, so every config shares them."""
    k4_minus_edge = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    fork4 = Tree.from_edges([(1, 2), (2, 3), (3, 4), (3, 5)])
    graphs = (
        ("K4", gen_disjoint_cliques(1, 4)),
        ("K5", gen_disjoint_cliques(1, 5)),
        ("2xK4", gen_disjoint_cliques(2, 4)),
        ("C5", gen_cycle(5)),
        ("C6", gen_cycle(6)),
        ("K4-e", k4_minus_edge),
        ("K2,3", gen_complete_bipartite(2, 3)),
        ("K3,3", gen_complete_bipartite(3, 3)),
        ("K4,4", gen_complete_bipartite(4, 4)),
    )
    trees = (
        ("P2", path_tree(2)),
        ("P3", path_tree(3)),
        ("S3", star_tree(3)),
        ("P4", path_tree(4)),
        ("S4", star_tree(4)),
        ("fork4", fork4),
    )
    return graphs, trees


def standard_suite_config(
    seed: int = 0, work_cap: int | None = None, include_gtables: bool = False
) -> SuiteConfig:
    """The default desk-scale battery: 11 graphs (n <= 8) crossed with 6 trees.

    The seed draws the two random graphs, rand7 and rand8; the other nine
    graphs and the trees are the same objects in every call, so after the
    first seed run_suite takes their 54 rows from its row cache.  Contains well
    over 20 rows whose graph meets the min-degree->=-t hypothesis for trees
    up to t = 4, which is what the floor and chain checks quantify over.
    """
    fixed_graphs, trees = _fixed_battery()
    graphs = fixed_graphs + (
        ("rand7", gen_random_min_degree(7, 0.6, 2, seed=seed + 101)),
        ("rand8", gen_random_min_degree(8, 0.7, 3, seed=seed + 202)),
    )
    return SuiteConfig(
        graphs=graphs,
        trees=trees,
        work_cap=work_cap,
        include_gtables=include_gtables,
    )


def suite_csv_columns() -> list[str]:
    cols = [
        "graph",
        "tree",
        "n",
        "m",
        "d",
        "min_degree",
        "t",
        "copies",
        "homs",
        "walks",
    ]
    for name, _ in _BOUND_TARGETS:
        cols += [f"{name}_log", f"{name}_holds", f"{name}_margin"]
    cols += [
        "slack_majorant",
        "slack_iso",
        "slack_hom",
        "hom_table_equal",
        *_CHAIN_COLUMNS,
        "error",
    ]
    return cols


def _bound_json(bound: RowBound) -> dict:
    out: dict = {"applicable": bound.applicable}
    if bound.applicable:
        out["log"] = format_log(bound.log_value)
        out["holds"] = bound.holds
        out["logMargin"] = format_log(bound.log_margin)
    elif bound.reason:
        out["reason"] = bound.reason
    return out


def _suite_record(row: SuiteRow) -> dict:
    """One suite row's JSON record without the two names."""
    return {
        "n": row.n,
        "m": row.edge_count,
        "d": _fraction_text(row.average_degree),
        "minDegree": row.min_degree,
        "t": row.t,
        "counts": {
            "copies": _or_none(format_count, row.copies),
            "homs": _or_none(format_count, row.homs),
            "walks": _or_none(format_count, row.walks),
        },
        "bounds": {b.name: _bound_json(b) for b in row.bounds},
        "slackMajorant": _or_none(_fraction_text, row.slack_majorant),
        "slackIso": _or_none(_fraction_text, row.slack_iso),
        "slackHom": _or_none(_fraction_text, row.slack_hom),
        "homTableEqual": row.hom_table_equal,
        "chainLinks": _or_none(list, row.chain_links),
        "error": row.error,
    }


def _record_of(row: SuiteRow) -> dict:
    # a hand-built or error row carries no record
    return getattr(row, "_record", None) or _suite_record(row)


def _json_record(row: SuiteRow) -> dict:
    """The row's JSON record in new containers, so that a caller's edit
    reaches no other report."""
    record = _record_of(row)
    return {
        "graph": row.graph_name,
        "tree": row.tree_name,
        **record,
        "counts": dict(record["counts"]),
        "bounds": {name: dict(bound) for name, bound in record["bounds"].items()},
        "chainLinks": _or_none(list, record["chainLinks"]),
    }


def _record_values(record: dict) -> list:
    """A JSON record flattened in suite_csv_columns order after the two names."""
    values = [record["n"], record["m"], record["d"], record["minDegree"], record["t"],
              *record["counts"].values()]
    for name, _ in _BOUND_TARGETS:
        bound = record["bounds"].get(name, {})
        values += (bound.get("log"), bound.get("holds"), bound.get("logMargin"))
    values += (record["slackMajorant"], record["slackIso"], record["slackHom"],
               record["homTableEqual"], *(record["chainLinks"] or (None,) * len(_CHAIN_COLUMNS)),
               record["error"])
    return values


def _csv_cells(row: SuiteRow) -> tuple[str, ...]:
    # a hand-built or error row carries no cells
    cells = getattr(row, "_cells", None) or csv_cells(_record_values(_record_of(row)))
    return csv_cells((row.graph_name, row.tree_name)) + cells


def suite_to_csv(rows: list[SuiteRow]) -> str:
    """The suite CSV: a header of suite_csv_columns, then each row's names
    and JSON record flattened in column order, so each cell is its JSON
    value as formats.csv_table writes it.  A row from run_suite carries its
    record's cells, formatted when its instance was computed, so only its
    names are formatted here."""
    return csv_text(suite_csv_columns(), map(_csv_cells, rows))


def suite_to_json(rows: list[SuiteRow], include_gtables: bool = False) -> dict:
    """The suite JSON: schemaVersion and one record per row, with its
    g-tables' to_json_dict under gTables when asked and the row has them.
    Every dict and list in it is new, so an edit to it reaches no other
    report."""
    json_rows = []
    for row in rows:
        entry = _json_record(row)
        if include_gtables and row.g_tables:
            entry["gTables"] = {key: table.to_json_dict() for key, table in row.g_tables.items()}
        json_rows.append(entry)
    return {"schemaVersion": SCHEMA_VERSION, "rows": json_rows}
