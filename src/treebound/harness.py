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
and the CSV passes the same values to formats.csv_table, which formats
every cell.  A suite row and instance_report read one instance's copy
ledger and HOM table from the same step, measure._instance_tables.

run_suite computes each instance once per process: a bounded LRU cache,
keyed by value on (graph, tree, work_cap), keeps the finished fields of the
last _ROW_CACHE_SIZE (128) instances, and a row is built from them, its
config's names and a fresh g_tables dict of shared, immutable GTables.  Error
rows are never cached, since an error can follow process state (the recursion
limit); _finished_row.cache_clear() empties the cache.  Each instance is also
rendered once: a cache slot keeps, next to the fields and g-tables, a render
memo that the writers fill the first time they write a row read from the
cache, with its CSV values and JSON record without the two names, and each
of its g-tables' JSON.  Rows computed in the call, hand-built rows and error
rows carry no memo and are rendered from their fields.  The writers put the
names and new containers around what the memo keeps, so no report shares a
dict or list with another.
"""

from __future__ import annotations

from functools import cache, lru_cache
from fractions import Fraction
from typing import TYPE_CHECKING

from .bounds import BoundReport, compare_count_to_bound, evaluate_bounds
from .counting import count_copies, count_homomorphisms, count_walks
from .errors import WorkCapExceeded
from .families import (
    gen_complete_bipartite,
    gen_cycle,
    gen_disjoint_cliques,
    gen_random_min_degree,
)
from .formats import SCHEMA_VERSION, _fraction_text, _or_none, csv_table, format_count, format_log
from .graphs import Graph, Tree, _value_type, good_labeling, path_tree, star_tree

# measure is imported where it is used, so that setting up a suite does
# not load it
if TYPE_CHECKING:
    from .measure import GTable

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
    of the shared GTables, or None, and equality ignores it.  A row read from
    the row cache also carries its slot's render memo, a private attribute
    outside the fields: equality, hash and repr do not see it, and a row
    built by hand from the same values writes the same reports."""

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


def _row_bounds(report: BoundReport, counts: dict[str, int | None]) -> tuple[RowBound, ...]:
    rows = []
    named = report.named_bounds()
    for name, target in _BOUND_TARGETS:
        bound = named[name]
        count = counts[target]
        if not bound.applicable or count is None:
            rows.append(RowBound(name, False, reason=bound.reason or "count unavailable"))
            continue
        cmp = compare_count_to_bound(count, bound.log_value)
        rows.append(
            RowBound(name, True, bound.log_value, cmp.holds, cmp.log_margin)
        )
    return tuple(rows)


# How many instances the row cache keeps: the standard battery's 54 fixed
# rows and the 12 random rows of six seeds.
_ROW_CACHE_SIZE = 128


@lru_cache(maxsize=_ROW_CACHE_SIZE)
def _finished_row(graph: Graph, tree: Tree, work_cap: int | None) -> list:
    """The row cache's slot for one instance, found by value: empty until a
    row of it completes without error, then [(fields, g-tables, memo)], where
    the fields are every SuiteRow field but the two names and g_tables, and
    the memo is the instance's _Rendered."""
    return []


class _Rendered:
    """One cached instance's rendering, filled by the writers the first time
    they write a row read from the cache: its CSV values and its JSON record,
    both without the two names, and the JSON of each of the slot's g-tables
    by key.  The writers copy the record and table JSON on the way out."""

    __slots__ = ("tables", "values", "record", "table_json")

    def __init__(self, tables: dict):
        self.tables = tables
        self.values = self.record = None
        self.table_json: dict[str, dict] = {}


def _instance_fields(
    graph: Graph, tree: Tree, work_cap: int | None, shared: tuple | None
) -> tuple[dict, dict]:
    """One instance's row fields and g-tables; the fields hold an error, and
    what was made before it, when a step fails."""
    from .measure import _instance_tables

    # run_suite's caches; a cache keeps no exception, and each is called in the try
    labeling_of, walks_of, bounds_of = shared or (good_labeling, count_walks, evaluate_bounds)
    t = tree.t
    fields = dict(
        n=graph.n,
        edge_count=graph.edge_count,
        average_degree=graph.average_degree,
        min_degree=graph.min_degree,
        t=t,
    )
    tables: dict = {}
    try:
        labeling = labeling_of(tree)
        ledger, hom_table = _instance_tables(graph, tree, labeling, work_cap)
        # with min degree >= t the ledger's copy pass also yields the count
        copies = ledger.count if ledger else count_copies(graph, tree, labeling, work_cap).value
        homs = count_homomorphisms(graph, tree).value
        walks = walks_of(graph, t).value
        fields.update(copies=copies, homs=homs, walks=walks)
        report = bounds_of(graph, t)
        fields["bounds"] = _row_bounds(
            report, {"copies": copies, "homs": homs, "walks": walks}
        )
        if hom_table:
            tables["Pprime"] = hom_table
            fields["slack_hom"] = hom_table.min_slack(graph)
            fields["hom_table_equal"] = hom_table.equals_degree_profile(graph)
        if ledger:
            tables["p"] = ledger.majorant
            tables["P"] = ledger.iso
            fields["slack_majorant"] = tables["p"].min_slack(graph)
            fields["slack_iso"] = tables["P"].min_slack(graph)
            fields["chain_links"] = ledger.chain(report.copies_local.log_value).links()
    except (WorkCapExceeded, ValueError) as exc:
        fields["error"] = f"{type(exc).__name__}: {exc}"
    return fields, tables


def _build_row(
    graph_name: str,
    graph: Graph,
    tree_name: str,
    tree: Tree,
    work_cap: int | None,
    include_gtables: bool,
    shared: tuple | None = None,
) -> SuiteRow:
    slot = _finished_row(graph, tree, work_cap)
    rendered = None
    if slot:
        fields, tables, rendered = slot[0]
    else:
        fields, tables = _instance_fields(graph, tree, work_cap, shared)
        # an error can follow process state (the recursion limit), so it is made again
        if "error" not in fields:
            slot.append((fields, tables, _Rendered(tables)))
    row = SuiteRow(
        graph_name=graph_name,
        tree_name=tree_name,
        g_tables=(dict(tables) or None) if include_gtables else None,
        **fields,
    )
    # only a row read from the cache gets the memo: an instance that never recurs keeps none
    if rendered is not None:
        object.__setattr__(row, "_rendered", rendered)
    return row


def run_suite(config: SuiteConfig) -> list[SuiteRow]:
    """Evaluate every (graph, tree) pair; per-row failures never abort the run.

    An instance that completed without error earlier in the process is not
    computed again: the row cache, keyed by value on (graph, tree, work_cap),
    keeps the last _ROW_CACHE_SIZE instances' finished fields, and each row
    gets its config's names and a fresh g_tables dict of the shared, immutable
    GTables.  A row read from the cache also carries its slot's render memo,
    so the writers render each such instance once.  Error rows are never
    cached.  Rows that are computed share one labeling per tree, and one walk
    count and bound report per graph and t.
    """
    shared = tuple(map(cache, (good_labeling, count_walks, evaluate_bounds)))
    return [
        _build_row(gname, graph, tname, tree, config.work_cap, config.include_gtables, shared)
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


def _suite_csv_values(row: SuiteRow) -> tuple:
    """One suite row's CSV values after the two names, in column order: the
    JSON record's values, which csv_table formats.  A log goes in unrounded,
    since its 15-digit cell is that of its rounded JSON value."""
    bounds = {b.name: b for b in row.bounds}
    values = [row.n, row.edge_count, _fraction_text(row.average_degree), row.min_degree,
              row.t, row.copies, row.homs, row.walks]
    for name, _ in _BOUND_TARGETS:
        bound = bounds.get(name)
        if bound is not None and bound.applicable:
            values += (bound.log_value, bound.holds, bound.log_margin)
        else:
            values += (None, None, None)
    values += (
        _or_none(_fraction_text, row.slack_majorant),
        _or_none(_fraction_text, row.slack_iso),
        _or_none(_fraction_text, row.slack_hom),
        row.hom_table_equal,
        *(row.chain_links or (None,) * len(_CHAIN_COLUMNS)),
        row.error,
    )
    return tuple(values)


def _kept(row: SuiteRow, part: str, render):
    """render(row), or for a row read from the row cache, its memo's part,
    rendered at the instance's first report."""
    rendered = getattr(row, "_rendered", None)
    if rendered is None:
        return render(row)
    value = getattr(rendered, part)
    if value is None:
        value = render(row)
        setattr(rendered, part, value)
    return value


def _json_record(row: SuiteRow) -> dict:
    record = _kept(row, "record", _suite_record)
    # new containers, so that a caller's edit reaches no other report
    return {
        "graph": row.graph_name,
        "tree": row.tree_name,
        **record,
        "counts": dict(record["counts"]),
        "bounds": {name: dict(bound) for name, bound in record["bounds"].items()},
        "chainLinks": _or_none(list, record["chainLinks"]),
    }


def _table_json(row: SuiteRow, key: str, table: GTable) -> dict:
    """table.to_json_dict(), kept in the memo when the table is its slot's."""
    rendered = getattr(row, "_rendered", None)
    # a caller may put another table in a row's own g_tables dict
    if rendered is None or rendered.tables.get(key) is not table:
        return table.to_json_dict()
    kept = rendered.table_json.get(key)
    if kept is None:
        kept = rendered.table_json[key] = table.to_json_dict()
    return {**kept, "rows": [cells[:] for cells in kept["rows"]]}


def suite_to_csv(rows: list[SuiteRow]) -> str:
    return csv_table(
        suite_csv_columns(),
        ((row.graph_name, row.tree_name, *_kept(row, "values", _suite_csv_values)) for row in rows),
    )


def suite_to_json(rows: list[SuiteRow], include_gtables: bool = False) -> dict:
    json_rows = []
    for row in rows:
        entry = _json_record(row)
        if include_gtables and row.g_tables:
            entry["gTables"] = {
                key: _table_json(row, key, table) for key, table in row.g_tables.items()
            }
        json_rows.append(entry)
    return {"schemaVersion": SCHEMA_VERSION, "rows": json_rows}
