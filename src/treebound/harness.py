"""Suite runner, conjecture scanner, sharpness checks, and report writers.

run_suite sweeps (graph, tree) pairs and records, per row: the exact copy,
homomorphism, and walk counts; every bound with its holds/margin verdict;
the exact g-table floor slack per measure; and the chain-link verdicts.
conjecture_scan compares exact copy counts against the falling-factorial
value n*d(d-1)...(d-t+1) over a graph family and reports verdicts without
asserting one: a violated row is the scan's most valuable output and must
not abort the run.

Reports persist as flat CSV (fixed columns, see suite_csv_columns) and as
nested JSON carrying a schemaVersion field; exact rationals serialize as
"numerator/denominator" strings and logs as doubles with 15 significant
digits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from fractions import Fraction
from math import prod
from typing import TYPE_CHECKING

from .bounds import BoundReport, compare_count_to_bound, evaluate_bounds
from .counting import count_copies, count_homomorphisms, count_walks
from .errors import RetryLimitExceeded, WorkCapExceeded
from .formats import SCHEMA_VERSION, csv_table, format_log, format_rational
from .graphs import (
    Graph,
    Tree,
    gen_complete_bipartite,
    gen_cycle,
    gen_disjoint_cliques,
    gen_random_min_degree,
    good_labeling,
    path_tree,
    star_tree,
)

# measure and logging are imported where they are used, so that the
# conjecture scanner runs without loading them
if TYPE_CHECKING:
    from .measure import ChainReport

__all__ = [
    "SCHEMA_VERSION",
    "SuiteConfig",
    "SuiteRow",
    "RowBound",
    "run_suite",
    "standard_suite_config",
    "suite_csv_columns",
    "csv_table",
    "suite_to_csv",
    "suite_to_json",
    "ConjectureScanConfig",
    "ConjectureRow",
    "ConjectureSummary",
    "conjecture_scan",
    "summarize_conjecture",
    "conjecture_csv_rows",
    "conjecture_to_csv",
    "conjecture_to_json",
    "sharpness_check",
    "CheckResult",
    "instance_report",
    "instance_checks",
    "format_rational",
    "format_log",
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


def _or_none(fmt, value):
    """fmt(value), or None when the value is missing."""
    return None if value is None else fmt(value)


@dataclass(frozen=True)
class RowBound:
    """One bound's verdict inside a suite row."""

    name: str
    applicable: bool
    log_value: float | None = None
    holds: bool | None = None
    log_margin: float | None = None
    reason: str | None = None


@dataclass(frozen=True)
class SuiteRow:
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
    g_tables: dict | None = field(default=None, compare=False)
    error: str | None = None


@dataclass(frozen=True)
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


def _build_row(
    graph_name: str,
    graph: Graph,
    tree_name: str,
    tree: Tree,
    work_cap: int | None,
    include_gtables: bool,
) -> SuiteRow:
    from .measure import MeasureKind, copy_ledger, g_table_exact

    t = tree.t
    base = dict(
        graph_name=graph_name,
        tree_name=tree_name,
        n=graph.n,
        edge_count=graph.edge_count,
        average_degree=graph.average_degree,
        min_degree=graph.min_degree,
        t=t,
    )
    tables: dict = {}
    try:
        labeling = good_labeling(tree)
        # with min degree >= t the ledger's copy pass also yields the count
        ledger = copy_ledger(graph, tree, labeling, work_cap) if graph.min_degree >= t else None
        copies = ledger.count if ledger else count_copies(graph, tree, labeling, work_cap).value
        homs = count_homomorphisms(graph, tree).value
        walks = count_walks(graph, t).value
        base.update(copies=copies, homs=homs, walks=walks)
        report = evaluate_bounds(graph, t)
        base["bounds"] = _row_bounds(
            report, {"copies": copies, "homs": homs, "walks": walks}
        )
        hom_table = g_table_exact(graph, tree, labeling, MeasureKind.HOM)
        tables["Pprime"] = hom_table
        base["slack_hom"] = hom_table.min_slack(graph)
        base["hom_table_equal"] = hom_table.equals_degree_profile(graph)
        if ledger:
            tables["p"] = ledger.majorant.table()
            tables["P"] = ledger.iso.table()
            base["slack_majorant"] = tables["p"].min_slack(graph)
            base["slack_iso"] = tables["P"].min_slack(graph)
            base["chain_links"] = ledger.chain(report.copies_local.log_value).links()
    except (WorkCapExceeded, ValueError) as exc:
        base["error"] = f"{type(exc).__name__}: {exc}"
    if include_gtables:
        base["g_tables"] = tables or None
    return SuiteRow(**base)


def run_suite(config: SuiteConfig) -> list[SuiteRow]:
    """Evaluate every (graph, tree) pair; per-row failures never abort the run."""
    return [
        _build_row(gname, graph, tname, tree, config.work_cap, config.include_gtables)
        for gname, graph in config.graphs
        for tname, tree in config.trees
    ]


def standard_suite_config(
    seed: int = 0, work_cap: int | None = None, include_gtables: bool = False
) -> SuiteConfig:
    """The default desk-scale battery: 11 graphs (n <= 8) crossed with 6 trees.

    The seed draws the two random graphs, rand7 and rand8.  Contains well
    over 20 rows whose graph meets the min-degree->=-t hypothesis for trees
    up to t = 4, which is what the floor and chain checks quantify over.
    """
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
        ("rand7", gen_random_min_degree(7, 0.6, 2, seed=seed + 101)),
        ("rand8", gen_random_min_degree(8, 0.7, 3, seed=seed + 202)),
    )
    trees = (
        ("P2", path_tree(2)),
        ("P3", path_tree(3)),
        ("S3", star_tree(3)),
        ("P4", path_tree(4)),
        ("S4", star_tree(4)),
        ("fork4", fork4),
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


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.15g}"
    return str(value)


def _suite_row_record(row: SuiteRow) -> dict:
    record = {
        "graph": row.graph_name,
        "tree": row.tree_name,
        "n": row.n,
        "m": row.edge_count,
        "d": row.average_degree,
        "min_degree": row.min_degree,
        "t": row.t,
        "copies": row.copies,
        "homs": row.homs,
        "walks": row.walks,
        "slack_majorant": row.slack_majorant,
        "slack_iso": row.slack_iso,
        "slack_hom": row.slack_hom,
        "hom_table_equal": row.hom_table_equal,
        "error": row.error,
    }
    for bound in row.bounds:
        if bound.applicable:
            record[f"{bound.name}_log"] = format_log(bound.log_value)
            record[f"{bound.name}_holds"] = bound.holds
            record[f"{bound.name}_margin"] = bound.log_margin
    record.update(zip(_CHAIN_COLUMNS, row.chain_links or ()))
    return record


def suite_to_csv(rows: list[SuiteRow]) -> str:
    columns = suite_csv_columns()
    records = map(_suite_row_record, rows)
    return csv_table(columns, ([_csv_cell(r.get(c)) for c in columns] for r in records))


def _bound_json(bound: RowBound) -> dict:
    out: dict = {"applicable": bound.applicable}
    if bound.applicable:
        out["log"] = format_log(bound.log_value)
        out["holds"] = bound.holds
        out["logMargin"] = format_log(bound.log_margin)
    elif bound.reason:
        out["reason"] = bound.reason
    return out


def suite_to_json(rows: list[SuiteRow], include_gtables: bool = False) -> dict:
    json_rows = []
    for row in rows:
        entry: dict = {
            "graph": row.graph_name,
            "tree": row.tree_name,
            "n": row.n,
            "m": row.edge_count,
            "d": format_rational(row.average_degree),
            "minDegree": row.min_degree,
            "t": row.t,
            "counts": {
                "copies": _or_none(str, row.copies),
                "homs": _or_none(str, row.homs),
                "walks": _or_none(str, row.walks),
            },
            "bounds": {b.name: _bound_json(b) for b in row.bounds},
            "slackMajorant": _or_none(format_rational, row.slack_majorant),
            "slackIso": _or_none(format_rational, row.slack_iso),
            "slackHom": _or_none(format_rational, row.slack_hom),
            "homTableEqual": row.hom_table_equal,
            "chainLinks": _or_none(list, row.chain_links),
            "error": row.error,
        }
        if include_gtables and row.g_tables:
            entry["gTables"] = {
                key: table.to_json_dict() for key, table in row.g_tables.items()
            }
        json_rows.append(entry)
    return {"schemaVersion": SCHEMA_VERSION, "rows": json_rows}


# ---------------------------------------------------------------------------
# Conjecture scanner


@dataclass(frozen=True)
class ConjectureScanConfig:
    """One scan: a family of graphs checked against the falling factorial.

    family "cliques" builds disjoint cliques of order min_degree+1 with
    1..trials components; family "random" draws seeded binomial graphs
    conditioned on the degree floor.  The floor itself is a parameter: how
    large a minimum degree the conjectured bound needs (if any) is exactly
    what the scan explores, so nothing is hard-coded; when omitted it
    defaults to 2t.
    """

    family: str
    n: int
    t: int
    trials: int
    seed: int
    min_degree: int | None = None
    edge_probability: float = 0.5
    tree: Tree | None = None
    work_cap: int | None = None
    max_tries: int = 1000

    @property
    def degree_floor(self) -> int:
        return 2 * self.t if self.min_degree is None else self.min_degree


@dataclass(frozen=True)
class ConjectureRow:
    descriptor: str
    n: int
    average_degree: Fraction | None  # None when the trial's graph was not built
    min_degree: int | None
    t: int
    copies: int | None
    falling_factorial_log: float | None
    log_margin: float | None
    verdict: str  # holds | violated | inapplicable
    error: str | None = None


@dataclass(frozen=True)
class ConjectureSummary:
    total: int
    holds: int
    violated: int
    inapplicable: int
    min_log_margin: float | None
    violations: tuple[str, ...]


def _conjecture_instances(config: ConjectureScanConfig):
    """Yield (descriptor, build) per trial; build() makes the trial's graph.
    Deferring it turns a failure to build (a retry cap, say) into one error row."""
    floor = config.degree_floor
    if config.family == "cliques":
        q = floor + 1
        for c in range(1, config.trials + 1):
            yield f"cliques(c={c},q={q})", partial(gen_disjoint_cliques, c, q)
    elif config.family == "random":
        rng = random.Random(config.seed)
        for i in range(config.trials):
            trial_seed = rng.randrange(2**32)
            yield (
                f"random(n={config.n},p={config.edge_probability},"
                f"minDeg>={floor},seed={trial_seed})",
                partial(
                    gen_random_min_degree,
                    config.n,
                    config.edge_probability,
                    floor,
                    seed=trial_seed,
                    max_tries=config.max_tries,
                ),
            )
    else:
        raise ValueError(f"unknown family {config.family!r}; expected cliques or random")


def conjecture_scan(config: ConjectureScanConfig) -> list[ConjectureRow]:
    """Compare exact copy counts against n*d(d-1)...(d-t+1) over a family.

    Rows report and never assert: the statement under test is open, so a
    violated verdict is recorded (margin below -1e-9 in log space) and the
    scan keeps going.  A trial whose graph cannot be generated yields an
    inapplicable row carrying the error, with n = config.n and no degrees.
    A config with fewer than 1 trial, or a tree without config.t edges, is a
    ValueError.
    """
    tree = config.tree if config.tree is not None else path_tree(config.t)
    if tree.t != config.t:
        raise ValueError(f"tree has {tree.t} edges but config.t = {config.t}")
    if config.trials < 1:
        raise ValueError(f"need at least 1 trial, got {config.trials}")
    rows = []
    for descriptor, build in _conjecture_instances(config):
        row = dict(
            descriptor=descriptor,
            n=config.n,
            average_degree=None,
            min_degree=None,
            t=config.t,
            copies=None,
            falling_factorial_log=None,
            log_margin=None,
            verdict="inapplicable",
        )
        try:
            graph = build()
            row.update(n=graph.n, average_degree=graph.average_degree, min_degree=graph.min_degree)
            row["copies"] = count_copies(graph, tree, work_cap=config.work_cap).value
            bound = evaluate_bounds(graph, config.t).falling_factorial
            if bound.applicable:
                row["falling_factorial_log"] = bound.log_value
                cmp = compare_count_to_bound(row["copies"], bound.log_value)
                row.update(log_margin=cmp.log_margin, verdict="holds" if cmp.holds else "violated")
        except (WorkCapExceeded, RetryLimitExceeded, ValueError) as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(ConjectureRow(**row))
    return rows


def summarize_conjecture(rows: list[ConjectureRow]) -> ConjectureSummary:
    margins = [r.log_margin for r in rows if r.log_margin is not None]
    violations = tuple(r.descriptor for r in rows if r.verdict == "violated")
    return ConjectureSummary(
        total=len(rows),
        holds=sum(r.verdict == "holds" for r in rows),
        violated=len(violations),
        inapplicable=sum(r.verdict == "inapplicable" for r in rows),
        min_log_margin=min(margins) if margins else None,
        violations=violations,
    )


def _conjecture_record(row: ConjectureRow) -> dict:
    """One scan row under its JSON keys; the CSV writes the same values."""
    return {
        "instance": row.descriptor,
        "n": row.n,
        "d": _or_none(format_rational, row.average_degree),
        "minDegree": row.min_degree,
        "t": row.t,
        "copies": _or_none(str, row.copies),
        "fallingFactorialLog": _or_none(format_log, row.falling_factorial_log),
        "logMargin": _or_none(format_log, row.log_margin),
        "verdict": row.verdict,
        "error": row.error,
    }


def conjecture_csv_rows(rows: list[ConjectureRow]) -> tuple[list[str], list[list[str]]]:
    """The scan's CSV header and cells; the cells hold the JSON record's values."""
    header = ["instance", "n", "d", "min_degree", "t", "copies", "ff_log", "log_margin",
              "verdict", "error"]
    return header, [[_csv_cell(v) for v in _conjecture_record(row).values()] for row in rows]


def conjecture_to_csv(rows: list[ConjectureRow]) -> str:
    return csv_table(*conjecture_csv_rows(rows))


def conjecture_to_json(rows: list[ConjectureRow]) -> dict:
    summary = summarize_conjecture(rows)
    return {
        "schemaVersion": SCHEMA_VERSION,
        "rows": [_conjecture_record(row) for row in rows],
        "summary": {
            "total": summary.total,
            "holds": summary.holds,
            "violated": summary.violated,
            "inapplicable": summary.inapplicable,
            "minLogMargin": _or_none(format_log, summary.min_log_margin),
            "violations": list(summary.violations),
        },
    }


# ---------------------------------------------------------------------------
# Sharpness


def sharpness_check(
    q: int, c: int, t: int, extra_trees: tuple[tuple[str, Tree], ...] = (), work_cap: int | None = None
) -> bool:
    """Disjoint cliques of order q must have exactly n(q-1)(q-2)...(q-t) copies.

    Checked for the t-edge path and star plus any supplied trees; requires
    q-1 >= t.  Returns False (with a logged diagnostic) on any mismatch.
    """
    import logging

    if q - 1 < t:
        raise ValueError(f"need clique order q with q-1 >= t, got q={q}, t={t}")
    graph = gen_disjoint_cliques(c, q)
    expected = graph.n * prod(q - 1 - j for j in range(t))
    trees = (("path", path_tree(t)), ("star", star_tree(t))) + tuple(extra_trees)
    ok = True
    for name, tree in trees:
        got = count_copies(graph, tree, work_cap=work_cap).value
        if got != expected:
            logging.getLogger(__name__).warning(
                "sharpness mismatch on cliques(c=%d,q=%d) with %s tree: "
                "counted %d, expected %d",
                c, q, name, got, expected,
            )
            ok = False
    return ok


# ---------------------------------------------------------------------------
# Per-instance invariant checks (the CLI `verify` surface)


@dataclass(frozen=True)
class CheckResult:
    """One named invariant check; passed is None when skipped."""

    name: str
    passed: bool | None
    detail: str


def instance_report(
    graph: Graph, tree: Tree, work_cap: int | None = None
) -> tuple[list[CheckResult], ChainReport | None]:
    """Run every asserted measure/bound invariant on one (graph, tree) pair.

    Returns the checks and the chain report (None below the min-degree
    hypothesis), fed by one copy pass (copy_ledger) and the propagated HOM
    g-table.  Checks needing the hypothesis are skipped (passed=None) when
    the graph misses it; homomorphism-side checks always run, and only the
    copy pass is charged against the work cap.
    """
    from .measure import MeasureKind, copy_ledger, g_table_exact

    t = tree.t
    labeling = good_labeling(tree)
    names = ["iso-total-probability", "iso-below-majorant", "majorant-floor",
             "reversal-symmetry", "majorant-product-form", "copies-ge-local-bound"]
    chain = None
    if graph.min_degree >= t:
        ledger = copy_ledger(graph, tree, labeling, work_cap)
        count, iso_total = ledger.count, ledger.iso.table().row_sum(1)
        compared = f"{count} copies compared"
        slack = ledger.majorant.table().min_slack(graph)
        bound_log = evaluate_bounds(graph, t).copies_local.log_value
        chain = ledger.chain(bound_log)
        verdicts = [
            (iso_total == 1, f"sum over {count} copies = {format_rational(iso_total)}"),
            (ledger.iso_below_majorant, compared),
            (slack >= 0, f"min g[i][v] - d(v)/nd = {format_rational(slack)}"),
            (ledger.reversal_equal, compared),
            (ledger.product_form_equal, compared),
            (chain.count_ge_bound, f"count {count}, bound exp({format_log(bound_log)})"),
        ]
    else:
        verdicts = [(None, f"skipped: min degree {graph.min_degree} < t = {t}")] * len(names)
    hom_table = g_table_exact(graph, tree, labeling, MeasureKind.HOM)
    hom_total = hom_table.row_sum(1)
    names += ["hom-total-probability", "hom-degree-profile"]
    verdicts += [
        (hom_total == 1, f"sum over homomorphic embeddings = {format_rational(hom_total)}"),
        (hom_table.equals_degree_profile(graph), "g[i][v] vs d(v)/nd over the full table"),
    ]
    return [CheckResult(name, *verdict) for name, verdict in zip(names, verdicts)], chain


def instance_checks(graph: Graph, tree: Tree, work_cap: int | None = None) -> list[CheckResult]:
    """The checks of instance_report without the chain report."""
    return instance_report(graph, tree, work_cap)[0]
