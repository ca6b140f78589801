"""The conjecture scanner: exact copy counts against the falling factorial.

conjecture_scan compares exact copy counts against the falling-factorial
value n*d(d-1)...(d-t+1) over a graph family and reports verdicts without
asserting one: a violated row is the scan's most valuable output and must
not abort the run.  A scan writes its rows as JSON under a schemaVersion
and as flat CSV; both writers read one record per row, _conjecture_record.
Only ``conjecture`` loads this module, and it loads no measure.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial

from .bounds import compare_count_to_bound, evaluate_bounds
from .counting import count_copies
from .errors import RetryLimitExceeded, WorkCapExceeded
from .families import (
    _check_clique_order,
    _check_random_min_degree,
    gen_disjoint_cliques,
    gen_random_min_degree,
)
from .formats import SCHEMA_VERSION, _fraction_text, _or_none, csv_table, format_count, format_log
from .graphs import Tree, _value_type, path_tree

__all__ = [
    "ConjectureScanConfig",
    "ConjectureRow",
    "conjecture_scan",
    "conjecture_csv_rows",
    "conjecture_to_csv",
    "conjecture_to_json",
]


@_value_type
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

    @property
    def degree_floor(self) -> int:
        return 2 * self.t if self.min_degree is None else self.min_degree


@_value_type
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


def _conjecture_instances(config: ConjectureScanConfig):
    """Yield (descriptor, build) per trial; build() makes the trial's graph.
    Deferring it turns a failure to build (a retry cap, say) into one error row.
    The family's parameters are checked with the generator's own checks
    before the first trial, so a config no trial can build is a ValueError."""
    floor = config.degree_floor
    if config.family == "cliques":
        q = floor + 1
        _check_clique_order(q)
        for c in range(1, config.trials + 1):
            yield f"cliques(c={c},q={q})", partial(gen_disjoint_cliques, c, q)
    elif config.family == "random":
        _check_random_min_degree(config.n, config.edge_probability, floor)
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
    A config with fewer than 1 trial, a tree without config.t edges, or family
    parameters no trial can build (p outside (0, 1] or a degree floor outside
    0..n-1 for random graphs, a floor below 1 for cliques) is a ValueError,
    raised before the first trial.  A random trial gets gen_random_min_degree's
    default number of draws.
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


def _conjecture_record(row: ConjectureRow) -> dict:
    """One scan row under its JSON keys; the CSV writes the same values."""
    return {
        "instance": row.descriptor,
        "n": row.n,
        "d": _or_none(_fraction_text, row.average_degree),
        "minDegree": row.min_degree,
        "t": row.t,
        "copies": _or_none(format_count, row.copies),
        "fallingFactorialLog": _or_none(format_log, row.falling_factorial_log),
        "logMargin": _or_none(format_log, row.log_margin),
        "verdict": row.verdict,
        "error": row.error,
    }


def conjecture_csv_rows(rows: list[ConjectureRow]) -> tuple[list[str], list[list]]:
    """The scan's CSV header and rows; each row holds its JSON record's values."""
    header = ["instance", "n", "d", "min_degree", "t", "copies", "ff_log", "log_margin",
              "verdict", "error"]
    return header, [list(_conjecture_record(row).values()) for row in rows]


def conjecture_to_csv(rows: list[ConjectureRow]) -> str:
    return csv_table(*conjecture_csv_rows(rows))


def conjecture_to_json(rows: list[ConjectureRow]) -> dict:
    """The scan's rows and a summary: the count of rows per verdict, the
    least log margin (None when no row has one) and the violated instances."""
    margins = [r.log_margin for r in rows if r.log_margin is not None]
    violations = [r.descriptor for r in rows if r.verdict == "violated"]
    return {
        "schemaVersion": SCHEMA_VERSION,
        "rows": [_conjecture_record(row) for row in rows],
        "summary": {
            "total": len(rows),
            "holds": sum(r.verdict == "holds" for r in rows),
            "violated": len(violations),
            "inapplicable": sum(r.verdict == "inapplicable" for r in rows),
            "minLogMargin": format_log(min(margins)) if margins else None,
            "violations": violations,
        },
    }
