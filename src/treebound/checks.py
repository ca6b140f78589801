"""Per-instance invariant checks: the CLI ``verify`` surface.

instance_report runs every asserted measure and bound invariant on one
(graph, tree) pair and reads the instance's copy ledger and HOM table from
the step a suite row reads them from, measure._instance_tables.  Only
``verify`` loads this module; it imports measure and bounds where it runs.
"""

from __future__ import annotations

from .formats import format_log, format_rational
from .graphs import Graph, Tree, _value_type, good_labeling

__all__ = ["CheckResult", "instance_report"]


@_value_type
class CheckResult:
    """One named invariant check; passed is None when skipped."""

    name: str
    passed: bool | None
    detail: str


def instance_report(
    graph: Graph, tree: Tree, work_cap: int | None = None
) -> tuple[list[CheckResult], ChainReport | None]:
    """Run every asserted measure/bound invariant on one (graph, tree) pair.

    Returns the checks and measure's ChainReport (None below the min-degree
    hypothesis), fed by the suite row's step, _instance_tables: one copy
    pass (copy_ledger) and the propagated HOM g-table.  Checks needing the
    hypothesis are skipped (passed=None) when the graph misses it;
    homomorphism-side checks run on every graph with an edge and are skipped
    on an edgeless one, where no weight is defined.  Only the copy pass is
    charged against the work cap.
    """
    from .bounds import evaluate_bounds
    from .measure import _instance_tables

    t = tree.t
    ledger, hom_table = _instance_tables(graph, tree, good_labeling(tree), work_cap)
    names = ["iso-total-probability", "iso-below-majorant", "majorant-floor",
             "reversal-symmetry", "majorant-product-form", "copies-ge-local-bound"]
    chain = None
    if ledger:
        # integer verdicts: a row sums to 1 when numerator == denominator
        count, (iso_sum, common) = ledger.count, ledger.iso.row_sum_ratio(1)
        compared = f"{count} copies compared"
        slack = ledger.majorant.min_slack_ratio(graph)
        bound_log = evaluate_bounds(graph, t).copies_local.log_value
        chain = ledger.chain(bound_log)
        verdicts = [
            (iso_sum == common, f"sum over {count} copies = {format_rational(iso_sum, common)}"),
            (ledger.iso_below_majorant, compared),
            (slack[0] >= 0, f"min g[i][v] - d(v)/nd = {format_rational(*slack)}"),
            # a copy's reversed weight is its product-form weight in every good labeling
            (ledger.product_form_equal, compared),
            (ledger.product_form_equal, compared),
            (chain.count_ge_bound, f"count {count}, bound exp({format_log(bound_log)})"),
        ]
    else:
        verdicts = [(None, f"skipped: min degree {graph.min_degree} < t = {t}")] * len(names)
    names += ["hom-total-probability", "hom-degree-profile"]
    if hom_table:
        hom_sum, common = hom_table.row_sum_ratio(1)
        hom_total = format_rational(hom_sum, common)
        verdicts += [
            (hom_sum == common, f"sum over homomorphic embeddings = {hom_total}"),
            (hom_table.equals_degree_profile(graph), "g[i][v] vs d(v)/nd over the full table"),
        ]
    else:
        verdicts += [(None, "skipped: graph has no edges")] * 2
    return [CheckResult(name, *verdict) for name, verdict in zip(names, verdicts)], chain
