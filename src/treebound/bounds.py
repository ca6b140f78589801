"""Log-space evaluation of closed-form lower bounds on tree-copy counts.

Every bound is a product with degree-dependent fractional exponents and
overflows double precision quickly, so bounds are computed and compared as
natural logs.  Every log is computed from integers: an exponent like
(t-1)d(v)/nd (nd means the degree sum 2|E|) and an average-degree base
(nd - j*n)/n are each one int/int true division, which Python rounds
correctly, and the falling-factorial logs are added left to right from 0.0.
So the same graph gives the same log bits on every Python version.  A bound
whose hypothesis fails is flagged inapplicable instead of producing NaN.

Bounds covered, with their hypotheses:

* copies_local:    nd * prod_v (d(v)-t+1)^((t-1)d(v)/nd)   [min degree >= t]
* copies_average:  nd * (d-t+1)^(t-1)                      [min degree >= t]
* homs_local:      nd * prod_v d(v)^((t-1)d(v)/nd)         [at least 1 edge]
* copies_p3:       nd * prod_v (d(v)-2)^(2d(v)/nd), which is
  copies_local's value at t = 3                            [t = 3, min degree >= 3]
* walks_blakley_roy: n * d^t (classical walk bound)        [at least 1 edge]
* falling_factorial: n * d(d-1)...(d-t+1), the conjectured
  copy bound, exact on disjoint cliques                    [all factors > 0]

copies_local is the paper's theorem.  compare_count_to_bound checks an
exact int count against one bound's log; the module imports no counter.
"""

from __future__ import annotations

import math

from .graphs import Graph, _value_type

__all__ = [
    "LOG_TOLERANCE",
    "BoundValue",
    "BoundReport",
    "BoundComparison",
    "evaluate_bounds",
    "compare_count_to_bound",
]

# Relative tolerance for all log-space comparisons.
LOG_TOLERANCE = 1e-9


@_value_type
class BoundValue:
    """One bound: its natural log when applicable, else the violated hypothesis."""

    applicable: bool
    log_value: float | None = None
    reason: str | None = None


@_value_type
class BoundComparison:
    holds: bool
    log_margin: float


@_value_type
class BoundReport:
    """All bounds for one (graph, t) evaluation."""

    copies_local: BoundValue
    copies_average: BoundValue
    homs_local: BoundValue
    copies_p3: BoundValue
    walks_blakley_roy: BoundValue
    falling_factorial: BoundValue

    def named_bounds(self) -> dict[str, BoundValue]:
        return {name: getattr(self, name) for name in self.__match_args__}


def _log_degree_product(degrees, t: int, nd: int, shift: int) -> float:
    """ln(nd) + sum_v ((t-1)d(v)/nd) * ln(d(v) - shift), each exponent one
    correctly rounded int/int division."""
    total = math.log(nd)
    for deg in degrees:
        base = deg - shift
        if base != 1 and deg != 0:
            total += (t - 1) * deg / nd * math.log(base)
    return total


def evaluate_bounds(graph: Graph, t: int) -> BoundReport:
    """Evaluate every bound for the given tree size t.

    An out-of-hypothesis bound (e.g. min degree below t) is flagged
    inapplicable, not an error; only t < 1 is rejected outright.
    """
    if t < 1:
        raise ValueError(f"tree edge count must be >= 1, got {t}")
    degrees = graph.degrees()
    n = graph.n
    nd = graph.degree_sum
    min_deg = graph.min_degree

    if min_deg >= t:
        copies_local = BoundValue(True, _log_degree_product(degrees, t, nd, t - 1))
        copies_average = BoundValue(
            True, math.log(nd) + (t - 1) * math.log((nd - (t - 1) * n) / n)
        )
    else:
        reason = f"min degree {min_deg} < t = {t}"
        copies_local = BoundValue(False, reason=reason)
        copies_average = BoundValue(False, reason=reason)

    if nd > 0:
        homs_local = BoundValue(True, _log_degree_product(degrees, t, nd, 0))
        walks_blakley_roy = BoundValue(True, math.log(n) + t * math.log(nd / n))
    else:
        homs_local = BoundValue(False, reason="graph has no edges")
        walks_blakley_roy = BoundValue(False, reason="graph has no edges")

    if t != 3:
        copies_p3 = BoundValue(False, reason=f"defined only for t = 3, got t = {t}")
    elif min_deg < 3:
        copies_p3 = BoundValue(False, reason=f"min degree {min_deg} < 3")
    else:
        copies_p3 = copies_local

    if nd - (t - 1) * n <= 0:
        reason = f"nonpositive factor d - {t - 1} = {graph.average_degree - t + 1}"
        falling_factorial = BoundValue(False, reason=reason)
    else:
        # A plain loop, not sum(): sum() compensates float rounding from
        # Python 3.12 on, which would change the last bit between versions.
        factor_logs = 0.0
        for j in range(t):
            factor_logs += math.log((nd - j * n) / n)
        falling_factorial = BoundValue(True, math.log(n) + factor_logs)

    return BoundReport(
        copies_local=copies_local,
        copies_average=copies_average,
        homs_local=homs_local,
        copies_p3=copies_p3,
        walks_blakley_roy=walks_blakley_roy,
        falling_factorial=falling_factorial,
    )


def compare_count_to_bound(count: int, log_bound: float) -> BoundComparison:
    """Check an exact count against a log-space bound with 1e-9 tolerance.

    A zero count can only satisfy a bound that is itself at most 1 (log at
    most 0) within tolerance; its log margin is reported as -inf.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if not math.isfinite(log_bound):
        raise ValueError(f"log bound must be finite, got {log_bound}")
    if count == 0:
        return BoundComparison(holds=log_bound <= LOG_TOLERANCE, log_margin=float("-inf"))
    log_count = math.log(count)
    return BoundComparison(
        holds=log_count >= log_bound - LOG_TOLERANCE, log_margin=log_count - log_bound
    )
