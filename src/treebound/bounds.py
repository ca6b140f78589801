"""Log-space evaluation of closed-form lower bounds on tree-copy counts.

Every bound is a product with degree-dependent fractional exponents and
overflows double precision quickly, so bounds are computed and compared as
natural logs.  Exponents like (t-1)d(v)/(nd) are formed as exact rationals
(nd means the degree sum 2|E|) and converted to float only inside the log
sum.  A bound whose hypothesis fails is flagged inapplicable instead of
producing NaN.

Bounds covered, with their hypotheses:

* copies_local:    nd * prod_v (d(v)-t+1)^((t-1)d(v)/nd)   [min degree >= t]
* copies_average:  nd * (d-t+1)^(t-1)                      [min degree >= t]
* homs_local:      nd * prod_v d(v)^((t-1)d(v)/nd)         [at least 1 edge]
* copies_p3:       nd * prod_v (d(v)-2)^(2d(v)/nd)         [t = 3, min degree >= 3]
* walks_blakley_roy: n * d^t (classical walk bound)        [at least 1 edge]
* copies_induced(k): nd * prod_v (d(v)-k+1)^((t-1)d(v)/nd) [min degree >= k]
* falling_factorial: n * d(d-1)...(d-t+1), the conjectured
  copy bound, exact on disjoint cliques                    [all factors > 0]
"""

from __future__ import annotations

import math
from fractions import Fraction

from .counting import CountResult
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

    @property
    def value(self) -> float | None:
        return None if self.log_value is None else math.exp(self.log_value)


@_value_type
class BoundComparison:
    holds: bool
    log_margin: float


@_value_type
class BoundReport:
    """All bounds for one (graph, t, optional k) evaluation."""

    n: int
    edge_count: int
    average_degree: Fraction
    t: int
    k: int | None
    copies_local: BoundValue
    copies_average: BoundValue
    homs_local: BoundValue
    copies_p3: BoundValue
    walks_blakley_roy: BoundValue
    copies_induced: BoundValue
    falling_factorial: BoundValue

    def named_bounds(self) -> dict[str, BoundValue]:
        return {
            "copies_local": self.copies_local,
            "copies_average": self.copies_average,
            "homs_local": self.homs_local,
            "copies_p3": self.copies_p3,
            "walks_blakley_roy": self.walks_blakley_roy,
            "copies_induced": self.copies_induced,
            "falling_factorial": self.falling_factorial,
        }


def _log_degree_product(degrees, t: int, nd: int, shift: int) -> float:
    """ln(nd) + sum_v ((t-1)d(v)/nd) * ln(d(v) - shift), exponents exact."""
    total = math.log(nd)
    for deg in degrees:
        base = deg - shift
        if base != 1 and deg != 0:
            total += float(Fraction((t - 1) * deg, nd)) * math.log(base)
    return total


def evaluate_bounds(graph: Graph, t: int, k: int | None = None) -> BoundReport:
    """Evaluate every bound for the given tree size t (and optional k).

    An out-of-hypothesis bound (e.g. min degree below t, or k above the
    minimum degree) is flagged inapplicable, not an error; only t < 1 or a
    nonpositive k is rejected outright.
    """
    if t < 1:
        raise ValueError(f"tree edge count must be >= 1, got {t}")
    if k is not None and k < 1:
        raise ValueError(f"induced-degree parameter k must be >= 1, got {k}")
    degrees = graph.degrees()
    n = graph.n
    m = graph.edge_count
    nd = graph.degree_sum
    d = graph.average_degree
    min_deg = graph.min_degree

    if min_deg >= t:
        copies_local = BoundValue(True, _log_degree_product(degrees, t, nd, t - 1))
        copies_average = BoundValue(
            True, math.log(nd) + (t - 1) * math.log(float(d - t + 1))
        )
    else:
        reason = f"min degree {min_deg} < t = {t}"
        copies_local = BoundValue(False, reason=reason)
        copies_average = BoundValue(False, reason=reason)

    if m >= 1:
        homs_local = BoundValue(True, _log_degree_product(degrees, t, nd, 0))
        walks_blakley_roy = BoundValue(True, math.log(n) + t * math.log(float(d)))
    else:
        homs_local = BoundValue(False, reason="graph has no edges")
        walks_blakley_roy = BoundValue(False, reason="graph has no edges")

    if t != 3:
        copies_p3 = BoundValue(False, reason=f"defined only for t = 3, got t = {t}")
    elif min_deg < 3:
        copies_p3 = BoundValue(False, reason=f"min degree {min_deg} < 3")
    else:
        copies_p3 = BoundValue(True, _log_degree_product(degrees, t, nd, 2))

    if k is None:
        copies_induced = BoundValue(False, reason="k not supplied")
    elif min_deg < k:
        copies_induced = BoundValue(False, reason=f"min degree {min_deg} < k = {k}")
    else:
        copies_induced = BoundValue(True, _log_degree_product(degrees, t, nd, k - 1))

    factors = [d - j for j in range(t)]
    if min(factors) <= 0:
        falling_factorial = BoundValue(
            False, reason=f"nonpositive factor d - {t - 1} = {d - t + 1}"
        )
    else:
        falling_factorial = BoundValue(
            True, math.log(n) + sum(math.log(float(f)) for f in factors)
        )

    return BoundReport(
        n=n,
        edge_count=m,
        average_degree=d,
        t=t,
        k=k,
        copies_local=copies_local,
        copies_average=copies_average,
        homs_local=homs_local,
        copies_p3=copies_p3,
        walks_blakley_roy=walks_blakley_roy,
        copies_induced=copies_induced,
        falling_factorial=falling_factorial,
    )


def compare_count_to_bound(count: CountResult | int, log_bound: float) -> BoundComparison:
    """Check an exact count against a log-space bound with 1e-9 tolerance.

    A zero count can only satisfy a bound that is itself at most 1 (log at
    most 0) within tolerance; its log margin is reported as -inf.
    """
    value = count.value if isinstance(count, CountResult) else count
    if value < 0:
        raise ValueError(f"count must be >= 0, got {value}")
    if not math.isfinite(log_bound):
        raise ValueError(f"log bound must be finite, got {log_bound}")
    if value == 0:
        return BoundComparison(holds=log_bound <= LOG_TOLERANCE, log_margin=float("-inf"))
    log_count = math.log(value)
    return BoundComparison(
        holds=log_count >= log_bound - LOG_TOLERANCE, log_margin=log_count - log_bound
    )
