"""The copy ledger: one pass over an instance's injective copies, and the chain it reads.

Each instance enumerates its copies once: copy_ledger folds every copy
into the count, both copy tables (measure's ISO and MAJORANT GTables), the
per-copy checks and the chain's logs.
It backtracks like count_copies and stops at the trailing leaf block, whose
copies all carry one weight under each measure, so it folds a whole block
at a time into one table row that the block's slots share; each search node
writes the weight below it to its own cell, once.  Only the chain's float
logs take one term per copy, in order.  Entropy-like aggregates
exp(sum -w ln w) go through floats only at that final step, so the chain
report can tell 24 from 144 for sure.
P <= p and the majorant's product form are integer comparisons of
denominators inside the fold, made once per block; the library has no
other per-copy check.  Reversal symmetry has no check of its own: in
every good labeling slot x is the parent of treedeg(x)-1 slots from the
third on, whichever leaf the labeling starts from, so the majorant read
from a copy's far end gives each slot the product form's power of
d(omega_x)-t+1, and every copy's reversed weight is its product-form
weight where the product form holds.  Every weight is 1/D, with D
nd times t-1 integer factors in 1..Delta (the max degree), so the ledger
sums both tables as integer rows over nd * lcm(1..Delta)^(t-1), one
denominator fixed before the pass that every D divides.

Only the commands that enumerate copies load this module: ``verify`` and
an exact ``gtable`` of ``P`` or ``p``, through measure.g_table_exact and
measure._instance_tables, which import copy_ledger when they run.  The
sampler and the Monte Carlo table never load it.
"""

from __future__ import annotations

import math
from functools import cache, reduce
from itertools import repeat
from operator import sub

from .formats import format_count, format_log
from .graphs import GoodLabeling, Graph, Tree, _value_type
from .measure import GTable, MeasureKind

__all__ = ["ChainReport", "CopyLedger", "copy_ledger"]


@_value_type
class ChainReport:
    """Measured values and verdicts for each link of the counting chain.

    The chain compares, in order: the number of copies, the exponential
    entropy of the ISO law, the majorant product prod p^(-p), and the
    degree-local copy bound.  Links are measured, not asserted: the middle
    link (entropy vs majorant product) can genuinely fail even though the
    two ends always compare correctly.
    """

    omega_count: int
    entropy_value: float
    majorant_product: float
    bound_value: float
    count_ge_entropy: bool
    entropy_ge_product: bool
    product_ge_bound: bool
    count_ge_bound: bool

    def links(self) -> tuple[bool, bool, bool, bool]:
        return (
            self.count_ge_entropy,
            self.entropy_ge_product,
            self.product_ge_bound,
            self.count_ge_bound,
        )

    def to_json_dict(self) -> dict:
        return {
            "omegaCount": format_count(self.omega_count),
            "expEntropy": format_log(self.entropy_value),
            "majorantProduct": format_log(self.majorant_product),
            "localBound": format_log(self.bound_value),
            "links": {
                "countGeEntropy": self.count_ge_entropy,
                "entropyGeProduct": self.entropy_ge_product,
                "productGeBound": self.product_ge_bound,
                "countGeBound": self.count_ge_bound,
            },
        }


@_value_type(uncompared=("nodes",))
class CopyLedger:
    """What one pass over the injective copies yields: the count, the ISO and
    MAJORANT g-tables, whether every copy met P <= p and the product form
    (which by the exponent identity is also reversal symmetry's verdict), and
    sum -w ln w under P and under p in enumeration order.
    Every field is a finished value, so two passes over one instance compare
    and hash equal.

    ``nodes`` is the search nodes charged to the work cap, those of a search
    that visits every node, as ``count_copies`` charges; like
    ``CountResult.nodes`` it is a statistic, left out of equality and of
    every payload.
    """

    count: int
    iso: GTable
    majorant: GTable
    iso_below_majorant: bool
    product_form_equal: bool
    entropy_log: float
    product_log: float
    nodes: int = 0

    def chain(self, bound_log: float) -> ChainReport:
        """The chain's links, ending at the degree-local copy bound exp(bound_log)."""
        # an exact gtable never loads bounds
        from .bounds import LOG_TOLERANCE, compare_count_to_bound

        entropy, product = self.entropy_log, self.product_log
        return ChainReport(
            omega_count=self.count,
            entropy_value=math.exp(entropy),
            majorant_product=math.exp(product),
            bound_value=math.exp(bound_log),
            count_ge_entropy=compare_count_to_bound(self.count, entropy).holds,
            entropy_ge_product=entropy >= product - LOG_TOLERANCE,
            product_ge_bound=product >= bound_log - LOG_TOLERANCE,
            count_ge_bound=compare_count_to_bound(self.count, bound_log).holds,
        )


class _LedgerSums:
    """The ledger's accumulators while its copy pass runs.

    Both tables are integer rows over one denominator `common`, fixed before
    the pass and a multiple of every weight's D: a row per placed slot and
    one row that the leaf block's slots share.  weigh(D) is (common // D,
    w ln w for w = 1/D), cached, so no Fraction is made and each D's log
    term is computed once."""

    def __init__(self, rows: int, n: int, common: int):
        self.iso = [[0] * n for _ in range(rows)]
        self.majorant = [[0] * n for _ in range(rows)]
        self.weigh = cache(lambda d: (common // d, (1 / d) * (0.0 - math.log(d))))
        self.count = 0
        self.entropy_log = self.product_log = 0.0
        self.dominated = self.product_ok = True

    def fold(self, free, copies, each, d_iso, d_maj, d_product) -> tuple[int, int]:
        """Fold one leaf block: `copies` copies whose block slots take distinct
        vertices of `free`, each vertex `each` times per slot, all weighing
        P = 1/d_iso and p = 1/d_maj; return the block's P and p mass over
        `common`.  The product form 1/d_product reads no block slot, so one
        comparison with d_maj serves every copy of the block.  Each log takes
        its term once per copy, in sequence, as a per-copy pass would."""
        self.count += copies
        iso, term = self.weigh(d_iso)
        self.entropy_log = reduce(sub, repeat(term, copies), self.entropy_log)
        maj, term = self.weigh(d_maj)
        self.product_log = reduce(sub, repeat(term, copies), self.product_log)
        self.dominated = self.dominated and d_iso >= d_maj
        self.product_ok = self.product_ok and d_product == d_maj
        iso_row, maj_row = self.iso[-1], self.majorant[-1]
        for u in free:
            iso_row[u] += each * iso
            maj_row[u] += each * maj
        return copies * iso, copies * maj


def copy_ledger(
    graph: Graph, tree: Tree, labeling: GoodLabeling, work_cap: int | None = None
) -> CopyLedger:
    """Enumerate the copies once and fold them into every copy-side accumulator.

    Requires min degree >= t.  The search backtracks along the labeling like
    count_copies, carrying each prefix's factors of D_iso, D_maj and of the
    product form's denominator, and stops at the trailing leaf block (slots
    s..t sharing the parent slot p, s >= 2).  `used` marks every placed
    slot: a node's candidates (their number is its D_iso factor) are the
    parent image's unmarked neighbors, and the block's `free` set is omega_p's.
    The block holds (free)_r copies, r = t+1-s, which all weigh
    D_iso = D_prefix * (free)_r and D_maj = D_prefix,maj * (d(omega_p)-t+1)^r,
    and each free neighbor sits in each block slot in (free-1)_(r-1) of
    them; the block is folded at once, into one row that its r slots share
    and each table repeats r times.  Each search node returns the P and p
    mass below it, integers over the common denominator, and adds each
    child's mass to that child's own cell, once per node.  The product form
    rebuilds p from the exponents treedeg(x)-1, which are 0 on the block's
    leaf slots, so it reads no block slot.  Read from a copy's far end, p
    gives each slot those same exponents, as in every good labeling, so
    where the product form holds each copy's reversed weight is its
    product-form weight.  The work cap is charged every node of the search,
    block nodes included, so it fires at count_copies' caps.  A tree too deep
    for the recursion limit is a ValueError.  Each D is nd times t-1 factors
    in 1..Delta (candidate-set sizes, or floors d(v)-t+1), so both tables sum
    over the one denominator nd * lcm(1..Delta)^(t-1), fixed before the pass.
    """
    # only the copy pass needs the search helpers: the sampler, the Monte
    # Carlo table and the HOM table run without loading them
    from ._search import _Budget, _leaf_block, _too_deep

    labeling.validate(tree)
    t = tree.t
    if graph.min_degree < t:
        raise ValueError(
            f"min degree {graph.min_degree} < t = {t}; "
            "ISO and MAJORANT tables need the degree hypothesis"
        )
    budget = _Budget(work_cap, "copy enumeration")
    product_power = [tree.tree_degree(x) - 1 for x in labeling.order]
    s, block_copies, block_nodes = _leaf_block(graph, labeling)
    r = t + 1 - s
    # (free-1)_(r-1) = (free)_r / free: the copies that put one free neighbor in one block slot
    block_each = [c // free if free else 0 for free, c in enumerate(block_copies)]
    parent_pos = labeling.parent_positions()
    p = parent_pos[-1]
    n, adjacency = graph.n, graph.adjacency
    floor = [d - t + 1 for d in graph.degrees()]
    nd = graph.degree_sum
    common = nd * math.lcm(*range(1, graph.max_degree + 1)) ** (t - 1)
    sums = _LedgerSums(s + 1, n, common)
    omega = [0] * s
    used = bytearray(n)
    last = s - 1

    def extend(pos: int, d_iso: int, d_maj: int, d_product: int) -> tuple[int, int]:
        budget.spend()
        if pos == 0:
            candidates = range(n)
        else:
            image = omega[parent_pos[pos]]
            # the parent image's neighbors not embedded yet
            candidates = [v for v in adjacency[image] if not used[v]]
            if pos >= 2:
                d_iso *= len(candidates)
                d_maj *= floor[image]
        power = product_power[pos]
        iso_row, maj_row = sums.iso[pos], sums.majorant[pos]
        iso_mass = maj_mass = nodes = 0
        for v in candidates:
            omega[pos] = v
            d_next = d_product * floor[v] ** power
            used[v] = 1
            if pos < last:
                iso, maj = extend(pos + 1, d_iso, d_maj, d_next)
            else:
                # Each choice of the last placed slot roots one leaf block,
                # which holds copies: free >= r under the degree hypothesis.
                anchor = omega[p]
                free = [u for u in adjacency[anchor] if not used[u]]
                nodes += block_nodes[len(free)]
                copies = block_copies[len(free)]
                iso, maj = sums.fold(
                    free,
                    copies,
                    block_each[len(free)],
                    d_iso * copies,
                    d_maj * floor[anchor] ** r,
                    d_next,
                )
            used[v] = 0
            iso_row[v] += iso
            maj_row[v] += maj
            iso_mass += iso
            maj_mass += maj
        budget.spend(nodes)
        return iso_mass, maj_mass

    try:
        extend(0, nd, nd, nd)
    except RecursionError:
        raise _too_deep(tree) from None
    return CopyLedger(
        sums.count,
        GTable(MeasureKind.ISO, common, sums.iso[:s] + sums.iso[s:] * r),
        GTable(MeasureKind.MAJORANT, common, sums.majorant[:s] + sums.majorant[s:] * r),
        sums.dominated,
        sums.product_ok,
        sums.entropy_log,
        sums.product_log,
        budget.spent,
    )
