"""Exact-rational measures on tree embeddings and the random process behind them.

The oriented embedding process picks a uniform directed edge of the graph
for (omega_1, omega_2), then repeatedly embeds the next labeled tree vertex
as a uniform not-yet-used neighbor of its parent's image.  Three weights on
the resulting vertex sequences matter:

* ISO ("P"): the exact probability the process produces a given injective
  copy, (1/nd) * prod 1/|N(parent image) \\ {already embedded}|.
* MAJORANT ("p"): the closed form obtained by replacing each candidate-set
  size with d(v)-t+1.  It dominates ISO pointwise but is not normalized.
* HOM ("Pprime"): the same process without the used-vertex exclusion; its
  weight (1/nd) * prod 1/d(parent image) is a probability on homomorphic
  (repeats allowed) embeddings.

Everything is exact, a whole table at a time: no function weighs one
embedding alone.  Entropy-like aggregates exp(sum -w ln w) go through floats
only at the final step, so the chain report can tell 24 from 144 for sure.

For each measure, g_table_exact tabulates g[i][v]: the total weight of
embeddings whose i-th vertex is v, for the full index range i = 1..t+1.
The load-bearing fact is the floor g[i][v] >= d(v)/nd, which holds with
equality for HOM (the underlying chain is reversible) and as an inequality
for MAJORANT; the table makes both checkable instance by instance.

Each instance enumerates its copies once: copy_ledger folds every copy
into the count, both copy tables, the per-copy checks and the chain's logs.
It backtracks like count_copies and stops at the trailing leaf block, whose
copies all carry one weight under each measure, so it folds a whole block
at a time into one table row that the block's slots share; each search node
writes the weight below it to its own cell, once.  Only the chain's float
logs take one term per copy, in order.
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
denominator fixed before the pass that every D divides.  The HOM table
enumerates nothing: its slot 1 is the start law d(v)/nd, and each later
slot is one random-walk step from its parent slot, so the table is
propagated in O(t*m) exact integer steps.  A GTable is one denominator
and integer numerators: its min slack, row sums and the HOM identity are
integer sums, read as (numerator, denominator) pairs; only g, row_sum and
min_slack make a Fraction, importing fractions when called.  Its JSON
reduces each cell with a gcd, once per table: the table keeps its JSON,
and each to_json_dict call returns a new dict and new lists of it.

The sampler is prepared once per run: sample_embeddings checks its inputs
and builds the directed-edge list and each vertex's neighbor-to-position
map once, in O(m), then each later slot costs O(t), not O(d): it counts the
parent image's used neighbors by position and steps past them.  Each choice
among c options (c = nd for the start edge, the unused neighbors in sorted
order for a later slot) is one getrandbits(k) rejection loop with
k = c.bit_length(), exactly the bits random.Random.randrange(c) reads, so a
seed fixes the whole stream; an rng subclass that overrides only random()
gets the stream of its getrandbits.  The Monte Carlo table and the CLI each
consume one stream.  A draw is a plain tuple of graph vertices in labeling
order.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from collections.abc import Iterator, Sequence
from enum import Enum
from functools import cache, cached_property, reduce
from itertools import chain, repeat
from operator import sub

from .formats import format_count, format_log
from .graphs import GoodLabeling, Graph, Tree, _check_vertex, _value_type

__all__ = [
    "MeasureKind",
    "GTable",
    "ChainReport",
    "sample_embeddings",
    "g_table_exact",
    "g_table_monte_carlo",
    "CopyLedger",
    "copy_ledger",
]


class MeasureKind(Enum):
    """The three weights: exact process law, closed-form majorant, hom law."""

    ISO = "P"
    MAJORANT = "p"
    HOM = "Pprime"


def sample_embeddings(
    graph: Graph, tree: Tree, labeling: GoodLabeling, rng: random.Random, samples: int
) -> Iterator[tuple[int, ...]]:
    """Draw `samples` embeddings from the oriented process (the ISO law).

    A draw is a tuple of graph vertices, omega_1..omega_{t+1}.  Each starts
    at a uniform directed edge, then embeds each next tree vertex as a
    uniform unused neighbor of its parent's image; candidates are taken in
    sorted vertex order so a seeded generator reproduces runs exactly.  The
    checks run here, before any draw, and the directed-edge list, each
    vertex's map from neighbor to its position in the sorted adjacency list
    (O(m) in all) and the (slot, parent slot) steps are built once for the
    whole run.  A slot then costs O(t): it looks up the positions of the
    placed vertices among the parent image's neighbors, draws r below the
    number of unused ones, and steps r past each used position <= r, in
    ascending order, to the r-th unused neighbor.

    Each choice among c options is one rejection loop, getrandbits(k) with
    k = c.bit_length() redrawn while >= c: the bits random.Random.randrange(c)
    reads, so the draws and the generator's final state equal a randrange
    loop's.  An rng subclass that overrides only random() gets the stream of
    its getrandbits, not of its random().  With min degree >= t the
    candidate set is never empty; an empty set (degree hypothesis violated)
    aborts the draw that meets it, before it reads any bits for that slot.
    """
    if samples < 1:
        raise ValueError(f"need at least 1 sample, got {samples}")
    labeling.validate(tree)
    nd = graph.degree_sum
    if nd == 0:
        raise ValueError("graph has no edges; nothing to sample")
    adjacency = graph.adjacency
    directed = [(u, w) for u in range(graph.n) for w in adjacency[u]]
    position = [{w: i for i, w in enumerate(a)} for a in adjacency]
    steps = tuple(enumerate(labeling.parent_positions()))[2:]
    getrandbits = rng.getrandbits
    k_start = nd.bit_length()

    def draws() -> Iterator[tuple[int, ...]]:
        for _ in range(samples):
            r = getrandbits(k_start)
            while r >= nd:
                r = getrandbits(k_start)
            verts = list(directed[r])
            for pos, parent in steps:
                image = verts[parent]
                where = position[image]
                used = []  # a plain loop: on 3.11 a comprehension is one more call per slot
                for u in verts:
                    if u in where:
                        used.append(where[u])
                used.sort()
                c = len(where) - len(used)
                if not c:
                    raise ValueError(
                        f"empty candidate set at index {pos + 1}: min degree "
                        f"{graph.min_degree} is below t = {tree.t}"
                    )
                k = c.bit_length()
                r = getrandbits(k)
                while r >= c:
                    r = getrandbits(k)
                for i in used:
                    if i > r:
                        break
                    r += 1
                verts.append(adjacency[image][r])
            yield tuple(verts)

    return draws()


@_value_type
class GTable:
    """Exact per-index vertex weights g[i][v] for one measure.

    g[i][v] = numerators[i-1][v] / denominator, the total weight of embeddings
    whose i-th vertex is v, for i = 1..t+1; a probability's rows sum to 1,
    the majorant's to >= 1.  Built over any denominator, a table divides out
    the gcd of all its integers, so equal tables compare and hash equal
    whatever built them.  Only g() reads a cell as a Fraction.
    """

    kind: MeasureKind
    denominator: int
    numerators: tuple[tuple[int, ...], ...]

    def __init__(self, kind: MeasureKind, denominator: int, numerators: Sequence[Sequence[int]]):
        common = math.gcd(denominator, *chain.from_iterable(numerators))
        _set = object.__setattr__
        _set(self, "kind", kind)
        _set(self, "denominator", denominator // common)
        _set(self, "numerators", tuple(tuple([x // common for x in row]) for row in numerators))

    def g(self, i: int, v: int) -> Fraction:
        """Entry for 1-based index i, 1 <= i <= positions, and graph vertex v."""
        self._check_index(i)
        _check_vertex(v, 0, self.n - 1)
        from fractions import Fraction
        return Fraction(self.numerators[i - 1][v], self.denominator)

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.positions:
            raise ValueError(f"index i is defined for 1 <= i <= {self.positions}, got {i}")

    @property
    def positions(self) -> int:
        return len(self.numerators)

    @property
    def n(self) -> int:
        return len(self.numerators[0])

    def _slack_numerators(self, graph: Graph) -> tuple[int, Iterator[list[int]]]:
        """(nd * denominator, rows of (g[i][v] - d(v)/nd) * nd * denominator)."""
        if graph.n != self.n:
            raise ValueError(f"table has {self.n} vertices, graph has {graph.n}")
        nd, common = graph.degree_sum, self.denominator
        floor = [d * common for d in graph.degrees()]
        return nd * common, ([x * nd - f for x, f in zip(row, floor)] for row in self.numerators)

    def row_sum_ratio(self, i: int) -> tuple[int, int]:
        """Sum of row i over the vertices, 1 <= i <= positions, as (numerator, denominator)."""
        self._check_index(i)
        return sum(self.numerators[i - 1]), self.denominator

    def row_sum(self, i: int) -> Fraction:
        """row_sum_ratio(i) as a Fraction."""
        from fractions import Fraction
        return Fraction(*self.row_sum_ratio(i))

    def min_slack_ratio(self, graph: Graph) -> tuple[int, int]:
        """Smallest g[i][v] - d(v)/nd as (numerator, denominator > 0); >= 0 certifies the floor."""
        denominator, rows = self._slack_numerators(graph)
        return min(min(row) for row in rows), denominator

    def min_slack(self, graph: Graph) -> Fraction:
        """min_slack_ratio(graph) as a Fraction."""
        from fractions import Fraction
        return Fraction(*self.min_slack_ratio(graph))

    def equals_degree_profile(self, graph: Graph) -> bool:
        """True when g[i][v] = d(v)/nd exactly everywhere (the HOM identity)."""
        return not any(any(row) for row in self._slack_numerators(graph)[1])

    @cached_property
    def _json(self) -> dict:
        """to_json_dict's value, each cell reduced, a zero as 0/1; rendered at
        the first call and kept in the instance dict, outside the fields."""
        d = self.denominator
        return {
            "kind": self.kind.value,
            "positions": self.positions,
            "n": self.n,
            "rows": [
                [f"{x // (c := math.gcd(x, d))}/{d // c}" for x in row] for row in self.numerators
            ],
        }

    def to_json_dict(self) -> dict:
        """kind, positions, n and the rows of reduced a/b cells; every call
        returns a new dict and new row lists, so an edit reaches no other."""
        kept = self._json
        return {**kept, "rows": [cells[:] for cells in kept["rows"]]}


def g_table_exact(
    graph: Graph,
    tree: Tree,
    labeling: GoodLabeling,
    kind: MeasureKind,
    work_cap: int | None = None,
) -> GTable:
    """Tabulate g[i][v] exactly, in rationals.

    ISO and MAJORANT are copy_ledger's ``iso`` and ``majorant``: they require
    min degree >= t, and their copy pass is charged against the work cap.  HOM is propagated
    along the labeling, never enumerated, so the cap does not apply: slot 1
    holds d(v)/nd, and slot i holds g[i][w] = sum over u in N(w) of
    g[f(i)][u]/d(u), the chance of stepping from the parent's image u to w.
    The propagation runs on integers, every slot over nd * L^t, with L the
    lcm of the positive degrees: a slot at depth h <= t needs only nd * L^h,
    so each step's division by L is exact.
    """
    if kind is not MeasureKind.HOM:
        ledger = copy_ledger(graph, tree, labeling, work_cap)
        return ledger.iso if kind is MeasureKind.ISO else ledger.majorant
    labeling.validate(tree)
    nd = graph.degree_sum
    if nd == 0:
        raise ValueError("graph has no edges; weights undefined")
    degree = graph.degrees()
    lcm = math.lcm(*filter(None, degree))
    # an isolated vertex has weight 0 and is nobody's neighbor
    scale = [lcm // d if d else 0 for d in degree]
    rows = [[d * lcm**tree.t for d in degree]]
    for parent in labeling.parent_positions()[1:]:
        step = [x * c for x, c in zip(rows[parent], scale)]
        rows.append([sum(map(step.__getitem__, a)) // lcm for a in graph.adjacency])
    return GTable(kind, nd * lcm**tree.t, rows)


def g_table_monte_carlo(
    graph: Graph,
    tree: Tree,
    labeling: GoodLabeling,
    samples: int,
    seed: int,
) -> GTable:
    """Empirical ISO table: frequency of {omega_i = v} over one seeded stream."""
    draws = sample_embeddings(graph, tree, labeling, random.Random(seed), samples)
    counts = [[0] * graph.n for _ in range(tree.t + 1)]
    for draw, repeats in Counter(draws).items():
        for row, v in zip(counts, draw):
            row[v] += repeats
    return GTable(MeasureKind.ISO, samples, counts)


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
        from .bounds import LOG_TOLERANCE, compare_count_to_bound  # sample, gtable never load it

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


def _instance_tables(
    graph: Graph, tree: Tree, labeling: GoodLabeling, work_cap: int | None
) -> tuple[CopyLedger | None, GTable | None]:
    """One instance's copy ledger and HOM g-table, each None where undefined:
    the one step that a suite row and instance_report read.

    The ledger needs min degree >= t, and its copy pass is the only one
    charged against the work cap; an edgeless graph defines no weight, so
    it has no HOM table.
    """
    ledger = copy_ledger(graph, tree, labeling, work_cap) if graph.min_degree >= tree.t else None
    hom_table = g_table_exact(graph, tree, labeling, MeasureKind.HOM) if graph.degree_sum else None
    return ledger, hom_table
