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
embedding alone.

For each measure, g_table_exact tabulates g[i][v]: the total weight of
embeddings whose i-th vertex is v, for the full index range i = 1..t+1.
The load-bearing fact is the floor g[i][v] >= d(v)/nd, which holds with
equality for HOM (the underlying chain is reversible) and as an inequality
for MAJORANT; the table makes both checkable instance by instance.

The ISO and MAJORANT tables are read off the instance's one copy pass,
ledger.copy_ledger, which g_table_exact and _instance_tables import when
they run, so the sampler and the Monte Carlo table never load the ledger.
The HOM table enumerates nothing: its slot 1 is the start law d(v)/nd, and
each later slot is one random-walk step from its parent slot, so the table
is propagated in O(t*m) exact integer steps.  A GTable is one denominator
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
from functools import cached_property
from itertools import chain

from .graphs import GoodLabeling, Graph, Tree, _check_vertex, _value_type

__all__ = [
    "MeasureKind",
    "GTable",
    "sample_embeddings",
    "g_table_exact",
    "g_table_monte_carlo",
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

    ISO and MAJORANT are ledger.copy_ledger's ``iso`` and ``majorant``: they
    require min degree >= t, and their copy pass is charged against the work
    cap; only these two kinds load the ledger.  HOM is propagated
    along the labeling, never enumerated, so the cap does not apply: slot 1
    holds d(v)/nd, and slot i holds g[i][w] = sum over u in N(w) of
    g[f(i)][u]/d(u), the chance of stepping from the parent's image u to w.
    The propagation runs on integers, every slot over nd * L^t, with L the
    lcm of the positive degrees: a slot at depth h <= t needs only nd * L^h,
    so each step's division by L is exact.
    """
    if kind is not MeasureKind.HOM:
        from .ledger import copy_ledger

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


def _instance_tables(
    graph: Graph, tree: Tree, labeling: GoodLabeling, work_cap: int | None
) -> tuple[CopyLedger | None, GTable | None]:
    """One instance's copy ledger and HOM g-table, each None where undefined:
    the one step that a suite row and instance_report read.

    The ledger needs min degree >= t, and its copy pass is the only one
    charged against the work cap; an edgeless graph defines no weight, so
    it has no HOM table.  This step stays in measure and calls
    g_table_exact by its global name, so bench/tracing.py, which rebinds
    names only in the modules it lists, sees the HOM table's call.
    """
    from .ledger import copy_ledger

    ledger = copy_ledger(graph, tree, labeling, work_cap) if graph.min_degree >= tree.t else None
    hom_table = g_table_exact(graph, tree, labeling, MeasureKind.HOM) if graph.degree_sum else None
    return ledger, hom_table
