"""Graph generators: disjoint cliques, cycles, complete bipartite graphs, and
binomial random graphs conditioned on a degree floor.

Generators are pure functions of their arguments, including the seed.  The
random generator's stream contract: per draw, one
``random.Random(seed).random()`` per vertex pair in lexicographic order;
the pairs a rejected draw never reaches are skipped with ``getrandbits``,
which lands on the same state only under CPython's Mersenne Twister.

Only the commands that generate graphs (``gen``, ``conjecture``) and the
suite's battery load this module.
"""

from __future__ import annotations

import random

from .errors import RetryLimitExceeded
from .graphs import Graph, _norm_edge

__all__ = [
    "gen_disjoint_cliques",
    "gen_cycle",
    "gen_complete_bipartite",
    "gen_random_min_degree",
]


def _check_clique_order(q: int) -> None:
    if q < 2:
        raise ValueError(f"clique order must be >= 2, got {q}")


def gen_disjoint_cliques(c: int, q: int) -> Graph:
    """c disjoint complete graphs of order q; every degree is q-1."""
    if c < 1:
        raise ValueError(f"component count must be >= 1, got {c}")
    _check_clique_order(q)
    edges = []
    for block in range(c):
        base = block * q
        edges.extend((base + i, base + j) for i in range(q) for j in range(i + 1, q))
    return Graph.from_edges(c * q, edges)


def gen_cycle(n: int) -> Graph:
    """Cycle on n >= 3 vertices."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return Graph.from_edges(n, (_norm_edge(i, (i + 1) % n) for i in range(n)))


def gen_complete_bipartite(a: int, b: int) -> Graph:
    """Complete bipartite graph with sides 0..a-1 and a..a+b-1."""
    if a < 1 or b < 1:
        raise ValueError(f"both sides must be >= 1, got ({a}, {b})")
    return Graph.from_edges(a + b, ((i, a + j) for i in range(a) for j in range(b)))


def _check_random_min_degree(n: int, p: float, min_degree: int) -> None:
    if not 0 < p <= 1:
        raise ValueError(f"edge probability must be in (0, 1], got {p}")
    if not 0 <= min_degree < n:
        raise ValueError(f"degree floor must be in 0..{n - 1}, got {min_degree}")


# Largest skip, in random() calls, made with one getrandbits call: 8192
# calls are a 64 KiB integer, so skipping keeps memory small for any n.
_SKIP_CHUNK = 1 << 13


def _skip_draws(rng: random.Random, count: int) -> None:
    """Advance ``rng`` exactly as ``count`` calls of ``rng.random()`` would.

    CPython's Mersenne Twister spends two 32-bit outputs on each random()
    and on each 64 bits of getrandbits, so getrandbits(64 * k) leaves the
    state k random() calls would, without making k floats.
    """
    while count > 0:
        k = min(count, _SKIP_CHUNK)
        rng.getrandbits(64 * k)
        count -= k


def gen_random_min_degree(
    n: int, p: float, min_degree: int, seed: int, max_tries: int = 1000
) -> Graph:
    """Binomial random graph conditioned on minimum degree >= min_degree.

    Draws G(n, p) from one seeded stream until the degree floor holds, so the
    result is a pure function of (n, p, min_degree, seed, max_tries).  Raises
    RetryLimitExceeded after max_tries draws (infeasible parameters), and
    ValueError for p outside (0, 1], a floor outside 0..n-1 or max_tries < 1.

    The stream: each draw takes one ``random()`` per vertex pair, row by row
    (u = 0..n-1, then v = u+1..n-1), and keeps the edge when the value is
    below p.  After row u the degree of u is final, so a draw is rejected at
    its first vertex below the floor; the pairs it did not reach are skipped
    with ``getrandbits`` (see ``_skip_draws``), which in CPython leaves the
    stream where drawing them would.  The graph is the one drawing every
    pair and then checking the floor gives.  A kept draw is built as it is
    drawn: its neighbour lists and rows are already ascending.
    """
    _check_random_min_degree(n, p, min_degree)
    if max_tries < 1:
        raise ValueError(f"max tries must be >= 1, got {max_tries}")
    rng = random.Random(seed)
    draw = rng.random
    for _ in range(max_tries):
        neigh: list[list[int]] = [[] for _ in range(n)]
        rows = []
        for u in range(n):
            row = [v for v in range(u + 1, n) if draw() < p]
            below = neigh[u]
            if len(below) + len(row) < min_degree:
                _skip_draws(rng, (n - 1 - u) * (n - 2 - u) // 2)
                break
            for v in row:
                neigh[v].append(u)
            below.extend(row)
            rows.append(row)
        else:
            edges = tuple((u, v) for u, row in enumerate(rows) for v in row)
            return Graph(n, edges, tuple(map(tuple, neigh)))
    raise RetryLimitExceeded(
        f"no graph with min degree >= {min_degree} in {max_tries} draws of G({n}, {p})"
    )
