"""Exact counters for labeled tree copies, tree homomorphisms, and walks.

All counts are exact unbounded integers; nothing here touches floating
point.  Copies are found by backtracking along a good labeling, extending
each new tree vertex to an unused neighbor of its parent's image.

A *search node* is one partial copy that backtracking reaches: an injective
assignment of the first j slots of the labeling (j = 0..t+1) in which every
slot is a neighbor of its parent's image.  A search charges one unit of
work per node against a configurable cap (default 10^8 nodes), so the
charge, 1 + the number of valid j-slot prefixes summed over j, depends only
on the graph and the labeling.  ``count_copies`` stops at the trailing leaf
block (the final run of slots sharing one parent, never slot 1, so with
t = 1 the block is empty) and counts it in closed form, but still charges
every node the block would have held, so it raises ``WorkCapExceeded`` at
the caps a search visiting every node would.  It reads the block's
``free`` count from a tally of placed neighbours per graph vertex, with no
set work per candidate, and the tally charges no nodes of its own.  The
block and its closed forms come from one helper, ``_search._leaf_block``,
which ``ledger.copy_ledger`` shares: the ledger folds the same block into
its tables and charges it the same way, but builds the free set that its
rows need.  When that block is one leaf under the last
placed slot, whose own parent is the slot q placed just before it (every
path with t >= 2 has this shape), ``count_copies`` stops at slot q instead
and counts the two-level subtree below each choice of q from codegrees, in
O(t) per choice (the two-level tail; see ``count_copies``).  It charges
the same nodes.  Both searches recurse once per slot; a tree too deep for
the interpreter's recursion limit is a ValueError.
Counters are pure functions; results do not depend on which good labeling
drives the search.  ``count_homomorphisms`` is the one neighbour-sum DP:
``count_walks`` is its count on a path.
"""

from __future__ import annotations

from . import _search
from ._search import DEFAULT_WORK_CAP, _Budget, _too_deep
from .graphs import Graph, GoodLabeling, Tree, _bfs_order, _value_type, good_labeling, path_tree

__all__ = [
    "DEFAULT_WORK_CAP",
    "CountResult",
    "count_copies",
    "count_homomorphisms",
    "count_walks",
]


@_value_type(uncompared=("nodes",))
class CountResult:
    """An exact count, the method that produced it, and the search nodes it
    charged to the work cap (0 for methods that run no node search).

    ``nodes`` is a statistic, not part of the result: it is left out of
    equality and of every CLI result payload.
    """

    value: int
    method: str  # enumeration | dp
    nodes: int = 0


def count_copies(
    graph: Graph,
    tree: Tree,
    labeling: GoodLabeling | None = None,
    work_cap: int | None = None,
) -> CountResult:
    """Exact number of injective maps of the tree into the graph.

    Counts injections phi with phi(u)phi(v) an edge of the graph for every
    tree edge uv.  No minimum-degree hypothesis is needed; the count is
    defined (possibly 0) for any graph.

    Backtracks slot by slot along the labeling up to the trailing leaf
    block: the longest final run of slots s..t, s >= 2, that share one
    parent slot p.
    Once slots < s are placed, those r = t+1-s slots take distinct vertices
    from the ``free`` neighbors of omega_p that are not yet placed, in
    (free)_r = free(free-1)...(free-r+1) ways.  The search nodes the block
    would have held, 1 + (free)_1 + ... + (free)_r, are charged as if they
    were visited, so ``nodes`` and the caps at which WorkCapExceeded is
    raised are those of a search that visits every node.

    ``free`` is read in O(1) per choice v of the last placed slot s-1 from
    hits[w], the number of vertices placed at slots < s-1 that are adjacent
    to w: free = d(v) - hits[v] when p = s-1 (every path, star and fork),
    and free = d(omega_p) - hits[omega_p] - [v ~ omega_p] otherwise.  The
    tally adds no node charge.

    The two-level tail: when the block is one slot (r = 1, s = t) under
    p = s-1 >= 1, and slot s-1's parent is slot q = s-2, as on every path
    with t >= 2, the search stops at slot q.  With X the vertices at slots
    < q, codeg(x, u) = |N(x) & N(u)| and B(u) = sum_{v ~ u} d(v) - d(u), a
    choice u of slot q has
        copies below u = B(u) - sum_{x in X} codeg(x, u)
                         - sum_{x in X, x ~ u} (d(x) - 1 - hits[x]),
        nodes below u = 1 + (d(u) - hits[u]) + copies below u,
    which costs O(t) per u instead of a loop over N(u); the nodes are
    charged once per q-node, so ``nodes`` and the caps do not change.  This
    is the codegree identity behind closed-form counts of short paths (Alon,
    Yuster & Zwick, Finding and counting given length cycles, 1997).  B, a
    neighbour set per vertex and, when q >= 1, a codegree dict per vertex
    are built once per call; the dicts take sum_w d(w)^2 time and hold at
    most that many entries (at most n^2).  That build, like the tally, is
    not charged to the work cap.  Every other shape keeps the loop above.

    A tree too deep for the recursion limit is a ValueError.
    """
    if labeling is None:
        labeling = good_labeling(tree)
    else:
        labeling.validate(tree)
    budget = _Budget(work_cap, "copy count")
    try:
        total = _count_by_leaf_block(graph, labeling, budget)
    except RecursionError:
        raise _too_deep(tree) from None
    return CountResult(total, "enumeration", budget.spent)


def _count_by_leaf_block(graph: Graph, labeling: GoodLabeling, budget: _Budget) -> int:
    parent_pos = labeling.parent_positions()
    p = parent_pos[-1]
    s, block_copies, block_nodes = _search._leaf_block(graph, labeling)
    adjacency = graph.adjacency
    degree = graph.degrees()
    hits = [0] * graph.n  # hits[w]: vertices at slots < last that are adjacent to w
    omega = [0] * s
    used = bytearray(graph.n)
    last = s - 1
    # The two-level tail: a one-slot block under the last placed slot, whose
    # parent is the slot q placed just before it, is counted at slot q
    # (s >= 2, so q >= 0).
    tail = s == len(parent_pos) - 1 and p == last and parent_pos[last] == last - 1
    q = last - 1 if tail else -1
    near = [set(a) for a in adjacency] if q >= 1 or p != last else None
    if tail:
        # two_step[u] = sum over v ~ u of d(v) - 1: the walks u, v, w with w != u.
        two_step = [sum(degree[v] for v in a) - len(a) for a in adjacency]
    if q >= 1:
        # codeg[x][u] = |N(x) & N(u)|, one count per common neighbour a.
        codeg = [{} for _ in range(graph.n)]
        for a in adjacency:
            for x in a:
                row = codeg[x]
                for u in a:
                    row[u] = row.get(u, 0) + 1

    def extend(pos: int) -> int:
        budget.spend()
        candidates = range(graph.n) if pos == 0 else adjacency[omega[parent_pos[pos]]]
        total = 0
        if pos == q:
            # Each choice u of slot q roots a two-level subtree: its paths
            # u, v, w avoid the placed set X, so they are two_step[u] less
            # codeg(x, u) per x in X, less d(x) - 1 - hits[x] per x ~ u.
            placed = [(codeg[x], near[x], degree[x] - 1 - hits[x]) for x in omega[:q]]
            nodes = 0
            for u in candidates:
                if not used[u]:
                    below = two_step[u]
                    for row, adjacent, spare in placed:
                        below -= row.get(u, 0)
                        if u in adjacent:
                            below -= spare
                    total += below
                    nodes += 1 + degree[u] - hits[u] + below
            budget.spend(nodes)
            return total
        if pos < last:
            for v in candidates:
                if not used[v]:
                    used[v] = 1
                    omega[pos] = v
                    neighbors = adjacency[v]
                    for w in neighbors:
                        hits[w] += 1
                    total += extend(pos + 1)
                    for w in neighbors:
                        hits[w] -= 1
                    used[v] = 0
            return total
        # Each choice v of the last placed slot roots one leaf-block subtree,
        # whose free count is the degree of omega_p less its placed neighbours.
        nodes = 0
        if p == last:
            for v in candidates:
                if not used[v]:
                    free = degree[v] - hits[v]
                    total += block_copies[free]
                    nodes += block_nodes[free]
        else:
            anchor = omega[p]
            unplaced = degree[anchor] - hits[anchor]
            adjacent = near[anchor]
            for v in candidates:
                if not used[v]:
                    free = unplaced - (v in adjacent)
                    total += block_copies[free]
                    nodes += block_nodes[free]
        budget.spend(nodes)
        return total

    return extend(0)


def count_homomorphisms(graph: Graph, tree: Tree) -> CountResult:
    """Exact number of maps (injective or not) carrying tree edges to edges.

    Dynamic programming over the tree rooted at vertex 1, children before
    their parent: each vertex passes its parent the per-image product of
    neighbor-summed child messages, h_x(v) = prod_c sum_{u in N(v)} h_c(u);
    the answer is sum_v h_root(v).
    """
    adjacency = graph.adjacency
    messages: dict[int, list[int]] = {}
    for x in reversed(_bfs_order(tree, 1)):
        vec = [1] * graph.n
        for child in tree.adjacency[x]:
            if child in messages:  # a child: x's parent comes later in this loop
                child_vec = messages.pop(child)
                for v in range(graph.n):
                    vec[v] *= sum(child_vec[u] for u in adjacency[v])
        messages[x] = vec
    return CountResult(sum(messages[1]), "dp")


def count_walks(graph: Graph, t: int) -> CountResult:
    """Number of walks with t edges: a walk with t >= 1 edges is a
    homomorphism of the t-edge path, so this is that count's DP; with t = 0
    each vertex is one walk."""
    if t < 0:
        raise ValueError(f"walk length must be >= 0, got {t}")
    if t == 0:
        return CountResult(graph.n, "dp")
    return count_homomorphisms(graph, path_tree(t))
