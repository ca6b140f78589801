"""What both copy searches share, so ``copy_ledger`` runs without loading
``counting``: the work-cap budget, the too-deep error and the trailing leaf
block, which ``count_copies`` and ``copy_ledger`` each read when they run."""

from __future__ import annotations

from .errors import WorkCapExceeded
from .graphs import Graph, GoodLabeling, Tree

DEFAULT_WORK_CAP = 100_000_000


class _Budget:
    """Search-node budget for one named pass; spend() raises
    WorkCapExceeded once more than ``cap`` nodes are charged.  A cap below 0
    is a ValueError."""

    __slots__ = ("cap", "remaining", "pass_name")

    def __init__(self, cap: int | None, pass_name: str):
        self.cap = DEFAULT_WORK_CAP if cap is None else cap
        if self.cap < 0:
            raise ValueError(f"work cap must be >= 0, got {self.cap}")
        self.remaining = self.cap
        self.pass_name = pass_name

    def spend(self, units: int = 1) -> None:
        self.remaining -= units
        if self.remaining < 0:
            raise WorkCapExceeded(
                f"{self.pass_name} exceeded the work cap of {self.cap} search nodes"
            )

    @property
    def spent(self) -> int:
        return self.cap - self.remaining


def _too_deep(tree: Tree) -> ValueError:
    """The error for a search that outgrew the interpreter's recursion
    limit: each search recurses once per slot of the labeling."""
    return ValueError(
        f"tree with {tree.t} edges ({tree.t + 1} vertices) is too deep for the copy search"
    )


def _leaf_block(graph: Graph, labeling: GoodLabeling) -> tuple[int, list[int], list[int]]:
    """The trailing leaf block of a labeling and its closed forms.

    The block is the longest final run of slots s..t (0-based) that share
    one parent slot, with s >= 2: it never holds slot 1, the start edge's
    second end, which carries no weight factor.  So with r = t+1-s slots it
    is empty only when t = 1, and the search then places both slots itself.
    Returns s and, for free = 0..max degree, copies[free] = (free)_r and
    nodes[free] = sum_{j<=r} (free)_j: the copies and the search nodes of a
    block whose parent image has ``free`` unused neighbors.  The callers
    find ``free`` their own way: ``count_copies`` reads it from its tally of
    placed neighbours, ``copy_ledger`` lists the neighbors its ``used``
    marks leave free; both charge nodes[free] alike, so nodes and caps do
    not depend on which.
    """
    parent_pos = labeling.parent_positions()
    p = parent_pos[-1]
    s = len(parent_pos)
    while s > 2 and parent_pos[s - 1] == p:
        s -= 1
    r = len(parent_pos) - s
    copies: list[int] = []
    nodes: list[int] = []
    for free in range(graph.max_degree + 1):
        ways = total = 1
        for i in range(r):
            ways *= free - i
            total += ways
        copies.append(ways)
        nodes.append(total)
    return s, copies, nodes
