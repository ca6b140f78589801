"""Independent brute-force references the library implementations are checked
against.  Nothing here shares an algorithm with the package: copies are
counted, and listed in a labeling's slot order, by filtering raw
permutations; star copies come from the closed form sum_v t! * C(d(v), t);
homomorphisms by filtering the full map space, walks via adjacency-matrix
powers in exact integer arithmetic, and g-tables by weighing each of those
maps with copy_weight, straight from the measure definitions, one Fraction
per map, or, for the majorant, from its labeling-free product form.  The
closed-form bounds are evaluated in Fractions: each exponent and the average
degree is a Fraction converted to float once.  Random graphs with a degree
floor are drawn whole and then checked, the embedding process is drawn
with one randrange per choice over lists of unused neighbours, good
labelings are judged from the definition against the tree's edge list, and
the tree shapes on k vertices are found by comparing canonical strings of every tree whose
vertex j hangs off an earlier vertex.  Two package calls give no
reference value: good_labeling_between in reversed_labeling builds an
input to the checks, and GTable.g in fraction_rows reads a table under test.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

from treebound.errors import RetryLimitExceeded
from treebound.graphs import GoodLabeling, Graph, Tree, good_labeling_between


def _edge_maps(graph: Graph, tree: Tree, maps):
    """The maps phi (phi[x-1] is the image of tree vertex x) that carry
    every tree edge to a graph edge."""
    edges = [(a - 1, b - 1) for a, b in tree.edges]
    for phi in maps:
        if all(graph.has_edge(phi[a], phi[b]) for a, b in edges):
            yield phi


def copies_by_permutations(graph: Graph, tree: Tree) -> int:
    """Count injective tree copies by testing every ordered vertex tuple."""
    return sum(1 for _ in _edge_maps(graph, tree, permutations(range(graph.n), tree.t + 1)))


def _slot_prefixes(graph: Graph, labeling: GoodLabeling, j: int):
    """The injective j-slot prefixes in which each slot is adjacent to its
    parent slot, found by testing raw permutations, in lexicographic order."""
    parents = labeling.parent_positions()
    for phi in permutations(range(graph.n), j):
        if all(graph.has_edge(phi[i], phi[parents[i]]) for i in range(1, j)):
            yield phi


def copies_in_slot_order(graph: Graph, labeling: GoodLabeling):
    """Every injective copy as a vertex tuple in labeling slot order (slot i
    holds the image of tree vertex order[i]), in lexicographic order."""
    return _slot_prefixes(graph, labeling, len(labeling.order))


def search_nodes_by_permutations(graph: Graph, labeling: GoodLabeling) -> int:
    """Search nodes of a full backtracking pass along the labeling: the empty
    prefix plus, for j = 1..t+1, every injective j-slot prefix in which each
    slot is adjacent to its parent slot."""
    return 1 + sum(
        sum(1 for _ in _slot_prefixes(graph, labeling, j))
        for j in range(1, len(labeling.order) + 1)
    )


def star_copies_by_formula(graph: Graph, t: int) -> int:
    """Copies of the t-edge star: a center v and an ordered choice of t of its
    d(v) neighbors, summed over v as t! * C(d(v), t)."""
    return sum(math.factorial(t) * math.comb(len(a), t) for a in graph.adjacency)


def homs_by_exhaustion(graph: Graph, tree: Tree) -> int:
    """Count homomorphisms by testing every map, repeats allowed."""
    return sum(1 for _ in _edge_maps(graph, tree, product(range(graph.n), repeat=tree.t + 1)))


def hom_embeddings_by_exhaustion(graph: Graph, tree: Tree, labeling: GoodLabeling):
    """Every homomorphism, found by testing every map, as a vertex tuple in
    labeling slot order: slot i holds the image of tree vertex order[i]."""
    for phi in _edge_maps(graph, tree, product(range(graph.n), repeat=tree.t + 1)):
        yield tuple(phi[x - 1] for x in labeling.order)


def copy_weight(graph: Graph, labeling: GoodLabeling, omega, kind: str) -> Fraction:
    """The weight of one embedding omega, a vertex tuple in labeling slot
    order, straight from the process definitions: 1/nd, then one factor per
    slot j = 3..t+1, with t read from the labeling.  kind "P" (ISO) divides
    by the parent image's neighbours not among slots 1..j-1, "p" (MAJORANT)
    by its degree less t-1, and "Pprime" (HOM) by its degree.  omega is
    taken as given: nothing checks that it embeds the labeled tree."""
    t = len(labeling.order) - 1
    w = Fraction(1, 2 * len(graph.edges))
    for j in range(3, t + 2):
        neighbors = set(graph.neighbors(omega[labeling.parents[j - 1] - 1]))
        if kind == "P":
            w /= len(neighbors - set(omega[: j - 1]))
        elif kind == "p":
            w /= len(neighbors) - t + 1
        else:
            w /= len(neighbors)
    return w


def g_tables_by_enumeration(
    graph: Graph, tree: Tree, labeling: GoodLabeling, homs: bool = True
) -> dict:
    """Exact g-tables {"P", "p", "Pprime"} as lists of rows of Fractions.

    Every injective copy is weighed under P (ISO) and p (MAJORANT), every
    homomorphism under Pprime (HOM), each by copy_weight.  P and p need
    min degree >= t; without it only "Pprime" is returned.  homs=False skips
    the n^(t+1) map space and returns P and p alone.
    """
    t = tree.t

    def table(kinds, maps) -> dict:
        rows = {kind: [[Fraction(0)] * graph.n for _ in range(t + 1)] for kind in kinds}
        for phi in maps:
            omega = [phi[x - 1] for x in labeling.order]
            for kind in kinds:
                w = copy_weight(graph, labeling, omega, kind)
                for i, v in enumerate(omega):
                    rows[kind][i][v] += w
        return rows

    tables = {}
    if homs:
        tables = table(("Pprime",), _edge_maps(graph, tree, product(range(graph.n), repeat=t + 1)))
    if graph.min_degree >= t:
        tables.update(table(("P", "p"), _edge_maps(graph, tree, permutations(range(graph.n), t + 1))))
    return tables


def majorant_table_by_product_form(graph: Graph, tree: Tree, labeling: GoodLabeling) -> list:
    """The MAJORANT g-table as rows of Fractions, weighed with no labeling.

    Every copy phi, found by testing raw permutations, weighs
    (1/nd) * prod over tree vertices x of 1/(d(phi(x)) - t + 1)^(deg(x) - 1),
    which names no parent or slot.  The labeling only places that weight:
    row i gets it at phi(order[i]).  Needs min degree >= t.
    """
    nd = 2 * len(graph.edges)
    t = tree.t
    tree_degree = Counter(x for edge in tree.edges for x in edge)
    rows = [[Fraction(0)] * graph.n for _ in range(t + 1)]
    for phi in _edge_maps(graph, tree, permutations(range(graph.n), t + 1)):
        w = Fraction(1, nd)
        for x, deg in tree_degree.items():
            w /= (len(graph.neighbors(phi[x - 1])) - t + 1) ** (deg - 1)
        for row, x in zip(rows, labeling.order):
            row[phi[x - 1]] += w
    return rows


def fraction_rows(table) -> list:
    """A GTable's cells g[i][v] as lists of Fractions, one row per index i,
    read one cell at a time through GTable.g."""
    return [[table.g(i, v) for v in range(table.n)] for i in range(1, table.positions + 1)]


def slacks_by_cells(graph: Graph, rows) -> list:
    """g[i][v] - d(v)/nd for every cell of a g-table's rows, one Fraction
    subtraction per cell."""
    nd = 2 * len(graph.edges)
    return [
        [value - Fraction(len(graph.neighbors(v)), nd) for v, value in enumerate(row)]
        for row in rows
    ]


def walks_by_matrix_power(graph: Graph, t: int) -> int:
    """Sum of the entries of the t-th adjacency-matrix power, exact: the
    identity multiplied t times by the 0/1 adjacency matrix, as lists of ints."""
    n = graph.n
    a = [[0] * n for _ in range(n)]
    for u, v in graph.edges:
        a[u][v] = 1
        a[v][u] = 1
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(t):
        power = [
            [sum(row[k] * a[k][j] for k in range(n)) for j in range(n)] for row in power
        ]
    return sum(map(sum, power))


def bounds_by_fractions(graph: Graph, t: int) -> dict:
    """The six bounds of ``evaluate_bounds`` as {name: (True, log.hex())} or
    {name: (False, reason)}.  Each exponent (t-1)d(v)/nd and the average
    degree d are Fractions, each converted to float once, and the
    falling-factorial logs of d - j are added left to right from 0.0."""
    degrees = [len(graph.neighbors(v)) for v in range(graph.n)]
    n, nd, low = graph.n, sum(degrees), min(degrees)
    d = Fraction(nd, n)

    def local(shift: int) -> float:
        total = math.log(nd)
        for deg in degrees:
            if deg:
                total += float(Fraction((t - 1) * deg, nd)) * math.log(deg - shift)
        return total

    def falling() -> float:
        total = 0.0
        for j in range(t):
            total += math.log(float(d - j))
        return math.log(n) + total

    below_t, no_edges = f"min degree {low} < t = {t}", "graph has no edges"
    bounds = {
        "copies_local": local(t - 1) if low >= t else below_t,
        "copies_average": (
            math.log(nd) + (t - 1) * math.log(float(d - t + 1)) if low >= t else below_t
        ),
        "homs_local": local(0) if nd else no_edges,
        "copies_p3": (
            f"defined only for t = 3, got t = {t}"
            if t != 3
            else local(2) if low >= 3 else f"min degree {low} < 3"
        ),
        "walks_blakley_roy": math.log(n) + t * math.log(float(d)) if nd else no_edges,
        "falling_factorial": (
            falling() if d - t + 1 > 0 else f"nonpositive factor d - {t - 1} = {d - t + 1}"
        ),
    }
    return {
        name: (True, value.hex()) if isinstance(value, float) else (False, value)
        for name, value in bounds.items()
    }


def random_tree(rng: random.Random, t: int) -> Tree:
    """Uniform-ish random recursive tree: vertex j hangs off an earlier one."""
    return Tree.from_edges((rng.randint(1, j - 1), j) for j in range(2, t + 2))


def free_trees(k: int) -> list[tuple[tuple[int, int], ...]]:
    """One edge list on vertices 1..k per tree shape on k vertices, in the
    order of their canonical strings: 1, 1, 1, 2, 3, 6, 11 shapes for
    k = 1..7 (OEIS A000055).  It tries every tree in which each vertex j > 1
    hangs off an earlier vertex, which every shape has (number its vertices
    in breadth-first order), and two trees are one shape when their
    canonical strings agree: the nested-parenthesis string of the tree
    rooted at a centre, children sorted, at the centre giving the smaller."""
    shapes = {}
    for parents in product(*(range(1, j) for j in range(2, k + 1))):
        edges = tuple(zip(parents, range(2, k + 1)))
        shapes.setdefault(_centre_string(k, edges), edges)
    return [shapes[key] for key in sorted(shapes)]


def _centre_string(k: int, edges) -> str:
    neighbours = {x: set() for x in range(1, k + 1)}
    for a, b in edges:
        neighbours[a].add(b)
        neighbours[b].add(a)

    def rooted(x, parent) -> str:
        return "(" + "".join(sorted(rooted(y, x) for y in neighbours[x] if y != parent)) + ")"

    # peel the leaves layer by layer; the one or two vertices left are the centres
    left = set(neighbours)
    while len(left) > 2:
        leaves = {x for x in left if len(neighbours[x] & left) <= 1}
        left -= leaves
    return min(rooted(x, None) for x in left)


def reversed_labeling(labeling: GoodLabeling) -> tuple[Tree, GoodLabeling]:
    """A copy's own tree, whose vertex j is slot j of the labeling, and its
    good labeling from slot t+1 back to slot 1: the copy read from its far end."""
    k = len(labeling.order)
    index_tree = Tree.from_edges(zip(labeling.parents[1:], range(2, k + 1)))
    return index_tree, good_labeling_between(index_tree, k, 1)


def is_good_labeling(tree: Tree, order, parents) -> bool:
    """The definition of a good labeling, read against the tree's edge list.

    ``order`` lists every tree vertex 1..t+1 once; x_1 = order[0] lies on
    exactly one edge; and for j = 2..t+1, x_j has exactly one neighbour among
    x_1..x_{j-1}, at the 1-based index parents[j-1]; parents[0] is 0.
    """
    k = tree.t + 1
    if sorted(order) != list(range(1, k + 1)) or len(parents) != k or parents[0] != 0:
        return False
    edges = {frozenset(edge) for edge in tree.edges}
    if sum(order[0] in edge for edge in edges) != 1:
        return False
    for j in range(2, k + 1):
        earlier = [i for i in range(1, j) if frozenset((order[i - 1], order[j - 1])) in edges]
        if earlier != [parents[j - 1]]:
            return False
    return True


def random_min_degree_by_rejection(
    n: int, p: float, min_degree: int, seed: int, max_tries: int = 1000
) -> Graph:
    """G(n, p) conditioned on min degree >= min_degree by plain rejection:
    every draw takes one random() per pair (u, v), u < v, in lexicographic
    order, and only then are its degrees checked.  Adjacency lists are
    sorted here, not taken from the package's graph builders."""
    rng = random.Random(seed)
    for _ in range(max_tries):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        neigh = [[] for _ in range(n)]
        for u, v in edges:
            neigh[u].append(v)
            neigh[v].append(u)
        if min(len(a) for a in neigh) >= min_degree:
            return Graph(n, tuple(edges), tuple(tuple(sorted(a)) for a in neigh))
    raise RetryLimitExceeded(
        f"no graph with min degree >= {min_degree} in {max_tries} draws of G({n}, {p})"
    )


def draws_by_randrange(graph: Graph, tree: Tree, labeling: GoodLabeling, rng, samples: int):
    """The embedding process drawn with one rng.randrange per choice: a start
    edge from the directed-edge list, then each later slot from a list of
    the parent image's unused neighbours in sorted order, O(d) per slot.  A
    draw that meets an empty list raises sample_embeddings' ValueError.  The
    inputs are taken as given: nothing is checked before the first draw."""
    nd = graph.degree_sum
    adjacency = graph.adjacency
    directed = [(u, w) for u in range(graph.n) for w in adjacency[u]]
    steps = tuple(enumerate(labeling.parent_positions()))[2:]
    for _ in range(samples):
        first, second = directed[rng.randrange(nd)]
        verts = [first, second]
        used = {first, second}
        for pos, parent in steps:
            candidates = [u for u in adjacency[verts[parent]] if u not in used]
            if not candidates:
                raise ValueError(
                    f"empty candidate set at index {pos + 1}: min degree "
                    f"{graph.min_degree} is below t = {tree.t}"
                )
            chosen = candidates[rng.randrange(len(candidates))]
            verts.append(chosen)
            used.add(chosen)
        yield tuple(verts)
