"""Simple undirected graphs, trees with leaf-first labelings, and tree presets.

Graph vertices are 0-indexed; tree vertices are 1-indexed (1..t+1 for a tree
with t edges), which keeps tree files and test fixtures aligned with the
usual x_1..x_{t+1} naming; the per-vertex accessors refuse any other vertex
with ValueError.  Both file formats share one shape: optional '#' comment
lines, a header line "n m", then m whitespace-separated edge lines.  Every
good labeling's parents come from ``_labeling_from_order``, and
``GoodLabeling.validate`` checks a labeling against it.

All types are immutable value types (see ``_value_type``), safe to share
across threads.  Edge tuples are normalized (u < v) and sorted, and
adjacency lists ascending; builders get that from sorted edges, not from a
sort per list.  The graph generators live in ``families``, which only the
commands that generate graphs and the suite load.
"""

from __future__ import annotations

from operator import attrgetter

from .errors import FormatError, FrozenInstanceError

__all__ = [
    "Graph",
    "Tree",
    "GoodLabeling",
    "parse_graph",
    "serialize_graph",
    "parse_tree",
    "serialize_tree",
    "good_labeling",
    "good_labeling_between",
    "path_tree",
    "star_tree",
]


def _refuse_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _value_type(cls=None, /, *, uncompared: tuple[str, ...] = ()):
    """Make ``cls`` an immutable value type over its annotated fields.

    The class gets an ``__init__`` taking the fields in declaration order,
    positionally or by keyword, with the class-level values as defaults;
    ``__eq__`` (``NotImplemented`` against any other class) and ``__hash__``
    over every field not named in ``uncompared``; the repr
    ``Name(field=value!r, ...)``; ``__match_args__``; and assignment and
    deletion that raise FrozenInstanceError.  That is the part of
    ``@dataclass(frozen=True)`` the package uses.  Every CLI command is a
    fresh process, and ``dataclasses`` costs one there: its import brings in
    ``inspect``, and it compiles six methods per class.  Here ``__init__``,
    which sets each field as a frozen dataclass's does, is the one compiled
    method, unless the class defines its own.  ``dataclasses.replace``,
    ``fields`` and ``asdict`` do not apply.
    """
    if cls is None:
        return lambda c: _value_type(c, uncompared=uncompared)
    names = tuple(cls.__annotations__)
    if "__init__" not in vars(cls):
        params = ", ".join(
            f"{name}=_defaults[{name!r}]" if name in vars(cls) else name for name in names
        )
        setters = "".join(f"\n    _set(self, {name!r}, {name})" for name in names)
        namespace = {"_set": object.__setattr__, "_defaults": vars(cls)}
        exec(f"def __init__(self, {params}):{setters}", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    key = attrgetter(*(name for name in names if name not in uncompared))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({fields})"

    cls.__eq__, cls.__hash__, cls.__repr__ = __eq__, __hash__, __repr__
    cls.__setattr__, cls.__delattr__ = _refuse_setattr, _refuse_delattr
    cls.__match_args__ = names
    return cls


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _valid_edges(edges, lo: int, hi: int, label: str) -> tuple[tuple[int, int], ...]:
    """Check each edge in iteration order; return them normalized and sorted.

    Raises ValueError at the first edge with an endpoint outside lo..hi, a
    self-loop, or a repeat of an earlier edge.  The one edge check shared by
    the constructors and the parsers.
    """
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (lo <= u <= hi and lo <= v <= hi):
            raise ValueError(f"{label} out of range {lo}..{hi}: ({u}, {v})")
        if u == v:
            raise ValueError(f"self-loop at {label} {u}")
        e = _norm_edge(u, v)
        if e in seen:
            raise ValueError(f"duplicate edge ({e[0]}, {e[1]})")
        seen.add(e)
    return tuple(sorted(seen))


def _check_vertex(x: int, lo: int, hi: int) -> None:
    if not lo <= x <= hi:
        raise ValueError(f"vertex {x} is outside {lo}..{hi}")


def _adjacency(size: int, ordered) -> tuple[tuple[int, ...], ...]:
    """Neighbour lists from edges (u, v), u < v, in lexicographic order.

    Each list comes out ascending with no sort: v's smaller neighbours arrive
    from edges (u, v) in order of u, and all of them before its larger ones,
    from edges (v, w) in order of w.  Every caller passes ``_valid_edges``
    output, which is normalized and sorted.
    """
    neigh: list[list[int]] = [[] for _ in range(size)]
    for u, v in ordered:
        neigh[u].append(v)
        neigh[v].append(u)
    return tuple(map(tuple, neigh))


@_value_type
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    ``edges`` holds each edge once as (u, v) with u < v, sorted; adjacency
    lists are sorted ascending.  No loops, no parallel edges.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build and validate a graph from an edge iterable."""
        if n < 1:
            raise ValueError(f"vertex count must be >= 1, got {n}")
        ordered = _valid_edges(edges, 0, n - 1, "vertex")
        return cls(n, ordered, _adjacency(n, ordered))

    def degree(self, v: int) -> int:
        _check_vertex(v, 0, self.n - 1)
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        _check_vertex(v, 0, self.n - 1)
        return self.adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        _check_vertex(u, 0, self.n - 1)
        _check_vertex(v, 0, self.n - 1)
        return v in self.adjacency[u]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def degree_sum(self) -> int:
        """Sum of all degrees: 2|E|, equal to n times the average degree."""
        return 2 * len(self.edges)

    @property
    def average_degree(self) -> Fraction:
        from fractions import Fraction  # only callers that want a Fraction load it
        return Fraction(self.degree_sum, self.n)

    @property
    def min_degree(self) -> int:
        return min(len(a) for a in self.adjacency)

    @property
    def max_degree(self) -> int:
        return max(len(a) for a in self.adjacency)

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adjacency)


@_value_type
class Tree:
    """A tree with t edges on vertices 1..t+1.

    ``adjacency`` is indexed by vertex (slot 0 unused); neighbor lists are
    sorted ascending.
    """

    t: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, edges) -> "Tree":
        """Build a tree from its edge list; vertices must be exactly 1..t+1."""
        edge_list = [tuple(e) for e in edges]
        t = len(edge_list)
        if t < 1:
            raise ValueError("a tree needs at least one edge")
        return cls._from_valid_edges(t, _valid_edges(edge_list, 1, t + 1, "tree vertex"))

    @classmethod
    def _from_valid_edges(cls, t: int, ordered) -> "Tree":
        """Build from t checked edges on 1..t+1; reject a disconnected set."""
        tree = cls(t, ordered, _adjacency(t + 2, ordered))
        # t edges on t+1 vertices: connected iff acyclic iff a tree
        if len(_bfs_order(tree, 1)) != t + 1:
            raise ValueError("edge list does not form a tree: disconnected")
        return tree

    @property
    def vertices(self) -> range:
        return range(1, self.t + 2)

    def tree_degree(self, x: int) -> int:
        _check_vertex(x, 1, self.t + 1)
        return len(self.adjacency[x])

    def neighbors(self, x: int) -> tuple[int, ...]:
        _check_vertex(x, 1, self.t + 1)
        return self.adjacency[x]

    @property
    def leaves(self) -> tuple[int, ...]:
        return tuple(x for x in self.vertices if len(self.adjacency[x]) == 1)


@_value_type
class GoodLabeling:
    """A leaf-first ordering x_1..x_{t+1} of a tree's vertices.

    ``order[j-1]`` is the tree vertex x_j.  ``parents[j-1]`` is f(j), the
    1-based index of the unique earlier-placed neighbor of x_j (0 for j=1,
    which has none).  x_1 is a leaf, and x_{t+1} is forced to be one.
    """

    order: tuple[int, ...]
    parents: tuple[int, ...]

    @property
    def t(self) -> int:
        return len(self.order) - 1

    def vertex(self, j: int) -> int:
        """Tree vertex at 1-based index j, 1 <= j <= t+1."""
        if not 1 <= j <= len(self.order):
            raise ValueError(f"vertex(j) is defined for 1 <= j <= {len(self.order)}, got {j}")
        return self.order[j - 1]

    def f(self, j: int) -> int:
        """Parent index f(j) < j for 2 <= j <= t+1."""
        if not 2 <= j <= len(self.order):
            raise ValueError(f"f(j) is defined for 2 <= j <= {len(self.order)}, got {j}")
        return self.parents[j - 1]

    def parent_positions(self) -> tuple[int, ...]:
        """0-based parent positions per 0-based slot; -1 for slot 0."""
        return tuple(p - 1 for p in self.parents)

    def validate(self, tree: Tree) -> None:
        """Check this is a good labeling of ``tree``, raising ValueError if not:
        its order is a permutation starting at a leaf, and its parents are
        the ones ``_labeling_from_order`` derives from that order."""
        if sorted(self.order) != list(tree.vertices):
            raise ValueError("order is not a permutation of the tree's vertices")
        if tree.tree_degree(self.order[0]) != 1:
            raise ValueError(f"first vertex {self.order[0]} is not a leaf")
        if tuple(self.parents) != _labeling_from_order(tree, list(self.order)).parents:
            raise ValueError("parents must be each vertex's one earlier neighbor, 0 first")


# ---------------------------------------------------------------------------
# File format


def _data_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _parse_header(text: str):
    """The data lines after the 'n m' header, the header's line number, n and m."""
    lines = _data_lines(text)
    try:
        lineno, line = next(lines)
    except StopIteration:
        raise FormatError("empty input: expected 'n m' header") from None
    parts = line.split()
    if len(parts) != 2:
        raise FormatError(f"header must be 'n m', got {line!r}", lineno)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"header must be two integers, got {line!r}", lineno) from None
    return lines, lineno, n, m


def _parse_edge_line(lineno: int, line: str) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 2:
        raise FormatError(f"edge line must be 'u v', got {line!r}", lineno)
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"edge line must be two integers, got {line!r}", lineno) from None


def _parse_edges(lines, m: int, lo: int, hi: int, label: str) -> tuple[tuple[int, int], ...]:
    """Read exactly m edge lines and check them with ``_valid_edges``.

    Lines are parsed as the check consumes them, so the first bad line is
    the one reported, with its line number.
    """
    lineno = 0

    def edges():
        nonlocal lineno
        count = 0
        for lineno, line in lines:
            if count == m:
                raise FormatError(f"expected {m} edge lines, found extra data {line!r}", lineno)
            yield _parse_edge_line(lineno, line)
            count += 1
        if count != m:
            raise FormatError(f"expected {m} edge lines, found {count}")

    try:
        return _valid_edges(edges(), lo, hi, label)
    except FormatError:
        raise
    except ValueError as exc:
        raise FormatError(str(exc), lineno) from None


def parse_graph(text: str) -> Graph:
    """Parse 0-indexed graph file content; reject loops and duplicate edges."""
    lines, lineno, n, m = _parse_header(text)
    if n < 1:
        raise FormatError(f"vertex count must be >= 1, got {n}", lineno)
    if m < 0:
        raise FormatError(f"edge count must be >= 0, got {m}", lineno)
    ordered = _parse_edges(lines, m, 0, n - 1, "vertex")
    return Graph(n, ordered, _adjacency(n, ordered))


def serialize_graph(graph: Graph) -> str:
    """Inverse of parse_graph; edges emitted sorted lexicographically."""
    lines = [f"{graph.n} {graph.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"


def parse_tree(text: str) -> Tree:
    """Parse 1-indexed tree file content: t+1 vertices, t edges, connected."""
    lines, lineno, n, m = _parse_header(text)
    if n < 2:
        raise FormatError(f"a tree needs at least 2 vertices, got {n}", lineno)
    if m != n - 1:
        kind = "cyclic" if m > n - 1 else "disconnected"
        raise FormatError(
            f"a tree on {n} vertices needs {n - 1} edges, got {m} ({kind})", lineno
        )
    ordered = _parse_edges(lines, m, 1, n, "tree vertex")
    try:
        return Tree._from_valid_edges(m, ordered)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def serialize_tree(tree: Tree) -> str:
    """Inverse of parse_tree; edges emitted sorted lexicographically."""
    lines = [f"{tree.t + 1} {tree.t}"]
    lines.extend(f"{u} {v}" for u, v in tree.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Good labelings


def _check_leaf(tree: Tree, x: int, label: str) -> None:
    """Raise ValueError unless x is a leaf of the tree; a vertex outside
    1..t+1 is refused before it can index the adjacency lists."""
    if x not in tree.vertices:
        raise ValueError(f"{label} {x} is not a vertex of the tree (1..{tree.t + 1})")
    if tree.tree_degree(x) != 1:
        raise ValueError(f"{label} {x} is not a leaf")


def _bfs_order(tree: Tree, start: int) -> list[int]:
    """The vertices reachable from ``start``, breadth first, each vertex's
    neighbors visited in ascending order."""
    order = [start]
    seen = {start}
    for u in order:
        for w in tree.adjacency[u]:
            if w not in seen:
                seen.add(w)
                order.append(w)
    return order


def good_labeling(tree: Tree, start_leaf: int | None = None) -> GoodLabeling:
    """Breadth-first good labeling rooted at a leaf.

    Defaults to the lowest-numbered leaf; children are visited in ascending
    vertex order, so the result is deterministic.  Every later vertex has
    exactly one earlier neighbor (its parent), and the last vertex is a leaf.
    """
    if start_leaf is None:
        start_leaf = tree.leaves[0]
    else:
        _check_leaf(tree, start_leaf, "start vertex")
    return _labeling_from_order(tree, _bfs_order(tree, start_leaf))


def _labeling_from_order(tree: Tree, order: list[int]) -> GoodLabeling:
    """Recover the parent function from an ordering, checking goodness."""
    position = {v: j for j, v in enumerate(order, 1)}
    parents = [0]
    for j, v in enumerate(order[1:], 2):
        earlier = [position[w] for w in tree.adjacency[v] if position[w] < j]
        if len(earlier) != 1:
            raise ValueError(f"vertex {v} at index {j} has {len(earlier)} earlier neighbors, need 1")
        parents.append(earlier[0])
    return GoodLabeling(tuple(order), tuple(parents))


def good_labeling_between(tree: Tree, first_leaf: int, last_leaf: int) -> GoodLabeling:
    """Good labeling with x_1 = first_leaf and x_{t+1} = last_leaf.

    Takes the breadth-first order from first_leaf and moves last_leaf to the
    final slot; a leaf's only constraint is that its parent comes earlier,
    so the move preserves goodness.
    """
    if first_leaf == last_leaf:
        raise ValueError("first and last leaves must be distinct")
    for leaf in (first_leaf, last_leaf):
        _check_leaf(tree, leaf, "vertex")
    order = [v for v in _bfs_order(tree, first_leaf) if v != last_leaf] + [last_leaf]
    return _labeling_from_order(tree, order)


# ---------------------------------------------------------------------------
# Tree presets


def path_tree(t: int) -> Tree:
    """Path with t edges: vertices 1..t+1 in a line."""
    if t < 1:
        raise ValueError(f"path needs t >= 1, got {t}")
    return Tree.from_edges((i, i + 1) for i in range(1, t + 1))


def star_tree(t: int) -> Tree:
    """Star with t edges: center 1, leaves 2..t+1."""
    if t < 1:
        raise ValueError(f"star needs t >= 1, got {t}")
    return Tree.from_edges((1, j) for j in range(2, t + 2))
