"""Instance plans for the four benchmark workloads.

A plan is a list of rounds, each a fixed list of operations ("ops"); the op
mix of every round is the same, so a run that completes whole rounds always
measures the same mix whatever its seed.  Every random instance is derived
from the workload seed, and instances are drawn until a size proxy (the
number of walks of a given length, computed here, not by the library) lies
within a tolerance of a per-class target.  The targets are the medians of
the proxy over seeds, so the chosen instances are typical ones; the
tolerance keeps op cost from swinging with the seed.  Within a plan of a
CLI workload no (graph, tree) pair repeats; the suite battery repeats its
fixed graphs by design.

Run as a script, this module is the benchmark's set-up step:

    python3 bench/workloads.py WORKLOAD SEED ROUNDS OUTDIR

It imports the library from ./src, generates the plan, writes every graph
and tree file into OUTDIR and the plan itself to OUTDIR/plan.json.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

WORKLOADS = ("suite", "verify", "scan", "sample")

FORK_EDGES = ((1, 2), (2, 3), (3, 4), (3, 5))

# Clique scans, one per scan round: (degree floor, trials) pairs whose P4
# copy counts all lie within 240k..470k, so rounds cost about the same while
# no clique graph repeats in a run.  This caps a scan plan at 9 rounds.
CLIQUE_SCHEDULE = ((8, 6), (7, 9), (9, 4), (6, 15), (10, 3), (5, 28), (11, 2), (13, 1), (12, 2))


def _walks(graph, length: int) -> int:
    """Number of walks with ``length`` edges: the instance size proxy."""
    vec = [1] * graph.n
    for _ in range(length):
        vec = [sum(vec[u] for u in graph.adjacency[x]) for x in range(graph.n)]
    return sum(vec)


def instance_key(graph, tree) -> str:
    """Short digest naming one (graph, tree) pair."""
    return hashlib.sha256(repr((graph.n, graph.edges, tree)).encode()).hexdigest()[:16]


def conjecture_trial_seeds(seed: int, trials: int) -> list[int]:
    """Per-trial generator seeds of a random-family conjecture scan."""
    rng = random.Random(seed)
    return [rng.randrange(2**32) for _ in range(trials)]


class _Planner:
    def __init__(self, tb, workload: str, seed: int, outdir: Path):
        self.tb = tb
        self.workload = workload
        self.seed = seed
        self.outdir = outdir
        self.seen: set[str] = set()
        fork = tb.serialize_tree(tb.Tree.from_edges(FORK_EDGES))
        self.tree_files = {"fork": self.write("fork.txt", fork)}

    def rng(self, *parts) -> random.Random:
        return random.Random(":".join(map(str, (self.workload, self.seed) + parts)))

    def write(self, name: str, text: str) -> str:
        path = self.outdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def tree_arg(self, tree: str) -> str:
        """The CLI --tree argument: a preset, or the file written for the fork."""
        return self.tree_files.get(tree, tree)

    def fresh(self, graphs, tree: str) -> list[str] | None:
        """Instance keys of the graphs with ``tree``, or None if one repeats."""
        keys = [instance_key(g, tree) for g in graphs]
        if len(set(keys)) < len(keys) or self.seen.intersection(keys):
            return None
        self.seen.update(keys)
        return keys

    def pick_graph(self, label, n, p, floor, tree, length, target, tol, r):
        """A fresh G(n, p | min degree >= floor) whose proxy is on target."""
        rng = self.rng(label, r)
        for _ in range(5000):
            try:
                graph = self.tb.gen_random_min_degree(n, p, floor, rng.randrange(2**31))
            except self.tb.RetryLimitExceeded:
                continue
            if abs(_walks(graph, length) / target - 1) <= tol:
                keys = self.fresh([graph], tree)
                if keys:
                    return graph, keys
        raise RuntimeError(f"no {label} instance near target {target} for round {r}")

    def pick_scan_seed(self, label, n, p, floor, trials, tree, length, target, tol, r):
        """A conjecture --seed whose trial graphs are fresh and on target."""
        rng = self.rng(label, r)
        for _ in range(5000):
            seed = rng.randrange(2**31)
            try:
                graphs = [
                    self.tb.gen_random_min_degree(n, p, floor, s)
                    for s in conjecture_trial_seeds(seed, trials)
                ]
            except self.tb.RetryLimitExceeded:
                continue
            proxy = sum(_walks(g, length) for g in graphs)
            if abs(proxy / target - 1) <= tol:
                keys = self.fresh(graphs, tree)
                if keys:
                    return seed, keys
        raise RuntimeError(f"no {label} scan seed near target {target} for round {r}")


# The seeded graphs of the suite battery (rand7, rand8) decide which rows
# meet the min-degree hypothesis, and so how many tables a battery builds:
# suite seeds are drawn until every graph has the most common minimum degree
# and the battery's proxy is within 3% of the median for that case.
SUITE_MIN_DEGREES = (3, 4, 3, 2, 2, 2, 2, 3, 4, 2, 3)
SUITE_TARGET = 11446


def _suite_round(pl: _Planner, r: int) -> list[dict]:
    rng = pl.rng(r)
    for _ in range(5000):
        seed = rng.randrange(2**31)
        config = pl.tb.standard_suite_config(seed)
        graphs = [g for _, g in config.graphs]
        if tuple(g.min_degree for g in graphs) != SUITE_MIN_DEGREES:
            continue
        if abs(sum(_walks(g, 4) for g in graphs) / SUITE_TARGET - 1) <= 0.03:
            keys = [instance_key(g, t.edges) for g in graphs for _, t in config.trees]
            return [{"name": "suite", "kind": "suite", "seed": seed, "instances": keys}]
    raise RuntimeError(f"no suite seed near target {SUITE_TARGET} for round {r}")


# (name, tree spec, n, p, proxy target) with min degree 4 and walks of length 4
VERIFY_CLASSES = (
    ("verify-P4", "path:4", 10, 0.6, 13952),
    ("verify-S4", "star:4", 11, 0.5, 12160),
    ("verify-fork", "fork", 9, 0.7, 12474),
)


def _verify_round(pl: _Planner, r: int) -> list[dict]:
    ops = []
    for name, tree, n, p, target in VERIFY_CLASSES:
        graph, keys = pl.pick_graph(name, n, p, 4, tree, 4, target, 0.03, r)
        path = pl.write(f"{name}-{r}.txt", pl.tb.serialize_graph(graph))
        tree_arg = pl.tree_arg(tree)
        ops.append({
            "name": name, "kind": "cli", "check": "verify", "instances": keys,
            "argv": ["verify", "--graph", path, "--tree", tree_arg],
            "graph": path, "tree": tree_arg,
        })
    return ops


# (name, tree spec, t, n, p, floor, trials, walk length, proxy target)
SCAN_CLASSES = (
    ("scan-P4", "path:4", 4, 32, 0.3, 6, 4, 4, 1408008),
    ("scan-P5", "path:5", 5, 18, 0.45, 6, 2, 5, 1958206),
    ("scan-fork", "fork", 4, 34, 0.3, 6, 4, 4, 1809626),
    ("scan-S4", "star:4", 4, 36, 0.3, 6, 3, 4, 1815822),
)
SCAN_COUNT = ("scan-count-S4", "star:4", 40, 0.3, 6, 972796)


def _scan_round(pl: _Planner, r: int) -> list[dict]:
    ops = []
    for name, tree, t, n, p, floor, trials, length, target in SCAN_CLASSES:
        seed, keys = pl.pick_scan_seed(name, n, p, floor, trials, tree, length, target, 0.03, r)
        argv = ["conjecture", "--family", "random", "--n", str(n), "--t", str(t),
                "--trials", str(trials), "--seed", str(seed), "--min-degree", str(floor),
                "--edge-probability", str(p), "--tree", pl.tree_arg(tree)]
        ops.append({
            "name": name, "kind": "cli", "check": "scan-random", "argv": argv, "instances": keys,
            "tree": pl.tree_arg(tree), "n": n, "p": p, "floor": floor,
            "trials": trials, "seed": seed, "t": t,
        })
    name, tree, n, p, floor, target = SCAN_COUNT
    graph, keys = pl.pick_graph(name, n, p, floor, tree, 4, target, 0.03, r)
    path = pl.write(f"{name}-{r}.txt", pl.tb.serialize_graph(graph))
    ops.append({
        "name": name, "kind": "cli", "check": "scan-count", "instances": keys,
        "argv": ["count", "--graph", path, "--tree", tree], "graph": path, "t": 4,
    })
    floor, trials = CLIQUE_SCHEDULE[r]
    graphs = [pl.tb.gen_disjoint_cliques(c, floor + 1) for c in range(1, trials + 1)]
    keys = pl.fresh(graphs, "path:4")
    if keys is None:
        raise RuntimeError(f"clique scan of round {r} repeats an instance")
    ops.append({
        "name": "scan-cliques", "kind": "cli", "check": "scan-cliques", "instances": keys,
        "argv": ["conjecture", "--family", "cliques", "--n", "1", "--t", "4",
                 "--trials", str(trials), "--seed", str(r), "--min-degree", str(floor)],
        "t": 4, "q": floor + 1,
    })
    return ops


# (name, subcommand, tree spec, n, p, floor, draws, proxy target = 2m)
SAMPLE_CLASSES = (
    ("sample-gtable-200", "gtable", "path:3", 200, 0.1, 5, 2000, 3994),
    ("sample-draws-200", "sample", "path:4", 200, 0.1, 5, 2000, 3994),
    ("sample-gtable-small", "gtable", "path:3", 6, 0.8, 3, 24000, 26),
)


def _sample_round(pl: _Planner, r: int) -> list[dict]:
    ops = []
    for name, command, tree, n, p, floor, draws, target in SAMPLE_CLASSES:
        graph, keys = pl.pick_graph(name, n, p, floor, tree, 1, target, 0.01, r)
        path = pl.write(f"{name}-{r}.txt", pl.tb.serialize_graph(graph))
        seed = pl.rng(name, "draws", r).randrange(2**31)
        argv = [command, "--graph", path, "--tree", tree, "--samples", str(draws),
                "--seed", str(seed)]
        if command == "gtable":
            argv += ["--measure", "P"]
        ops.append({
            "name": name, "kind": "cli", "check": f"sample-{command}", "argv": argv,
            "instances": keys,
            "graph": path, "tree": tree, "samples": draws,
        })
    return ops


_ROUNDS = {
    "suite": _suite_round,
    "verify": _verify_round,
    "scan": _scan_round,
    "sample": _sample_round,
}


def plan_rounds(workload: str, seconds: int) -> int:
    """Rounds to plan: enough for a program several times faster than today."""
    if workload == "scan":
        return len(CLIQUE_SCHEDULE)
    return max(4, (3 if workload == "suite" else 2) * seconds)


def make_plan(tb, workload: str, seed: int, rounds: int, outdir: Path) -> list[list[dict]]:
    """Generate ``rounds`` rounds of ops for ``workload`` and write their files."""
    outdir.mkdir(parents=True, exist_ok=True)
    pl = _Planner(tb, workload, seed, outdir)
    return [_ROUNDS[workload](pl, r) for r in range(rounds)]


def main(argv: list[str]) -> int:
    workload, seed, rounds, outdir = argv[0], int(argv[1]), int(argv[2]), Path(argv[3])
    sys.path.insert(0, str(Path.cwd() / "src"))
    import treebound

    plan = make_plan(treebound, workload, seed, rounds, outdir)
    (outdir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
