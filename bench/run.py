"""The treebound benchmark: four closed-loop workloads against the library and CLI.

    python3 bench/run.py --workload {suite,verify,scan,sample,all} \\
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a treebound checkout; it imports the library from
./src and launches ``python -m treebound.cli`` with ./src on PYTHONPATH.

Each workload is a closed loop with one client: the next op starts when the
previous one has finished, at most one child process runs at a time, and no
threads are started.  The run and its children are pinned to one CPU.
Set-up (imports, instance generation, writing the graph and tree files)
runs in a fresh child process three times; ``setup_s`` is the median.  The
loop then runs whole rounds of ops (see workloads.py) until ``--seconds``
have passed.  Every op's output is checked after its timed span, and the
sha256 of its result payload is recorded (and compared with
bench/reference_digests.json when the seed is the reference seed).  Set-up
and op times are scaled to a reference machine speed (see SpeedGauge); the
run record also gives them unscaled.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The traced run
runs every op twice, once plain and once under the span tracer
(tracing.py), so ``trace_overhead`` compares like with like.  A JSON line
before it records the run: Python version, nproc, git commit, op counts,
digests, repeated-instance share and any failures.

Exit status is 0 when a result was printed; 2 when the directory is not a
treebound checkout or set-up failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
# Median time of reference_task() on the 2-vCPU VM where the bounds were set.
REFERENCE_TASK_S = 0.037
OP_TIMEOUT_S = 120
REFERENCE_SEED = 0
REFERENCE_FILE = BENCH / "reference_digests.json"

# what items_per_s counts, per workload, with its name in the issue's terms
ITEMS = {
    "suite": "rows_per_s",
    "verify": "instances_per_s",
    "scan": "copies_per_s",
    "sample": "draws_per_s",
}
# the span that delimits one instance, for harness.passes_per_instance
INSTANCE_SPAN = {
    "suite": "harness._build_row",
    "verify": "cli.main",
    "scan": "counting.count_copies",
    "sample": None,
}


class SetupFailed(RuntimeError):
    pass


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def reference_task() -> float:
    """Time a fixed pure-Python task to gauge how fast the machine runs right now.

    It does the library's kind of work (exact rational sums and deep
    ``yield from`` recursion) and none of the library's code, so a change to
    the program cannot move it.
    """
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 1200):
        total += Fraction(1, i % 89 + 2)

    def walk(depth):
        if depth == 0:
            yield 1
            return
        for _ in range(6):
            yield from walk(depth - 1)

    sum(walk(6))
    return time.perf_counter() - start


class SpeedGauge:
    """Scales wall times to the reference speed, one timed span at a time.

    The reference task runs once before the first span and once after each;
    a span's factor is REFERENCE_TASK_S over the mean of the two reference
    times around it.
    """

    def __init__(self):
        self.last = reference_task()
        self.factors: list[float] = []

    def scale(self, wall: float) -> float:
        now = reference_task()
        factor = REFERENCE_TASK_S / ((self.last + now) / 2)
        self.last = now
        self.factors.append(factor)
        return wall * factor


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


def run_child(argv: list[str], cwd: Path, env: dict, out: Path, err: Path):
    """Run one child to completion; return (exit code, wall seconds, max RSS KiB)."""
    with open(out, "wb") as fout, open(err, "wb") as ferr:
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fout, stderr=ferr)
        signal.alarm(OP_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(child.pid, 0)
            code = os.waitstatus_to_exitcode(status)
        except BaseException as exc:  # the op timed out, or this run is being stopped
            child.kill()
            _, _, usage = os.wait4(child.pid, 0)
            child.returncode = code = -1
            if not isinstance(exc, _Timeout):
                raise
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - start
    child.returncode = code
    return code, wall, usage.ru_maxrss


# ---------------------------------------------------------------------------
# Output checks: each returns a list of failure messages and the op's items


def _read_graph(tb, path: str):
    """Parse a graph file with the benchmark's own reader."""
    lines = [
        line.split()
        for line in Path(path).read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    n = int(lines[0][0])
    return tb.Graph.from_edges(n, [(int(u), int(v)) for u, v in lines[1:]])


def _tree(tb, spec: str):
    kind, _, size = spec.partition(":")
    if kind == "path" and size:
        return tb.path_tree(int(size))
    if kind == "star" and size:
        return tb.star_tree(int(size))
    return tb.Tree.from_edges(workloads.FORK_EDGES)


def _star_copies(graph, t: int) -> int:
    return sum(math.factorial(t) * math.comb(len(a), t) for a in graph.adjacency)


def check_suite(tb, op, payload) -> tuple[list[str], int]:
    problems = []
    rows = payload["rows"]
    for row in rows:
        where = f"{row['graph']}/{row['tree']}"
        if row["error"] is not None:
            problems.append(f"{where}: error row {row['error']}")
            continue
        for name in ("copies_local", "homs_local", "walks_blakley_roy"):
            bound = row["bounds"][name]
            if bound["applicable"] and not bound["holds"]:
                problems.append(f"{where}: {name} does not hold")
        if row["homTableEqual"] is not True:
            problems.append(f"{where}: hom table differs from the degree profile")
        if row["slackMajorant"] is not None and Fraction(row["slackMajorant"]) < 0:
            problems.append(f"{where}: negative majorant slack")
    return problems, sum(row["error"] is None for row in rows)


def check_verify(tb, op, result) -> tuple[list[str], int]:
    # the oracle module imports numpy; keep its BLAS from starting worker threads
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    from tests.oracles import copies_by_permutations

    problems = []
    if result["allPassed"] is not True:
        problems.append("not all checks passed")
    if result["skipped"] != 0:
        problems.append(f"{result['skipped']} checks skipped")
    expected = copies_by_permutations(_read_graph(tb, op["graph"]), _tree(tb, op["tree"]))
    if result.get("chain", {}).get("omegaCount") != str(expected):
        problems.append(f"omegaCount != {expected}")
    return problems, int(not problems)


def check_scan_random(tb, op, result) -> tuple[list[str], int]:
    problems = []
    rows = result["rows"]
    seeds = workloads.conjecture_trial_seeds(op["seed"], op["trials"])
    if len(rows) != op["trials"]:
        problems.append(f"{len(rows)} rows for {op['trials']} trials")
    for row, seed in zip(rows, seeds):
        if row["error"] is not None or row["verdict"] not in ("holds", "violated"):
            problems.append(f"{row['instance']}: {row['verdict']} {row['error']}")
            continue
        if not row["instance"].endswith(f"seed={seed})"):
            problems.append(f"{row['instance']}: expected trial seed {seed}")
        if op["tree"].startswith("star:"):
            graph = tb.gen_random_min_degree(op["n"], op["p"], op["floor"], seed)
            if int(row["copies"]) != _star_copies(graph, op["t"]):
                problems.append(f"{row['instance']}: star count {row['copies']} is wrong")
        elif int(row["copies"]) <= 0:
            problems.append(f"{row['instance']}: no copies")
    return problems, sum(int(row["copies"] or 0) for row in rows)


def check_scan_count(tb, op, result) -> tuple[list[str], int]:
    expected = _star_copies(_read_graph(tb, op["graph"]), op["t"])
    problems = [] if result["count"] == str(expected) else [f"count != {expected}"]
    return problems, int(result["count"])


def check_scan_cliques(tb, op, result) -> tuple[list[str], int]:
    problems = []
    q, t = op["q"], op["t"]
    for row in result["rows"]:
        expected = row["n"] * math.prod(q - 1 - j for j in range(t))
        if row["copies"] != str(expected):
            problems.append(f"{row['instance']}: {row['copies']} copies, expected {expected}")
    return problems, sum(int(row["copies"] or 0) for row in result["rows"])


def check_sample_gtable(tb, op, result) -> tuple[list[str], int]:
    problems = []
    if result["rowSums"] != ["1/1"] * len(result["rowSums"]):
        problems.append(f"row sums {result['rowSums']}")
    for i, row in enumerate(result["table"]["rows"], 1):
        if sum(Fraction(x) for x in row) != 1:
            problems.append(f"table row {i} does not sum to 1")
    if result["samples"] != op["samples"]:
        problems.append(f"{result['samples']} samples for {op['samples']}")
    return problems, op["samples"]


def check_sample_draws(tb, op, result) -> tuple[list[str], int]:
    problems = []
    graph = _read_graph(tb, op["graph"])
    tree = _tree(tb, op["tree"])
    order = tb.good_labeling(tree).order
    slot = {vertex: j for j, vertex in enumerate(order)}
    total = 0
    for key, count in result["frequencies"].items():
        total += count
        verts = [int(v) for v in key.split()]
        if len(verts) != len(order) or len(set(verts)) != len(verts):
            problems.append(f"draw {key} is not injective")
        elif not all(graph.has_edge(verts[slot[a]], verts[slot[b]]) for a, b in tree.edges):
            problems.append(f"draw {key} is not a copy of the tree")
    if total != op["samples"]:
        problems.append(f"frequencies sum to {total}, not {op['samples']}")
    return problems, total


CHECKS = {
    "verify": check_verify,
    "scan-random": check_scan_random,
    "scan-count": check_scan_count,
    "scan-cliques": check_scan_cliques,
    "sample-gtable": check_sample_gtable,
    "sample-sample": check_sample_draws,
}


# ---------------------------------------------------------------------------
# The run


class Run:
    def __init__(self, root: Path, workload: str, seed: int, seconds: int, trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".bench_work"))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        self.op_times: dict[str, list[float]] = {}
        self.traced_times: list[float] = []
        self.plain_times: list[float] = []
        self.raw_op_times: list[float] = []
        self.setup_times: list[float] = []
        self.raw_setup_times: list[float] = []
        self.gauge: SpeedGauge | None = None
        self.items = 0
        self.peak_rss_kib = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: list[list] = []
        self.instances: list[str] = []
        self.trace_total: dict = {}
        self.tracer = tracing.Tracer()

    # -- set-up --------------------------------------------------------------

    def setup(self) -> list[list[dict]]:
        rounds = workloads.plan_rounds(self.workload, self.seconds)
        gauge = SpeedGauge()
        for i in range(SETUP_REPEATS):
            outdir = self.work / f"setup-{i}"
            argv = [sys.executable, str(BENCH / "workloads.py"), self.workload,
                    str(self.seed), str(rounds), str(outdir)]
            code, wall, _ = run_child(argv, self.root, self.env,
                                      self.work / "setup.out", self.work / "setup.err")
            if code != 0:
                raise SetupFailed((self.work / "setup.err").read_text(errors="replace"))
            self.raw_setup_times.append(wall)
            self.setup_times.append(gauge.scale(wall))
        return json.loads((outdir / "plan.json").read_text(encoding="utf-8"))

    # -- ops -----------------------------------------------------------------

    def run_suite_op(self, tb, op) -> tuple[float, dict, str]:
        start = time.perf_counter()
        rows = tb.run_suite(tb.standard_suite_config(op["seed"], include_gtables=True))
        csv_text = tb.suite_to_csv(rows)
        json_text = json.dumps(tb.suite_to_json(rows, include_gtables=True), sort_keys=True)
        wall = time.perf_counter() - start
        payload = json.loads(json_text)
        return wall, payload, _sha256(csv_text) + ":" + _sha256(json_text)

    def run_cli_op(self, op, traced: bool) -> tuple[float, dict | None, str, list[str]]:
        out = self.work / "op.out"
        err = self.work / "op.err"
        if traced:
            summary_file = self.work / "spans.json"
            argv = [sys.executable, str(BENCH / "shim.py"), str(summary_file),
                    str(INSTANCE_SPAN[self.workload])] + op["argv"]
        else:
            argv = [sys.executable, "-m", "treebound.cli"] + op["argv"]
        code, wall, rss = run_child(argv, self.root, self.env, out, err)
        self.peak_rss_kib = max(self.peak_rss_kib, rss)
        if code != 0:
            stderr = err.read_text(errors="replace").strip().splitlines()
            return wall, None, "", [f"exit code {code}: {stderr[-1] if stderr else ''}"]
        result = json.loads(out.read_text(encoding="utf-8"))["result"]
        if traced:
            summary = json.loads(summary_file.read_text(encoding="utf-8"))
            main_s = summary["names"].get("cli.main", [0, 0.0, 0, 0.0])[3]
            summary["names"]["cli.startup"] = [1, wall - main_s, 0, wall - main_s]
            tracing.merge(self.trace_total, summary)
        digest = _sha256(json.dumps(result, sort_keys=True, separators=(",", ":")))
        return wall, result, digest, []

    def run_op(self, tb, r: int, op: dict, traced: bool, reference: dict) -> None:
        self.attempted += 1
        label = f"{r}/{op['name']}"
        try:
            if op["kind"] == "suite":
                if traced:
                    self.tracer.op = label
                    self.tracer.install()
                try:
                    wall, result, digest = self.run_suite_op(tb, op)
                finally:
                    self.tracer.uninstall()
                problems = []
                self.peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            else:
                wall, result, digest, problems = self.run_cli_op(op, traced)
            if result is not None:
                check = check_suite if op["kind"] == "suite" else CHECKS[op["check"]]
                found, items = check(tb, op, result)
                problems += found
                if not traced:
                    self.items += items
            if digest and label in reference and reference[label] != digest:
                problems.append("payload digest differs from the reference")
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            wall, digest, problems = None, "", [f"{type(exc).__name__}: {exc}"]
        if wall is not None:
            (self.traced_times if traced else self.plain_times).append(wall)
            if not self.trace:
                self.op_times.setdefault(op["name"], []).append(self.gauge.scale(wall))
        if not traced:
            self.digests.append([label, digest])
        if problems:
            self.failures.append(f"{label}{' (traced)' if traced else ''}: {'; '.join(problems[:3])}")

    def loop(self, tb, plan: list[list[dict]], record: bool) -> None:
        """Run whole rounds until the window closes (or every round, when recording)."""
        reference = {}
        if self.seed == REFERENCE_SEED and REFERENCE_FILE.is_file() and not record:
            reference = json.loads(REFERENCE_FILE.read_text())["digests"].get(self.workload, {})
        if not self.trace:
            self.gauge = SpeedGauge()
        deadline = time.perf_counter() + self.seconds
        self.rounds = 0
        for r, ops in enumerate(plan):
            if r and time.perf_counter() >= deadline and not record:
                break
            # a traced run runs each op plain and traced, alternating which goes first
            modes = ((False, True), (True, False))[r % 2] if self.trace else (False,)
            for op in ops:
                self.instances += op["instances"]
                for traced in modes:
                    self.run_op(tb, r, op, traced, reference)
            self.rounds += 1

    # -- metrics -------------------------------------------------------------

    def end_to_end(self) -> dict:
        """The end-to-end metrics, with every time scaled to the reference speed.

        The shared VM's speed drifts by a quarter over minutes, for every
        process alike.  The reference task, timed around each op on the same
        CPU, tracks that drift (see SpeedGauge).  The run record keeps the
        unscaled figures.
        """
        op_time = sum(map(sum, self.op_times.values()))
        self.unscaled = {
            "setup_s": statistics.median(self.raw_setup_times),
            "op_s_p50": statistics.median(self.plain_times),
            "items_per_s": self.items / sum(self.plain_times),
        }
        return {
            "setup_s": statistics.median(self.setup_times),
            # the mean of each op kind's median, so the figure does not jump
            # between kinds as the op count changes
            "op_s_p50": statistics.fmean(map(statistics.median, self.op_times.values())),
            "items_per_s": self.items / op_time,
            "peak_rss_mb": self.peak_rss_kib / 1024,
        }

    def per_layer(self) -> dict:
        ops = len(self.traced_times)
        if self.workload == "suite":
            tracing.merge(self.trace_total, self.tracer.summary(INSTANCE_SPAN["suite"]))
        names = self.trace_total.get("names", {})

        def total(name, field):
            return names.get(name, [0, 0.0, 0, 0.0])[field]

        def per_op(name, field):
            return total(name, field) / ops

        metrics = {}
        for name in (tracing.COPY_PASS, tracing.HOM_PASS):
            metrics[f"{name}.passes"] = per_op(name, 0)
            metrics[f"{name}.yielded"] = per_op(name, 2)
            metrics[f"{name}.self_s"] = per_op(name, 1)
        for name in ("counting.count_copies", "counting.count_homomorphisms",
                     "counting.count_walks"):
            metrics[f"{name}.self_s"] = per_op(name, 1)
        cost = total("counting.count_copies", 3)
        metrics["counting.count_copies.copies_per_s"] = (
            total("counting.count_copies", 2) / cost if cost else 0.0
        )
        for kind in ("P", "p", "Pprime"):
            metrics[f"measure.g_table_exact.{kind}.calls"] = per_op(f"measure.g_table_exact.{kind}", 0)
            metrics[f"measure.g_table_exact.{kind}.self_s"] = per_op(f"measure.g_table_exact.{kind}", 1)
        for name in ("measure.weight", "measure.reversal_check", "measure.product_form_check",
                     "measure.sample_embedding", "bounds.evaluate_bounds"):
            metrics[f"{name}.calls"] = per_op(name, 0)
            metrics[f"{name}.self_s"] = per_op(name, 1)
        draws = total("measure.sample_embedding", 0)
        metrics["measure.sample_embedding.us_per_draw"] = (
            1e6 * total("measure.sample_embedding", 3) / draws if draws else 0.0
        )
        for name in ("measure.verify_chain", "measure.g_table_monte_carlo",
                     "harness.run_suite", "harness.instance_checks", "harness.conjecture_scan",
                     "harness.suite_to_csv", "harness.suite_to_json",
                     "harness.conjecture_to_json", "graphs.parse_graph", "graphs.parse_tree",
                     "graphs.gen_random_min_degree", "cli.main"):
            metrics[f"{name}.self_s"] = per_op(name, 1)
        metrics["graphs.good_labeling.calls"] = per_op("graphs.good_labeling", 0)
        metrics["graphs.gen_random_min_degree.setup_s"] = self.setup_generation_s
        instances = self.trace_total.get("instances", 0)
        copy_passes = self.trace_total.get("copy_passes", 0)
        hom_passes = self.trace_total.get("hom_passes", 0)
        metrics["harness.instances"] = instances
        metrics["harness.copy_passes_per_instance"] = copy_passes / instances if instances else 0.0
        metrics["harness.hom_passes_per_instance"] = hom_passes / instances if instances else 0.0
        metrics["harness.passes_per_instance"] = (
            (copy_passes + hom_passes) / instances if instances else 0.0
        )
        metrics["cli.startup_s"] = per_op("cli.startup", 1)
        metrics["trace_overhead"] = sum(self.traced_times) / sum(self.plain_times)
        return metrics

    def traced_setup(self, tb) -> None:
        """Generate one plan in-process under the tracer, for the generator's set-up share."""
        tracer = tracing.Tracer()
        tracer.install()
        try:
            workloads.make_plan(tb, self.workload, self.seed,
                                workloads.plan_rounds(self.workload, self.seconds),
                                self.work / "traced-setup")
        finally:
            tracer.uninstall()
        self.setup_generation_s = tracer.summary(None)["names"].get(
            "graphs.gen_random_min_degree", [0, 0.0, 0, 0.0])[1]

    def repeat_share(self) -> float:
        return 1 - len(set(self.instances)) / len(self.instances)

    def report(self, metrics: dict, units: dict) -> dict:
        median_ops = {
            "op_s_p50": sum(map(len, self.op_times.values())),
            "setup_s": len(self.setup_times),
        }
        items_name = ITEMS[self.workload]
        record = {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "commit": _git_commit(self.root),
            "rounds": self.rounds,
            "attempted": self.attempted,
            "fail_ratio": len(self.failures) / self.attempted,
            "median_counts": median_ops,
            "repeat_share": self.repeat_share(),
            "digests": self.digests,
            "failures": self.failures[:20],
        }
        if not self.trace:
            record[items_name] = metrics["items_per_s"]
            record["speed_scale_p50"] = statistics.median(self.gauge.factors)
            record["unscaled"] = self.unscaled
        print(json.dumps({"run": record}))
        for name, value in metrics.items():
            note = ""
            if name in median_ops:
                note = f"  (median of {median_ops[name]})"
            elif name == "items_per_s":
                note = f"  ({items_name})"
            print(f"{self.workload:7s} {name:42s} {value:14.6g} {units[name]}{note}")
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }

    def record_digests(self) -> None:
        """Store this run's payload digests as the reference for its workload."""
        spec = {"seed": REFERENCE_SEED, "digests": {}}
        if REFERENCE_FILE.is_file():
            spec = json.loads(REFERENCE_FILE.read_text())
        spec["digests"][self.workload] = dict(self.digests)
        REFERENCE_FILE.write_text(json.dumps(spec, indent=1, sort_keys=True) + "\n")

    def execute(self, record: bool = False) -> dict:
        plan = self.setup()
        sys.path.insert(0, str(self.root / "src"))
        sys.path.insert(0, str(self.root))
        import treebound as tb

        self.loop(tb, plan, record)
        if record and not self.failures:
            self.record_digests()
        if self.trace:
            self.traced_setup(tb)
            metrics = self.per_layer()
        else:
            metrics = self.end_to_end()
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        kind = "per_layer" if self.trace else "end_to_end"
        return self.report(metrics, {item["name"]: item["unit"] for item in spec[kind]})


def run_all(args, root: Path) -> int:
    """Run every workload in its own process and print one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=root, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            return 2
        print("\n".join(line for line in lines[:-1] if not line.startswith('{"run"')))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests", action="store_true",
        help=f"run every planned round and store the digests as the reference "
        f"(seed {REFERENCE_SEED} only)",
    )
    args = parser.parse_args(argv)
    if args.record_digests and (args.seed != REFERENCE_SEED or args.trace or args.workload == "all"):
        parser.error(f"--record-digests needs one workload, --seed {REFERENCE_SEED} and --trace 0")
    root = Path.cwd()
    if not (root / "src" / "treebound" / "__init__.py").is_file() or not (
        root / "tests" / "oracles.py"
    ).is_file():
        print("error: run from the root of a treebound checkout (src/treebound, tests/oracles.py)",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, root)
    signal.signal(signal.SIGALRM, _on_alarm)
    # on SIGTERM, unwind so the running child is killed and scratch files go
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # one CPU for this process and all its children, so that the reference
    # task runs where the ops run
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    (root / ".bench_work").mkdir(exist_ok=True)
    run = Run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = run.execute(args.record_digests)
    except SetupFailed as exc:
        print(f"error: set-up failed:\n{exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            (root / ".bench_work").rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
