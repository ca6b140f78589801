"""Command-line front end with deterministic, machine-readable output.

Every subcommand writes a single result payload to stdout and keeps
diagnostics on stderr so the tool composes in pipelines.  JSON output wraps
the payload in an envelope carrying the echoed command, sha256 digests of
the inputs, a schemaVersion, and the elapsed time; identical inputs and
seeds reproduce the payload bit for bit (elapsed time excluded).  CSV
output prints the payload as a flat table on stdout and moves the envelope
metadata to stderr.

Exit codes: 0 success, 1 invariant failure, 2 usage, 3 input format,
4 work cap.  The environment variable TREEBOUND_WORK_CAP overrides the
default search-node cap; a command that reads it exits 2 when it is not an
integer >= 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

# Every command needs these; each handler imports the rest of what it runs,
# so a command loads (and compiles, without a bytecode cache) no more.
from .counting import count_copies, count_homomorphisms, count_walks
from .errors import FormatError, RetryLimitExceeded, WorkCapExceeded
from .formats import SCHEMA_VERSION, csv_table, format_log, format_rational
from .graphs import (
    Graph,
    Tree,
    gen_complete_bipartite,
    gen_cycle,
    gen_disjoint_cliques,
    gen_random_min_degree,
    good_labeling,
    parse_graph,
    parse_tree,
    path_tree,
    serialize_graph,
    serialize_tree,
    star_tree,
)

WORK_CAP_ENV = "TREEBOUND_WORK_CAP"

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_WORK_CAP = 4


def _work_cap() -> int | None:
    raw = os.environ.get(WORK_CAP_ENV)
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{WORK_CAP_ENV} must be an integer, got {raw!r}") from None
    if cap < 0:
        raise ValueError(f"work cap must be >= 0, got {cap}")
    return cap


def _digest(text: str) -> str:
    # hashlib loads OpenSSL; a conjecture scan without --tree has no input to digest
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load_graph(source: str, inputs: dict) -> Graph:
    text = Path(source).read_text(encoding="utf-8")
    inputs["graph"] = {"source": source, "sha256": _digest(text)}
    return parse_graph(text)


def _load_tree(source: str, inputs: dict) -> Tree:
    """A tree file path, or the presets path:T / star:T."""
    kind, sep, arg = source.partition(":")
    if sep and kind in ("path", "star"):
        try:
            t = int(arg)
        except ValueError:
            raise ValueError(f"tree preset needs an integer size, got {source!r}") from None
        tree = path_tree(t) if kind == "path" else star_tree(t)
        text = serialize_tree(tree)
    else:
        text = Path(source).read_text(encoding="utf-8")
        tree = parse_tree(text)
    inputs["tree"] = {"source": source, "sha256": _digest(text)}
    return tree


# ---------------------------------------------------------------------------
# Handlers: each returns (payload, csv header, csv rows, exit code)


def _cmd_count(args, inputs):
    graph = _load_graph(args.graph, inputs)
    tree = _load_tree(args.tree, inputs)
    result = count_copies(graph, tree, work_cap=_work_cap())
    payload = {"count": str(result.value), "method": result.method}
    return payload, ["count", "method"], [[str(result.value), result.method]], EXIT_OK


def _cmd_hom(args, inputs):
    graph = _load_graph(args.graph, inputs)
    tree = _load_tree(args.tree, inputs)
    result = count_homomorphisms(graph, tree)
    payload = {"count": str(result.value), "method": result.method}
    return payload, ["count", "method"], [[str(result.value), result.method]], EXIT_OK


def _cmd_walks(args, inputs):
    graph = _load_graph(args.graph, inputs)
    result = count_walks(graph, args.length)
    payload = {"count": str(result.value), "length": args.length}
    return payload, ["count", "length"], [[str(result.value), args.length]], EXIT_OK


def _cmd_bounds(args, inputs):
    from .bounds import evaluate_bounds

    graph = _load_graph(args.graph, inputs)
    report = evaluate_bounds(graph, args.t, args.k)
    bounds_json = {}
    rows = []
    for name, bound in report.named_bounds().items():
        if bound.applicable:
            bounds_json[name] = {"applicable": True, "log": format_log(bound.log_value)}
            rows.append([name, "true", f"{bound.log_value:.15g}", ""])
        else:
            bounds_json[name] = {"applicable": False, "reason": bound.reason}
            rows.append([name, "false", "", bound.reason])
    payload = {
        "n": report.n,
        "m": report.edge_count,
        "d": format_rational(report.average_degree),
        "minDegree": graph.min_degree,
        "t": report.t,
        "k": report.k,
        "bounds": bounds_json,
    }
    return payload, ["bound", "applicable", "log", "reason"], rows, EXIT_OK


def _cmd_gtable(args, inputs):
    from .measure import MeasureKind, g_table_exact, g_table_monte_carlo

    graph = _load_graph(args.graph, inputs)
    tree = _load_tree(args.tree, inputs)
    kind = MeasureKind.from_token(args.measure)
    labeling = good_labeling(tree)
    if args.samples is not None:
        if kind is not MeasureKind.ISO:
            raise ValueError("Monte Carlo estimation is defined for --measure P only")
        table = g_table_monte_carlo(graph, tree, labeling, args.samples, args.seed)
        mode = "monte-carlo"
    else:
        table = g_table_exact(graph, tree, labeling, kind, work_cap=_work_cap())
        mode = "exact"
    payload = {
        "measure": args.measure,
        "mode": mode,
        "table": table.to_json_dict(),
        "rowSums": [format_rational(table.row_sum(i)) for i in range(1, table.positions + 1)],
        "minSlack": format_rational(table.min_slack(graph)),
    }
    if args.samples is not None:
        payload["samples"] = args.samples
        payload["seed"] = args.seed
    if kind is MeasureKind.HOM:
        payload["equalsDegreeProfile"] = table.equals_degree_profile(graph)
    rows = [
        [i, v, format_rational(table.g(i, v))]
        for i in range(1, table.positions + 1)
        for v in range(table.n)
    ]
    return payload, ["i", "v", "weight"], rows, EXIT_OK


def _cmd_sample(args, inputs):
    import random
    from collections import Counter

    from .measure import sample_embeddings

    graph = _load_graph(args.graph, inputs)
    tree = _load_tree(args.tree, inputs)
    draws = sample_embeddings(
        graph, tree, good_labeling(tree), random.Random(args.seed), args.samples
    )
    frequencies = Counter(emb.vertices for emb in draws)
    table = {
        " ".join(map(str, verts)): count
        for verts, count in sorted(frequencies.items())
    }
    payload = {
        "samples": args.samples,
        "seed": args.seed,
        "distinctEmbeddings": len(table),
        "frequencies": table,
    }
    rows = [[key, count] for key, count in table.items()]
    return payload, ["embedding", "count"], rows, EXIT_OK


def _cmd_verify(args, inputs):
    from .harness import instance_report

    graph = _load_graph(args.graph, inputs)
    tree = _load_tree(args.tree, inputs)
    checks, chain = instance_report(graph, tree, work_cap=_work_cap())
    failed = [c for c in checks if c.passed is False]
    skipped = [c for c in checks if c.passed is None]
    payload = {
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
        ],
        "allPassed": not failed,
        "skipped": len(skipped),
    }
    if chain is not None:
        # informational: links are measured, never asserted
        payload["chain"] = chain.to_json_dict()
    rows = [
        [c.name, "" if c.passed is None else str(c.passed).lower(), c.detail]
        for c in checks
    ]
    code = EXIT_OK if not failed else EXIT_INVARIANT
    return payload, ["check", "passed", "detail"], rows, code


def _cmd_conjecture(args, inputs):
    from .harness import (
        ConjectureScanConfig,
        conjecture_csv_rows,
        conjecture_scan,
        conjecture_to_json,
    )

    tree = _load_tree(args.tree, inputs) if args.tree else None
    config = ConjectureScanConfig(
        family=args.family,
        n=args.n,
        t=args.t,
        trials=args.trials,
        seed=args.seed,
        min_degree=args.min_degree,
        edge_probability=args.edge_probability,
        tree=tree,
        work_cap=_work_cap(),
    )
    rows = conjecture_scan(config)
    return (conjecture_to_json(rows), *conjecture_csv_rows(rows), EXIT_OK)


def _cmd_gen(args, inputs):
    if args.family == "cliques":
        graph = gen_disjoint_cliques(args.c, args.q)
        params = {"c": args.c, "q": args.q}
    elif args.family == "cycle":
        graph = gen_cycle(args.n)
        params = {"n": args.n}
    elif args.family == "complete-bipartite":
        graph = gen_complete_bipartite(args.a, args.b)
        params = {"a": args.a, "b": args.b}
    else:
        graph = gen_random_min_degree(
            args.n, args.p, args.min_degree, args.seed, max_tries=args.max_tries
        )
        params = {
            "n": args.n,
            "p": args.p,
            "minDegree": args.min_degree,
            "seed": args.seed,
        }
    text = serialize_graph(graph)
    payload = {
        "family": args.family,
        "params": params,
        "n": graph.n,
        "m": graph.edge_count,
        "minDegree": graph.min_degree,
        "sha256": _digest(text),
    }
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        payload["path"] = args.output
    else:
        payload["content"] = text
    row = [args.family, graph.n, graph.edge_count, graph.min_degree, args.output or ""]
    return payload, ["family", "n", "m", "min_degree", "path"], [row], EXIT_OK


_HANDLERS = {
    "count": _cmd_count,
    "hom": _cmd_hom,
    "walks": _cmd_walks,
    "bounds": _cmd_bounds,
    "gtable": _cmd_gtable,
    "sample": _cmd_sample,
    "verify": _cmd_verify,
    "conjecture": _cmd_conjecture,
    "gen": _cmd_gen,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treebound",
        description="Count tree copies in graphs and check the bounds they satisfy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_format(p):
        p.add_argument("--format", choices=["json", "csv"], default="json")
        return p

    p = with_format(sub.add_parser("count", help="exact injective copy count"))
    p.add_argument("--graph", required=True)
    p.add_argument("--tree", required=True, help="tree file, or path:T / star:T")

    p = with_format(sub.add_parser("hom", help="exact homomorphism count"))
    p.add_argument("--graph", required=True)
    p.add_argument("--tree", required=True)

    p = with_format(sub.add_parser("walks", help="exact walk count"))
    p.add_argument("--graph", required=True)
    p.add_argument("--length", type=int, required=True)

    p = with_format(sub.add_parser("bounds", help="evaluate all lower bounds in log space"))
    p.add_argument("--graph", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, default=None)

    p = with_format(sub.add_parser("gtable", help="per-index vertex weight table"))
    p.add_argument("--graph", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--measure", choices=["P", "p", "Pprime"], required=True)
    p.add_argument("--samples", type=int, default=None, help="Monte Carlo draws (default: exact)")
    p.add_argument("--seed", type=int, default=0)

    p = with_format(sub.add_parser("sample", help="draw embeddings from the process"))
    p.add_argument("--graph", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = with_format(sub.add_parser("verify", help="run all instance invariants"))
    p.add_argument("--graph", required=True)
    p.add_argument("--tree", required=True)

    p = with_format(sub.add_parser("conjecture", help="scan the falling-factorial bound"))
    p.add_argument("--family", choices=["cliques", "random"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--min-degree", type=int, default=None, help="degree floor (default: 2t)"
    )
    p.add_argument("--edge-probability", type=float, default=0.5)
    p.add_argument("--tree", default=None, help="override the default t-edge path")

    p = sub.add_parser("gen", help="write a generated graph file")
    gen_sub = p.add_subparsers(dest="family", required=True)

    def gen_parser(name):
        q = with_format(gen_sub.add_parser(name))
        q.add_argument("-o", "--output", default=None)
        return q

    q = gen_parser("cliques")
    q.add_argument("c", type=int)
    q.add_argument("q", type=int)
    q = gen_parser("cycle")
    q.add_argument("n", type=int)
    q = gen_parser("complete-bipartite")
    q.add_argument("a", type=int)
    q.add_argument("b", type=int)
    q = gen_parser("random")
    q.add_argument("n", type=int)
    q.add_argument("p", type=float)
    q.add_argument("min_degree", type=int)
    q.add_argument("seed", type=int)
    q.add_argument("--max-tries", type=int, default=1000)

    return parser


def _emit(args, argv, inputs, payload, header, rows, elapsed) -> None:
    envelope = {
        "schemaVersion": SCHEMA_VERSION,
        "command": argv,
        "inputs": inputs,
        "result": payload,
        "elapsedSeconds": round(elapsed, 6),
    }
    if args.format == "json":
        print(json.dumps(envelope, indent=2, sort_keys=True))
        return
    sys.stdout.write(csv_table(header, rows))
    meta = {k: v for k, v in envelope.items() if k != "result"}
    print(json.dumps(meta, sort_keys=True), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    start = time.perf_counter()
    inputs: dict = {}
    try:
        payload, header, rows, code = _HANDLERS[args.command](args, inputs)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (WorkCapExceeded, RetryLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORK_CAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(args, argv, inputs, payload, header, rows, time.perf_counter() - start)
    return code


if __name__ == "__main__":
    sys.exit(main())
