"""Command-line front end with deterministic, machine-readable output.

Every subcommand writes a single result payload to stdout and keeps
diagnostics on stderr so the tool composes in pipelines.  JSON output wraps
the payload in an envelope carrying the echoed command, sha256 digests of
the inputs, a schemaVersion, and the elapsed time; identical inputs and
seeds reproduce the payload bit for bit (elapsed time excluded).  CSV
output prints the payload as a flat table on stdout and moves the envelope
metadata to stderr.

``main`` reads a well-formed ``COMMAND --flag VALUE ...`` line for any
command but gen straight from the command table ``_COMMANDS``; every other
line (help, usage errors, gen, ``--flag=value``, an abbreviated flag) goes
to the argparse parser that ``build_parser`` builds from the same table.

``main`` reads the inputs before it runs a command: ``--graph`` and then
``--tree``, each when the command has the option and it is given.  A tree
is a file or one of the presets path:T / star:T.  Input files are UTF-8
(a leading byte order mark is dropped), and the error for a file that
cannot be read, decoded or parsed names the option and the file.

Exit codes: 0 success, 1 invariant failure, 2 usage, 3 input format,
4 work cap, 141 stdout or stderr closed by its reader (128 + SIGPIPE, as
shell tools report it).  The environment variable TREEBOUND_WORK_CAP
overrides the default search-node cap; a command that reads it exits 2 when
it is not an integer >= 0.

``main(argv)`` returns the exit code and never ends the process, so tests
and other Python callers run it in process.  It leaves flushing to its
caller and lets a ``BrokenPipeError`` out.  ``entry`` is the process entry
and the one place that ends it: it runs ``main``, flushes stdout and
stderr, maps a closed stdout or stderr to 141, and ends the process with
``os._exit``, without interpreter teardown.  No output is lost, but
``atexit`` handlers do not run in a CLI process.
"""

from __future__ import annotations

import json
import os
import sys
import time
from types import SimpleNamespace

# Every command needs these; each handler imports the rest of what it runs,
# so a command loads (and compiles, without a bytecode cache) no more.
from .errors import FormatError, RetryLimitExceeded, WorkCapExceeded
from .formats import SCHEMA_VERSION, csv_table, format_count, format_log, format_rational
from .graphs import (
    Graph,
    Tree,
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
EXIT_BROKEN_PIPE = 141


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
    # the built-in SHA-256 (_sha2 on 3.12+, _sha256 before), as random.py takes
    # _sha512: hashlib loads OpenSSL, a tenth of a child's start-up; same digest
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(text.encode("utf-8")).hexdigest()


def _read_input(option: str, source: str, parse):
    """An input file's text and ``parse`` of it.  An OSError from reading
    the file, and a FormatError from bytes that are not UTF-8 or from the
    parser, name the option and the file."""
    try:
        with open(source, "rb") as file:
            text = _decode(file.read())
        return text, parse(text)
    except OSError as exc:
        raise OSError(f"{option} {source}: {exc.strerror}") from None
    except FormatError as exc:
        raise FormatError(f"{option} {source}: {exc.detail}", exc.line) from None


def _decode(data: bytes) -> str:
    """UTF-8 text with universal newlines, as a file read in text mode has
    them, and without a leading byte order mark; a bad byte is a FormatError
    at its line."""
    data = data.removeprefix(b"\xef\xbb\xbf")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode; number their lines as the parser does
        line = len((data[: exc.start].decode("utf-8") + "?").splitlines())
        raise FormatError(
            f"can't decode byte 0x{data[exc.start]:02x} as UTF-8 ({exc.reason})", line
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _load_graph(source: str, inputs: dict) -> Graph:
    text, graph = _read_input("--graph", source, parse_graph)
    inputs["graph"] = {"source": source, "sha256": _digest(text)}
    return graph


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
        text, tree = _read_input("--tree", source, parse_tree)
    inputs["tree"] = {"source": source, "sha256": _digest(text)}
    return tree


# ---------------------------------------------------------------------------
# Handlers: each takes the parsed arguments and the loaded graph and tree
# (None where the command has no such input) and returns (payload, csv
# header, csv rows, exit code)


def _cmd_count(args, graph, tree):
    from .counting import count_copies

    result = count_copies(graph, tree, work_cap=_work_cap())
    payload = {"count": format_count(result.value), "method": result.method}
    return payload, ["count", "method"], [[result.value, result.method]], EXIT_OK


def _cmd_hom(args, graph, tree):
    from .counting import count_homomorphisms

    result = count_homomorphisms(graph, tree)
    payload = {"count": format_count(result.value), "method": result.method}
    return payload, ["count", "method"], [[result.value, result.method]], EXIT_OK


def _cmd_walks(args, graph, tree):
    from .counting import count_walks

    result = count_walks(graph, args.length)
    payload = {"count": format_count(result.value), "length": args.length}
    return payload, ["count", "length"], [[result.value, args.length]], EXIT_OK


def _cmd_bounds(args, graph, tree):
    from .bounds import evaluate_bounds

    report = evaluate_bounds(graph, args.t)
    named = report.named_bounds()
    bounds_json = {
        name: {"applicable": True, "log": format_log(b.log_value)}
        if b.applicable
        else {"applicable": False, "reason": b.reason}
        for name, b in named.items()
    }
    rows = [[name, b.applicable, b.log_value, b.reason] for name, b in named.items()]
    payload = {
        "n": graph.n,
        "m": graph.edge_count,
        "d": format_rational(graph.degree_sum, graph.n),
        "minDegree": graph.min_degree,
        "t": args.t,
        "bounds": bounds_json,
    }
    return payload, ["bound", "applicable", "log", "reason"], rows, EXIT_OK


def _cmd_gtable(args, graph, tree):
    from .measure import MeasureKind, g_table_exact, g_table_monte_carlo

    kind = MeasureKind(args.measure)
    labeling = good_labeling(tree)
    if args.samples is not None:
        if kind is not MeasureKind.ISO:
            raise ValueError("Monte Carlo estimation is defined for --measure P only")
        table = g_table_monte_carlo(graph, tree, labeling, args.samples, args.seed)
        mode = "monte-carlo"
    else:
        table = g_table_exact(graph, tree, labeling, kind, work_cap=_work_cap())
        mode = "exact"
    slack, profile = table.slack_and_profile(graph)
    payload = {
        "measure": args.measure,
        "mode": mode,
        "table": table.to_json_dict(),
        "rowSums": [format_rational(*table.row_sum_ratio(i)) for i in range(1, table.positions + 1)],
        "minSlack": format_rational(*slack),
    }
    if args.samples is not None:
        payload["samples"] = args.samples
        payload["seed"] = args.seed
    if kind is MeasureKind.HOM:
        payload["equalsDegreeProfile"] = profile
    # read only by the CSV writer: the cells of the JSON table, one per row
    cells = payload["table"]["rows"]
    rows = ([i, v, cell] for i, row in enumerate(cells, 1) for v, cell in enumerate(row))
    return payload, ["i", "v", "weight"], rows, EXIT_OK


def _cmd_sample(args, graph, tree):
    import random
    from collections import Counter

    from .measure import sample_embeddings

    draws = sample_embeddings(
        graph, tree, good_labeling(tree), random.Random(args.seed), args.samples
    )
    frequencies = Counter(draws)
    payload = {
        "samples": args.samples,
        "seed": args.seed,
        "distinctEmbeddings": len(frequencies),
    }
    # only JSON prints the payload; unsorted: the JSON writer sorts the keys
    if args.format == "json":
        payload["frequencies"] = {
            " ".join(map(str, verts)): count for verts, count in frequencies.items()
        }

    def rows():
        for verts, count in sorted(frequencies.items()):
            yield [" ".join(map(str, verts)), count]

    return payload, ["embedding", "count"], rows(), EXIT_OK


def _cmd_verify(args, graph, tree):
    from .checks import instance_report

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
    rows = [[c.name, c.passed, c.detail] for c in checks]
    code = EXIT_OK if not failed else EXIT_INVARIANT
    return payload, ["check", "passed", "detail"], rows, code


def _cmd_conjecture(args, graph, tree):
    from .conjecture import (
        ConjectureScanConfig,
        conjecture_csv_rows,
        conjecture_scan,
        conjecture_to_json,
    )

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


# gen family -> (its generator's name in families, its positional arguments as
# (name, type, params key), its own options as (flag, add_argument keywords))
_GEN_FAMILIES = {
    "cliques": ("gen_disjoint_cliques", [("c", int, "c"), ("q", int, "q")], []),
    "cycle": ("gen_cycle", [("n", int, "n")], []),
    "complete-bipartite": ("gen_complete_bipartite", [("a", int, "a"), ("b", int, "b")], []),
    "random": (
        "gen_random_min_degree",
        [("n", int, "n"), ("p", float, "p"), ("min_degree", int, "minDegree"),
         ("seed", int, "seed")],
        [("--max-tries", {"type": int})],
    ),
}


def _cmd_gen(args, graph, tree):
    from . import families

    generator, arguments, options = _GEN_FAMILIES[args.family]
    generate = getattr(families, generator)
    params = {key: getattr(args, name) for name, _, key in arguments}
    # an option that is not given keeps the generator's own default
    names = (flag[2:].replace("-", "_") for flag, _ in options)
    given = {name: value for name in names if (value := getattr(args, name)) is not None}
    graph = generate(*params.values(), **given)
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
        # an output path that cannot be written is a usage error, not a bad input file
        try:
            with open(args.output, "w", encoding="utf-8") as file:
                file.write(text)
        except OSError as exc:
            raise ValueError(f"--output {args.output}: {exc.strerror}") from None
        payload["path"] = args.output
    else:
        payload["content"] = text
    row = [args.family, graph.n, graph.edge_count, graph.min_degree, args.output]
    return payload, ["family", "n", "m", "min_degree", "path"], [row], EXIT_OK


_TREE_HELP = "tree file, or path:T / star:T"
_FORMAT = ("--format", {"choices": ["json", "csv"], "default": "json"})
_GRAPH = ("--graph", {"required": True})
_TREE = ("--tree", {"required": True, "help": _TREE_HELP})

# subcommand -> (handler, help, its options as (flag, add_argument keywords));
# gen has no --format of its own, its families have
_COMMANDS = {
    "count": (_cmd_count, "exact injective copy count", [_FORMAT, _GRAPH, _TREE]),
    "hom": (_cmd_hom, "exact homomorphism count", [_FORMAT, _GRAPH, _TREE]),
    "walks": (
        _cmd_walks,
        "exact walk count",
        [_FORMAT, _GRAPH, ("--length", {"type": int, "required": True})],
    ),
    "bounds": (
        _cmd_bounds,
        "evaluate all lower bounds in log space",
        [_FORMAT, _GRAPH, ("--t", {"type": int, "required": True})],
    ),
    "gtable": (
        _cmd_gtable,
        "per-index vertex weight table",
        [
            _FORMAT,
            _GRAPH,
            _TREE,
            ("--measure", {"choices": ["P", "p", "Pprime"], "required": True}),
            ("--samples", {"type": int, "default": None, "help": "Monte Carlo draws (default: exact)"}),
            ("--seed", {"type": int, "default": 0}),
        ],
    ),
    "sample": (
        _cmd_sample,
        "draw embeddings from the process",
        [
            _FORMAT,
            _GRAPH,
            _TREE,
            ("--samples", {"type": int, "required": True}),
            ("--seed", {"type": int, "required": True}),
        ],
    ),
    "verify": (_cmd_verify, "run all instance invariants", [_FORMAT, _GRAPH, _TREE]),
    "conjecture": (
        _cmd_conjecture,
        "scan the falling-factorial bound",
        [
            _FORMAT,
            ("--family", {"choices": ["cliques", "random"], "required": True}),
            ("--n", {"type": int, "required": True}),
            ("--t", {"type": int, "required": True}),
            ("--trials", {"type": int, "required": True}),
            ("--seed", {"type": int, "required": True}),
            ("--min-degree", {"type": int, "default": None, "help": "degree floor (default: 2t)"}),
            ("--edge-probability", {"type": float, "default": 0.5}),
            ("--tree", {"required": False, "help": f"{_TREE_HELP} (default: the t-edge path)"}),
        ],
    ),
    "gen": (_cmd_gen, "write a generated graph file", []),
}


def _table_args(argv: list[str]) -> SimpleNamespace | None:
    """argv parsed from the command table, or None for argparse to parse.
    The table reads one shape: a command other than gen, then (flag, value)
    pairs, each flag one of the command's own, given once, with no value
    that starts with "-"; each value converts with its option's type and is
    one of its choices, and every required flag is given.  The namespace is
    the one argparse gives, without ``_parser``."""
    if not argv or argv[0] == "gen" or argv[0] not in _COMMANDS:
        return None
    options = dict(_COMMANDS[argv[0]][2])
    flags, values = argv[1::2], argv[2::2]
    given = dict(zip(flags, values))
    if (len(flags) != len(values) or len(given) != len(flags) or not given.keys() <= options.keys()
            or any(value.startswith("-") for value in values)):
        return None
    args = SimpleNamespace(command=argv[0])
    for flag, keywords in options.items():
        if flag in given:
            try:
                value = keywords.get("type", str)(given[flag])
            except ValueError:
                return None
            if value not in keywords.get("choices", [value]):
                return None
        elif keywords.get("required"):
            return None
        else:
            value = keywords.get("default")
        setattr(args, flag[2:].replace("-", "_"), value)
    return args


def build_parser():
    """The CLI's argparse parser, built from ``_COMMANDS``: every subcommand
    with its options, in table order, and under gen every family of
    ``_GEN_FAMILIES`` with ``_FORMAT``, ``-o``, its arguments and its own
    options.  Only a command line that the table does not read builds it,
    so argparse is imported here."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """argparse's parser, but the help's write to stdout lets an OSError
        out: argparse swallows it, and with an unbuffered stdout
        (PYTHONUNBUFFERED) a reader that is gone would lose the help with
        exit 0.  Its ``BrokenPipeError`` leaves ``main``, and ``entry`` exits
        141.  Subparsers are made of the parser's class, so every level gets
        this.  Leftover arguments get the usage of the invoked ``_parser``,
        not the top's."""

        def print_help(self, file=None):
            (sys.stdout if file is None else file).write(self.format_help())

        def parse_args(self, args=None, namespace=None):
            parsed, extras = self.parse_known_args(args, namespace)
            if extras:
                getattr(parsed, "_parser", self).error(f"unrecognized arguments: {' '.join(extras)}")
            return parsed

    parser = Parser(
        prog="treebound",
        description="Count tree copies in graphs and check the bounds they satisfy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        p.set_defaults(_parser=p)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
    families = sub.choices["gen"].add_subparsers(dest="family", required=True)
    for family, (_, arguments, options) in _GEN_FAMILIES.items():
        q = families.add_parser(family)
        q.set_defaults(_parser=q)
        q.add_argument(_FORMAT[0], **_FORMAT[1])
        q.add_argument("-o", "--output", default=None)
        for name, type_, _ in arguments:
            q.add_argument(name, type=type_)
        for flag, keywords in options:
            q.add_argument(flag, **keywords)
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
    """Parse argv (default sys.argv[1:]), run the command, write its output
    and return its exit code.  Flushing is the caller's; a write that finds
    its reader gone lets its ``BrokenPipeError`` out."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _table_args(argv) or build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    start = time.perf_counter()
    inputs: dict = {}
    try:
        # test for None, not truth: an empty --tree '' is a file name too
        graph = tree = None
        if getattr(args, "graph", None) is not None:
            graph = _load_graph(args.graph, inputs)
        if getattr(args, "tree", None) is not None:
            tree = _load_tree(args.tree, inputs)
        payload, header, rows, code = _COMMANDS[args.command][0](args, graph, tree)
    except (FormatError, OSError) as exc:
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


def entry():
    """The process entry of ``python -m treebound``, ``python -m
    treebound.cli`` and the ``treebound`` script: run ``main`` on sys.argv,
    flush stdout and then stderr, and end the process with main's exit code,
    skipping interpreter teardown (its final garbage collection and freeing
    every object), so ``atexit`` handlers do not run.  A stdout or stderr
    whose reader is gone, found by a write in ``main`` or by a flush, exits
    141 and writes nothing more; any other exception that escapes ``main``
    propagates and ends the process in the normal way."""
    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = EXIT_BROKEN_PIPE
    os._exit(code)


if __name__ == "__main__":
    entry()
