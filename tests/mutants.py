"""A standing mutation check for the library's fast paths.

Each row of MUTANTS is one mutant: its name, a file under src/treebound, an
exact snippet of that file, the replacement that breaks it, and the tests
that must catch it.  Run from the root of a checkout:

    python tests/mutants.py [NAME ...]

The script copies src/, tests/ and pyproject.toml to a temporary directory
and first runs the rows' tests on the unmutated copy, which must pass.
Then, for each row (or each NAME given), it applies the one replacement,
runs the row's tests in a child pytest (first failure stops it, hypothesis
seeded, no bytecode written, so no stale cache hides a mutant), and puts
the file back.  A mutant is killed when a test fails (pytest exits 1).  The
exit code is 1 when a snippet does not occur exactly once in its file, when
the unmutated copy fails, or when a mutant is not killed; else 0.

Only the standard library is imported here, and pytest does not collect
this file.  tests/test_mutants.py checks in tier-1 that every snippet still
matches, so an edit to a fast path has to update its rows.  A new fast path
adds its mutants here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

COUNTING = ("tests/test_counting.py",)
SEARCH = ("tests/test_counting.py", "tests/test_ledger.py")
SAMPLER = ("tests/test_measure.py",)
SUITE = ("tests/test_harness.py",)
DIGEST = ("tests/test_cli.py::TestInputs", "tests/test_smoke.py")
PARSE = ("tests/test_cli.py::TestParser",)

# (name, file under src/treebound, exact snippet, replacement, tests that must fail)
MUTANTS = [
    # the homomorphism DP multiplies each child's neighbour sums into its
    # parent's vector
    ("hom-dp-drops-earlier-children", "counting.py",
     "vec = [h * sum(map(message, a))", "vec = [sum(map(message, a))", COUNTING),
    # count_copies' two-level tail: a choice u of slot q counts the paths
    # u, v, w that avoid the placed set X, and charges the nodes below u
    ("tail-codegree-term", "counting.py",
     "below -= row.get(u, 0)", "below -= 0", COUNTING),
    ("tail-adjacency-term", "counting.py",
     "below -= spare", "below -= 0", COUNTING),
    ("tail-node-charge-plus-one", "counting.py",
     "nodes += 1 + degree[u] - hits[u] + below", "nodes += degree[u] - hits[u] + below",
     COUNTING),
    ("tail-node-charge-hits", "counting.py",
     "nodes += 1 + degree[u] - hits[u] + below", "nodes += 1 + degree[u] + below", COUNTING),
    ("tail-placed-set-drops-a-vertex", "counting.py",
     "for x in omega[:q]]", "for x in omega[1:q]]", COUNTING),
    # the tally of placed neighbours that gives the leaf block its free count
    ("hits-tally", "counting.py",
     "free = degree[v] - hits[v]", "free = degree[v]", COUNTING),
    # the leaf block's closed forms, which both copy passes read
    ("leaf-block-copies", "_search.py",
     "ways *= free - i", "ways *= free", SEARCH),
    ("leaf-block-nodes", "_search.py",
     "ways = total = 1", "ways, total = 1, 0", SEARCH),
    # the ledger folds a block whose majorant denominator is one too small:
    # the product-form and reversal checks must fail
    ("ledger-majorant-denominator", "ledger.py",
     "d_maj * floor[anchor] ** r,", "d_maj * floor[anchor] ** r - 1,",
     ("tests/test_ledger.py", "tests/test_measure.py")),
    # the sampler reads the bits random.Random.randrange reads
    ("sampler-step-past-used", "measure.py", "if i > r:", "if i >= r:", SAMPLER),
    ("sampler-rejection-bound", "measure.py",
     "while r >= c:", "while r > c:", SAMPLER),
    ("sampler-unsorted-positions", "measure.py", "used.sort()", "used.reverse()", SAMPLER),
    # the suite's row cache, which keeps each instance's record, and the
    # cache of each graph's walks and bounds per tree size
    ("row-cache-key-without-work-cap", "harness.py",
     "_finished_row(graph, tree, work_cap)", "_finished_row(graph, tree, None)", SUITE),
    ("graph-work-key-without-size", "harness.py",
     "_graph_work(graph, tree.t)", "_graph_work(graph, 3)", SUITE),
    ("row-cache-shared-tables-dict", "harness.py",
     "g_tables=(dict(tables) or None)", "g_tables=(tables or None)", SUITE),
    # the CSV is the JSON record flattened, a computed row's cells are formatted
    # once, and a g-table's kept JSON goes out in new lists
    ("row-cache-keeps-json-values", "harness.py",
     "cells = csv_cells(_record_values(record))", "cells = tuple(_record_values(record))", SUITE),
    ("csv-swaps-log-and-margin", "harness.py",
     'values += (bound.get("log"), bound.get("holds"), bound.get("logMargin"))',
     'values += (bound.get("logMargin"), bound.get("holds"), bound.get("log"))', SUITE),
    ("gtable-hands-out-kept-rows", "measure.py",
     '"rows": [cells[:] for cells in kept["rows"]]', '"rows": [cells for cells in kept["rows"]]',
     ("tests/test_values.py", "tests/test_harness.py")),
    # a g-table renders each distinct row once, still one list per row, and
    # reads its min slack and degree-profile verdict off one pass
    ("gtable-json-shares-equal-rows", "measure.py",
     "rows.append(rendered[row][:])", "rows.append(rendered[row])", ("tests/test_values.py",)),
    ("slack-pass-takes-the-max", "measure.py",
     "low = min(map(min, slacks))", "low = max(map(min, slacks))", ("tests/test_measure.py",)),
    # a labeling skips only the full check of the tree it last passed
    ("labeling-check-skips-every-tree", "graphs.py",
     'if self.__dict__.get("_passed") is not tree:', "if False:", ("tests/test_graphs.py",)),
    # the envelope's input digests, on the built-in and the hashlib path
    ("digest-text", "cli.py",
     'return sha256(text.encode("utf-8")).hexdigest()',
     'return sha256(text.strip().encode("utf-8")).hexdigest()', DIGEST),
    ("digest-fallback", "cli.py",
     "from hashlib import sha256", "from hashlib import sha1 as sha256", DIGEST),
    # the command table's parse reads only what argparse reads the same way
    ("table-takes-dash-values", "cli.py",
     'or any(value.startswith("-") for value in values)', "", PARSE),
    ("table-skips-choices", "cli.py",
     'if value not in keywords.get("choices", [value]):', "if False:", PARSE),
    ("table-skips-required", "cli.py", 'elif keywords.get("required"):', "elif False:", PARSE),
    ("table-takes-repeated-flags", "cli.py", "len(given) != len(flags)", "False", PARSE),
    # the process entry maps a reader that is gone, on stdout or stderr, to 141
    ("entry-forgets-broken-pipe", "cli.py",
     "code = EXIT_BROKEN_PIPE", "code = EXIT_OK", ("tests/test_cli.py::TestEntryPoint",)),
    # argparse's help lets a write error out, and leftover arguments get the
    # usage of the subcommand that was invoked
    ("help-swallows-write-errors", "cli.py",
     "(sys.stdout if file is None else file).write(self.format_help())",
     "super().print_help(file)", ("tests/test_cli.py::TestEntryPoint",)),
    ("leftovers-get-the-top-usage", "cli.py",
     'getattr(parsed, "_parser", self).error(', "self.error(", ("tests/test_smoke.py",)),
]


def unmatched(root: Path = ROOT) -> list[str]:
    """The rows whose snippet does not occur exactly once in its file, or
    whose replacement is the snippet itself."""
    bad = []
    for name, file, snippet, replacement, _ in MUTANTS:
        text = (root / "src" / "treebound" / file).read_text(encoding="utf-8")
        if text.count(snippet) != 1 or replacement == snippet:
            bad.append(name)
    return bad


def _pytest(workdir: Path, tests) -> int:
    env = {**os.environ, "PYTHONPATH": str(workdir / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "--hypothesis-seed=0", *tests]
    return subprocess.run(
        argv, cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    ).returncode


def main(names: list[str]) -> int:
    rows = [row for row in MUTANTS if not names or row[0] in names]
    unknown = set(names) - {row[0] for row in MUTANTS}
    bad = unmatched()
    if unknown or bad:
        print(f"unknown mutants: {sorted(unknown)}; snippets that do not match once: {bad}")
        return 1
    with tempfile.TemporaryDirectory(prefix="treebound-mutants-") as tmp:
        workdir = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, workdir / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy2(ROOT / "pyproject.toml", workdir)
        every_test = sorted({test for row in rows for test in row[4]})
        if _pytest(workdir, every_test) != 0:
            print(f"the unmutated copy fails {' '.join(every_test)}")
            return 1
        survivors = []
        for name, file, snippet, replacement, tests in rows:
            path = workdir / "src" / "treebound" / file
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(snippet, replacement), encoding="utf-8")
            start = time.perf_counter()
            code = _pytest(workdir, tests)
            path.write_text(original, encoding="utf-8")
            # pytest exits 1 when a test failed; any other code is no verdict
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            print(f"{verdict}  {name}  ({time.perf_counter() - start:.1f} s)", flush=True)
            if code != 1:
                survivors.append(name)
    print(f"{len(rows) - len(survivors)} of {len(rows)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
