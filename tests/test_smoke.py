"""The CLI's pinned smoke runs, each in a ``python -S -m treebound`` child.

``python -S`` skips site-packages, so a runtime import from outside the
standard library fails here; pyproject declares ``dependencies = []``.  The
child gets only ``src`` on its path, and every case pins its exit code and,
where it has one, its output.  Two more cases run through the other process
entries, ``python -S -m treebound.cli`` and the console script, and three
command lines that only argparse reads print the bytes of their plain twins,
which the command table reads.  CI runs this file once more on each Python
of its matrix.
"""

import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from tests.entries import ENTRIES

SRC = Path(__file__).resolve().parents[1] / "src"

# The spider: its leaf block (slot 5) hangs under slot 3, not under the last
# placed slot 4.
SPIDER = "5 4\n1 2\n1 3\n1 4\n3 5\n"


def treebound(*argv: str, env: dict | None = None, entry: str = "module"):
    child_env = {**os.environ, "PYTHONPATH": str(SRC)}
    child_env.pop("TREEBOUND_WORK_CAP", None)
    child_env.update(env or {})
    return subprocess.run(
        [sys.executable, "-S", *ENTRIES[entry], *argv],
        capture_output=True, text=True, env=child_env, timeout=120,
    )


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict[str, str]:
    """The input files, named as the cases' {placeholders}; the graphs are
    written by `gen -o`, which must exit 0."""
    root = tmp_path_factory.mktemp("smoke")
    names = ("k3", "k4", "k5", "g40", "spider", "k4bom")
    paths = {name: str(root / f"{name}.txt") for name in names}
    for name, argv in (
        ("k3", ("gen", "cliques", "1", "3")),
        ("k4", ("gen", "cliques", "1", "4")),
        ("k5", ("gen", "cliques", "1", "5")),
        ("g40", ("gen", "random", "40", "0.3", "6", "1")),
    ):
        child = treebound(*argv, "-o", paths[name])
        assert child.returncode == 0, child.stderr
    Path(paths["spider"]).write_text(SPIDER)
    Path(paths["k4bom"]).write_bytes(b"\xef\xbb\xbf" + Path(paths["k4"]).read_bytes())
    paths["missing"] = str(root / "missing.txt")
    paths["nodir"] = str(root / "nodir" / "k4.txt")
    return paths


def result(stdout: str) -> dict:
    return json.loads(stdout)["result"]


def count_is(value: str):
    return lambda out, err: result(out)["count"] == value


def result_is(text: str):
    return lambda out, err: result(out) == json.loads(text)


def lines_are(*lines: str):
    return lambda out, err: out == "".join(f"{line}\n" for line in lines)


def first_error_line_starts(prefix: str):
    return lambda out, err: err.splitlines()[0].startswith(prefix)


def usage_error(usage: str, message: str):
    """Nothing on stdout, and the invoked subcommand's usage line, then its
    error, on stderr."""
    def check(out, err):
        lines = err.splitlines()
        prog = usage.split(" [")[0]
        return out == "" and lines[0] == f"usage: {usage}" and lines[-1] == f"{prog}: {message}"
    return check


def verify_passes_all_120(out, err):
    r = result(out)
    return r["allPassed"] is True and r["chain"]["omegaCount"] == "120"


def walks_k3_past_the_digit_limit(out, err):
    # 3 * 2^20000 walks of length 20000 in K3: 6,022 digits, past the 4,300
    # that str() of an int allows from Python 3.11 on
    text = result(out)["count"]
    return len(text) == 6022 and Decimal(text) == 3 * 2**20000


def majorant_rows_sum_to_2(out, err):
    # K4 holds 24 copies of P3, each of majorant weight 1/nd = 1/12 (every
    # floor d(v)-t+1 is 1), so each row of the exact p table sums to 2/1.
    return result(out)["rowSums"] == ["2/1"] * 4


def result_has(**pinned):
    """The result's values at the pinned keys."""
    return lambda out, err: {key: result(out)[key] for key in pinned} == pinned


def scan_is(*rows: tuple[str, str, str]):
    """A conjecture scan's rows as (instance, copies, verdict), and a summary
    that counts them."""
    def check(out, err):
        r = result(out)
        got = [(row["instance"], row["copies"], row["verdict"]) for row in r["rows"]]
        verdicts = [verdict for _, _, verdict in rows]
        summary = {key: r["summary"][key] for key in ("total", "holds", "violated")}
        want = {"total": len(rows), "holds": verdicts.count("holds"),
                "violated": verdicts.count("violated")}
        return got == list(rows) and summary == want
    return check


# (id, argv with {file} placeholders, extra environment, exit code, output check)
CASES = [
    ("count-k4-path3", "count --graph {k4} --tree path:3", None, 0, None),
    ("count-k4-path1", "count --graph {k4} --tree path:1", None, 0, None),
    # Each of the 5! maps of a 5-vertex tree into K5 is a copy.
    ("count-k5-spider", "count --graph {k5} --tree {spider}", None, 0, count_is("120")),
    # The copy ledger on the spider, and on the star S4, whose r = 3 leaf block
    # slots share one table row: every check passes and all 120 copies count.
    ("verify-k5-spider", "verify --graph {k5} --tree {spider}", None, 0, verify_passes_all_120),
    ("verify-k5-star4", "verify --graph {k5} --tree star:4", None, 0, verify_passes_all_120),
    # A walk with t edges is a homomorphism of the t-edge path, and count_walks
    # counts it so: on K4 both give 4 * 3^3 = 108 at t = 3; at t = 0 each of
    # the 4 vertices is one walk.
    ("hom-k4-path3", "hom --graph {k4} --tree path:3", None, 0, count_is("108")),
    ("walks-k4-3", "walks --graph {k4} --length 3", None, 0, count_is("108")),
    ("walks-k4-0", "walks --graph {k4} --length 0", None, 0, count_is("4")),
    # A UTF-8 byte order mark before the header is dropped. A file that cannot
    # be read exits 3 (input format), and its error names the option.
    ("count-k4-bom", "count --graph {k4bom} --tree path:3", None, 0, count_is("24")),
    ("count-missing-graph", "count --graph {missing} --tree path:3", None, 3,
     first_error_line_starts("error: --graph ")),
    # A gen -o path that cannot be written is a usage error: exit 2, naming --output.
    ("gen-unwritable-output", "gen cliques 1 4 -o {nodir}", None, 2,
     first_error_line_starts("error: --output ")),
    # Paths are counted by the two-level tail. P5 on G(40, 0.3, 6, seed 1) has
    # 6633682 copies and charges 7337121 search nodes: one cap below that
    # exits 4 (work cap), the cap itself exits 0.
    ("count-g40-path5", "count --graph {g40} --tree path:5", None, 0, count_is("6633682")),
    ("count-g40-path5-cap-below", "count --graph {g40} --tree path:5",
     {"TREEBOUND_WORK_CAP": "7337120"}, 4, None),
    ("count-g40-path5-cap", "count --graph {g40} --tree path:5",
     {"TREEBOUND_WORK_CAP": "7337121"}, 0, None),
    ("walks-k3-20000", "walks --graph {k3} --length 20000", None, 0, walks_k3_past_the_digit_limit),
    # bounds has no --k: the induced-degree bound it fed is gone, so --k is a
    # usage error (exit 2), reported with the usage of bounds, as is a gen
    # family's leftover argument with that family's (COLUMNS keeps each usage
    # on one line)
    ("bounds-k4-t3-k3", "bounds --graph {k4} --t 3 --k 3", {"COLUMNS": "80"}, 2, usage_error(
        "treebound bounds [-h] [--format {json,csv}] --graph GRAPH --t T",
        "error: unrecognized arguments: --k 3")),
    ("gen-cycle-extra", "gen cycle 5 6", {"COLUMNS": "80"}, 2, usage_error(
        "treebound gen cycle [-h] [--format {json,csv}] [-o OUTPUT] n",
        "error: unrecognized arguments: 6")),
    # On K4 at t = 3 every floor d(v) - t + 1 is 1, so the three copy bounds are
    # ln 12; the hom and walk bounds are ln 108 and the falling factorial ln 24.
    ("bounds-k4-t3", "bounds --graph {k4} --t 3", None, 0, result_is(
        '{"bounds":{"copies_average":{"applicable":true,"log":2.484906649788},"copies_local":{"applicable":true,"log":2.484906649788},"copies_p3":{"applicable":true,"log":2.484906649788},"falling_factorial":{"applicable":true,"log":3.17805383034795},"homs_local":{"applicable":true,"log":4.68213122712422},"walks_blakley_roy":{"applicable":true,"log":4.68213122712422}},"d":"3/1","m":6,"minDegree":3,"n":4,"t":3}'
    )),
    # formats.csv_table formats every CSV cell: None empty, bools true/false,
    # floats to 15 significant digits. Both tables are compared byte for byte.
    ("bounds-k4-t3-csv", "bounds --graph {k4} --t 3 --format csv", None, 0, lines_are(
        "bound,applicable,log,reason",
        "copies_local,true,2.484906649788,", "copies_average,true,2.484906649788,",
        "homs_local,true,4.68213122712422,", "copies_p3,true,2.484906649788,",
        "walks_blakley_roy,true,4.68213122712422,", "falling_factorial,true,3.17805383034795,",
    )),
    ("verify-k4-path3-csv", "verify --graph {k4} --tree path:3 --format csv", None, 0, lines_are(
        "check,passed,detail",
        "iso-total-probability,true,sum over 24 copies = 1/1",
        "iso-below-majorant,true,24 copies compared",
        "majorant-floor,true,min g[i][v] - d(v)/nd = 1/4",
        "reversal-symmetry,true,24 copies compared",
        "majorant-product-form,true,24 copies compared",
        'copies-ge-local-bound,true,"count 24, bound exp(2.484906649788)"',
        "hom-total-probability,true,sum over homomorphic embeddings = 1/1",
        "hom-degree-profile,true,g[i][v] vs d(v)/nd over the full table",
    )),
    ("gtable-k4-P", "gtable --graph {k4} --tree path:3 --measure P", None, 0, None),
    ("gtable-k4-p", "gtable --graph {k4} --tree path:3 --measure p", None, 0,
     majorant_rows_sum_to_2),
    ("gtable-k4-Pprime", "gtable --graph {k4} --tree path:3 --measure Pprime", None, 0, None),
    # The seeded sampler reads rng.getrandbits exactly as random.Random.randrange
    # does, so on every Python here these results equal the ones recorded with a
    # randrange loop: the seed-0 Monte Carlo table and the seed-0 sample.
    ("gtable-k4-P-samples", "gtable --graph {k4} --tree path:3 --measure P --samples 50 --seed 0",
     None, 0, result_is(
        '{"measure":"P","minSlack":"-7/100","mode":"monte-carlo","rowSums":["1/1","1/1","1/1","1/1"],"samples":50,"seed":0,"table":{"kind":"P","n":4,"positions":4,"rows":[["7/25","9/50","7/25","13/50"],["13/50","1/5","8/25","11/50"],["6/25","8/25","11/50","11/50"],["11/50","3/10","9/50","3/10"]]}}'
    )),
    ("sample-k4-path3", "sample --graph {k4} --tree path:3 --samples 100 --seed 0", None, 0,
     result_is(
        '{"distinctEmbeddings":24,"frequencies":{"0 1 2 3":4,"0 1 3 2":3,"0 2 1 3":6,"0 2 3 1":4,"0 3 1 2":5,"0 3 2 1":3,"1 0 2 3":4,"1 0 3 2":3,"1 2 0 3":4,"1 2 3 0":5,"1 3 0 2":3,"1 3 2 0":3,"2 0 1 3":3,"2 0 3 1":7,"2 1 0 3":2,"2 1 3 0":2,"2 3 0 1":5,"2 3 1 0":4,"3 0 1 2":6,"3 0 2 1":4,"3 1 0 2":3,"3 1 2 0":4,"3 2 0 1":8,"3 2 1 0":5},"samples":100,"seed":0}'
    )),
    ("gtable-k4-P-csv", "gtable --graph {k4} --tree path:3 --measure P --format csv", None, 0, None),
    ("gtable-k4-P-samples-csv",
     "gtable --graph {k4} --tree path:3 --measure P --samples 50 --seed 0 --format csv",
     None, 0, None),
    ("verify-k4-path3", "verify --graph {k4} --tree path:3", None, 0, None),
    ("verify-k4-path1", "verify --graph {k4} --tree path:1", None, 0, None),
    # K4 holds 4! = 24 copies of P3 and 2xK4 twice that; each meets its falling
    # factorial n*3*2*1 exactly.
    ("conjecture-cliques", "conjecture --family cliques --n 4 --t 3 --trials 2 --seed 0 --min-degree 3",
     None, 0, scan_is(("cliques(c=1,q=4)", "24", "holds"), ("cliques(c=2,q=4)", "48", "holds"))),
    # The graph is a pure function of its seed: pinned by its file's digest.
    ("gen-random-40", "gen random 40 0.3 6 1", None, 0, result_has(
        n=40, m=232, minDegree=6,
        sha256="bd7c27ab6483f7d0433cea0343f3a349682ef16e31d3a0e2e88ed0c8e124d875")),
    ("conjecture-random", "conjecture --family random --n 12 --t 3 --trials 2 --seed 0 --min-degree 4",
     None, 0, scan_is(("random(n=12,p=0.5,minDeg>=4,seed=3626764237)", "1332", "holds"),
                      ("random(n=12,p=0.5,minDeg>=4,seed=1806341205)", "1092", "holds"))),
]


# (entry, the CASES id it runs) for the other two entries: the CSV table is
# compared byte for byte, and the work cap's exit 4 reaches the OS.
ENTRY_CASES = [
    ("cli-module", "verify-k4-path3-csv"),
    ("console-script", "count-g40-path5-cap-below"),
]
RUNS = [(case[0], "module", *case[1:]) for case in CASES] + [
    (f"{entry}-{case[0]}", entry, *case[1:])
    for entry, name in ENTRY_CASES
    for case in CASES
    if case[0] == name
]


@pytest.mark.parametrize("entry, argv, env, code, check", [run[1:] for run in RUNS],
                         ids=[run[0] for run in RUNS])
def test_pinned_run(files, entry, argv, env, code, check):
    child = treebound(*(arg.format(**files) for arg in argv.split()), env=env, entry=entry)
    assert child.returncode == code, child.stderr
    if check:
        assert check(child.stdout, child.stderr), (child.stdout, child.stderr)


# (id, a command line only argparse reads, its plain twin, which the command
# table reads): the two children print the same bytes
SPELLINGS = [
    ("format-equals", "bounds --graph {k4} --t 3 --format=csv",
     "bounds --graph {k4} --t 3 --format csv"),
    ("abbreviated-flag", "count --gra {k4} --tree path:3 --format csv",
     "count --graph {k4} --tree path:3 --format csv"),
    ("repeated-flag", "verify --graph {missing} --graph {k4} --tree path:3 --format csv",
     "verify --graph {k4} --tree path:3 --format csv"),
]


@pytest.mark.parametrize("spelled, plain", [case[1:] for case in SPELLINGS],
                         ids=[case[0] for case in SPELLINGS])
def test_spelling_prints_its_plain_twins_bytes(files, spelled, plain):
    spelled_child, plain_child = (
        treebound(*(arg.format(**files) for arg in argv.split())) for argv in (spelled, plain)
    )
    assert (spelled_child.returncode, plain_child.returncode) == (0, 0), spelled_child.stderr
    assert spelled_child.stdout == plain_child.stdout
