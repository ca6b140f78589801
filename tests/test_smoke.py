"""The CLI's pinned smoke runs, each in a ``python -S -m treebound`` child.

``python -S`` skips site-packages, so a runtime import from outside the
standard library fails here; pyproject declares ``dependencies = []``.  The
child gets only ``src`` on its path, and every case pins its exit code and,
where it has one, its output.  CI runs this file once more on each Python
of its matrix.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# The spider: its leaf block (slot 5) hangs under slot 3, not under the last
# placed slot 4.
SPIDER = "5 4\n1 2\n1 3\n1 4\n3 5\n"


def treebound(*argv: str, env: dict | None = None) -> subprocess.CompletedProcess:
    child_env = {**os.environ, "PYTHONPATH": str(SRC)}
    child_env.pop("TREEBOUND_WORK_CAP", None)
    child_env.update(env or {})
    return subprocess.run(
        [sys.executable, "-S", "-m", "treebound", *argv],
        capture_output=True, text=True, env=child_env, timeout=120,
    )


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict[str, str]:
    """The input files, named as the cases' {placeholders}; the graphs are
    written by `gen -o`, which must exit 0."""
    root = tmp_path_factory.mktemp("smoke")
    paths = {name: str(root / f"{name}.txt") for name in ("k4", "k5", "g40", "spider", "k4bom")}
    for name, argv in (
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


def verify_passes_all_120(out, err):
    r = result(out)
    return r["allPassed"] is True and r["chain"]["omegaCount"] == "120"


def k4_bounds_at_t3_k3(out, err):
    # On K4 at t = 3 every floor d(v) - t + 1 is 1, so the four copy bounds are
    # ln 12; the hom and walk bounds are ln 108 and the falling factorial ln 24.
    bounds = result(out)["bounds"]
    want = {"copies_local": 12, "copies_average": 12, "copies_p3": 12, "copies_induced": 12,
            "homs_local": 108, "walks_blakley_roy": 108, "falling_factorial": 24}
    return all(bounds[name]["applicable"] and abs(bounds[name]["log"] - math.log(x)) <= 1e-12
               for name, x in want.items())


def no_k_no_induced_bound(out, err):
    return result(out)["bounds"]["copies_induced"] == {"applicable": False, "reason": "k not supplied"}


def majorant_rows_sum_to_2(out, err):
    # K4 holds 24 copies of P3, each of majorant weight 1/nd = 1/12 (every
    # floor d(v)-t+1 is 1), so each row of the exact p table sums to 2/1.
    return result(out)["rowSums"] == ["2/1"] * 4


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
    ("bounds-k4-t3-k3", "bounds --graph {k4} --t 3 --k 3", None, 0, k4_bounds_at_t3_k3),
    ("bounds-k4-t3", "bounds --graph {k4} --t 3", None, 0, no_k_no_induced_bound),
    # formats.csv_table formats every CSV cell: None empty, bools true/false,
    # floats to 15 significant digits. Both tables are compared byte for byte.
    ("bounds-k4-t3-csv", "bounds --graph {k4} --t 3 --format csv", None, 0, lines_are(
        "bound,applicable,log,reason",
        "copies_local,true,2.484906649788,", "copies_average,true,2.484906649788,",
        "homs_local,true,4.68213122712422,", "copies_p3,true,2.484906649788,",
        "walks_blakley_roy,true,4.68213122712422,", "copies_induced,false,,k not supplied",
        "falling_factorial,true,3.17805383034795,",
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
    ("conjecture-cliques", "conjecture --family cliques --n 4 --t 3 --trials 2 --seed 0 --min-degree 3",
     None, 0, None),
    ("gen-random-40", "gen random 40 0.3 6 1", None, 0, None),
    ("conjecture-random", "conjecture --family random --n 12 --t 3 --trials 2 --seed 0 --min-degree 4",
     None, 0, None),
]


@pytest.mark.parametrize("argv, env, code, check", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_pinned_run(files, argv, env, code, check):
    child = treebound(*(arg.format(**files) for arg in argv.split()), env=env)
    assert child.returncode == code, child.stderr
    if check:
        assert check(child.stdout, child.stderr), (child.stdout, child.stderr)
