import errno
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from treebound.cli import main
from treebound.graphs import Graph, gen_cycle, gen_disjoint_cliques, path_tree, serialize_graph
from treebound.harness import (
    ConjectureScanConfig,
    conjecture_scan,
    conjecture_to_csv,
    conjecture_to_json,
    instance_report,
)


# Seeded sampler payloads on K4/P3, pinned: a changed random call, call
# order or candidate order in the sampler changes them.
K4_SAMPLE_SEED4 = {
    "samples": 500,
    "seed": 4,
    "distinctEmbeddings": 24,
    "frequencies": {
        "0 1 2 3": 19, "0 1 3 2": 23, "0 2 1 3": 16, "0 2 3 1": 16, "0 3 1 2": 24,
        "0 3 2 1": 19, "1 0 2 3": 18, "1 0 3 2": 23, "1 2 0 3": 24, "1 2 3 0": 16,
        "1 3 0 2": 27, "1 3 2 0": 19, "2 0 1 3": 18, "2 0 3 1": 23, "2 1 0 3": 22,
        "2 1 3 0": 19, "2 3 0 1": 19, "2 3 1 0": 24, "3 0 1 2": 32, "3 0 2 1": 16,
        "3 1 0 2": 24, "3 1 2 0": 18, "3 2 0 1": 18, "3 2 1 0": 23,
    },
}
K4_MONTE_CARLO_SEED3 = {
    "measure": "P",
    "mode": "monte-carlo",
    "table": {
        "kind": "P",
        "positions": 4,
        "n": 4,
        "rows": [
            ["497/2000", "101/400", "249/1000", "1/4"],
            ["247/1000", "249/1000", "267/1000", "237/1000"],
            ["471/2000", "21/80", "491/2000", "513/2000"],
            ["269/1000", "59/250", "477/2000", "513/2000"],
        ],
    },
    "rowSums": ["1/1", "1/1", "1/1", "1/1"],
    "minSlack": "-29/2000",
    "samples": 2000,
    "seed": 3,
}


def _gtable_csv(cells):
    """A gtable CSV over K4/P3: the header, then one i,v,weight line per cell."""
    lines = [f"{i},{v},{cell}" for i, row in enumerate(cells, 1) for v, cell in enumerate(row)]
    return "\n".join(["i,v,weight", *lines, ""])


K4_BOUNDS_T3_CSV = """\
bound,applicable,log,reason
copies_local,true,2.484906649788,
copies_average,true,2.484906649788,
homs_local,true,4.68213122712422,
copies_p3,true,2.484906649788,
walks_blakley_roy,true,4.68213122712422,
{induced}
falling_factorial,true,3.17805383034795,
"""
# The --format csv stdout of every command on K4 (and verify on the edgeless
# "3 0" graph), byte for byte; argv after the command's --graph/--tree options.
K4_CSV = {
    "count": (["count", "--tree", "path:3"], "count,method\n24,enumeration\n"),
    "hom": (["hom", "--tree", "path:3"], "count,method\n108,dp\n"),
    "walks": (["walks", "--length", "3"], "count,length\n108,3\n"),
    "bounds": (
        ["bounds", "--t", "3"],
        K4_BOUNDS_T3_CSV.format(induced="copies_induced,false,,k not supplied"),
    ),
    "bounds-k": (
        ["bounds", "--t", "3", "--k", "3"],
        K4_BOUNDS_T3_CSV.format(induced="copies_induced,true,2.484906649788,"),
    ),
    "gtable-P": (["gtable", "--tree", "path:3", "--measure", "P"], _gtable_csv([["1/4"] * 4] * 4)),
    "gtable-p": (["gtable", "--tree", "path:3", "--measure", "p"], _gtable_csv([["1/2"] * 4] * 4)),
    "gtable-Pprime": (
        ["gtable", "--tree", "path:3", "--measure", "Pprime"],
        _gtable_csv([["1/4"] * 4] * 4),
    ),
    "gtable-P-monte-carlo": (
        ["gtable", "--tree", "path:3", "--measure", "P", "--samples", "20", "--seed", "0"],
        _gtable_csv([
            ["3/20", "3/10", "3/10", "1/4"],
            ["7/20", "1/20", "7/20", "1/4"],
            ["1/5", "1/5", "1/4", "7/20"],
            ["3/10", "9/20", "1/10", "3/20"],
        ]),
    ),
    "sample": (
        ["sample", "--tree", "path:3", "--samples", "20", "--seed", "0"],
        "embedding,count\n0 2 3 1,2\n0 3 2 1,1\n1 0 2 3,1\n1 0 3 2,1\n1 2 0 3,2\n"
        "1 2 3 0,2\n2 0 3 1,2\n2 3 0 1,2\n2 3 1 0,2\n3 0 1 2,1\n3 0 2 1,2\n"
        "3 1 2 0,1\n3 2 1 0,1\n",
    ),
    "verify": (
        ["verify", "--tree", "path:3"],
        """\
check,passed,detail
iso-total-probability,true,sum over 24 copies = 1/1
iso-below-majorant,true,24 copies compared
majorant-floor,true,min g[i][v] - d(v)/nd = 1/4
reversal-symmetry,true,24 copies compared
majorant-product-form,true,24 copies compared
copies-ge-local-bound,true,"count 24, bound exp(2.484906649788)"
hom-total-probability,true,sum over homomorphic embeddings = 1/1
hom-degree-profile,true,g[i][v] vs d(v)/nd over the full table
""",
    ),
    "verify-edgeless": (
        ["verify", "--tree", "path:3"],
        "check,passed,detail\n"
        + "".join(
            f"{name},,skipped: min degree 0 < t = 3\n"
            for name in ("iso-total-probability", "iso-below-majorant", "majorant-floor",
                         "reversal-symmetry", "majorant-product-form", "copies-ge-local-bound")
        )
        + "hom-total-probability,,skipped: graph has no edges\n"
        + "hom-degree-profile,,skipped: graph has no edges\n",
    ),
    "conjecture": (
        ["conjecture", "--family", "cliques", "--n", "4", "--t", "3", "--trials", "2",
         "--seed", "0", "--min-degree", "3"],
        """\
instance,n,d,min_degree,t,copies,ff_log,log_margin,verdict,error
"cliques(c=1,q=4)",4,3/1,3,3,24,3.17805383034795,4.44089209850063e-16,holds,
"cliques(c=2,q=4)",8,3/1,3,3,48,3.87120101090789,4.44089209850063e-16,holds,
""",
    ),
    "gen": (["gen", "cliques", "1", "4"], "family,n,m,min_degree,path\ncliques,4,6,3,\n"),
}


@pytest.fixture()
def k4_file(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text(serialize_graph(gen_disjoint_cliques(1, 4)))
    return str(path)


@pytest.fixture()
def c5_file(tmp_path):
    path = tmp_path / "c5.txt"
    path.write_text(serialize_graph(gen_cycle(5)))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


class TestCount:
    def test_count_k4_p2(self, capsys, k4_file):
        code, envelope = run_json(capsys, ["count", "--graph", k4_file, "--tree", "path:2"])
        assert code == 0
        assert envelope["result"] == {"count": "24", "method": "enumeration"}
        assert envelope["schemaVersion"] == "1"
        assert envelope["command"][0] == "count"
        assert len(envelope["inputs"]["graph"]["sha256"]) == 64

    def test_tree_file_input(self, capsys, k4_file, tmp_path):
        tree_file = tmp_path / "p2.txt"
        tree_file.write_text("3 2\n1 2\n2 3\n")
        code, envelope = run_json(
            capsys, ["count", "--graph", k4_file, "--tree", str(tree_file)]
        )
        assert code == 0
        assert envelope["result"]["count"] == "24"

    def test_star_preset(self, capsys, k4_file):
        code, envelope = run_json(capsys, ["count", "--graph", k4_file, "--tree", "star:3"])
        assert code == 0
        assert envelope["result"]["count"] == "24"

    def test_payload_deterministic(self, capsys, k4_file):
        _, first = run_json(capsys, ["count", "--graph", k4_file, "--tree", "path:3"])
        _, second = run_json(capsys, ["count", "--graph", k4_file, "--tree", "path:3"])
        assert first["result"] == second["result"]
        assert first["inputs"] == second["inputs"]


class TestHomAndWalks:
    def test_hom_dp(self, capsys, k4_file):
        code, envelope = run_json(capsys, ["hom", "--graph", k4_file, "--tree", "path:2"])
        assert code == 0
        assert envelope["result"] == {"count": "36", "method": "dp"}

    def test_hom_brute(self, capsys, k4_file):
        # hom takes no --method: it always runs the DP
        assert main(["hom", "--graph", k4_file, "--tree", "path:2", "--method", "brute"]) == 2

    def test_walks(self, capsys, k4_file):
        code, envelope = run_json(capsys, ["walks", "--graph", k4_file, "--length", "3"])
        assert code == 0
        assert envelope["result"]["count"] == "108"


class TestBounds:
    def test_k4_t2(self, capsys, k4_file):
        code, envelope = run_json(capsys, ["bounds", "--graph", k4_file, "--t", "2"])
        assert code == 0
        bounds = envelope["result"]["bounds"]
        assert bounds["copies_local"]["log"] == pytest.approx(math.log(24), abs=1e-9)
        assert bounds["copies_p3"]["applicable"] is False
        assert envelope["result"]["d"] == "3/1"

    def test_with_k(self, capsys, k4_file):
        code, envelope = run_json(capsys, ["bounds", "--graph", k4_file, "--t", "2", "--k", "2"])
        assert code == 0
        assert envelope["result"]["bounds"]["copies_induced"]["applicable"] is True

    def test_csv_format(self, capsys, k4_file):
        code = main(["bounds", "--graph", k4_file, "--t", "2", "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        assert lines[0] == "bound,applicable,log,reason"
        assert any(line.startswith("copies_local,true") for line in lines)
        meta = json.loads(captured.err)
        assert meta["schemaVersion"] == "1"
        assert "result" not in meta


class TestGTable:
    def test_exact_majorant(self, capsys, k4_file):
        code, envelope = run_json(
            capsys, ["gtable", "--graph", k4_file, "--tree", "path:3", "--measure", "p"]
        )
        assert code == 0
        result = envelope["result"]
        assert result["mode"] == "exact"
        assert result["table"]["rows"][0] == ["1/2", "1/2", "1/2", "1/2"]
        assert result["minSlack"] == "1/4"

    def test_exact_hom_profile(self, capsys, k4_file):
        code, envelope = run_json(
            capsys, ["gtable", "--graph", k4_file, "--tree", "path:2", "--measure", "Pprime"]
        )
        assert code == 0
        assert envelope["result"]["equalsDegreeProfile"] is True

    def test_monte_carlo(self, capsys, k4_file):
        code, envelope = run_json(
            capsys,
            ["gtable", "--graph", k4_file, "--tree", "path:3", "--measure", "P",
             "--samples", "2000", "--seed", "3"],
        )
        assert code == 0
        assert envelope["result"] == K4_MONTE_CARLO_SEED3

    @pytest.mark.parametrize(
        "extra", [[], ["--samples", "2000", "--seed", "3"]], ids=["exact", "monte-carlo"]
    )
    def test_csv_lists_every_cell(self, capsys, k4_file, extra):
        argv = ["gtable", "--graph", k4_file, "--tree", "path:3", "--measure", "P", *extra]
        assert main([*argv, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        if extra:
            cells = K4_MONTE_CARLO_SEED3["table"]["rows"]
        else:
            cells = [["1/4"] * 4] * 4  # K4/P3: by symmetry every ISO cell is 1/4
        expected = [f"{i},{v},{c}" for i, row in enumerate(cells, 1) for v, c in enumerate(row)]
        assert lines == ["i,v,weight", *expected]

    def test_monte_carlo_rejected_for_other_measures(self, capsys, k4_file):
        code = main(
            ["gtable", "--graph", k4_file, "--tree", "path:3", "--measure", "p",
             "--samples", "10"]
        )
        assert code == 2


class TestSample:
    def test_deterministic_and_complete(self, capsys, k4_file):
        argv = ["sample", "--graph", k4_file, "--tree", "path:3", "--samples", "500", "--seed", "4"]
        _, first = run_json(capsys, argv)
        _, second = run_json(capsys, argv)
        assert first["result"] == second["result"] == K4_SAMPLE_SEED4
        assert sum(first["result"]["frequencies"].values()) == 500
        for key in first["result"]["frequencies"]:
            assert len(key.split()) == 4

    def test_zero_samples_is_usage_error(self, capsys, k4_file):
        argv = ["sample", "--graph", k4_file, "--tree", "path:3", "--samples", "0", "--seed", "1"]
        assert main(argv) == 2
        assert "need at least 1 sample" in capsys.readouterr().err


class TestVerify:
    def test_k4_p3_passes(self, capsys, k4_file):
        code, envelope = run_json(capsys, ["verify", "--graph", k4_file, "--tree", "path:3"])
        assert code == 0
        assert envelope["result"]["allPassed"] is True
        assert envelope["result"]["skipped"] == 0
        assert len(envelope["result"]["checks"]) == 8

    def test_degree_gated_checks_skip_but_exit_zero(self, capsys, c5_file):
        code, envelope = run_json(capsys, ["verify", "--graph", c5_file, "--tree", "path:3"])
        assert code == 0
        assert envelope["result"]["skipped"] == 6
        assert envelope["result"]["allPassed"] is True

    def test_edgeless_graph_skips_every_check(self, capsys, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("3 0\n")
        code, envelope = run_json(capsys, ["verify", "--graph", str(path), "--tree", "path:2"])
        assert code == 0
        result = envelope["result"]
        assert result["allPassed"] is True and result["skipped"] == 8
        assert "chain" not in result
        assert result["checks"][-2:] == [
            {"name": name, "passed": None, "detail": "skipped: graph has no edges"}
            for name in ("hom-total-probability", "hom-degree-profile")
        ]

    def test_edgeless_instance_report_skips_hom_checks(self):
        checks, chain = instance_report(Graph.from_edges(3, []), path_tree(2))
        assert chain is None
        assert [c.passed for c in checks] == [None] * 8
        assert [c.detail for c in checks[-2:]] == ["skipped: graph has no edges"] * 2


class TestConjecture:
    def test_cliques(self, capsys):
        code, envelope = run_json(
            capsys,
            ["conjecture", "--family", "cliques", "--n", "15", "--t", "3",
             "--trials", "2", "--seed", "1", "--min-degree", "4"],
        )
        assert code == 0
        result = envelope["result"]
        assert result["summary"]["holds"] == 2
        assert all(row["verdict"] == "holds" for row in result["rows"])

    def test_random(self, capsys):
        code, envelope = run_json(
            capsys,
            ["conjecture", "--family", "random", "--n", "8", "--t", "2",
             "--trials", "5", "--seed", "7", "--min-degree", "3"],
        )
        assert code == 0
        assert envelope["result"]["summary"]["total"] == 5


    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_no_trials_is_usage_error(self, capsys, trials):
        argv = ["conjecture", "--family", "cliques", "--n", "4", "--t", "3",
                "--trials", trials, "--seed", "0", "--min-degree", "3"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"need at least 1 trial, got {trials}" in captured.err

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--family", "random", "--n", "0"], "degree floor must be in 0..-1, got 6"),
            (["--family", "random", "--n", "8", "--edge-probability", "1.5"],
             "edge probability must be in (0, 1], got 1.5"),
            (["--family", "random", "--n", "8", "--min-degree", "-1"],
             "degree floor must be in 0..7, got -1"),
            (["--family", "cliques", "--n", "8", "--min-degree", "-1"],
             "clique order must be >= 2, got 0"),
        ],
        ids=["random-n0", "random-p-above-1", "random-floor-below-0", "cliques-floor-below-0"],
    )
    def test_unbuildable_family_is_usage_error(self, capsys, options, message):
        argv = ["conjecture", *options, "--t", "3", "--trials", "4", "--seed", "0"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_csv_matches_library_writer(self, capsys):
        argv = ["conjecture", "--family", "random", "--n", "10", "--t", "3",
                "--trials", "6", "--seed", "5", "--min-degree", "4"]
        assert main(argv) == 0
        json_out = capsys.readouterr().out
        assert main(argv + ["--format", "csv"]) == 0
        csv_out = capsys.readouterr().out
        config = ConjectureScanConfig(
            family="random", n=10, t=3, trials=6, seed=5, min_degree=4
        )
        rows = conjecture_scan(config)
        assert csv_out == conjecture_to_csv(rows)
        assert json.loads(json_out)["result"] == conjecture_to_json(rows)


class TestCsvOutput:
    @pytest.mark.parametrize("case", K4_CSV)
    def test_k4_stdout_is_pinned(self, capsys, tmp_path, k4_file, case):
        argv, expected = K4_CSV[case]
        graph = k4_file
        if case == "verify-edgeless":
            graph = tmp_path / "e.txt"
            graph.write_text("3 0\n")
        if argv[0] not in ("conjecture", "gen"):
            argv = [argv[0], "--graph", str(graph), *argv[1:]]
        assert main([*argv, "--format", "csv"]) == 0
        assert capsys.readouterr().out == expected


class TestInputs:
    """The envelope's inputs, and input files with a UTF-8 byte order mark."""

    BOM = b"\xef\xbb\xbf"

    @pytest.mark.parametrize("case", K4_CSV)
    def test_inputs_are_the_commands_options(self, capsys, k4_file, case):
        argv = K4_CSV[case][0]
        if argv[0] not in ("conjecture", "gen"):
            argv = [argv[0], "--graph", k4_file, *argv[1:]]
        code, envelope = run_json(capsys, argv)
        assert code == 0
        expected = {"conjecture": set(), "gen": set(), "walks": {"graph"}, "bounds": {"graph"}}
        assert set(envelope["inputs"]) == expected.get(argv[0], {"graph", "tree"})

    def test_conjecture_tree_is_its_only_input(self, capsys):
        argv = ["conjecture", "--family", "cliques", "--n", "4", "--t", "3", "--trials", "1",
                "--seed", "0", "--min-degree", "3", "--tree", "star:3"]
        code, envelope = run_json(capsys, argv)
        assert code == 0
        assert set(envelope["inputs"]) == {"tree"}

    def test_bom_graph_file(self, capsys, tmp_path, k4_file):
        bom = tmp_path / "bom.txt"
        bom.write_bytes(self.BOM + Path(k4_file).read_bytes())
        _, plain = run_json(capsys, ["count", "--graph", k4_file, "--tree", "path:3"])
        code, envelope = run_json(capsys, ["count", "--graph", str(bom), "--tree", "path:3"])
        assert code == 0
        assert envelope["result"] == plain["result"] == {"count": "24", "method": "enumeration"}
        assert envelope["inputs"]["graph"]["sha256"] == plain["inputs"]["graph"]["sha256"]

    def test_bom_tree_file(self, capsys, tmp_path, k4_file):
        plain, bom = tmp_path / "p2.txt", tmp_path / "bom.txt"
        plain.write_bytes(b"3 2\n1 2\n2 3\n")
        bom.write_bytes(self.BOM + plain.read_bytes())
        envelopes = [
            run_json(capsys, ["count", "--graph", k4_file, "--tree", str(tree)])[1]
            for tree in (plain, bom)
        ]
        assert [e["result"]["count"] for e in envelopes] == ["24", "24"]
        assert envelopes[0]["inputs"]["tree"]["sha256"] == envelopes[1]["inputs"]["tree"]["sha256"]

    def test_bom_file_with_a_bad_byte_keeps_its_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(self.BOM + b"2 1\n0 1\n\xff\n")
        assert main(["count", "--graph", str(bad), "--tree", "path:1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: line 3: --graph {bad}: can't decode byte 0xff as UTF-8 (invalid start byte)\n"
        )


class TestGen:
    def test_gen_cliques_round_trips(self, capsys, tmp_path):
        out = tmp_path / "cl.txt"
        code, envelope = run_json(capsys, ["gen", "cliques", "3", "5", "-o", str(out)])
        assert code == 0
        assert envelope["result"]["n"] == 15
        assert envelope["result"]["m"] == 30
        text = out.read_text()
        assert text.startswith("15 30\n")

    def test_gen_without_output_embeds_content(self, capsys):
        code, envelope = run_json(capsys, ["gen", "cycle", "5"])
        assert code == 0
        assert envelope["result"]["content"].startswith("5 5\n")

    def test_gen_random(self, capsys, tmp_path):
        out = tmp_path / "r.txt"
        code, envelope = run_json(
            capsys, ["gen", "random", "10", "0.5", "3", "7", "-o", str(out)]
        )
        assert code == 0
        assert envelope["result"]["minDegree"] >= 3


class TestExitCodes:
    def test_missing_file_is_format_error(self, capsys):
        assert main(["count", "--graph", "no-such.txt", "--tree", "path:2"]) == 3

    def test_malformed_graph_is_format_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 1\n0 0\n")
        assert main(["count", "--graph", str(bad), "--tree", "path:2"]) == 3
        assert "self-loop" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--graph", "--tree"])
    def test_undecodable_file_is_format_error(self, capsys, tmp_path, k4_file, option):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"2 1\n0 1\n\xff\n" if option == "--graph" else b"2 1\n1 2\n\xff\n")
        files = {"--graph": k4_file, "--tree": "path:1", option: str(bad)}
        assert main(["count", "--graph", files["--graph"], "--tree", files["--tree"]]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        # the bad byte opens line 3, and the message names the option and the file
        assert captured.err.startswith(f"error: line 3: {option} {bad}: ")
        assert "can't decode byte 0xff" in captured.err

    @pytest.mark.parametrize(
        "option, content, detail",
        [
            ("--graph", "4 x\n", "header must be two integers, got '4 x'"),
            ("--tree", "3 x\n", "header must be two integers, got '3 x'"),
        ],
        ids=["--graph", "--tree"],
    )
    def test_parse_error_names_its_input(self, capsys, tmp_path, k4_file, option, content, detail):
        bad = tmp_path / "bad.txt"
        bad.write_text(content)
        files = {"--graph": k4_file, "--tree": "path:2", option: str(bad)}
        assert main(["count", "--graph", files["--graph"], "--tree", files["--tree"]]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: line 1: {option} {bad}: {detail}\n"

    @pytest.mark.parametrize("option", ["--graph", "--tree"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_file_names_its_input(self, capsys, tmp_path, k4_file, option, kind):
        bad = tmp_path / "no-such.txt" if kind == "missing" else tmp_path
        reason = os.strerror(errno.ENOENT if kind == "missing" else errno.EISDIR)
        files = {"--graph": k4_file, "--tree": "path:2", option: str(bad)}
        assert main(["count", "--graph", files["--graph"], "--tree", files["--tree"]]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {option} {bad}: {reason}\n"

    @pytest.mark.parametrize("command", ["count", "hom", "gtable", "sample", "verify"])
    def test_graph_is_read_before_the_tree(self, capsys, tmp_path, command):
        bad_graph, bad_tree = tmp_path / "g.txt", tmp_path / "t.txt"
        bad_graph.write_text("4 x\n")
        bad_tree.write_text("3 x\n")
        extra = {"gtable": ["--measure", "P"], "sample": ["--samples", "1", "--seed", "0"]}
        argv = [command, "--graph", str(bad_graph), "--tree", str(bad_tree)]
        assert main([*argv, *extra.get(command, [])]) == 3
        assert capsys.readouterr().err.startswith(f"error: line 1: --graph {bad_graph}: ")

    @pytest.mark.parametrize("command", ["count", "conjecture"])
    def test_empty_tree_name_is_read_as_a_file(self, capsys, k4_file, command):
        # '' names the working directory, not "no tree": conjecture does not
        # fall back to its default path
        if command == "count":
            argv = ["count", "--graph", k4_file]
        else:
            argv = ["conjecture", "--family", "cliques", "--n", "4", "--t", "3",
                    "--trials", "1", "--seed", "0", "--min-degree", "3"]
        assert main([*argv, "--tree", ""]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --tree : ")

    def test_bad_usage(self, capsys):
        assert main(["count", "--graph"]) == 2
        assert main(["no-such-command"]) == 2

    def test_bad_preset_is_usage_error(self, capsys, k4_file):
        assert main(["count", "--graph", k4_file, "--tree", "path:x"]) == 2

    def test_work_cap_env(self, capsys, monkeypatch, k4_file):
        monkeypatch.setenv("TREEBOUND_WORK_CAP", "10")
        assert main(["count", "--graph", k4_file, "--tree", "path:3"]) == 4
        assert "work cap" in capsys.readouterr().err

    def test_work_cap_spares_only_the_hom_table(self, capsys, monkeypatch, k4_file):
        monkeypatch.setenv("TREEBOUND_WORK_CAP", "10")
        code, envelope = run_json(
            capsys, ["gtable", "--graph", k4_file, "--tree", "path:3", "--measure", "Pprime"]
        )
        assert code == 0 and envelope["result"]["equalsDegreeProfile"] is True
        for measure in ("P", "p"):
            args = ["gtable", "--graph", k4_file, "--tree", "path:3", "--measure", measure]
            assert main(args) == 4

    def test_invalid_work_cap_env(self, capsys, monkeypatch, k4_file):
        monkeypatch.setenv("TREEBOUND_WORK_CAP", "lots")
        assert main(["count", "--graph", k4_file, "--tree", "path:3"]) == 2

    def test_negative_work_cap_env_is_usage_error(self, capsys, monkeypatch, k4_file, c5_file):
        monkeypatch.setenv("TREEBOUND_WORK_CAP", "-5")
        # verify below the degree hypothesis, the Pprime table and the scan run
        # no copy pass that would charge the cap: the CLI rejects it up front
        for argv in (
            ["count", "--graph", k4_file, "--tree", "path:3"],
            ["verify", "--graph", k4_file, "--tree", "path:3"],
            ["verify", "--graph", c5_file, "--tree", "path:3"],
            ["gtable", "--graph", k4_file, "--tree", "path:3", "--measure", "Pprime"],
            ["conjecture", "--family", "cliques", "--n", "4", "--t", "3", "--trials", "2",
             "--seed", "0", "--min-degree", "3"],
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "work cap must be >= 0, got -5" in captured.err
        monkeypatch.setenv("TREEBOUND_WORK_CAP", "0")
        assert main(["count", "--graph", k4_file, "--tree", "path:3"]) == 4

    def test_tree_too_deep_for_the_search_is_usage_error(self, capsys, tmp_path):
        cycle = tmp_path / "c1200.txt"
        cycle.write_text(serialize_graph(gen_cycle(1200)))
        assert main(["count", "--graph", str(cycle), "--tree", "path:1100"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tree with 1100 edges (1101 vertices) is too deep" in captured.err

    def test_retry_cap_maps_to_work_cap_exit(self, capsys, tmp_path):
        out = tmp_path / "r.txt"
        code = main(
            ["gen", "random", "4", "0.05", "3", "1", "--max-tries", "5", "-o", str(out)]
        )
        assert code == 4

    @pytest.mark.parametrize("max_tries", ["0", "-3"])
    def test_max_tries_below_one_is_usage_error(self, capsys, tmp_path, max_tries):
        out = tmp_path / "r.txt"
        argv = ["gen", "random", "10", "0.5", "2", "1", "--max-tries", max_tries, "-o", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"max tries must be >= 1, got {max_tries}" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["missing-directory", "directory"])
    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, kind):
        out = tmp_path / "no-such-dir" / "k4.txt" if kind == "missing-directory" else tmp_path
        reason = os.strerror(errno.ENOENT if kind == "missing-directory" else errno.EISDIR)
        assert main(["gen", "cliques", "1", "4", "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --output {out}: {reason}\n"


class TestEntryPoint:
    """`python -m treebound` in a child process: exit codes reach the OS."""

    SRC = Path(__file__).resolve().parents[1] / "src"

    def run(self, *argv):
        env = {**os.environ, "PYTHONPATH": str(self.SRC)}
        return subprocess.run(
            [sys.executable, "-m", "treebound", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )

    def test_count_result_matches_in_process_main(self, capsys, k4_file):
        argv = ["count", "--graph", k4_file, "--tree", "path:3"]
        child = self.run(*argv)
        assert child.returncode == 0
        code, envelope = run_json(capsys, argv)
        assert code == 0
        assert json.loads(child.stdout)["result"] == envelope["result"]

    def test_reader_closing_the_pipe_exits_141(self):
        # the envelope carries the ~0.6 MB graph file, more than a pipe buffers,
        # so the child is still writing when the reader goes away
        env = {**os.environ, "PYTHONPATH": str(self.SRC)}
        argv = [sys.executable, "-m", "treebound", "gen", "cliques", "40", "60"]
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        ) as child:
            assert child.stdout.read(10) == b'{\n  "comma'
            child.stdout.close()
            stderr = child.stderr.read()
            assert child.wait(timeout=60) == 141
        assert stderr == b""

    def test_usage_and_format_errors_reach_the_os(self, tmp_path):
        assert self.run("count", "--graph").returncode == 2
        bad = tmp_path / "bad.txt"
        bad.write_text("2 1\n0 0\n")
        child = self.run("count", "--graph", str(bad), "--tree", "path:2")
        assert child.returncode == 3
        assert "self-loop" in child.stderr
