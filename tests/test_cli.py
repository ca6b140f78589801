import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from treebound.cli import main
from treebound.graphs import gen_cycle, gen_disjoint_cliques, serialize_graph
from treebound.harness import (
    ConjectureScanConfig,
    conjecture_scan,
    conjecture_to_csv,
    conjecture_to_json,
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

    def test_retry_cap_maps_to_work_cap_exit(self, capsys, tmp_path):
        out = tmp_path / "r.txt"
        code = main(
            ["gen", "random", "4", "0.05", "3", "1", "--max-tries", "5", "-o", str(out)]
        )
        assert code == 4


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

    def test_usage_and_format_errors_reach_the_os(self, tmp_path):
        assert self.run("count", "--graph").returncode == 2
        bad = tmp_path / "bad.txt"
        bad.write_text("2 1\n0 0\n")
        child = self.run("count", "--graph", str(bad), "--tree", "path:2")
        assert child.returncode == 3
        assert "self-loop" in child.stderr
