"""CLI behavior and exit-code contract (0 ok, 1 verify fail, 2 input, 3 gave up,
4 broken path invariant)."""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from satpath.cli import run

from conftest import matching_pennies, prisoners_dilemma, rock_paper_scissors
import satpath
import satpath.paths
from satpath import Game, PathVerification, save_game


@pytest.fixture
def mp_file(tmp_path):
    target = tmp_path / "mp.json"
    save_game(matching_pennies(), target)
    return str(target)


@pytest.fixture
def pd_file(tmp_path):
    target = tmp_path / "pd.json"
    save_game(prisoners_dilemma(), target)
    return str(target)


class TestGen:
    def test_writes_valid_game(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code = run(["gen", "--players", "2", "--actions", "2,3", "--seed", "5", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["players"] == 2 and doc["actions"] == [2, 3]

    def test_stdout_when_no_out(self, capsys):
        assert run(["gen", "--players", "1", "--actions", "2", "--seed", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["players"] == 1

    def test_bad_actions_is_input_error(self, capsys):
        assert run(["gen", "--players", "2", "--actions", "2;2", "--seed", "1"]) == 2


class TestSolve:
    def test_matching_pennies(self, mp_file, capsys):
        assert run(["solve", "--game", mp_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["profile"] == [[0.5, 0.5], [0.5, 0.5]]
        assert doc["max_gap"] <= 1e-9

    def test_missing_game_file(self, tmp_path, capsys):
        assert run(["solve", "--game", str(tmp_path / "nope.json")]) == 2

    def test_malformed_game_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"players": 0}')
        assert run(["solve", "--game", str(bad)]) == 2

    def test_infinite_eps_is_input_error(self, mp_file, capsys):
        assert run(["solve", "--game", mp_file, "--eps", "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_huge_integer_payoff_is_input_error(self, tmp_path, capsys):
        game_file = tmp_path / "huge.json"
        game_file.write_text(
            '{"players": 1, "actions": [2], "payoffs": [[1, 1%s]]}' % ("0" * 400)
        )
        assert run(["solve", "--game", str(game_file)]) == 2
        err = capsys.readouterr().err
        assert err == "error: payoffs[0][1]: integer is beyond the range of a float\n"

    def test_unreachable_tolerance_is_incomplete(self, tmp_path, capsys):
        game_file = tmp_path / "irr.json"
        save_game(Game((2, 2), ([0.1, -0.2, -0.3, 0.4], [-0.1, 0.2, 0.3, -0.4])), game_file)
        assert run(["solve", "--game", str(game_file), "--eps", "1e-300"]) == 3


class TestPathVerifyPipeline:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_path_then_verify_exits_zero(self, mp_file, tmp_path, fmt, capsys):
        trace = tmp_path / f"trace.{fmt}"
        code = run(
            ["path", "--game", mp_file, "--seed", "3", "--init", "pure:0,0",
             "--format", fmt, "--out", str(trace)]
        )
        assert code == 0
        assert run(["verify", "--game", mp_file, "--in", str(trace)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True

    def test_verify_flags_bad_path(self, mp_file, tmp_path, capsys):
        trace = tmp_path / "bad.csv"
        trace.write_text(
            "step,step_kind,player,action,probability,gap,satisfied\n"
            "1,initial,0,0,1.0,0.0,true\n"
            "1,initial,0,1,0.0,0.0,true\n"
            "1,initial,1,0,1.0,2.0,false\n"
            "1,initial,1,1,0.0,2.0,false\n"
            "2,worse_step,0,0,0.5,0.0,false\n"
            "2,worse_step,0,1,0.5,0.0,false\n"
            "2,worse_step,1,0,1.0,0.0,true\n"
            "2,worse_step,1,1,0.0,0.0,true\n"
        )
        code = run(["verify", "--game", mp_file, "--in", str(trace), "--no-terminal-nash"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False and doc["step"] == 1 and doc["player"] == 0

    def test_malformed_trace_is_input_error(self, mp_file, tmp_path, capsys):
        # player 1's rows carry only negative action indices
        trace = tmp_path / "bad.csv"
        trace.write_text(
            "step,step_kind,player,action,probability,gap,satisfied\n"
            "1,initial,0,0,1.0,0.0,true\n"
            "1,initial,0,1,0.0,0.0,true\n"
            "1,initial,1,-1,1.0,2.0,false\n"
        )
        assert run(["verify", "--game", mp_file, "--in", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("broken", ["json-structure", "csv-kind"])
    def test_structurally_broken_trace_is_input_error(self, mp_file, tmp_path, broken, capsys):
        fmt = broken.split("-")[0]
        trace = tmp_path / f"trace.{fmt}"
        run(["path", "--game", mp_file, "--init", "pure:0,0", "--format", fmt,
             "--out", str(trace)])
        if fmt == "json":
            doc = json.loads(trace.read_text())
            doc["steps"][0].update(step_kind=["x"], satisfied=[7], gaps=[1.0])
            trace.write_text(json.dumps(doc))
        else:
            trace.write_text(trace.read_text().replace(",initial,", ",bogus_kind,"))
        capsys.readouterr()
        assert run(["verify", "--game", mp_file, "--in", str(trace)]) == 2
        err = capsys.readouterr().err
        assert "unknown step kind" in err and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_non_utf8_file_is_input_error(self, mp_file, tmp_path, command, capsys):
        binary = tmp_path / "bin.json"
        binary.write_bytes(b"\xff\xfe\x00garbage")
        argv = {
            "solve": ["solve", "--game", str(binary)],
            "verify": ["verify", "--game", mp_file, "--in", str(binary)],
        }[command]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: document: not UTF-8") and err.count("\n") == 1

    def test_broken_path_invariant_exits_four(self, mp_file, monkeypatch, capsys):
        monkeypatch.setattr(
            satpath.paths,
            "verify_path",
            lambda *args, **kwargs: PathVerification(ok=False, num_steps=1, reason="forced"),
        )
        assert run(["path", "--game", mp_file, "--init", "pure:0,0"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_random_init_path(self, pd_file, tmp_path):
        trace = tmp_path / "t.json"
        assert run(["path", "--game", pd_file, "--seed", "11", "--out", str(trace)]) == 0
        assert run(["verify", "--game", pd_file, "--in", str(trace)]) == 0

    def test_pipeline_over_generated_corpus_sample(self, tmp_path, capsys):
        # gen -> path -> verify must exit 0 end to end on random games
        for k, (players, actions) in enumerate(
            [(2, "2,2"), (2, "3,3"), (3, "2,3,2"), (3, "3,2,2"), (4, "2,2,2,2"), (4, "3,2,3,2")]
        ):
            game_file = tmp_path / f"g{k}.json"
            trace = tmp_path / f"g{k}.trace.json"
            assert run(
                ["gen", "--players", str(players), "--actions", actions,
                 "--seed", str(100 + k), "--out", str(game_file)]
            ) == 0
            assert run(
                ["path", "--game", str(game_file), "--seed", str(k),
                 "--out", str(trace)]
            ) == 0
            assert run(["verify", "--game", str(game_file), "--in", str(trace)]) == 0


class TestSimulate:
    def test_trajectory_verifies_without_terminal_requirement(self, mp_file, tmp_path, capsys):
        trace = tmp_path / "run.csv"
        code = run(
            ["simulate", "--game", mp_file, "--seed", "2", "--max-steps", "25",
             "--format", "csv", "--out", str(trace)]
        )
        assert code == 0
        code = run(
            ["verify", "--game", mp_file, "--in", str(trace), "--eps", "1e-6",
             "--no-terminal-nash", "--no-length-bound"]
        )
        assert code == 0

    def test_bad_init_spec(self, mp_file):
        assert run(["simulate", "--game", mp_file, "--init", "vertex:0"]) == 2


class TestBatch:
    def test_csv_summary(self, pd_file, tmp_path):
        out = tmp_path / "summary.csv"
        code = run(
            ["batch", "--game", pd_file, "--trials", "20", "--explorer", "pure_uniform",
             "--eps", "1e-9", "--seed", "6", "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("game,")
        assert len(lines) == 2
        assert lines[1].split(",")[4] == "1.0"  # hit_frequency

    def test_csv_quotes_game_names(self, tmp_path, capsys):
        game_file = tmp_path / "named.json"
        name = 'pennies, "v2"'
        save_game(Game((2, 2), matching_pennies().payoffs, name=name), game_file)
        code = run(
            ["batch", "--game", str(game_file), "--trials", "3", "--max-steps", "10",
             "--seed", "1", "--format", "csv"]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 2
        assert all(len(row) == 7 for row in rows)
        assert rows[1][0] == name

    def test_multiple_games_json(self, pd_file, mp_file, capsys):
        code = run(
            ["batch", "--game", pd_file, "--game", mp_file, "--trials", "5",
             "--max-steps", "30", "--seed", "1"]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["game_index"] for r in rows] == [0, 1]


class TestRunFlagValidation:
    def test_zero_eps_path_is_one_line_input_error(self, tmp_path, capsys):
        game_file = tmp_path / "rps.json"
        save_game(rock_paper_scissors(), game_file)
        code = run(["path", "--game", str(game_file), "--eps", "0", "--init", "pure:0,0"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_zero_budget(self, mp_file):
        assert run(["path", "--game", mp_file, "--budget", "0"]) == 2

    def test_budget_beyond_maxsize_is_input_error(self, tmp_path, capsys):
        game_file = tmp_path / "g.json"
        assert run(["gen", "--players", "3", "--actions", "2,2,2", "--seed", "5",
                    "--out", str(game_file)]) == 0
        code = run(["path", "--game", str(game_file), "--init", "pure:0,0,0",
                    "--budget", "100000000000000000000"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: budget must be at most") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["simulate", "batch"])
    def test_zero_max_steps(self, mp_file, command):
        assert run([command, "--game", mp_file, "--max-steps", "0"]) == 2

    @pytest.mark.parametrize("command", ["path", "simulate", "batch"])
    @pytest.mark.parametrize("eps", ["-1", "nan"])
    def test_bad_eps(self, mp_file, command, eps):
        assert run([command, "--game", mp_file, "--eps", eps]) == 2


def test_library_import_loads_no_cli():
    src = str(Path(satpath.__file__).resolve().parents[1])
    probe = "import sys, satpath; print('satpath.cli' in sys.modules, 'argparse' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "False"]
