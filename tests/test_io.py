"""Game document round-trips, validation errors, and trace emission."""

from __future__ import annotations

import json

import numpy as np
import pytest

from satpath import (
    ExplorerPolicy,
    GameFormatError,
    GameInputError,
    construct_path,
    emit_path,
    generate_random_game,
    load_game,
    parse_game_document,
    read_trace,
    run_dynamics,
    save_game,
)

from conftest import matching_pennies, pure, uniform


class TestGameRoundTrip:
    def test_save_load_is_bit_exact(self, tmp_path):
        game = generate_random_game(3, (2, 3, 2), seed=99, name="fixture")
        target = tmp_path / "game.json"
        save_game(game, target)
        loaded = load_game(target)
        assert loaded == game
        for a, b in zip(loaded.payoffs, game.payoffs):
            assert np.array_equal(a, b)

    def test_matching_pennies_document(self, tmp_path):
        game = matching_pennies()
        target = tmp_path / "mp.json"
        save_game(game, target)
        doc = json.loads(target.read_text())
        assert doc["players"] == 2
        assert doc["actions"] == [2, 2]
        assert doc["payoffs"][0] == [1.0, -1.0, -1.0, 1.0]
        assert doc["name"] == "matching-pennies"


class TestParseErrors:
    def test_wrong_payoff_length_names_key(self):
        doc = {"players": 2, "actions": [2, 2], "payoffs": [[1, 2, 3], [0, 0, 0, 0]]}
        with pytest.raises(GameFormatError, match=r"payoffs\[0\]"):
            parse_game_document(json.dumps(doc))

    def test_zero_players_rejected(self):
        doc = {"players": 0, "actions": [], "payoffs": []}
        with pytest.raises(GameFormatError, match="players"):
            parse_game_document(json.dumps(doc))

    def test_infinity_literal_rejected(self):
        text = '{"players": 1, "actions": [2], "payoffs": [[1.0, Infinity]]}'
        with pytest.raises(GameFormatError, match="non-finite"):
            parse_game_document(text)

    def test_overflowing_number_rejected(self):
        text = '{"players": 1, "actions": [2], "payoffs": [[1.0, 1e999]]}'
        with pytest.raises(GameFormatError, match=r"payoffs\[0\]"):
            parse_game_document(text)

    def test_huge_integer_names_position(self):
        # a JSON integer beyond float range parses as a Python int; converting
        # it used to escape as a bare OverflowError
        text = '{"players": 1, "actions": [2], "payoffs": [[1, 1%s]]}' % ("0" * 400)
        with pytest.raises(GameFormatError, match=r"payoffs\[0\]\[1\]"):
            parse_game_document(text)

    def test_non_numeric_entry_names_position(self):
        doc = {"players": 1, "actions": [2], "payoffs": [[1.0, "x"]]}
        with pytest.raises(GameFormatError, match=r"payoffs\[0\]\[1\]"):
            parse_game_document(json.dumps(doc))

    def test_actions_must_match_players(self):
        doc = {"players": 2, "actions": [2], "payoffs": [[0, 0], [0, 0]]}
        with pytest.raises(GameFormatError, match="actions"):
            parse_game_document(json.dumps(doc))

    def test_malformed_json(self):
        with pytest.raises(GameFormatError, match="JSON"):
            parse_game_document("{not json")

    def test_error_carries_key_attribute(self):
        doc = {"players": 2, "actions": [2, 2], "payoffs": [[1, 2, 3], [0, 0, 0, 0]]}
        with pytest.raises(GameFormatError) as exc_info:
            parse_game_document(json.dumps(doc))
        assert exc_info.value.key == "payoffs[0]"


class TestGenerateRandomGame:
    def test_deterministic_per_seed(self):
        a = generate_random_game(2, (2, 2), seed=7)
        b = generate_random_game(2, (2, 2), seed=7)
        assert a == b

    def test_neighboring_seeds_differ(self):
        a = generate_random_game(2, (2, 2), seed=7)
        b = generate_random_game(2, (2, 2), seed=8)
        assert a != b

    def test_shape_and_range(self):
        game = generate_random_game(2, (2, 2), seed=1)
        assert len(game.payoffs) == 2
        for arr in game.payoffs:
            assert arr.size == 4
            assert np.all(np.abs(arr) <= 1.0)

    def test_count_mismatch_rejected(self):
        with pytest.raises(GameInputError, match="action counts"):
            generate_random_game(3, (2, 2), seed=0)


class TestEmitAndParse:
    def test_csv_row_count_for_single_step_path(self, rps, tmp_path):
        path = construct_path(rps, uniform(rps))
        assert len(path) == 1
        target = tmp_path / "trace.csv"
        emit_path(path, "csv", target)
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "step,step_kind,player,action,probability,gap,satisfied"
        assert len(lines) - 1 == sum(rps.action_counts)

    def test_csv_and_json_carry_identical_values(self, mp, tmp_path):
        path = construct_path(mp, pure(mp, (0, 0)))
        csv_file, json_file = tmp_path / "t.csv", tmp_path / "t.json"
        emit_path(path, "csv", csv_file)
        emit_path(path, "json", json_file)
        a, b = read_trace(csv_file), read_trace(json_file)
        assert a.kinds == b.kinds
        assert len(a.profiles) == len(b.profiles)
        for pa, pb in zip(a.profiles, b.profiles):
            assert pa == pb  # bitwise, thanks to repr round-tripping
        assert a.gaps == b.gaps
        assert a.satisfied == b.satisfied

    def test_emitted_profiles_round_trip_bitwise(self, mp, tmp_path):
        path = construct_path(mp, pure(mp, (0, 0)))
        target = tmp_path / "trace.json"
        emit_path(path, "json", target)
        parsed = read_trace(target)
        for original, reread in zip(path.profiles, parsed.profiles):
            assert original == reread

    def test_trajectory_emission(self, pd, tmp_path):
        traj = run_dynamics(
            pd, pure(pd, (0, 0)), epsilon=1e-9, max_steps=50,
            explorer=ExplorerPolicy(kind="pure_uniform"), seed=4,
        )
        target = tmp_path / "run.json"
        emit_path(traj, "json", target)
        parsed = read_trace(target)
        assert parsed.meta["type"] == "trajectory"
        assert parsed.meta["hit_step"] == traj.hit_step
        assert parsed.kinds[0] == "initial"
        assert all(k == "dynamics_step" for k in parsed.kinds[1:])

    def test_unknown_format_rejected(self, mp, tmp_path):
        path = construct_path(mp, uniform(mp))
        with pytest.raises(GameInputError, match="format"):
            emit_path(path, "xml", tmp_path / "t.xml")

    def test_non_trace_object_rejected(self, tmp_path):
        with pytest.raises(GameInputError, match="emit"):
            emit_path([1, 2, 3], "csv", tmp_path / "t.csv")

    def test_write_failure_names_destination(self, mp, tmp_path):
        path = construct_path(mp, uniform(mp))
        bad = tmp_path / "missing-dir" / "t.csv"
        with pytest.raises(OSError, match="missing-dir"):
            emit_path(path, "csv", bad)

    def test_csv_header_validated_on_read(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(GameFormatError, match="header"):
            read_trace(bad)

    @pytest.mark.parametrize("reader", [load_game, read_trace])
    def test_non_utf8_file_is_format_error(self, tmp_path, reader):
        binary = tmp_path / "bin.json"
        binary.write_bytes(b"\xff\xfe\x00garbage")
        with pytest.raises(GameFormatError, match="not UTF-8") as exc_info:
            reader(binary)
        assert exc_info.value.key == "document"


_TRACE_HEADER = "step,step_kind,player,action,probability,gap,satisfied\n"
# a well-formed two-step matching-pennies trace, one row per line
_TRACE_ROWS = [
    "1,initial,0,0,1.0,0.0,true",
    "1,initial,0,1,0.0,0.0,true",
    "1,initial,1,0,1.0,2.0,false",
    "1,initial,1,1,0.0,2.0,false",
    "2,worse_step,0,0,1.0,0.0,true",
    "2,worse_step,0,1,0.0,0.0,true",
    "2,worse_step,1,0,0.5,0.0,true",
    "2,worse_step,1,1,0.5,0.0,true",
]


def _write_trace(tmp_path, rows):
    target = tmp_path / "trace.csv"
    target.write_text(_TRACE_HEADER + "".join(row + "\n" for row in rows))
    return target


class TestCsvTraceIndices:
    def test_well_formed_trace_parses(self, tmp_path):
        parsed = read_trace(_write_trace(tmp_path, _TRACE_ROWS))
        assert parsed.kinds == ("initial", "worse_step")
        np.testing.assert_array_equal(parsed.profiles[1][1].probs, [0.5, 0.5])

    @pytest.mark.parametrize(
        "rows, match",
        [
            # player 1's rows carry only negative action indices
            (_TRACE_ROWS[:2] + ["1,initial,1,-1,1.0,2.0,false"], "out-of-range"),
            # -1 would otherwise overwrite the last entry of the vector
            (_TRACE_ROWS[:3] + ["1,initial,1,-1,0.0,2.0,false"], "out-of-range"),
            (["1,initial,-1,0,1.0,0.0,true"] + _TRACE_ROWS[1:4], "out-of-range"),
            (["-1" + row[1:] for row in _TRACE_ROWS[:4]], "out-of-range"),
            (["0" + row[1:] for row in _TRACE_ROWS[:4]], "out-of-range"),
            (_TRACE_ROWS + ["2,worse_step,1,1,0.5,0.0,true"], "repeats"),
            # player 1's action-0 row is missing, so action 1 leaves a gap
            (_TRACE_ROWS[:2] + _TRACE_ROWS[3:], "actions .* gap"),
            (_TRACE_ROWS[:4] + ["2" + row[1:] for row in _TRACE_ROWS[2:4]], "players .* gap"),
            (_TRACE_ROWS[:4] + ["3" + row[1:] for row in _TRACE_ROWS[4:]], "steps .* gap"),
        ],
        ids=[
            "only-negative-actions",
            "negative-action",
            "negative-player",
            "negative-step",
            "step-zero",
            "duplicate-row",
            "missing-action-row",
            "missing-player",
            "missing-step",
        ],
    )
    def test_bad_index_rejected(self, tmp_path, rows, match):
        with pytest.raises(GameFormatError, match=match):
            read_trace(_write_trace(tmp_path, rows))


class TestCsvTraceConsistency:
    @pytest.mark.parametrize(
        "rows",
        [
            _TRACE_ROWS[:1] + ["1,case1_jump,0,1,0.0,0.0,true"] + _TRACE_ROWS[2:],
            _TRACE_ROWS[:3] + ["1,initial,1,1,0.0,1.5,false"] + _TRACE_ROWS[4:],
            _TRACE_ROWS[:1] + ["1,initial,0,1,0.0,0.0,false"] + _TRACE_ROWS[2:],
        ],
        ids=["kind-within-step", "gap-within-player", "flag-within-player"],
    )
    def test_disagreeing_rows_rejected(self, tmp_path, rows):
        with pytest.raises(GameFormatError, match="disagreeing"):
            read_trace(_write_trace(tmp_path, rows))
