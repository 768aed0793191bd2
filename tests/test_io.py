"""Game document round-trips, validation errors, and trace emission."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from satpath import (
    ExplorerPolicy,
    Game,
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
from satpath.cli import run

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

    @pytest.mark.parametrize("name", ["fixture", None])
    def test_name_round_trips(self, tmp_path, name):
        game = Game((2, 2), matching_pennies().payoffs, name=name)
        target = tmp_path / "game.json"
        save_game(game, target)
        loaded = load_game(target)
        assert loaded == game and loaded.name == name

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


# Emitted trace text, byte for byte: the matching-pennies path from pure (0, 0)
# and a three-profile matching-pennies trajectory from the same start.
_PATH_JSON = """\
{
  "type": "satisficing_path",
  "epsilon": 1e-09,
  "terminal_gap": 0.0,
  "escalations": 0,
  "steps": [
    {
      "step": 1,
      "step_kind": "initial",
      "profile": [
        [
          1.0,
          0.0
        ],
        [
          1.0,
          0.0
        ]
      ],
      "gaps": [
        0.0,
        2.0
      ],
      "satisfied": [
        0
      ]
    },
    {
      "step": 2,
      "step_kind": "worse_step",
      "profile": [
        [
          1.0,
          0.0
        ],
        [
          0.25,
          0.75
        ]
      ],
      "gaps": [
        1.0,
        0.5
      ],
      "satisfied": []
    },
    {
      "step": 3,
      "step_kind": "case1_jump",
      "profile": [
        [
          0.5,
          0.5
        ],
        [
          0.5,
          0.5
        ]
      ],
      "gaps": [
        0.0,
        0.0
      ],
      "satisfied": [
        0,
        1
      ]
    }
  ]
}
"""

_PATH_CSV = """\
step,step_kind,player,action,probability,gap,satisfied
1,initial,0,0,1.0,0.0,true
1,initial,0,1,0.0,0.0,true
1,initial,1,0,1.0,2.0,false
1,initial,1,1,0.0,2.0,false
2,worse_step,0,0,1.0,1.0,false
2,worse_step,0,1,0.0,1.0,false
2,worse_step,1,0,0.25,0.5,false
2,worse_step,1,1,0.75,0.5,false
3,case1_jump,0,0,0.5,0.0,true
3,case1_jump,0,1,0.5,0.0,true
3,case1_jump,1,0,0.5,0.0,true
3,case1_jump,1,1,0.5,0.0,true
"""

_TRAJECTORY_JSON = """\
{
  "type": "trajectory",
  "seed": 0,
  "hit_step": null,
  "steps": [
    {
      "step": 1,
      "step_kind": "initial",
      "profile": [
        [
          1.0,
          0.0
        ],
        [
          1.0,
          0.0
        ]
      ],
      "gaps": [
        0.0,
        2.0
      ],
      "satisfied": [
        0
      ]
    },
    {
      "step": 2,
      "step_kind": "dynamics_step",
      "profile": [
        [
          1.0,
          0.0
        ],
        [
          0.4000707853732506,
          0.5999292146267494
        ]
      ],
      "gaps": [
        0.3997168585069977,
        0.8001415707465012
      ],
      "satisfied": []
    },
    {
      "step": 3,
      "step_kind": "dynamics_step",
      "profile": [
        [
          0.8972038510508373,
          0.10279614894916263
        ],
        [
          0.25241805539539025,
          0.7475819446046097
        ]
      ],
      "gaps": [
        0.8885258965996436,
        0.40104569471125046
      ],
      "satisfied": []
    }
  ]
}
"""

_TRAJECTORY_CSV = """\
step,step_kind,player,action,probability,gap,satisfied
1,initial,0,0,1.0,0.0,true
1,initial,0,1,0.0,0.0,true
1,initial,1,0,1.0,2.0,false
1,initial,1,1,0.0,2.0,false
2,dynamics_step,0,0,1.0,0.3997168585069977,false
2,dynamics_step,0,1,0.0,0.3997168585069977,false
2,dynamics_step,1,0,0.4000707853732506,0.8001415707465012,false
2,dynamics_step,1,1,0.5999292146267494,0.8001415707465012,false
3,dynamics_step,0,0,0.8972038510508373,0.8885258965996436,false
3,dynamics_step,0,1,0.10279614894916263,0.8885258965996436,false
3,dynamics_step,1,0,0.25241805539539025,0.40104569471125046,false
3,dynamics_step,1,1,0.7475819446046097,0.40104569471125046,false
"""


class TestTraceText:
    """Emitted traces equal fixed text, so a change to how a step's profile,
    gaps or satisfied set is rendered shows here, not only in a round trip."""

    @staticmethod
    def _text(obj, fmt):
        out = io.StringIO()
        emit_path(obj, fmt, out)
        return out.getvalue()

    def test_path(self, mp):
        path = construct_path(mp, pure(mp, (0, 0)))
        assert self._text(path, "json") == _PATH_JSON
        assert self._text(path, "csv") == _PATH_CSV

    def test_trajectory(self, mp):
        traj = run_dynamics(mp, pure(mp, (0, 0)), max_steps=3, seed=0)
        assert len(traj) == 3
        assert self._text(traj, "json") == _TRAJECTORY_JSON
        assert self._text(traj, "csv") == _TRAJECTORY_CSV


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
            # the JSON reader's step rule: two steps numbered up to 3 leave a gap
            (_TRACE_ROWS[:4] + ["3" + row[1:] for row in _TRACE_ROWS[4:]],
             "step must be an integer from 1 to 2, got 3"),
            # a non-finite gap, the same on each of the player's rows
            ([row.replace(",0.0,true", ",nan,true") for row in _TRACE_ROWS], "must be finite"),
            ([row.replace(",2.0,false", ",inf,false") for row in _TRACE_ROWS], "must be finite"),
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
            "nan-gap",
            "inf-gap",
        ],
    )
    def test_bad_index_rejected(self, tmp_path, rows, match):
        with pytest.raises(GameFormatError, match=match):
            read_trace(_write_trace(tmp_path, rows))

    def test_oversized_field_rejected(self, tmp_path):
        # the csv module refuses a field over csv.field_size_limit() (131,072
        # characters by default) with csv.Error, which must not escape
        rows = _TRACE_ROWS[:3] + ["1,initial,1,1,0." + "0" * 200_000 + ",2.0,false"]
        with pytest.raises(GameFormatError, match="field larger than field limit"):
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


# the two steps of _TRACE_ROWS as the step objects a JSON trace lists
_STEPS = [
    {"step": 1, "step_kind": "initial", "profile": [[1.0, 0.0], [1.0, 0.0]],
     "gaps": [0.0, 2.0], "satisfied": [0]},
    {"step": 2, "step_kind": "worse_step", "profile": [[1.0, 0.0], [0.5, 0.5]],
     "gaps": [0.0, 0.0], "satisfied": [0, 1]},
]


def _trace_file(tmp_path, fmt, steps):
    """The step objects ``steps`` written as a JSON or a CSV trace."""
    if fmt == "json":
        target = tmp_path / "trace.json"
        target.write_text(json.dumps({"steps": steps}))
        return target
    return _write_trace(tmp_path, [
        f"{s['step']},{s['step_kind']},{i},{a},{p!r},{s['gaps'][i]!r},"
        f"{str(i in s['satisfied']).lower()}"
        for s in steps for i, vec in enumerate(s["profile"]) for a, p in enumerate(vec)
    ])


class TestStepRulesInBothFormats:
    """A CSV trace's rows become the step objects a JSON trace lists, and one
    reader applies the step rules to both."""

    def test_steps_read_alike(self, tmp_path):
        parsed = read_trace(_trace_file(tmp_path, "json", _STEPS))
        assert read_trace(_trace_file(tmp_path, "csv", _STEPS)) == parsed
        assert read_trace(_write_trace(tmp_path, _TRACE_ROWS)) == parsed

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "change, match, keys",
        [
            ({"step": 3}, "step must be an integer from 1 to 2, got 3", ("steps[1]", "steps[1]")),
            # in a CSV trace, a second step under the first's number repeats its rows
            ({"step": 1, "step_kind": "initial"}, "repeats step 1", ("steps[1]", "document")),
            ({"profile": [[1.0, 0.0], [0.5, 0.6]]}, "player 1: mixed strategy sums to 1.1",
             ("steps[1]", "steps[1]")),
            # a CSV trace names the first row of the unknown kind
            ({"step_kind": "bogus_kind"}, "unknown step kind 'bogus_kind'",
             ("steps[1]", "document")),
        ],
        ids=["missing-step", "repeated-step", "bad-strategy", "unknown-kind"],
    )
    def test_rejected(self, tmp_path, fmt, change, match, keys):
        steps = [_STEPS[0], {**_STEPS[1], **change}]
        with pytest.raises(GameFormatError, match=match) as exc_info:
            read_trace(_trace_file(tmp_path, fmt, steps))
        assert exc_info.value.key == keys[fmt == "csv"]


def _broken_json_trace(tmp_path, mp, **step):
    """A two-player matching-pennies JSON trace with its first step's fields
    replaced by ``step``."""
    target = tmp_path / "trace.json"
    emit_path(construct_path(mp, pure(mp, (0, 0))), "json", target)
    doc = json.loads(target.read_text())
    doc["steps"][0].update(step)
    target.write_text(json.dumps(doc))
    return target


class TestTraceStructure:
    @pytest.mark.parametrize(
        "step, match",
        [
            ({"step_kind": ["x"]}, "unknown step kind"),
            ({"step_kind": "bogus_kind"}, "unknown step kind"),
            ({"gaps": [1.0]}, "1 gaps for 2 players"),
            ({"gaps": [0.0, 2.0, 0.0]}, "3 gaps for 2 players"),
            ({"satisfied": [7]}, "satisfied entry 7"),
            ({"satisfied": [-1]}, "satisfied entry -1"),
            ({"satisfied": [True]}, "satisfied entry True"),
            ({"satisfied": [0.0]}, "satisfied entry 0.0"),
            ({"satisfied": [0, 0]}, "repeats a player"),
            # strategies follow the library's rule: no string, bool or
            # beyond-float entry is converted
            ({"profile": [["0.5", "0.5"], [0.5, 0.5]]}, "must hold reals"),
            ({"profile": [[True, False], [0.5, 0.5]]}, "must hold reals"),
            ({"profile": [[10**400, 0], [0.5, 0.5]]}, "must hold reals"),
        ],
        ids=["list-kind", "unknown-kind", "short-gaps", "long-gaps", "player-out-of-range",
             "negative-player", "bool-player", "float-player", "repeated-player",
             "string-probability", "bool-probability", "huge-int-probability"],
    )
    def test_json_structure_rejected(self, mp, tmp_path, step, match):
        with pytest.raises(GameFormatError, match=match) as exc_info:
            read_trace(_broken_json_trace(tmp_path, mp, **step))
        assert exc_info.value.key == "steps[0]"

    def test_csv_unknown_kind_rejected(self, tmp_path):
        rows = [row.replace("worse_step", "bogus_kind") for row in _TRACE_ROWS]
        with pytest.raises(GameFormatError, match="row 6 has unknown step kind 'bogus_kind'"):
            read_trace(_write_trace(tmp_path, rows))


_STEP = '{"step": 1, "step_kind": "initial", "profile": [[0.5, 0.5], [0.5, 0.5]], "satisfied": [0, 1], '
_DEEP = "[" * 200_000 + "]" * 200_000


def _read_json(tmp_path, reader, text):
    if reader == "game":
        return parse_game_document(text)
    target = tmp_path / "trace.json"
    target.write_text(text)
    return read_trace(target)


class TestJsonDecoding:
    """Game documents and JSON traces share one decoder and one number rule."""

    @pytest.mark.parametrize(
        "reader, text, key, match",
        [
            ("game", '{"players": NaN, "actions": [2], "payoffs": [[0, 0]]}', "document",
             "non-finite value NaN"),
            ("game", '{"players": %s}' % _DEEP, "document", "not valid JSON"),
            ("game", '{"players": 1, "actions": [2], "payoffs": [[0, %s]]}' % ("1" * 5000),
             "document", "not valid JSON"),
            ("trace", '{"steps": [%s"gaps": [NaN, 0.0]}]}' % _STEP, "document",
             "non-finite value NaN"),
            ("trace", '{"steps": [%s"gaps": [0.0, -Infinity]}]}' % _STEP, "document",
             "non-finite value -Infinity"),
            ("trace", '{"steps": [%s"gaps": [1e999, 0.0]}]}' % _STEP, "steps[0]",
             r"gaps\[0\] must be finite, got inf"),
            ("trace", '{"steps": %s}' % _DEEP, "document", "not valid JSON"),
        ],
        ids=["nan-players", "deep-game", "long-integer-game", "nan-gap", "infinity-gap",
             "overflowing-gap", "deep-trace"],
    )
    def test_rejected(self, tmp_path, reader, text, key, match):
        with pytest.raises(GameFormatError, match=match) as exc_info:
            _read_json(tmp_path, reader, text)
        assert exc_info.value.key == key

    def test_well_formed_trace_text_reads(self, tmp_path):
        parsed = _read_json(tmp_path, "trace", '{"steps": [%s"gaps": [0.0, 0]}]}' % _STEP)
        assert parsed.gaps == ((0.0, 0.0),) and parsed.satisfied == ((0, 1),)


def _json_trace(tmp_path, mp):
    """A three-step matching-pennies JSON path trace and its decoded document."""
    target = tmp_path / "trace.json"
    path = construct_path(mp, pure(mp, (0, 0)))
    assert [s.kind for s in path.steps] == ["initial", "worse_step", "case1_jump"]
    emit_path(path, "json", target)
    return target, json.loads(target.read_text())


class TestJsonTraceSteps:
    """A JSON trace numbers its steps by the CSV reader's rule: integers from
    1, none repeated, none missing, and the steps are ordered by them."""

    @pytest.mark.parametrize(
        "numbers, t, match",
        [
            ([True, 2, 3], 0, "step must be an integer from 1 to 3, got True"),
            ([1.0, 2, 3], 0, "step must be an integer from 1 to 3, got 1.0"),
            (["1", 2, 3], 0, "step must be an integer from 1 to 3, got '1'"),
            ([None, 2, 3], 0, "step must be an integer from 1 to 3, got None"),
            ([0, 1, 2], 0, "step must be an integer from 1 to 3, got 0"),
            ([1, -2, 3], 1, "step must be an integer from 1 to 3, got -2"),
            ([1, 2, 2], 2, r"repeats step 2 of steps\[1\]"),
            ([3, 1, 3], 2, r"repeats step 3 of steps\[0\]"),
            # three steps numbered up to 4 leave a gap
            ([1, 2, 4], 2, "step must be an integer from 1 to 3, got 4"),
        ],
        ids=["bool", "float", "string", "null", "zero", "negative", "repeated",
             "repeated-first", "gap"],
    )
    def test_bad_step_rejected(self, mp, tmp_path, numbers, t, match):
        target, doc = _json_trace(tmp_path, mp)
        for step, number in zip(doc["steps"], numbers):
            step["step"] = number
        target.write_text(json.dumps(doc))
        with pytest.raises(GameFormatError, match=match) as exc_info:
            read_trace(target)
        assert exc_info.value.key == f"steps[{t}]"

    def test_missing_step_rejected(self, mp, tmp_path):
        target, doc = _json_trace(tmp_path, mp)
        del doc["steps"][1]["step"]
        target.write_text(json.dumps(doc))
        with pytest.raises(GameFormatError, match="malformed step") as exc_info:
            read_trace(target)
        assert exc_info.value.key == "steps[1]"

    def test_steps_are_ordered_by_number(self, mp, tmp_path):
        target, doc = _json_trace(tmp_path, mp)
        in_order = read_trace(target)
        doc["steps"] = doc["steps"][::-1]
        target.write_text(json.dumps(doc))
        assert read_trace(target) == in_order

    def test_emitted_trace_round_trips(self, mp, tmp_path):
        path = construct_path(mp, pure(mp, (0, 0)))
        target = tmp_path / "trace.json"
        emit_path(path, "json", target)
        parsed = read_trace(target)
        assert parsed.kinds == tuple(s.kind for s in path.steps)
        assert parsed.profiles == path.profiles
        assert parsed.gaps == tuple(tuple(s.report.gaps.tolist()) for s in path.steps)

    def test_verify_exits_2_with_one_error_line(self, mp, tmp_path, capsys):
        game_file = tmp_path / "mp.json"
        save_game(mp, game_file)
        target, doc = _json_trace(tmp_path, mp)
        assert run(["verify", "--game", str(game_file), "--in", str(target)]) == 0
        doc["steps"][2]["step"] = 2
        target.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", "--game", str(game_file), "--in", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: steps[2]: repeats step 2") and err.count("\n") == 1


_BOM = b"\xef\xbb\xbf"  # U+FEFF in UTF-8


class TestByteOrderMark:
    """One leading UTF-8 byte-order mark is skipped wherever a file is read."""

    @staticmethod
    def _twins(tmp_path, name, text):
        plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
        plain.write_text(text)
        marked.write_bytes(_BOM + text.encode())
        return plain, marked

    def test_game_file(self, mp, tmp_path):
        save_game(mp, tmp_path / "mp.json")
        plain, marked = self._twins(tmp_path, "g.json", (tmp_path / "mp.json").read_text())
        assert load_game(marked) == load_game(plain) == mp

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_trace(self, mp, tmp_path, fmt):
        out = io.StringIO()
        emit_path(construct_path(mp, pure(mp, (0, 0))), fmt, out)
        plain, marked = self._twins(tmp_path, f"t.{fmt}", out.getvalue())
        assert read_trace(marked) == read_trace(plain)

    def test_only_one_mark_is_skipped(self, mp, tmp_path):
        save_game(mp, tmp_path / "mp.json")
        twice = tmp_path / "twice.json"
        twice.write_bytes(_BOM + _BOM + (tmp_path / "mp.json").read_bytes())
        with pytest.raises(GameFormatError, match="not valid JSON"):
            load_game(twice)

    def test_cli_solve(self, mp, tmp_path, capsys):
        save_game(mp, tmp_path / "mp.json")
        plain, marked = self._twins(tmp_path, "g.json", (tmp_path / "mp.json").read_text())
        assert run(["solve", "--game", str(plain)]) == 0
        expected = capsys.readouterr().out
        assert run(["solve", "--game", str(marked)]) == 0
        assert capsys.readouterr().out == expected
