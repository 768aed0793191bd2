"""Game files, random game generation, and path/trajectory traces.

Game documents are JSON objects::

    {
      "name":    "matching-pennies",          # optional
      "players": 2,
      "actions": [2, 2],
      "payoffs": [[1.0, -1.0, -1.0, 1.0],
                  [-1.0, 1.0, 1.0, -1.0]]
    }

``payoffs[i]`` is player i's reward over action profiles in row-major
order with the LAST player's action varying fastest: entry k is the
profile ``np.unravel_index(k, actions)``.  Values must be finite; floats
are serialized with ``repr``, whose shortest-round-trip decimal form (at
most 17 significant digits) makes save/load bit-exact.

Traces of paths and trajectories are emitted as JSON (mirroring the
in-memory types) or CSV with columns
``step,step_kind,player,action,probability,gap,satisfied`` and one row
per (step, player, action); ``step`` is 1-based, ``player`` and
``action`` are 0-based.  A CSV trace's rows are turned into the step
objects a JSON trace lists, so one reader applies the step rules to both
formats: steps are numbered by integers from 1, none repeated and none
missing, and read in that order.  Files are read as UTF-8 without one
leading byte-order mark.

Game documents and JSON traces are read through one decoder, ``_decode``:
NaN and Infinity literals, malformed JSON, nesting too deep to decode and
a top level that is not an object raise ``GameFormatError`` with the key
``document``.  Every payoff and gap read, in either trace format, must be
a finite number, and each strategy of a trace is checked by
``MixedStrategy`` itself, so a string or bool entry is refused, not
converted.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from collections.abc import Iterable
from dataclasses import dataclass
from math import prod

import numpy as np

from .dynamics import _STEP_KIND, Trajectory
from .errors import GameFormatError, GameInputError
from .games import (
    MAX_ACTIONS,
    MAX_PLAYERS,
    Game,
    MixedStrategy,
    SatisfactionReport,
    StrategyProfile,
    _check_instance,
    _check_int,
    _check_seed,
)
from .paths import STEP_KINDS, SatisficingPath

TRACE_FORMATS = ("csv", "json")
_CSV_HEADER = ["step", "step_kind", "player", "action", "probability", "gap", "satisfied"]
# every step kind a path or trajectory trace can carry
_TRACE_KINDS = (*STEP_KINDS, _STEP_KIND)


def _reject_json_constant(token: str):
    raise GameFormatError("document", f"non-finite value {token} is not allowed")


def _decode(text: str) -> dict:
    """The JSON object ``text`` holds.  NaN and Infinity literals, malformed
    JSON (an integer too long to convert included), nesting too deep to
    decode and a top level that is not an object are format errors."""
    try:
        doc = json.loads(text, parse_constant=_reject_json_constant)
    except GameFormatError:  # a NaN or Infinity literal, already keyed
        raise
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise GameFormatError("document", f"not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise GameFormatError("document", "top level must be a JSON object")
    return doc


def _number(value, key: str, what: str = "") -> float:
    """A finite JSON number (not a bool) as a float; ``key`` and ``what`` name
    it on failure."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise GameFormatError(key, f"{what}must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise GameFormatError(key, f"{what}integer is beyond the range of a float") from None
    if not math.isfinite(number):
        raise GameFormatError(key, f"{what}must be finite, got {number!r}")
    return number


def parse_game_document(text: str) -> Game:
    """Parse and validate a JSON game document, naming the offending key on failure."""
    doc = _decode(text)
    players = doc.get("players")
    if isinstance(players, bool) or not isinstance(players, int):
        raise GameFormatError("players", f"must be an integer, got {players!r}")
    if not 1 <= players <= MAX_PLAYERS:
        raise GameFormatError("players", f"must be between 1 and {MAX_PLAYERS}, got {players}")

    actions = doc.get("actions")
    if not isinstance(actions, list) or len(actions) != players:
        raise GameFormatError("actions", f"must be a list of {players} integers")
    for i, count in enumerate(actions):
        if isinstance(count, bool) or not isinstance(count, int):
            raise GameFormatError(f"actions[{i}]", f"must be an integer, got {count!r}")
        if not 1 <= count <= MAX_ACTIONS:
            raise GameFormatError(
                f"actions[{i}]", f"must be between 1 and {MAX_ACTIONS}, got {count}"
            )

    payoffs = doc.get("payoffs")
    if not isinstance(payoffs, list) or len(payoffs) != players:
        raise GameFormatError("payoffs", f"must be a list of {players} arrays")
    size = prod(actions)
    arrays = []
    for i, raw in enumerate(payoffs):
        if not isinstance(raw, list) or len(raw) != size:
            raise GameFormatError(
                f"payoffs[{i}]",
                f"must be an array of length {size} "
                f"(product of the action counts), got "
                f"{len(raw) if isinstance(raw, list) else type(raw).__name__}",
            )
        arrays.append(np.array([_number(v, f"payoffs[{i}][{j}]") for j, v in enumerate(raw)]))

    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise GameFormatError("name", f"must be a string, got {name!r}")

    return Game(action_counts=tuple(actions), payoffs=tuple(arrays), name=name)


def game_document(game: Game) -> dict:
    """The JSON-ready dict form of a game."""
    _check_instance("game", game, Game)
    doc: dict = {}
    if game.name is not None:
        doc["name"] = game.name
    doc["players"] = game.num_players
    doc["actions"] = list(game.action_counts)
    doc["payoffs"] = [[float(v) for v in arr] for arr in game.payoffs]
    return doc


def _read_text(path) -> str:
    """The text of the file at ``path``, decoded as UTF-8 without one leading
    byte-order mark, which some editors write and ``json`` refuses."""
    _check_instance("path", path, (str, os.PathLike))
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise GameFormatError("document", f"not UTF-8 text ({exc})") from exc


def load_game(path) -> Game:
    return parse_game_document(_read_text(path))


def save_game(game: Game, path) -> None:
    _write_text(path, json.dumps(game_document(game), indent=2) + "\n")


def generate_random_game(
    num_players: int, action_counts, seed: int, name: str | None = None
) -> Game:
    """A game with i.i.d. payoffs uniform on [-1, 1], deterministic per seed."""
    counts = tuple(
        _check_int("action count", c, 1, MAX_ACTIONS)
        for c in _check_instance("action_counts", action_counts, Iterable)
    )
    if len(counts) != _check_int("num_players", num_players, 1, MAX_PLAYERS):
        raise GameInputError(
            f"num_players is {num_players} but {len(counts)} action counts were given"
        )
    rng = np.random.default_rng(_check_seed("seed", seed))
    size = prod(counts)
    payoffs = tuple(rng.uniform(-1.0, 1.0, size) for _ in range(num_players))
    return Game(action_counts=counts, payoffs=payoffs, name=name)


def _trace_steps(obj) -> tuple[list[tuple[str, StrategyProfile, SatisfactionReport]], dict]:
    """Each step's ``(kind, profile, report)`` and the trace's metadata."""
    if isinstance(obj, SatisficingPath):
        steps = [(s.kind, s.profile, s.report) for s in obj.steps]
        meta = {
            "type": "satisficing_path",
            "epsilon": obj.epsilon,
            "terminal_gap": obj.terminal_gap,
            "escalations": obj.escalations,
        }
        return steps, meta
    if isinstance(obj, Trajectory):
        kinds = ["initial"] + [_STEP_KIND] * (len(obj) - 1)
        steps = list(zip(kinds, obj.profiles, obj.reports))
        meta = {"type": "trajectory", "seed": obj.seed, "hit_step": obj.hit_step}
        return steps, meta
    raise GameInputError(
        f"cannot emit object of type {type(obj).__name__}; "
        "expected a SatisficingPath or a Trajectory"
    )


def _render_json(steps, meta: dict) -> str:
    doc = dict(meta)
    doc["steps"] = [
        {
            "step": t + 1,
            "step_kind": kind,
            "profile": [strat.probs.tolist() for strat in profile.strategies],
            "gaps": report.gaps.tolist(),
            "satisfied": sorted(report.satisfied),
        }
        for t, (kind, profile, report) in enumerate(steps)
    ]
    return json.dumps(doc, indent=2) + "\n"


def _render_csv(steps) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for t, (kind, profile, report) in enumerate(steps):
        gaps = report.gaps.tolist()
        for i, strat in enumerate(profile.strategies):
            satisfied = "true" if i in report.satisfied else "false"
            for a, p in enumerate(strat.probs.tolist()):
                writer.writerow([t + 1, kind, i, a, repr(p), repr(gaps[i]), satisfied])
    return buf.getvalue()


def emit_path(obj, fmt: str, destination) -> None:
    """Write a path or trajectory trace to ``destination`` as CSV or JSON."""
    if fmt not in TRACE_FORMATS:
        raise GameInputError(f"unknown trace format {fmt!r}; choose from {TRACE_FORMATS}")
    steps, meta = _trace_steps(obj)
    text = _render_csv(steps) if fmt == "csv" else _render_json(steps, meta)
    _write_text(destination, text)


def _write_text(destination, text: str) -> None:
    if hasattr(destination, "write"):
        destination.write(text)
        return
    _check_instance("destination", destination, (str, os.PathLike))
    try:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write to {destination!r}: {exc}") from exc


@dataclass(frozen=True)
class ParsedTrace:
    """A trace read back from disk: per-step kinds, profiles, and gaps."""

    kinds: tuple[str, ...]
    profiles: tuple[StrategyProfile, ...]
    gaps: tuple[tuple[float, ...], ...]
    satisfied: tuple[tuple[int, ...], ...]
    meta: dict


def read_trace(path) -> ParsedTrace:
    """Read an emitted trace file, sniffing JSON vs CSV from the content.

    A CSV trace's rows become the step objects a JSON trace lists
    (``_csv_steps``), so both formats are read by one set of step rules
    (``_parse_steps``), whose errors name a step by its place in that list,
    ``steps[t]``: in a CSV trace, the t-th step number in order of first
    appearance."""
    text = _read_text(path)
    if not text.lstrip().startswith("{"):
        return _parse_steps(_csv_steps(text), {})
    doc = _decode(text)
    return _parse_steps(doc.get("steps"), {k: v for k, v in doc.items() if k != "steps"})


def _parse_steps(raw_steps, meta: dict) -> ParsedTrace:
    """The trace whose steps are the JSON step objects ``raw_steps`` and
    whose metadata is ``meta``."""
    if not isinstance(raw_steps, list) or not raw_steps:
        raise GameFormatError("steps", "must be a nonempty list")
    # entry k - 1 holds step k and the index t of the list entry giving it
    slots: list = [None] * len(raw_steps)
    for t, raw in enumerate(raw_steps):
        key = f"steps[{t}]"
        try:
            step, kind, vectors = raw["step"], raw["step_kind"], raw["profile"]
            raw_gaps, step_sat = raw["gaps"], tuple(raw["satisfied"])
        except (KeyError, TypeError) as exc:
            raise GameFormatError(key, f"malformed step ({exc})") from exc
        if not isinstance(vectors, list) or not vectors:
            raise GameFormatError(key, f"profile must be a nonempty list, got {vectors!r}")
        profile = StrategyProfile(tuple(_strategy(vec, key, i) for i, vec in enumerate(vectors)))
        if not isinstance(raw_gaps, list):
            raise GameFormatError(key, f"gaps must be a list, got {raw_gaps!r}")
        step_gaps = tuple(_number(g, key, f"gaps[{i}] ") for i, g in enumerate(raw_gaps))
        _check_kind(kind, key, "has ")
        players = len(profile)
        if len(step_gaps) != players:
            raise GameFormatError(key, f"has {len(step_gaps)} gaps for {players} players")
        for i in step_sat:
            if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < players:
                raise GameFormatError(
                    key, f"satisfied entry {i!r} is not a player index below {players}"
                )
        if len(set(step_sat)) != len(step_sat):
            raise GameFormatError(key, f"satisfied {list(step_sat)} repeats a player")
        # steps run 1, 2, ... without a gap or a repeat
        if isinstance(step, bool) or not isinstance(step, int) or not 1 <= step <= len(slots):
            raise GameFormatError(
                key, f"step must be an integer from 1 to {len(slots)}, got {step!r}"
            )
        if slots[step - 1] is not None:
            first = slots[step - 1][0]
            raise GameFormatError(key, f"repeats step {step} of steps[{first}]")
        slots[step - 1] = (t, kind, profile, step_gaps, step_sat)
    # distinct steps in 1..len(slots) fill every slot: ordered by step
    _, kinds, profiles, gaps, satisfied = zip(*slots)
    return ParsedTrace(kinds, profiles, gaps, satisfied, meta)


def _strategy(vec, key: str, player: int) -> MixedStrategy:
    """``player``'s strategy ``vec`` of the step ``key`` names."""
    try:
        return MixedStrategy(vec)
    except GameInputError as exc:
        raise GameFormatError(key, f"player {player}: {exc}") from exc


def _check_kind(kind, key: str, where: str = "") -> None:
    if not isinstance(kind, str) or kind not in _TRACE_KINDS:
        raise GameFormatError(
            key, f"{where}unknown step kind {kind!r}; expected one of {_TRACE_KINDS}"
        )


def _check_no_gap(indices, what: str) -> None:
    """Reject distinct indices that do not run 0, 1, ... without a gap."""
    if max(indices) != len(indices) - 1:
        raise GameFormatError("document", f"{what} {sorted(indices)} leave a gap")


def _csv_index(field: str) -> int:
    """A CSV trace index: ASCII decimal digits, after a minus sign that the
    range check then rejects.  ``int`` alone also takes ``+1``, `` 1 ``,
    ``0_1`` and non-ASCII digits, which a JSON trace's integers cannot be."""
    digits = field[1:] if field.startswith("-") else field
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid index {field!r}")
    return int(field)


def _csv_steps(text: str) -> list[dict]:
    """The step objects a JSON trace lists for the CSV trace ``text``, one
    per step number in order of its first row.  The checks here are the
    rows' own: a step's rows agree on its kind, a player's on its gap and
    satisfied flag, and a step's players and a player's actions run from 0
    without a gap; ``_parse_steps`` checks the steps."""
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        raise GameFormatError("document", f"unreadable CSV ({exc})") from exc
    if not rows:
        raise GameFormatError("document", "empty CSV trace")
    if rows[0] != _CSV_HEADER:
        raise GameFormatError("document", f"unexpected CSV header {rows[0]!r}")
    by_step: dict[int, dict] = {}
    for row_num, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(_CSV_HEADER):
            raise GameFormatError("document", f"row {row_num} has {len(row)} fields")
        try:
            step, player, action = map(_csv_index, (row[0], row[2], row[3]))
            probability = float(row[4])
            gap = float(row[5])
            flag = {"true": True, "false": False}[row[6]]
        except (ValueError, KeyError) as exc:
            raise GameFormatError("document", f"row {row_num} is malformed ({exc})") from exc
        if step < 1 or player < 0 or action < 0:
            raise GameFormatError(
                "document",
                f"row {row_num} has an out-of-range index (step counts from 1, "
                "player and action from 0)",
            )
        _number(gap, "document", f"row {row_num} gap ")
        _check_kind(row[1], "document", f"row {row_num} has ")
        entry = by_step.setdefault(step, {"kind": row[1], "players": {}})
        if row[1] != entry["kind"]:
            raise GameFormatError(
                "document",
                f"row {row_num} gives step {step} kind {row[1]!r}, "
                f"disagreeing with the step's earlier rows ({entry['kind']!r})",
            )
        actions = entry["players"].setdefault(player, {})
        if action in actions:
            raise GameFormatError(
                "document", f"row {row_num} repeats step {step} player {player} action {action}"
            )
        # gap and satisfied describe the player, so every action row repeats them
        earlier = next(iter(actions.values()), None)
        if earlier is not None and (earlier[1] != gap or earlier[2] != flag):
            raise GameFormatError(
                "document",
                f"row {row_num} gives step {step} player {player} gap {gap!r} and "
                f"satisfied {flag}, disagreeing with the player's earlier rows "
                f"({earlier[1]!r}, {earlier[2]})",
            )
        actions[action] = (probability, gap, flag)
    if not by_step:
        raise GameFormatError("document", "CSV trace has no data rows")
    steps = []
    for step, entry in by_step.items():
        players = entry["players"]
        _check_no_gap(players, f"step {step} players")
        profile, gaps, satisfied = [], [], []
        for player in range(len(players)):
            actions = players[player]
            _check_no_gap(actions, f"step {step} player {player} actions")
            profile.append([actions[a][0] for a in range(len(actions))])
            _, gap, flag = actions[0]
            gaps.append(gap)
            if flag:
                satisfied.append(player)
        steps.append({"step": step, "step_kind": entry["kind"], "profile": profile,
                      "gaps": gaps, "satisfied": satisfied})
    return steps
