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
``action`` are 0-based.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from math import prod

import numpy as np

from .dynamics import Trajectory
from .errors import GameFormatError, GameInputError
from .games import MAX_ACTIONS, MAX_PLAYERS, Game, MixedStrategy, StrategyProfile
from .paths import SatisficingPath

TRACE_FORMATS = ("csv", "json")
_CSV_HEADER = ["step", "step_kind", "player", "action", "probability", "gap", "satisfied"]


def _reject_json_constant(token: str):
    raise GameFormatError("payoffs", f"non-finite value {token} is not allowed")


def parse_game_document(text: str) -> Game:
    """Parse and validate a JSON game document, naming the offending key on failure."""
    try:
        doc = json.loads(text, parse_constant=_reject_json_constant)
    except json.JSONDecodeError as exc:
        raise GameFormatError("document", f"not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise GameFormatError("document", "top level must be a JSON object")

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
        for j, value in enumerate(raw):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise GameFormatError(f"payoffs[{i}][{j}]", f"must be a number, got {value!r}")
            try:
                float(value)
            except OverflowError:
                raise GameFormatError(
                    f"payoffs[{i}][{j}]", "integer is beyond the range of a float"
                ) from None
        arr = np.asarray(raw, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise GameFormatError(f"payoffs[{i}]", "contains non-finite values")
        arrays.append(arr)

    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise GameFormatError("name", f"must be a string, got {name!r}")

    return Game(action_counts=tuple(actions), payoffs=tuple(arrays), name=name)


def game_document(game: Game) -> dict:
    """The JSON-ready dict form of a game."""
    doc: dict = {}
    if game.name is not None:
        doc["name"] = game.name
    doc["players"] = game.num_players
    doc["actions"] = list(game.action_counts)
    doc["payoffs"] = [[float(v) for v in arr] for arr in game.payoffs]
    return doc


def _read_text(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
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
    counts = tuple(int(c) for c in action_counts)
    if len(counts) != num_players:
        raise GameInputError(
            f"num_players is {num_players} but {len(counts)} action counts were given"
        )
    rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
    size = prod(counts)
    payoffs = tuple(rng.uniform(-1.0, 1.0, size) for _ in range(num_players))
    return Game(action_counts=counts, payoffs=payoffs, name=name)


@dataclass(frozen=True)
class _TraceStep:
    kind: str
    profile: StrategyProfile
    gaps: tuple[float, ...]
    satisfied: tuple[int, ...]


def _trace_steps(obj) -> tuple[list[_TraceStep], dict]:
    if isinstance(obj, SatisficingPath):
        steps = [
            _TraceStep(
                kind=s.kind,
                profile=s.profile,
                gaps=tuple(float(g) for g in s.report.gaps),
                satisfied=tuple(sorted(s.report.satisfied)),
            )
            for s in obj.steps
        ]
        meta = {
            "type": "satisficing_path",
            "epsilon": obj.epsilon,
            "terminal_gap": obj.terminal_gap,
            "escalations": obj.escalations,
        }
        return steps, meta
    if isinstance(obj, Trajectory):
        steps = [
            _TraceStep(
                kind="initial" if t == 0 else "dynamics_step",
                profile=p,
                gaps=tuple(float(g) for g in r.gaps),
                satisfied=tuple(sorted(r.satisfied)),
            )
            for t, (p, r) in enumerate(zip(obj.profiles, obj.reports))
        ]
        meta = {"type": "trajectory", "seed": obj.seed, "hit_step": obj.hit_step}
        return steps, meta
    raise GameInputError(
        f"cannot emit object of type {type(obj).__name__}; "
        "expected a SatisficingPath or a Trajectory"
    )


def _render_json(steps: list[_TraceStep], meta: dict) -> str:
    doc = dict(meta)
    doc["steps"] = [
        {
            "step": t + 1,
            "step_kind": s.kind,
            "profile": [[float(v) for v in strat.probs] for strat in s.profile.strategies],
            "gaps": list(s.gaps),
            "satisfied": list(s.satisfied),
        }
        for t, s in enumerate(steps)
    ]
    return json.dumps(doc, indent=2) + "\n"


def _render_csv(steps: list[_TraceStep]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for t, s in enumerate(steps):
        satisfied = set(s.satisfied)
        for i, strat in enumerate(s.profile.strategies):
            for a, p in enumerate(strat.probs):
                writer.writerow(
                    [
                        t + 1,
                        s.kind,
                        i,
                        a,
                        repr(float(p)),
                        repr(float(s.gaps[i])),
                        "true" if i in satisfied else "false",
                    ]
                )
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
    """Read an emitted trace file, sniffing JSON vs CSV from the content."""
    text = _read_text(path)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json_trace(text)
    return _parse_csv_trace(text)


def _parse_json_trace(text: str) -> ParsedTrace:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFormatError("document", f"not valid JSON ({exc})") from exc
    raw_steps = doc.get("steps")
    if not isinstance(raw_steps, list) or not raw_steps:
        raise GameFormatError("steps", "must be a nonempty list")
    kinds, profiles, gaps, satisfied = [], [], [], []
    for t, raw in enumerate(raw_steps):
        try:
            kinds.append(str(raw["step_kind"]))
            profile = StrategyProfile(
                tuple(MixedStrategy(np.asarray(vec, dtype=float)) for vec in raw["profile"])
            )
            profiles.append(profile)
            gaps.append(tuple(float(g) for g in raw["gaps"]))
            satisfied.append(tuple(int(i) for i in raw["satisfied"]))
        except (KeyError, TypeError, ValueError, GameInputError) as exc:
            raise GameFormatError(f"steps[{t}]", f"malformed step ({exc})") from exc
    meta = {k: v for k, v in doc.items() if k != "steps"}
    return ParsedTrace(tuple(kinds), tuple(profiles), tuple(gaps), tuple(satisfied), meta)


def _check_no_gap(indices, first: int, what: str) -> None:
    """Reject distinct indices that do not run first, first + 1, ... without a gap."""
    if max(indices) != first + len(indices) - 1:
        raise GameFormatError("document", f"{what} {sorted(indices)} leave a gap")


def _parse_csv_trace(text: str) -> ParsedTrace:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise GameFormatError("document", "empty CSV trace") from None
    if header != _CSV_HEADER:
        raise GameFormatError("document", f"unexpected CSV header {header!r}")
    by_step: dict[int, dict] = {}
    for row_num, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(_CSV_HEADER):
            raise GameFormatError("document", f"row {row_num} has {len(row)} fields")
        try:
            step = int(row[0])
            player = int(row[2])
            action = int(row[3])
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
        # gap and satisfied describe the player, so every action row repeats
        # them (a nan gap repeated is still the same gap)
        earlier = next(iter(actions.values()), None)
        if earlier is not None and (
            earlier[2] != flag
            or (earlier[1] != gap and not (math.isnan(earlier[1]) and math.isnan(gap)))
        ):
            raise GameFormatError(
                "document",
                f"row {row_num} gives step {step} player {player} gap {gap!r} and "
                f"satisfied {flag}, disagreeing with the player's earlier rows "
                f"({earlier[1]!r}, {earlier[2]})",
            )
        actions[action] = (probability, gap, flag)
    if not by_step:
        raise GameFormatError("document", "CSV trace has no data rows")
    _check_no_gap(by_step, 1, "steps")
    kinds, profiles, gaps, satisfied = [], [], [], []
    for step in sorted(by_step):
        entry = by_step[step]
        players = entry["players"]
        _check_no_gap(players, 0, f"step {step} players")
        strategies, step_gaps, step_sat = [], [], []
        for player in sorted(players):
            actions = players[player]
            _check_no_gap(actions, 0, f"step {step} player {player} actions")
            vec = np.array([actions[a][0] for a in range(len(actions))])
            any_action = next(iter(actions.values()))
            try:
                strategies.append(MixedStrategy(vec))
            except GameInputError as exc:
                raise GameFormatError(
                    "document", f"step {step} player {player}: {exc}"
                ) from exc
            step_gaps.append(any_action[1])
            if any_action[2]:
                step_sat.append(player)
        kinds.append(entry["kind"])
        profiles.append(StrategyProfile(tuple(strategies)))
        gaps.append(tuple(step_gaps))
        satisfied.append(tuple(step_sat))
    return ParsedTrace(tuple(kinds), tuple(profiles), tuple(gaps), tuple(satisfied), {})
