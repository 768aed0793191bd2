"""Argument checks at the public entry points.

Every malformed argument of a public function, of any kind (game, integer,
index, real, seed, config, explorer, generator, sequence, report, file path,
or a number in a trace file), must raise GameInputError naming it, never a
TypeError, AttributeError, IndexError or bare ValueError, and never be
coerced into a different valid value.
"""

from __future__ import annotations

import io
import json
import math
import types
from fractions import Fraction

import numpy as np
import pytest

import satpath
from satpath import (
    ExplorerPolicy,
    Game,
    GameFormatError,
    GameInputError,
    MixedStrategy,
    PathStep,
    SatisfactionReport,
    SatisficingPath,
    SolverConfig,
    StrategyProfile,
    SupportProfile,
    Trajectory,
    WorseSearchConfig,
    batch_experiment,
    build_w_xi,
    construct_path,
    deviation_gap,
    emit_path,
    enumerate_supports,
    expected_reward,
    find_nash,
    find_subgame_nash,
    find_worse_candidate,
    game_document,
    generate_random_game,
    is_accessible,
    is_eps_best_response,
    load_game,
    random_profile,
    read_trace,
    run_dynamics,
    satisfaction_report,
    satisficing_step,
    save_game,
    solve_on_support,
    verify_nash,
    verify_path,
)
from satpath.cli import run
from satpath.games import MAX_ACTIONS

from conftest import matching_pennies, pure, uniform

MP = matching_pennies()
X = uniform(MP)
PURE = pure(MP, (0, 0))
THREE_PLAYER_REPORT = SatisfactionReport(np.array([1.0, 1.0, 0.0]), 1e-9)


def _trace_with_gaps(tmp_path, gaps):
    """A matching-pennies JSON path trace whose first step's gaps are ``gaps``."""
    target = tmp_path / "trace.json"
    emit_path(construct_path(MP, PURE), "json", target)
    doc = json.loads(target.read_text())
    doc["steps"][0]["gaps"] = gaps
    target.write_text(json.dumps(doc))
    return target


# (id, call): each call gets pytest's tmp_path and must raise GameInputError.
# Cases that other modules' tests already cover (SolverConfig, WorseSearchConfig,
# max_steps, trials_per_game, explorer types) are not repeated here.
# A game that is not a Game: entry points that take a profile check it with
# the profile, the others on their own; the error names ``game``.
BAD_GAMES = [
    ("find-nash-string-game", lambda tmp: find_nash("x")),
    ("report-string-game", lambda tmp: satisfaction_report("g", X)),
    ("path-none-game", lambda tmp: construct_path(None, X)),
    ("verify-path-string-game", lambda tmp: verify_path("g", [X])),
    ("dynamics-string-game", lambda tmp: run_dynamics("g", X)),
    ("solve-on-support-string-game",
     lambda tmp: solve_on_support("g", SupportProfile(((0,), (0,))))),
    ("subgame-string-game", lambda tmp: find_subgame_nash("g", {})),
    ("gap-string-game", lambda tmp: deviation_gap("g", X, 0)),
    ("game-document-string-game", lambda tmp: game_document("g")),
    ("enumerate-string-game", lambda tmp: next(enumerate_supports("g"))),
    ("enumerate-string-game-at-call", lambda tmp: enumerate_supports("g")),
    ("random-profile-string-game", lambda tmp: random_profile("g", np.random.default_rng(0))),
    ("profile-pure-string-game", lambda tmp: StrategyProfile.pure("g", (0, 0))),
    ("profile-uniform-string-game", lambda tmp: StrategyProfile.uniform("g")),
]

BAD_ARGUMENTS = BAD_GAMES + [
    # integers and indices: floats, bools and strings are rejected, not truncated
    ("game-float-count", lambda tmp: Game((2.5, 2), ([0] * 4, [0] * 4))),
    ("game-bool-count", lambda tmp: Game((True, 2), ([0] * 2, [0] * 2))),
    ("pure-float-action", lambda tmp: MixedStrategy.pure(2, 1.0)),
    ("pure-float-count", lambda tmp: MixedStrategy.pure(2.0, 1)),
    ("uniform-float-count", lambda tmp: MixedStrategy.uniform(2.5)),
    # no game has more actions, and pure strategies are cached for the process
    ("pure-too-many-actions", lambda tmp: MixedStrategy.pure(MAX_ACTIONS + 1, 0)),
    ("uniform-too-many-actions", lambda tmp: MixedStrategy.uniform(MAX_ACTIONS + 1)),
    ("replace-float-player", lambda tmp: X.replace(1.0, X[0])),
    ("payoff-tensor-bool-player", lambda tmp: MP.payoff_tensor(True)),
    ("reward-float-player", lambda tmp: expected_reward(MP, X, 1.0)),
    ("gap-bool-player", lambda tmp: deviation_gap(MP, X, True)),
    ("support-float-action", lambda tmp: SupportProfile(((0.5,), (0,)))),
    ("subgame-float-index", lambda tmp: find_subgame_nash(MP, {0.0: X[0]})),
    ("gen-float-count", lambda tmp: generate_random_game(2, (2.5, 2), 0)),
    ("gen-string-players", lambda tmp: generate_random_game("2", (2, 2), 0)),
    # seeds
    ("dynamics-float-seed", lambda tmp: run_dynamics(MP, X, seed=1.7)),
    ("batch-string-seed", lambda tmp: batch_experiment([MP], 2, master_seed="1")),
    ("gen-float-seed", lambda tmp: generate_random_game(2, (2, 2), 1.5)),
    ("trajectory-string-seed",
     lambda tmp: Trajectory((X,), (satisfaction_report(MP, X),), "3")),
    # reals: strings, bools and non-finite values are rejected
    ("report-string-epsilon", lambda tmp: satisfaction_report(MP, X, "a")),
    ("report-numeric-string-epsilon", lambda tmp: satisfaction_report(MP, X, "0.5")),
    ("report-bool-epsilon", lambda tmp: satisfaction_report(MP, X, True)),
    ("best-response-nan-epsilon", lambda tmp: is_eps_best_response(MP, X, 0, math.nan)),
    ("verify-nash-huge-int-epsilon", lambda tmp: verify_nash(MP, X, 10**400)),
    ("w-xi-string", lambda tmp: build_w_xi(MP, X, satisfaction_report(MP, X), xi="a")),
    ("mixture-weight-string", lambda tmp: ExplorerPolicy(mixture_weight="0.5")),
    # configs, explorers, generators and containers of the wrong type
    ("find-nash-string-config", lambda tmp: find_nash(MP, "x")),
    ("solve-on-support-int-config",
     lambda tmp: solve_on_support(MP, SupportProfile(((0,), (0,))), 5)),
    ("solve-on-support-tuple-support", lambda tmp: solve_on_support(MP, ((0,), (0,)))),
    ("subgame-list-frozen", lambda tmp: find_subgame_nash(MP, [1])),
    ("subgame-array-strategy", lambda tmp: find_subgame_nash(MP, {0: np.array([1.0, 0.0])})),
    ("worse-int-config", lambda tmp: find_worse_candidate(MP, PURE, config=5)),
    ("path-int-worse-config", lambda tmp: construct_path(MP, PURE, worse_config=5)),
    ("path-worse-as-solver-config",
     lambda tmp: construct_path(MP, PURE, solver_config=WorseSearchConfig())),
    ("random-profile-int-rng", lambda tmp: random_profile(MP, 3)),
    ("step-int-rng", lambda tmp: satisficing_step(MP, X, 1e-6, ExplorerPolicy(), 3)),
    ("batch-one-game", lambda tmp: batch_experiment(MP, 2)),
    # sequences that are not vectors of reals or of actions
    ("strategy-string", lambda tmp: MixedStrategy("ab")),
    ("profile-pure-int-actions", lambda tmp: StrategyProfile.pure(MP, 5)),
    ("game-int-counts", lambda tmp: Game(3, ([0] * 8,) * 3)),
    ("game-int-payoffs", lambda tmp: Game((2, 2), 5)),
    ("gen-int-counts", lambda tmp: generate_random_game(2, 5, 0)),
    ("verify-path-int-path", lambda tmp: verify_path(MP, 5)),
    ("support-int", lambda tmp: SupportProfile(5)),
    ("profile-int", lambda tmp: StrategyProfile(5)),
    ("support-int-entry", lambda tmp: SupportProfile((5,))),
    # reals in payoffs and strategies: strings, numeric strings, bools, nested
    # lists and ints beyond a float are rejected, not converted
    ("game-string-payoff", lambda tmp: Game((2, 2), (["a"] * 4, [0] * 4))),
    ("game-numeric-string-payoff", lambda tmp: Game((2, 2), (["0.5"] * 4, [0] * 4))),
    ("game-bool-payoff", lambda tmp: Game((2, 2), ([True] * 4, [0] * 4))),
    ("game-bool-array-payoff", lambda tmp: Game((2, 2), (np.ones(4, bool), [0] * 4))),
    ("game-overflowing-payoff", lambda tmp: Game((2,), ([10**400, 0],))),
    ("strategy-numeric-strings", lambda tmp: MixedStrategy(["0.5", "0.5"])),
    ("strategy-bools", lambda tmp: MixedStrategy([True, False])),
    # numpy would read this list as the floats [0.0, 1.0]
    ("strategy-bool-among-floats", lambda tmp: MixedStrategy([0.0, True])),
    ("strategy-nested", lambda tmp: MixedStrategy([[0.5, 0.5]])),
    # a name that save_game would write and load_game reject
    ("game-int-name", lambda tmp: Game((2, 2), MP.payoffs, name=5)),
    # flags: a string or an int is not taken for a bool
    ("verify-path-string-flag", lambda tmp: verify_path(MP, [X], require_terminal_nash="no")),
    ("verify-path-int-flag", lambda tmp: verify_path(MP, [X], require_length_bound=1)),
    # reports and profiles of the wrong type
    ("accessible-none-report", lambda tmp: is_accessible(X, X, None)),
    ("accessible-int-profile", lambda tmp: is_accessible(5, X, satisfaction_report(MP, X))),
    ("w-xi-none-report", lambda tmp: build_w_xi(MP, X, None, 0.5)),
    ("accessible-three-player-report", lambda tmp: is_accessible(X, X, THREE_PLAYER_REPORT)),
    ("w-xi-one-player-report",
     lambda tmp: build_w_xi(MP, X, SatisfactionReport(np.array([1.0]), 1e-9), 0.5)),
    # file paths: an integer would be taken as a file descriptor (stdin,
    # stdout), read or written, and closed
    ("load-game-int-path", lambda tmp: load_game(0)),
    ("read-trace-int-path", lambda tmp: read_trace(0)),
    ("save-game-int-path", lambda tmp: save_game(MP, 1)),
    ("emit-int-destination", lambda tmp: emit_path(construct_path(MP, PURE), "json", 1)),
    # steps of a path or trajectory built by hand, checked before they are read
    ("emit-path-profile-as-step",
     lambda tmp: emit_path(SatisficingPath((X,), 1e-9), "json", tmp / "t.json")),
    ("emit-path-none-report",
     lambda tmp: emit_path(SatisficingPath((PathStep(X, "initial", None),), 1e-9), "json",
                           tmp / "t.json")),
    ("emit-path-three-player-report",
     lambda tmp: emit_path(SatisficingPath((PathStep(X, "initial", THREE_PLAYER_REPORT),), 1e-9),
                           "csv", tmp / "t.csv")),
    # a trajectory checks its own profiles and reports when built
    ("trajectory-none-report", lambda tmp: Trajectory((X,), (None,), 0)),
    ("trajectory-string-profile",
     lambda tmp: Trajectory(("x",), (satisfaction_report(MP, X),), 0)),
    ("trajectory-three-player-report", lambda tmp: Trajectory((X,), (THREE_PLAYER_REPORT,), 0)),
    ("trajectory-int-profiles", lambda tmp: Trajectory(5, (THREE_PLAYER_REPORT,), 0)),
    ("path-int-steps", lambda tmp: SatisficingPath(5, 1e-9)),
    ("emit-trajectory-three-player-report",
     lambda tmp: emit_path(Trajectory((X,), (THREE_PLAYER_REPORT,), 0), "json", tmp / "t.json")),
    ("emit-trajectory-array-profile",
     lambda tmp: emit_path(Trajectory((np.array([0.5, 0.5]),), (THREE_PLAYER_REPORT,), 0),
                           "json", tmp / "t.json")),
    # numbers in a JSON trace: gaps must be a list of numbers
    ("trace-string-gaps", lambda tmp: read_trace(_trace_with_gaps(tmp, "12"))),
    ("trace-bool-gap", lambda tmp: read_trace(_trace_with_gaps(tmp, [True, 0.5]))),
    ("trace-null-gap", lambda tmp: read_trace(_trace_with_gaps(tmp, [None, 0.5]))),
]


@pytest.mark.parametrize("call", [c for _, c in BAD_ARGUMENTS], ids=[i for i, _ in BAD_ARGUMENTS])
def test_bad_argument_raises_game_input_error(call, tmp_path):
    # pytest.raises lets any other exception type through, failing the test
    with pytest.raises(GameInputError):
        call(tmp_path)


@pytest.mark.parametrize("call", [c for _, c in BAD_GAMES], ids=[i for i, _ in BAD_GAMES])
def test_bad_game_error_names_the_game(call, tmp_path):
    with pytest.raises(GameInputError, match=r"^game must be of type Game, got "):
        call(tmp_path)


def test_report_for_another_player_count_is_named():
    with pytest.raises(GameInputError, match=r"^report_x covers 3 players, not 2$"):
        is_accessible(X, X, THREE_PLAYER_REPORT)
    with pytest.raises(GameInputError, match=r"^report_k covers 3 players, not 2$"):
        build_w_xi(MP, X, THREE_PLAYER_REPORT, 0.5)


def test_public_api_is_consistent():
    # a stale export (a name deleted from a module but left in __all__) fails
    # the star import; a name imported but not exported fails the last check
    names = satpath.__all__
    assert names == sorted(set(names))
    star = {}
    exec("from satpath import *", star)
    assert star.keys() - {"__builtins__"} == set(names)
    public = {
        name
        for name, value in vars(satpath).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(names)


def test_trace_gap_errors_name_the_step_and_exit_2(tmp_path, capsys):
    with pytest.raises(GameFormatError, match=r"gaps\[0\] must be a number") as exc_info:
        read_trace(_trace_with_gaps(tmp_path, [True, 0.5]))
    assert exc_info.value.key == "steps[0]"
    game_file = tmp_path / "mp.json"
    game_file.write_text(json.dumps({"players": 2, "actions": [2, 2],
                                     "payoffs": [list(p) for p in MP.payoffs]}))
    trace = _trace_with_gaps(tmp_path, "12")
    assert run(["verify", "--game", str(game_file), "--in", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: steps[0]: gaps must be a list") and err.count("\n") == 1


class TestValidEdges:
    """Values at the edge of each argument kind that stay accepted."""

    def test_numpy_integers_and_floats(self):
        assert MixedStrategy.pure(np.int64(2), np.int32(1)) == MixedStrategy.pure(2, 1)
        assert deviation_gap(MP, PURE, np.int64(1)) == deviation_gap(MP, PURE, 1)
        assert expected_reward(MP, X, np.uint8(0)) == expected_reward(MP, X, 0)
        assert satisfaction_report(MP, PURE, np.float32(0.5)).satisfied == {0}
        assert ExplorerPolicy(mixture_weight=np.float64(0.25)).mixture_weight == 0.25
        assert Game(np.array([2, 2]), MP.payoffs) == Game((2, 2), MP.payoffs)
        assert build_w_xi(MP, PURE, satisfaction_report(MP, PURE), np.float64(0.5)) == (
            build_w_xi(MP, PURE, satisfaction_report(MP, PURE), 0.5)
        )
        assert find_subgame_nash(MP, {np.int64(0): PURE[0]})[0] == PURE[0]
        trajectory = Trajectory((X,), (satisfaction_report(MP, X),), np.int64(3))
        assert type(trajectory.seed) is int
        buf = io.StringIO()
        emit_path(trajectory, "json", buf)
        assert json.loads(buf.getvalue())["seed"] == 3

    def test_zero_epsilon_and_bounds(self):
        # epsilon = 0 certifies an exact best response only
        assert satisfaction_report(MP, PURE, 0).satisfied == {0}
        assert verify_nash(MP, X, 0.0)

    def test_vectors_of_reals(self):
        # payoffs and strategies take numpy and Python ints and floats, and
        # Fractions, entry by entry or as numpy arrays
        half = [Fraction(1, 2), Fraction(1, 2)]
        for probs in (half, [np.int64(1), 0], [np.float32(0.5), 0.5], np.array([1, 0], np.int8)):
            assert MixedStrategy(probs).probs.tolist() == [float(p) for p in probs]
        assert MixedStrategy(np.array(half, dtype=object)) == MixedStrategy([0.5, 0.5])
        payoffs = ([1, -1, -1, 1], [-1, 1, 1, -1])
        mp = Game((2, 2), payoffs)
        assert mp == Game((2, 2), tuple(np.array(p, np.int32) for p in payoffs))
        assert mp == Game((2, 2), tuple([Fraction(v) for v in p] for p in payoffs))
        assert mp == Game((2, 2), tuple([np.float32(v) for v in p] for p in payoffs))
        assert Game((2,), ([10**30, 0],)).payoffs[0][0] == 1e30

    @pytest.mark.parametrize("seed", [-1, -(2**63), 2**64 - 1, 2**70, np.int64(-5)])
    def test_seeds_are_reduced_to_64_bits(self, seed):
        reduced = int(seed) % 2**64
        a = run_dynamics(MP, X, max_steps=5, seed=seed)
        b = run_dynamics(MP, X, max_steps=5, seed=reduced)
        assert a.seed == b.seed == reduced
        assert all(p == q for p, q in zip(a.profiles, b.profiles)) and len(a) == len(b)
        assert generate_random_game(2, (2, 3), seed) == generate_random_game(2, (2, 3), reduced)
        assert batch_experiment([MP], 3, master_seed=seed) == (
            batch_experiment([MP], 3, master_seed=reduced)
        )

    def test_none_stands_for_the_default(self):
        assert find_nash(MP, None) is find_nash(MP, SolverConfig())
        assert find_worse_candidate(MP, PURE, config=None) == (
            find_worse_candidate(MP, PURE, config=WorseSearchConfig())
        )
        rng = np.random.default_rng(4)
        step = satisficing_step(MP, PURE, 1e-6, None, rng)
        assert step[0] == PURE[0]
