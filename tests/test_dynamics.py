"""Win-stay lose-shift dynamics: absorption, constraint, distributions."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from satpath import (
    ExplorerPolicy,
    Game,
    GameInputError,
    MixedStrategy,
    SatisfactionReport,
    StrategyProfile,
    Trajectory,
    batch_experiment,
    emit_path,
    generate_random_game,
    random_profile,
    run_dynamics,
    satisfaction_report,
    satisficing_step,
    verify_path,
)
from satpath import dynamics

from conftest import pure, uniform


class TestExplorerPolicy:
    def test_kind_validated(self):
        with pytest.raises(GameInputError, match="explorer"):
            ExplorerPolicy(kind="greedy")

    def test_weight_validated(self):
        with pytest.raises(GameInputError, match="mixture_weight"):
            ExplorerPolicy(kind="mixture_with_current", mixture_weight=1.5)


class TestSatisficingStep:
    def test_equilibrium_is_bitwise_fixed_point(self, rps, pd):
        rng = np.random.default_rng(41)
        for game, prof in ((rps, uniform(rps)), (pd, pure(pd, (1, 1)))):
            out = satisficing_step(game, prof, 1e-9, ExplorerPolicy(), rng)
            assert out is prof

    def test_satisfied_player_kept_unsatisfied_resampled(self, mp):
        prof = pure(mp, (0, 0))
        rng = np.random.default_rng(42)
        out = satisficing_step(mp, prof, 1e-9, ExplorerPolicy(), rng)
        assert out[0] is prof[0]
        assert out[1] != prof[1]

    def test_pure_uniform_resample_is_uniform_over_outcomes(self, pd):
        # from (C, C) both players resample a uniformly random vertex, so the
        # four pure profiles are equally likely; chi-squared at the 1% level
        # (3 degrees of freedom, critical value 11.345) over 10,000 draws
        prof = pure(pd, (0, 0))
        explorer = ExplorerPolicy(kind="pure_uniform")
        rng = np.random.default_rng(43)
        counts = np.zeros((2, 2))
        for _ in range(10_000):
            out = satisficing_step(pd, prof, 1e-9, explorer, rng)
            counts[int(np.argmax(out[0].probs)), int(np.argmax(out[1].probs))] += 1
        chi2 = float((((counts - 2500.0) ** 2) / 2500.0).sum())
        assert chi2 < 11.345

    def test_mixture_explorer_blends_with_current(self, mp):
        prof = pure(mp, (0, 0))
        explorer = ExplorerPolicy(kind="mixture_with_current", mixture_weight=0.25)
        rng = np.random.default_rng(44)
        out = satisficing_step(mp, prof, 1e-9, explorer, rng)
        # player 2 keeps at least 1 - w mass on its current pure action
        assert out[1].probs[0] >= 0.75


class TestTrajectoryType:
    def test_length_mismatch_rejected(self, mp):
        prof = uniform(mp)
        report = satisfaction_report(mp, prof, 1e-6)
        with pytest.raises(GameInputError, match="length"):
            Trajectory(profiles=(prof, prof), reports=(report,), seed=0)

    def test_hit_step_must_index_equilibrium(self, mp):
        # hit_step is derived: a profile that is not epsilon-Nash is never
        # the hit, and no hit can be stated
        prof = pure(mp, (0, 0))
        report = satisfaction_report(mp, prof, 1e-6)
        assert Trajectory(profiles=(prof,), reports=(report,), seed=0).hit_step is None
        with pytest.raises(TypeError):
            Trajectory(profiles=(prof,), reports=(report,), hit_step=1, seed=0)

    def test_hit_step_is_the_first_epsilon_nash_report(self, mp):
        hh, nash = pure(mp, (0, 0)), uniform(mp)
        miss, hit = (satisfaction_report(mp, p, 1e-6) for p in (hh, nash))
        cases = [
            ((miss,), None),
            ((miss, miss, miss), None),
            ((hit,), 1),
            ((miss, hit, miss, hit, hit), 2),
            ((miss, miss, miss, hit), 4),
        ]
        for reports, expected in cases:
            profiles = tuple(nash if r is hit else hh for r in reports)
            assert Trajectory(profiles, reports, 0).hit_step == expected

    def test_an_equilibrium_hit_cannot_be_denied(self, pd):
        # at the parent, hit_step=None was accepted at (D, D), the
        # prisoner's dilemma equilibrium, and emitted as "hit_step": null
        dd = pure(pd, (1, 1))
        report = satisfaction_report(pd, dd, 1e-6)
        with pytest.raises(TypeError):
            Trajectory(profiles=(dd,), reports=(report,), hit_step=None, seed=0)
        trajectory = Trajectory(profiles=(dd,), reports=(report,), seed=0)
        assert trajectory.hit_step == 1
        buf = io.StringIO()
        emit_path(trajectory, "json", buf)
        assert json.loads(buf.getvalue())["hit_step"] == 1

    def test_each_profile_and_report_is_checked_by_its_key(self, mp):
        # a None report must not reach `unsatisfied` (AttributeError), and a
        # report on three players must not pass for a 2-player profile
        prof = uniform(mp)
        report = satisfaction_report(mp, prof, 1e-6)
        wide = SatisfactionReport(np.zeros(3), 1e-6)
        with pytest.raises(GameInputError, match=r"^reports\[1\] must be of type Sat"):
            Trajectory((prof, prof), (report, None), 0)
        with pytest.raises(GameInputError, match=r"^reports\[0\] covers 3 players, not 2$"):
            Trajectory((prof,), (wide,), 0)
        with pytest.raises(GameInputError, match=r"^profiles\[0\] must be of type Str"):
            Trajectory(("ab",), (report,), 0)

    def test_later_changes_to_the_callers_lists_do_not_reach_it(self, mp):
        # a list stored as given would grow len when the caller appends
        prof = uniform(mp)
        report = satisfaction_report(mp, prof, 1e-6)
        profiles, reports = [prof], [report]
        trajectory = Trajectory(profiles, reports, 0)
        profiles.append(prof)
        reports.clear()
        assert len(trajectory) == 1 and trajectory.reports == (report,)
        assert trajectory.profiles == (prof,) and trajectory.hit_step == 1


class TestRunDynamics:
    def test_equilibrium_start_absorbs_immediately(self, rps):
        traj = run_dynamics(rps, uniform(rps), epsilon=1e-9, max_steps=50, seed=1)
        assert len(traj) == 1
        assert traj.hit_step == 1

    def test_pd_pure_uniform_reaches_dd(self, pd):
        explorer = ExplorerPolicy(kind="pure_uniform")
        hits = 0
        for seed in range(60):
            traj = run_dynamics(
                pd, pure(pd, (0, 0)), epsilon=1e-9, max_steps=1000,
                explorer=explorer, seed=seed,
            )
            if traj.hit_step is not None:
                hits += 1
                assert traj.profiles[traj.hit_step - 1] == pure(pd, (1, 1))
        assert hits == 60  # geometric tail: each step reaches (D, D) w.p. >= 1/4

    def test_mixed_equilibria_unreachable_by_continuous_resampling(self, mp):
        # exact mixed equilibria have measure zero under Dirichlet draws
        hits = 0
        for seed in range(200):
            traj = run_dynamics(
                mp, pure(mp, (0, 0)), epsilon=1e-9, max_steps=250,
                explorer=ExplorerPolicy(kind="dirichlet_uniform"), seed=seed,
            )
            hits += traj.hit_step is not None
        assert hits <= 2  # at most 1% of 200

    def test_trajectories_satisfy_pairwise_constraint(self, mp, pd):
        for game, seed in ((mp, 7), (pd, 8)):
            traj = run_dynamics(
                game, pure(game, (0, 0)), epsilon=1e-6, max_steps=40, seed=seed
            )
            assert verify_path(game, traj, 1e-6, require_terminal_nash=False).ok

    def test_absorption_stops_appending(self, pd):
        explorer = ExplorerPolicy(kind="pure_uniform")
        traj = run_dynamics(
            pd, pure(pd, (0, 0)), epsilon=1e-9, max_steps=1000, explorer=explorer, seed=3
        )
        assert traj.hit_step == len(traj)

    def test_seed_determinism(self, mp):
        a = run_dynamics(mp, pure(mp, (0, 0)), 1e-6, 30, ExplorerPolicy(), seed=99)
        b = run_dynamics(mp, pure(mp, (0, 0)), 1e-6, 30, ExplorerPolicy(), seed=99)
        assert len(a) == len(b)
        assert all(pa == pb for pa, pb in zip(a.profiles, b.profiles))

    def test_max_steps_validated(self, mp):
        with pytest.raises(GameInputError, match="max_steps"):
            run_dynamics(mp, uniform(mp), 1e-6, 0)


class TestBatchExperiment:
    def test_empty_game_list(self):
        assert batch_experiment([], trials_per_game=10) == []

    def test_pd_hits_every_trial(self, pd):
        rows = batch_experiment(
            [pd],
            trials_per_game=100,
            epsilon=1e-9,
            explorer=ExplorerPolicy(kind="pure_uniform"),
            max_steps=1000,
            master_seed=5,
        )
        assert len(rows) == 1
        row = rows[0]
        assert row["game"] == "prisoners-dilemma"
        assert row["hit_frequency"] == 1.0
        assert row["hits"] == 100
        assert row["mean_hit_step"] >= 1.0
        assert row["median_hit_step"] >= 1.0

    def test_reproducible_and_seed_sensitive(self, pd, mp):
        games = [pd, mp]
        kwargs = dict(
            trials_per_game=20,
            epsilon=1e-6,
            explorer=ExplorerPolicy(kind="pure_uniform"),
            max_steps=50,
        )
        a = batch_experiment(games, master_seed=11, **kwargs)
        b = batch_experiment(games, master_seed=11, **kwargs)
        c = batch_experiment(games, master_seed=12, **kwargs)
        assert a == b
        assert a != c

    def test_trials_validated(self, pd):
        with pytest.raises(GameInputError, match="trials"):
            batch_experiment([pd], trials_per_game=0)


class TestEntryValidation:
    @pytest.mark.parametrize("max_steps", [2.5, True, "3", None])
    def test_run_dynamics_max_steps(self, mp, max_steps):
        with pytest.raises(GameInputError, match="max_steps"):
            run_dynamics(mp, uniform(mp), 1e-6, max_steps)

    @pytest.mark.parametrize("trials", [2.5, True, "2"])
    def test_batch_trials(self, mp, trials):
        with pytest.raises(GameInputError, match="trials_per_game"):
            batch_experiment([mp], trials)

    @pytest.mark.parametrize("max_steps", [2.5, False])
    def test_batch_max_steps(self, mp, max_steps):
        with pytest.raises(GameInputError, match="max_steps"):
            batch_experiment([mp], 2, max_steps=max_steps)

    def test_numpy_integer_counts_accepted(self, pd):
        rows = batch_experiment([pd], np.int64(3), explorer=ExplorerPolicy("pure_uniform"),
                                max_steps=np.int32(50))
        assert rows[0]["trials"] == 3 and type(rows[0]["trials"]) is int
        assert len(run_dynamics(pd, uniform(pd), 1e-6, np.int64(2))) <= 2

    @pytest.mark.parametrize("call", ["run", "batch", "step"])
    def test_explorer_must_be_a_policy(self, mp, call):
        with pytest.raises(GameInputError, match="ExplorerPolicy"):
            if call == "run":
                run_dynamics(mp, pure(mp, (0, 0)), 1e-6, 10, "pure_uniform")
            elif call == "batch":
                batch_experiment([mp], 2, explorer="pure_uniform")
            else:
                satisficing_step(mp, pure(mp, (0, 0)), 1e-6, "pure_uniform",
                                 np.random.default_rng(0))

    def test_every_game_checked_before_any_trial(self, pd, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran before every game was checked")

        monkeypatch.setattr(dynamics, "_blockstep", no_trials)
        with pytest.raises(GameInputError, match=r"games\[1\]"):
            batch_experiment([pd, "not a game"], 2)


def numpy_redraw(current, explorer, rng):
    """An unsatisfied player's next strategy after ``current`` from numpy's
    own draws: vertex ``rng.integers(c)`` for ``pure_uniform``, else one
    ``Generator.dirichlet`` call, blended into ``current`` for
    ``mixture_with_current``."""
    count = len(current)
    if explorer.kind == "pure_uniform":
        return np.eye(count)[int(rng.integers(count))]
    sample = rng.dirichlet(np.ones(count))
    if explorer.kind == "mixture_with_current":
        w = explorer.mixture_weight
        sample = (1.0 - w) * current + w * sample
    return sample


def reference_trial(game, x1, epsilon, max_steps, explorer, seed):
    """The dynamics one trial at a time through public calls: one
    satisfaction_report per step, then one validated MixedStrategy per
    unsatisfied player, drawn in ascending player order."""
    rng = np.random.default_rng(seed)
    profiles = [x1]
    reports = [satisfaction_report(game, x1, epsilon)]
    while reports[-1].unsatisfied and len(profiles) < max_steps:
        strategies = list(profiles[-1].strategies)
        for i in sorted(reports[-1].unsatisfied):
            strategies[i] = MixedStrategy(numpy_redraw(strategies[i].probs, explorer, rng))
        profiles.append(StrategyProfile(tuple(strategies)))
        reports.append(satisfaction_report(game, profiles[-1], epsilon))
    hit = None if reports[-1].unsatisfied else len(profiles)
    return profiles, reports, hit


def replayed_rows(games, trials, epsilon, explorer, max_steps, master):
    """batch_experiment's rows rebuilt trial by trial from the reference."""
    rows = []
    for g, game in enumerate(games):
        hits = []
        for t in range(trials):
            init_ss, run_ss = np.random.SeedSequence([master, g, t]).spawn(2)
            x1 = random_profile(game, np.random.default_rng(init_ss))
            seed = int(run_ss.generate_state(1, np.uint64)[0])
            _, _, hit = reference_trial(game, x1, epsilon, max_steps, explorer, seed)
            if hit is not None:
                hits.append(hit)
        rows.append({
            "game": game.name or f"game-{g}",
            "game_index": g,
            "trials": trials,
            "hits": len(hits),
            "hit_frequency": len(hits) / trials,
            "mean_hit_step": float(np.mean(hits)) if hits else None,
            "median_hit_step": float(np.median(hits)) if hits else None,
        })
    return rows


# a sum off 1, a NaN, a negative entry, an infinity
BAD_DRAWS = [[0.7, 0.7], [np.nan, 1.0], [-0.5, 1.5], [np.inf, 0.0]]

EXPLORERS = [
    ExplorerPolicy("dirichlet_uniform"),
    ExplorerPolicy("pure_uniform"),
    ExplorerPolicy("mixture_with_current", mixture_weight=0.3),
]
# 1-4 players, one of them with a one-action player
SHAPES = [(3,), (2, 2), (1, 3), (2, 3, 2), (2, 2, 2, 2)]


class TestLockStep:
    """batch_experiment's batch loop, ``_blockstep``, against per-trial
    replays.  The class keeps the name of the one-profile-a-round loop it
    was written for, so that its tests keep their ids."""

    @pytest.mark.parametrize("explorer", EXPLORERS, ids=lambda e: e.kind)
    def test_rows_equal_per_trial_replay(self, explorer):
        # a loose epsilon lets continuous explorers hit too, at varied steps
        epsilon = 0.05 if explorer.kind != "pure_uniform" else 1e-6
        games = [generate_random_game(len(s), s, 300 + k) for k, s in enumerate(SHAPES)]
        rows = batch_experiment(games, 8, epsilon, explorer, max_steps=60, master_seed=17)
        assert rows == replayed_rows(games, 8, epsilon, explorer, 60, 17)
        assert sum(row["hits"] for row in rows) > 0

    def test_pure_uniform_rows_equal_replay_at_a_loose_epsilon(self):
        # at 0.05 unsatisfied sets change, and trials hit, at other steps
        explorer = ExplorerPolicy("pure_uniform")
        games = [generate_random_game(len(s), s, 300 + k) for k, s in enumerate(SHAPES)]
        rows = batch_experiment(games, 8, 0.05, explorer, max_steps=60, master_seed=17)
        assert rows == replayed_rows(games, 8, 0.05, explorer, 60, 17)
        assert rows != batch_experiment(games, 8, 1e-6, explorer, max_steps=60, master_seed=17)

    @pytest.mark.parametrize("epsilon", [1e-6, 0.05])
    def test_only_dirichlet_blocks_grow(self, monkeypatch, epsilon):
        # a pure_uniform trial draws one profile a round; a Dirichlet
        # trial's blocks double while its unsatisfied set stays put
        redraw_steps, lengths = dynamics._redraw_steps, {}

        def spy(rows, players, segments, explorer, rng):
            lengths.setdefault(explorer.kind, []).append(len(rows))
            redraw_steps(rows, players, segments, explorer, rng)

        monkeypatch.setattr(dynamics, "_redraw_steps", spy)
        games = [generate_random_game(len(s), s, 600 + k) for k, s in enumerate(SHAPES)]
        for explorer in EXPLORERS:
            rows = batch_experiment(games, 4, epsilon, explorer, max_steps=60, master_seed=23)
            assert rows == replayed_rows(games, 4, epsilon, explorer, 60, 23)
        assert set(lengths["pure_uniform"]) == {1} and len(lengths["pure_uniform"]) > 100
        assert max(lengths["dirichlet_uniform"]) > 8
        assert max(lengths["mixture_with_current"]) > 8

    @pytest.mark.parametrize("explorer", EXPLORERS, ids=lambda e: e.kind)
    def test_run_dynamics_equals_reference(self, explorer):
        for k, shape in enumerate(SHAPES):
            game = generate_random_game(len(shape), shape, 400 + k)
            x1 = random_profile(game, np.random.default_rng(k))
            traj = run_dynamics(game, x1, 0.05, 40, explorer, seed=k)
            profiles, reports, hit = reference_trial(game, x1, 0.05, 40, explorer, k)
            assert traj.hit_step == hit
            assert list(traj.profiles) == profiles  # bitwise
            for got, want in zip(traj.reports, reports):
                assert np.array_equal(got.gaps, want.gaps)
                assert (got.satisfied, got.unsatisfied) == (want.satisfied, want.unsatisfied)

    def test_satisfied_players_keep_their_strategy_objects(self, mp):
        traj = run_dynamics(mp, pure(mp, (0, 0)), 1e-6, 20, seed=3)
        for before, after, report in zip(traj.profiles, traj.profiles[1:], traj.reports):
            for i in report.satisfied:
                assert after[i] is before[i]

    def test_trials_run_in_blocks(self, monkeypatch):
        game = generate_random_game(3, (2, 3, 2), 450)
        explorer = ExplorerPolicy("pure_uniform")
        monkeypatch.setattr(dynamics, "_TRIAL_BLOCK", 3)
        rows = batch_experiment([game, game], 8, 1e-6, explorer, max_steps=40, master_seed=5)
        assert rows == replayed_rows([game, game], 8, 1e-6, explorer, 40, 5)

    @pytest.mark.parametrize("explorer", EXPLORERS[::2], ids=lambda e: e.kind)
    def test_trial_blocks_cap_the_rows_of_a_round(self, monkeypatch, explorer):
        game = generate_random_game(3, (2, 3, 2), 451)
        batch_gaps, redraw_steps = dynamics._batch_gaps, dynamics._redraw_steps
        sizes, lengths = [], []

        def gaps_spy(game, probs):
            sizes.append(len(probs[0]))
            return batch_gaps(game, probs)

        def redraw_spy(rows, *args):
            lengths.append(len(rows))
            redraw_steps(rows, *args)

        monkeypatch.setattr(dynamics, "_TRIAL_BLOCK", 3)
        monkeypatch.setattr(dynamics, "_batch_gaps", gaps_spy)
        monkeypatch.setattr(dynamics, "_redraw_steps", redraw_spy)
        # 7 trials run as 3, 3 and 1 at a time, and hit at this epsilon
        rows = batch_experiment([game, game], 7, 0.05, explorer, max_steps=40, master_seed=6)
        assert rows == replayed_rows([game, game], 7, 0.05, explorer, 40, 6)
        assert max(sizes) == 3
        # no unsatisfied set changes at this one, so a lone trial's blocks
        # grow 1, 2 and then stay at the cap of 3 rows
        sizes.clear()
        lengths.clear()
        batch_experiment([game], 4, 1e-6, explorer, max_steps=40, master_seed=6)
        assert max(sizes) == 3 and max(lengths) == 3 and lengths.count(3) > 5

    @pytest.mark.parametrize("explorer", EXPLORERS[::2], ids=lambda e: e.kind)
    def test_rollbacks_continue_the_stream(self, monkeypatch, explorer):
        # at a loose epsilon unsatisfied sets change inside long blocks; a
        # rollback shows as a generator drawing again from a state it has
        # already drawn from
        redraw, starts = dynamics._redraw_steps, []

        def spy(rows, players, segments, explorer, rng):
            starts.append((id(rng), rng.bit_generator.state["state"]["state"], len(rows)))
            redraw(rows, players, segments, explorer, rng)

        monkeypatch.setattr(dynamics, "_redraw_steps", spy)
        games = [generate_random_game(len(s), s, 500 + k) for k, s in enumerate(SHAPES)]
        rows = batch_experiment(games, 8, 0.05, explorer, max_steps=60, master_seed=21)
        assert rows == replayed_rows(games, 8, 0.05, explorer, 60, 21)
        seen, rollbacks = set(), 0
        for rng, state, _ in starts:
            rollbacks += (rng, state) in seen
            seen.add((rng, state))
        assert rollbacks > 0
        assert max(k for _, _, k in starts) > 8

    @pytest.mark.parametrize("explorer", EXPLORERS, ids=lambda e: e.kind)
    def test_redraw_steps_equal_successive_redraws(self, explorer):
        # a block of k rows is bitwise k steps of numpy's own per-player
        # draws, each from the row before, and leaves the generator where
        # they leave it
        game = generate_random_game(3, (2, 3, 4), 460)
        segments = dynamics._segments(game)
        x = random_profile(game, np.random.default_rng(0))
        start = np.concatenate([s.probs for s in x.strategies])
        for players in ([0], [1, 2], [0, 1, 2]):
            for k in (1, 2, 5, 64):
                ours, ref = np.random.default_rng(k), np.random.default_rng(k)
                rows = np.repeat(start[None, :], k, axis=0)
                dynamics._redraw_steps(rows, players, segments, explorer, ours)
                row = start.copy()
                for r in range(k):
                    for i in players:
                        row[segments[i]] = numpy_redraw(row[segments[i]], explorer, ref)
                    assert rows[r].tobytes() == row.tobytes()
                assert ours.bit_generator.state == ref.bit_generator.state

    def test_trial_streams_are_the_spawned_children(self):
        for master, g, t in [(0, 0, 0), (17, 3, 1023), (2**64 - 1, 5, 7)]:
            init, seed = dynamics._trial_streams(master, g, t)
            init_ss, run_ss = np.random.SeedSequence([master, g, t]).spawn(2)
            assert init.bit_generator.state == np.random.default_rng(init_ss).bit_generator.state
            assert seed == int(run_ss.generate_state(1, np.uint64)[0])

    def test_one_step_cap(self, pd, mp):
        for explorer in EXPLORERS:
            rows = batch_experiment([pd, mp], 5, 1e-6, explorer, max_steps=1, master_seed=2)
            assert rows == replayed_rows([pd, mp], 5, 1e-6, explorer, 1, 2)
            assert all(row["hits"] == 0 for row in rows)

    def test_hit_at_step_one(self):
        # every player has one action, so every start is an equilibrium
        trivial = Game((1, 1), ([0.5], [-2.0]))
        (row,) = batch_experiment([trivial], 4, max_steps=10)
        assert (row["hits"], row["mean_hit_step"], row["median_hit_step"]) == (4, 1.0, 1.0)
        traj = run_dynamics(trivial, uniform(trivial), max_steps=10)
        assert (len(traj), traj.hit_step) == (1, 1)

    def test_no_trial_hits(self, mp):
        # continuous draws never land on the mixed equilibrium of matching pennies
        explorer = ExplorerPolicy("dirichlet_uniform")
        (row,) = batch_experiment([mp], 6, 1e-9, explorer, max_steps=25, master_seed=8)
        assert row == replayed_rows([mp], 6, 1e-9, explorer, 25, 8)[0]
        assert (row["hits"], row["mean_hit_step"], row["median_hit_step"]) == (0, None, None)

    @pytest.mark.parametrize("bad", BAD_DRAWS)
    @pytest.mark.parametrize("entry", ["batch", "run", "step"])
    def test_invalid_draw_raises_input_error(self, mp, monkeypatch, entry, bad):
        def bad_draw(rows, players, segments, explorer, rng):
            rows[:, segments[players[0]]] = bad

        monkeypatch.setattr(dynamics, "_redraw_steps", bad_draw)
        x1 = StrategyProfile.pure(mp, (0, 0))
        with pytest.raises(GameInputError, match="probability vector"):
            if entry == "batch":
                batch_experiment([mp], 2, max_steps=5)
            elif entry == "run":
                run_dynamics(mp, x1, max_steps=5)
            else:
                satisficing_step(mp, x1, 1e-6, ExplorerPolicy(), np.random.default_rng(0))

    @pytest.mark.parametrize("bad", BAD_DRAWS)
    def test_invalid_draw_in_a_long_block_raises_input_error(self, mp, monkeypatch, bad):
        # good draws until the first block of more than one step, whose last
        # row gets a bad strategy: it must fail the row check, not reach the
        # gap kernel
        redraw, lengths = dynamics._redraw_steps, []

        def bad_in_long_block(rows, players, segments, explorer, rng):
            redraw(rows, players, segments, explorer, rng)
            lengths.append(len(rows))
            if len(rows) > 1:
                rows[-1, segments[players[0]]] = bad

        monkeypatch.setattr(dynamics, "_redraw_steps", bad_in_long_block)
        with pytest.raises(GameInputError, match="probability vector"):
            batch_experiment([mp], 2, max_steps=50)
        assert lengths[0] == 1 and lengths[-1] > 1
