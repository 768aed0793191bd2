"""Game model and deviation-gap tests, checked against brute-force oracles."""

from __future__ import annotations

import copy
import itertools
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satpath.games
from satpath import (
    Game,
    GameInputError,
    MixedStrategy,
    StrategyProfile,
    deviation_gap,
    expected_reward,
    find_nash,
    is_eps_best_response,
    pure_action_payoffs,
    random_profile,
    satisfaction_report,
    verify_nash,
)
from satpath.games import _batch_gaps, _contract

from conftest import (
    brute_expected_reward,
    brute_gap,
    brute_pure_payoffs,
    profile_from,
    pure,
    random_game,
    uniform,
)


class TestGameConstruction:
    def test_payoff_tensor_matches_flat_layout(self, mp):
        # last player's action varies fastest
        t = mp.payoff_tensor(0)
        assert t[0, 0] == 1 and t[0, 1] == -1 and t[1, 0] == -1 and t[1, 1] == 1

    def test_rejects_wrong_payoff_length(self):
        with pytest.raises(GameInputError, match="size"):
            Game((2, 2), ([1, 2, 3], [0, 0, 0, 0]))

    def test_rejects_nonfinite_payoffs(self):
        with pytest.raises(GameInputError, match="non-finite"):
            Game((2,), ([np.nan, 0.0],))

    def test_rejects_zero_actions(self):
        with pytest.raises(GameInputError):
            Game((2, 0), ([1, 1], [1, 1]))

    def test_rejects_desk_scale_overflow(self):
        with pytest.raises(GameInputError, match="maximum"):
            Game((7,) * 1, (np.zeros(7),))
        with pytest.raises(GameInputError, match="players"):
            Game((2,) * 7, tuple(np.zeros(128) for _ in range(7)))

    def test_payoffs_are_immutable(self, mp):
        with pytest.raises(ValueError):
            mp.payoffs[0][0] = 99.0

    def test_equality(self, mp):
        clone = Game((2, 2), ([1, -1, -1, 1], [-1, 1, 1, -1]), name="matching-pennies")
        assert clone == mp
        assert Game((2, 2), ([1, -1, -1, 1], [-1, 1, 1, 0]), name="matching-pennies") != mp


class TestMixedStrategy:
    def test_rejects_negative_entries(self):
        with pytest.raises(GameInputError, match="negative"):
            MixedStrategy(np.array([-0.1, 1.1]))

    def test_rejects_bad_sum(self):
        with pytest.raises(GameInputError, match="sums to"):
            MixedStrategy(np.array([0.6, 0.6]))

    def test_sum_tolerance_is_tight(self):
        MixedStrategy(np.array([0.5, 0.5 + 9e-13]))
        with pytest.raises(GameInputError):
            MixedStrategy(np.array([0.5, 0.5 + 2e-12]))

    def test_support(self):
        assert MixedStrategy(np.array([0.5, 0.0, 0.5])).support == (0, 2)

    def test_equality_is_bitwise(self):
        a = MixedStrategy(np.array([0.3, 0.7]))
        assert a == MixedStrategy(np.array([0.3, 0.7]))
        assert a != MixedStrategy(np.array([0.3 + 1e-13, 0.7 - 1e-13]))


class TestProfileValidation:
    def test_profile_shape_checked(self, mp):
        with pytest.raises(GameInputError, match="players"):
            expected_reward(mp, profile_from([[0.5, 0.5]]), 0)
        with pytest.raises(GameInputError, match="entries"):
            expected_reward(mp, profile_from([[0.5, 0.5], [1 / 3, 1 / 3, 1 / 3]]), 0)

    def test_player_out_of_range(self, mp):
        with pytest.raises(GameInputError, match="out of range"):
            expected_reward(mp, uniform(mp), 2)
        with pytest.raises(GameInputError, match="out of range"):
            pure_action_payoffs(mp, uniform(mp), -1)

    def test_negative_epsilon_rejected(self, mp):
        with pytest.raises(GameInputError, match="epsilon"):
            satisfaction_report(mp, uniform(mp), -1e-3)


class TestExpectedReward:
    def test_matching_pennies_uniform_is_zero_sum_symmetric(self, mp):
        u = uniform(mp)
        assert expected_reward(mp, u, 0) == 0.0
        assert expected_reward(mp, u, 1) == 0.0

    def test_matching_pennies_pure_hh(self, mp):
        hh = pure(mp, (0, 0))
        expected = brute_expected_reward(mp, hh, 0)
        assert expected == 1.0
        assert expected_reward(mp, hh, 0) == expected

    def test_prisoners_dilemma_dd(self, pd):
        dd = pure(pd, (1, 1))
        expected = brute_expected_reward(pd, dd, 0)
        assert expected == 1.0
        assert expected_reward(pd, dd, 0) == expected

    def test_pure_profiles_hit_table_entries_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            game = random_game(rng)
            joint = tuple(int(rng.integers(c)) for c in game.action_counts)
            prof = pure(game, joint)
            for i in range(game.num_players):
                assert expected_reward(game, prof, i) == game.payoff_tensor(i)[joint]

    def test_matches_brute_force_on_random_profiles(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            game = random_game(rng)
            prof = random_profile(game, rng)
            for i in range(game.num_players):
                assert expected_reward(game, prof, i) == pytest.approx(
                    brute_expected_reward(game, prof, i), abs=1e-12
                )


class TestPureActionPayoffs:
    def test_matching_pennies_vs_uniform(self, mp):
        np.testing.assert_array_equal(
            pure_action_payoffs(mp, uniform(mp), 0), np.array([0.0, 0.0])
        )

    def test_matching_pennies_vs_pure_h(self, mp):
        prof = pure(mp, (0, 0))
        expected = brute_pure_payoffs(mp, prof, 0)
        assert expected == [1.0, -1.0]
        np.testing.assert_array_equal(pure_action_payoffs(mp, prof, 0), expected)

    def test_prisoners_dilemma_vs_cooperator(self, pd):
        prof = pure(pd, (0, 0))
        expected = brute_pure_payoffs(pd, prof, 0)
        assert expected == [3.0, 5.0]
        np.testing.assert_array_equal(pure_action_payoffs(pd, prof, 0), expected)

    def test_max_equals_best_reply_value(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            game = random_game(rng)
            prof = random_profile(game, rng)
            for i in range(game.num_players):
                w = pure_action_payoffs(game, prof, i)
                assert w.max() == pytest.approx(max(brute_pure_payoffs(game, prof, i)), abs=1e-12)


class TestDeviationGap:
    def test_zero_for_pure_best_response(self, pd):
        # D is dominant, so (D, anything) gives player 1 gap 0
        assert deviation_gap(pd, pure(pd, (1, 0)), 0) == 0.0

    def test_matching_pennies_hh_player2(self, mp):
        prof = pure(mp, (0, 0))
        assert brute_gap(mp, prof, 1) == 2.0
        assert deviation_gap(mp, prof, 1) == 2.0

    def test_rps_uniform_is_equilibrium(self, rps):
        u = uniform(rps)
        for i in (0, 1):
            assert brute_gap(rps, u, i) == 0.0
            assert deviation_gap(rps, u, i) == 0.0

    def test_never_negative(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            game = random_game(rng)
            prof = random_profile(game, rng)
            for i in range(game.num_players):
                assert deviation_gap(game, prof, i) >= 0.0


class TestSatisfactionReport:
    def test_matching_pennies_hh(self, mp):
        report = satisfaction_report(mp, pure(mp, (0, 0)), 1e-9)
        assert report.satisfied == frozenset({0})
        assert report.unsatisfied == frozenset({1})
        np.testing.assert_allclose(report.gaps, [0.0, 2.0])

    def test_rps_uniform_all_satisfied(self, rps):
        report = satisfaction_report(rps, uniform(rps), 1e-9)
        assert report.satisfied == frozenset({0, 1})

    def test_prisoners_dilemma_cc_nobody_satisfied(self, pd):
        report = satisfaction_report(pd, pure(pd, (0, 0)), 1e-9)
        assert report.satisfied == frozenset()
        np.testing.assert_allclose(report.gaps, [2.0, 2.0])

    def test_partition_is_consistent(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            game = random_game(rng)
            prof = random_profile(game, rng)
            report = satisfaction_report(game, prof, 1e-9)
            assert report.satisfied | report.unsatisfied == frozenset(range(game.num_players))
            assert not report.satisfied & report.unsatisfied
            for i in range(game.num_players):
                assert (report.gaps[i] <= 1e-9) == (i in report.satisfied)


class TestEpsBestResponse:
    def test_pure_argmax_is_best_response_at_zero(self, pd):
        assert is_eps_best_response(pd, pure(pd, (1, 1)), 0, 0.0)

    def test_matching_pennies_hh_player2(self, mp):
        prof = pure(mp, (0, 0))
        assert not is_eps_best_response(mp, prof, 1, 0.0)
        # the gap equals 2 exactly, so epsilon = 2 flips the verdict
        assert is_eps_best_response(mp, prof, 1, 2.0)


class TestGapFunctionProperties:
    """Continuity, nonnegativity, zero-iff-best-response, multilinearity."""

    def test_zero_iff_support_in_argmax(self):
        rng = np.random.default_rng(16)
        for _ in range(150):
            game = random_game(rng)
            prof = random_profile(game, rng)
            for i in range(game.num_players):
                w = pure_action_payoffs(game, prof, i)
                support_opt = all(
                    w[a] >= w.max() - 1e-9 for a in prof[i].support
                )
                assert (deviation_gap(game, prof, i) <= 1e-12) == support_opt

    def test_zero_iff_holds_at_equilibria(self, rps):
        u = uniform(rps)
        w = pure_action_payoffs(rps, u, 0)
        assert deviation_gap(rps, u, 0) <= 1e-12
        assert all(w[a] >= w.max() - 1e-9 for a in u[0].support)

    def test_multilinearity_in_own_strategy(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            game = random_game(rng)
            prof = random_profile(game, rng)
            i = int(rng.integers(game.num_players))
            other = MixedStrategy(rng.dirichlet(np.ones(game.action_counts[i])))
            t = float(rng.uniform())
            blend = MixedStrategy((1 - t) * prof[i].probs + t * other.probs)
            lhs = expected_reward(game, prof.replace(i, blend), i)
            rhs = (1 - t) * expected_reward(game, prof, i) + t * expected_reward(
                game, prof.replace(i, other), i
            )
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_lipschitz_smoke(self):
        # |gap(x) - gap(x')| <= L * ||x - x'|| with L = n * max|r| * max actions,
        # for perturbations of size ~1e-6
        rng = np.random.default_rng(18)
        for _ in range(100):
            game = random_game(rng)
            lip = (
                game.num_players
                * max(float(np.abs(arr).max()) for arr in game.payoffs)
                * max(game.action_counts)
            )
            prof = random_profile(game, rng)
            moved = []
            dist_sq = 0.0
            for c, s in zip(game.action_counts, prof.strategies):
                delta = rng.uniform(-1e-6, 1e-6, c)
                delta -= delta.mean()  # stay on the simplex tangent
                perturbed = np.clip(s.probs + delta, 0.0, None)
                perturbed /= perturbed.sum()
                dist_sq += float(((perturbed - s.probs) ** 2).sum())
                moved.append(MixedStrategy(perturbed))
            prof2 = StrategyProfile(tuple(moved))
            dist = np.sqrt(dist_sq)
            for i in range(game.num_players):
                diff = abs(deviation_gap(game, prof, i) - deviation_gap(game, prof2, i))
                assert diff <= lip * dist + 1e-15


# --- contraction kernel vs the brute-force oracle -----------------------------

KERNEL_TOL = 1e-12  # fixed up front: payoffs lie in [-1, 1], at most 81 terms


@st.composite
def games_and_profiles(draw):
    """A game with 1-4 players and 1-3 actions each (so 1-player games and
    1-action players occur) plus a profile that may put zeros anywhere."""
    counts = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    size = int(np.prod(counts))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    payoffs = tuple(
        draw(st.lists(unit, min_size=size, max_size=size)) for _ in counts
    )
    game = Game(counts, payoffs)
    return game, draw(profiles_of(game))


@st.composite
def profiles_of(draw, game):
    """A profile of ``game`` that may put zeros anywhere."""
    vectors = []
    for c in game.action_counts:
        weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=c, max_size=c)))
        if weights.sum() == 0.0:
            weights[0] = 1.0
        vectors.append(weights / weights.sum())
    return profile_from(vectors)


def brute_contract(game, profile, player, keep):
    """Oracle for _contract: for each kept joint action, fix the kept players
    to those pure actions and brute-force the expected reward."""
    shape = tuple(game.action_counts[j] for j in keep)
    out = np.zeros(shape)
    for joint in itertools.product(*(range(c) for c in shape)):
        fixed = profile
        for j, a in zip(keep, joint):
            fixed = fixed.replace(j, MixedStrategy.pure(game.action_counts[j], a))
        out[joint] = brute_expected_reward(game, fixed, player)
    return out


class TestContractionKernel:
    @settings(max_examples=150, deadline=None)
    @given(games_and_profiles(), st.data())
    def test_matches_brute_force_for_every_keep(self, game_and_profile, data):
        game, profile = game_and_profile
        n = game.num_players
        probs = [s.probs for s in profile.strategies]
        i = data.draw(st.integers(0, n - 1))
        frozen = data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
        keeps = [(), (i,), tuple(j for j in range(n) if j not in frozen)]
        if n >= 2:
            j = data.draw(st.integers(0, n - 1).filter(lambda j: j != i))
            keeps += [(i, j), (j, i)]
        for keep in keeps:
            got = _contract(game.payoff_tensor(i), probs, keep)
            assert got.shape == tuple(game.action_counts[k] for k in keep)
            np.testing.assert_allclose(
                got, brute_contract(game, profile, i, keep), rtol=0.0, atol=KERNEL_TOL
            )

    @settings(max_examples=150, deadline=None)
    @given(games_and_profiles(), st.data())
    def test_gap_is_exactly_zero_at_pure_best_response(self, game_and_profile, data):
        game, profile = game_and_profile
        i = data.draw(st.integers(0, game.num_players - 1))
        best = int(np.argmax(pure_action_payoffs(game, profile, i)))
        at_best = profile.replace(i, MixedStrategy.pure(game.action_counts[i], best))
        assert deviation_gap(game, at_best, i) == 0.0


class TestBatchedKernel:
    """The batch axis of ``_contract`` and ``_batch_gaps`` against the
    single-profile calls, compared bitwise."""

    @settings(max_examples=150, deadline=None)
    @given(games_and_profiles(), st.data())
    def test_batch_rows_equal_single_profile_calls(self, game_and_profile, data):
        game, first = game_and_profile
        n = game.num_players
        profiles = [first] + data.draw(st.lists(profiles_of(game), max_size=5))
        # some profiles get one player on a pure best response, whose gap is 0
        best = []
        for b, profile in enumerate(profiles):
            i = data.draw(st.none() | st.integers(0, n - 1))
            if i is not None:
                a = int(np.argmax(pure_action_payoffs(game, profile, i)))
                profiles[b] = profile.replace(i, MixedStrategy.pure(game.action_counts[i], a))
                best.append((b, i))
        rows = np.array([np.concatenate([s.probs for s in p.strategies]) for p in profiles])
        # any batch size and any rows, repeats allowed, as fancy indexing gives them
        picked = data.draw(st.lists(st.integers(0, len(profiles) - 1), min_size=1, max_size=9))
        batch = rows[picked]
        ends = np.cumsum(game.action_counts)
        probs = [batch[:, end - c : end] for c, end in zip(game.action_counts, ends)]

        gaps = _batch_gaps(game, probs)
        assert gaps.shape == (len(picked), n)
        for r, b in enumerate(picked):
            want = satisfaction_report(game, profiles[b], 0.0).gaps
            assert gaps[r].tobytes() == want.tobytes()
        for b, i in best:
            for r in np.flatnonzero(np.array(picked) == b):
                assert gaps[r, i] == 0.0
        if n == 1:
            return
        for i in range(n):
            w = _contract(game.payoff_tensor(i), probs, (i,))
            assert w.shape == (len(picked), game.action_counts[i])
            for r, b in enumerate(picked):
                want = pure_action_payoffs(game, profiles[b], i)
                if game.action_counts[i] > 1:
                    assert w[r].tobytes() == want.tobytes()
                else:
                    # unbatched, a one-action player's payoff is a full
                    # reduction, which einsum groups differently (last ulp);
                    # its gap is exactly 0 either way, checked above
                    np.testing.assert_allclose(w[r], want, rtol=0.0, atol=KERNEL_TOL)


# --- read-only copies and the per-profile gap memo ----------------------------


class TestReadOnlyCopies:
    def test_mutating_the_source_array_changes_nothing(self):
        probs = np.array([0.5, 0.5])
        payoffs = np.array([1.0, -1.0, -1.0, 1.0])
        strategy = MixedStrategy(probs)
        game = Game((2, 2), (payoffs, -payoffs))
        profile = StrategyProfile((strategy, MixedStrategy(probs)))
        gaps = satisfaction_report(game, profile, 0.0).gaps.copy()
        solved = [s.probs.copy() for s in find_nash(game).strategies]
        # a caller that owns an array may make it writable again, even after
        # marking it read-only itself
        for arr in (probs, payoffs):
            arr.setflags(write=False)
            arr.setflags(write=True)
        probs[:] = [0.9, 0.1]
        payoffs[:] = [5.0, 0.0, 0.0, 5.0]
        assert strategy.probs.tolist() == [0.5, 0.5]
        assert game.payoffs[0].tolist() == [1.0, -1.0, -1.0, 1.0]
        assert satisfaction_report(game, profile, 0.0).gaps.tobytes() == gaps.tobytes()
        # and the memo is not stale: an equal game and profile built now agree
        twin = Game(game.action_counts, game.payoffs)
        assert satisfaction_report(twin, copied(profile), 0.0).gaps.tobytes() == gaps.tobytes()
        assert [s.probs.tolist() for s in find_nash(game).strategies] == [
            p.tolist() for p in solved
        ]
        for arr in (strategy.probs, game.payoffs[0], satisfaction_report(game, profile).gaps):
            assert not arr.flags.writeable


@pytest.fixture
def gap_kernel_calls(monkeypatch):
    """Every player index the per-player gap kernel is run for, in order."""
    calls = []
    real = satpath.games._deviation_gap_raw

    def counted(game, probs, player):
        calls.append(player)
        return real(game, probs, player)

    monkeypatch.setattr(satpath.games, "_deviation_gap_raw", counted)
    return calls


def copied(profile: StrategyProfile) -> StrategyProfile:
    """An equal profile with fresh strategy objects, so a fresh memo."""
    return StrategyProfile(tuple(MixedStrategy(s.probs) for s in profile.strategies))


class TestProfileGapMemo:
    def test_repeat_reads_run_the_kernel_once(self, gap_kernel_calls):
        game = random_game(np.random.default_rng(31), n=3)
        profile = random_profile(game, np.random.default_rng(32))
        first = satisfaction_report(game, profile, 1e-9)
        assert gap_kernel_calls == [0, 1, 2]
        again = satisfaction_report(game, profile, 0.5)  # epsilon is not part of the key
        assert again.gaps is first.gaps
        assert [deviation_gap(game, profile, i) for i in range(3)] == first.gaps.tolist()
        assert is_eps_best_response(game, profile, 1, 1e-9) == (first.gaps[1] <= 1e-9)
        assert verify_nash(game, profile, 1e-9) == (first.max_gap <= 1e-9)
        assert gap_kernel_calls == [0, 1, 2]

    def test_equal_games_do_not_share(self, gap_kernel_calls):
        game = random_game(np.random.default_rng(33), n=2)
        twin = Game(game.action_counts, game.payoffs)
        assert twin == game and twin is not game
        profile = random_profile(game, np.random.default_rng(34))
        first = satisfaction_report(game, profile).gaps
        second = satisfaction_report(twin, profile).gaps
        assert gap_kernel_calls == [0, 1, 0, 1]
        assert second is not first and second.tobytes() == first.tobytes()

    @pytest.mark.parametrize(
        "duplicate", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))]
    )
    def test_a_copy_leaves_the_memo_behind(self, gap_kernel_calls, duplicate):
        game = random_game(np.random.default_rng(38), n=2)
        profile = random_profile(game, np.random.default_rng(39))
        gaps = satisfaction_report(game, profile).gaps
        twin = duplicate(profile)
        # a carried entry would sit under id(game) beside a copy of the game,
        # and be read for whatever game later takes that id
        assert twin == profile and "_gaps" not in vars(twin)
        assert satisfaction_report(game, twin).gaps.tobytes() == gaps.tobytes()
        assert gap_kernel_calls == [0, 1, 0, 1]

    def test_find_nash_leaves_its_result_warm(self, gap_kernel_calls):
        game = random_game(np.random.default_rng(35), n=3)
        target = find_nash(game)
        computed = len(gap_kernel_calls)
        for _ in range(3):
            assert satisfaction_report(game, target).max_gap <= 1e-9
            assert verify_nash(game, target, 1e-9)
        assert len(gap_kernel_calls) == computed

    @settings(max_examples=150, deadline=None)
    @given(games_and_profiles(), st.data())
    def test_memo_is_bitwise_a_fresh_computation(self, game_and_profile, data):
        game, profile = game_and_profile
        i = data.draw(st.integers(0, game.num_players - 1))
        best = int(np.argmax(pure_action_payoffs(game, profile, i)))
        at_best = profile.replace(i, MixedStrategy.pure(game.action_counts[i], best))
        for p in (profile, at_best):
            memo = satisfaction_report(game, p).gaps
            assert satisfaction_report(game, p).gaps is memo
            assert memo.tobytes() == satisfaction_report(game, copied(p)).gaps.tobytes()
        assert satisfaction_report(game, at_best).gaps[i] == 0.0

    def test_a_dropped_profile_is_freed(self):
        game = random_game(np.random.default_rng(36), n=2)
        profile = random_profile(game, np.random.default_rng(37))
        satisfaction_report(game, profile)
        assert any(entry[0] is game for entry in profile._gaps.values())
        ref = weakref.ref(profile)
        del profile
        assert ref() is None  # freed by its reference count: no cycle through the game
