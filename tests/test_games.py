"""Game model and deviation-gap tests, checked against brute-force oracles."""

from __future__ import annotations

import copy
import dataclasses
import itertools
import math
import numbers
import pickle
import weakref
from decimal import Decimal
from fractions import Fraction

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
    construct_path,
    deviation_gap,
    expected_reward,
    find_nash,
    generate_random_game,
    is_eps_best_response,
    pure_action_payoffs,
    random_profile,
    satisfaction_report,
    verify_nash,
    verify_path,
)
from satpath.games import (
    SatisfactionReport,
    _batch_gaps,
    _check_real,
    _contract,
    _deviation_gap_raw,
    _simplex_draws,
)
from satpath.dynamics import _TRIAL_BLOCK

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

    @pytest.mark.parametrize(
        "probs, message",
        [
            ([np.nan, 1.0], "mixed strategy contains non-finite entries"),
            ([np.inf, 0.0], "mixed strategy contains non-finite entries"),
            ([np.inf, -np.inf], "mixed strategy contains non-finite entries"),
            ([-np.inf, 2.0], "mixed strategy contains non-finite entries"),
            ([np.nan, -1.0], "mixed strategy contains non-finite entries"),
            ([-0.5, 1.5], r"mixed strategy has negative entries: \[-0\.5  1\.5\]"),
            ([0.6, 0.6], r"mixed strategy sums to 1\.2, not 1"),
        ],
        ids=["nan", "inf", "inf-minus-inf", "minus-inf", "nan-and-negative", "negative", "off-sum"],
    )
    def test_rejections_keep_their_messages(self, probs, message):
        # the first failing check names the fault, in the order non-finite,
        # negative, sum; no RuntimeWarning is raised on the way
        with pytest.raises(GameInputError, match=f"^{message}$"):
            MixedStrategy(np.array(probs))

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


class TestSharedVertex:
    """``MixedStrategy.pure`` returns one shared, immutable point mass per
    (count, action)."""

    def test_one_object_per_vertex(self):
        v = MixedStrategy.pure(3, 1)
        assert MixedStrategy.pure(np.int64(3), np.int32(1)) is v
        assert v.probs.tolist() == [0.0, 1.0, 0.0] and not v.probs.flags.writeable
        assert MixedStrategy.pure(3, 2) is not v and MixedStrategy.pure(2, 1) is not v

    @pytest.mark.parametrize("action", [True, np.bool_(True), -1, 3, 1.0])
    def test_bad_action_raises_before_the_lookup(self, action):
        # True == 1, so an unchecked bool would find the vertex of action 1
        MixedStrategy.pure(3, 1)
        with pytest.raises(GameInputError, match="^action "):
            MixedStrategy.pure(3, action)

    @pytest.mark.parametrize("count", [True, np.bool_(True), 0, 2.0])
    def test_bad_count_raises(self, count):
        with pytest.raises(GameInputError, match="^num_actions "):
            MixedStrategy.pure(count, 0)

    @pytest.mark.parametrize(
        "duplicate", [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))]
    )
    def test_copies_are_equal_distinct_and_read_only(self, duplicate):
        v = MixedStrategy.pure(2, 0)
        twin = duplicate(v)
        assert twin == v and twin is not v and twin.probs is not v.probs
        assert not twin.probs.flags.writeable and not v.probs.flags.writeable
        assert MixedStrategy.pure(2, 0) is v


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


def public_gap(game, profile, player):
    """The deviation gap from the public pure-action payoffs w, clamped at 0:
    max(w) - w @ x_i."""
    w = pure_action_payoffs(game, profile, player)
    gap = float(w.max()) - float(w @ profile[player].probs)
    return gap if gap > 0.0 else 0.0


class TestGapPlan:
    """``_deviation_gap_raw`` computes its gap from the pure-action payoffs
    ``pure_action_payoffs`` returns, so every gap is bitwise the public
    formula's."""

    @settings(max_examples=150, deadline=None)
    @given(games_and_profiles(), st.data())
    def test_gap_equals_public_formula_and_brute_force(self, game_and_profile, data):
        game, profile = game_and_profile
        probs = [s.probs for s in profile.strategies]
        for i in range(game.num_players):
            gap = _deviation_gap_raw(game, probs, i)
            assert type(gap) is float
            want = np.float64(public_gap(game, profile, i)).tobytes()
            assert np.float64(gap).tobytes() == want
            assert np.float64(deviation_gap(game, profile, i)).tobytes() == want
            assert abs(gap - brute_gap(game, profile, i)) <= KERNEL_TOL
        i = data.draw(st.integers(0, game.num_players - 1))
        best = int(np.argmax(pure_action_payoffs(game, profile, i)))
        probs[i] = MixedStrategy.pure(game.action_counts[i], best).probs
        assert _deviation_gap_raw(game, probs, i) == 0.0


class TestBatchedKernel:
    """``_batch_gaps`` against the single-profile gaps, compared bitwise."""

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

    @pytest.mark.parametrize("shape", [(3,), (1, 4), (2, 3), (2, 2, 2), (3, 1, 2, 2)])
    def test_block_sized_batches_equal_single_profile_calls(self, shape):
        # a round of block-stepped dynamics evaluates up to _TRIAL_BLOCK rows
        game = generate_random_game(len(shape), shape, len(shape) * 10 + sum(shape))
        rng = np.random.default_rng(sum(shape))
        profiles = [random_profile(game, rng) for _ in range(_TRIAL_BLOCK)]
        rows = np.array([np.concatenate([s.probs for s in p.strategies]) for p in profiles])
        ends = np.cumsum(game.action_counts)
        for size in (1, 2, 63, 64, 65, 511, _TRIAL_BLOCK):
            probs = [rows[:size, end - c : end] for c, end in zip(game.action_counts, ends)]
            gaps = _batch_gaps(game, probs)
            assert gaps.shape == (size, game.num_players)
            for r in range(size):
                want = satisfaction_report(game, profiles[r], 0.0).gaps
                assert gaps[r].tobytes() == want.tobytes()


# --- uniform draws on simplices ----------------------------------------------


def dirichlet_per_player(rng, counts):
    """The reference: one ``Generator.dirichlet`` call with all-ones alphas
    per count, in order."""
    return [rng.dirichlet(np.ones(c)) for c in counts]


class TestSimplexDraws:
    """``_simplex_draws`` against numpy's own Dirichlet sampler, bitwise and
    in the generator state it leaves: if numpy changes how it draws a
    Dirichlet vector, these fail instead of the recorded digests drifting."""

    @staticmethod
    def assert_same_as_reference(seed, counts):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = _simplex_draws(ours, counts)
        want = dirichlet_per_player(ref, counts)
        assert [d.tobytes() for d in draws] == [w.tobytes() for w in want]
        assert ours.bit_generator.state == ref.bit_generator.state

    def test_every_count_and_player_number(self):
        for c, n in itertools.product(range(1, 7), range(1, 7)):
            for seed in range(25):
                self.assert_same_as_reference(seed, [c] * n)

    def test_mixed_counts_over_many_seeds(self):
        picker = np.random.default_rng(14)
        for seed in range(1000):
            counts = picker.integers(1, 7, size=int(picker.integers(1, 7))).tolist()
            self.assert_same_as_reference(seed, counts)

    def test_sums_left_to_right_past_seven_entries(self):
        # ndarray.sum groups 8 or more entries pairwise and then differs
        # from numpy's Dirichlet in the last ulp for many seeds
        for seed in range(200):
            self.assert_same_as_reference(seed, [8, 9, 12])

    def test_successive_calls_continue_the_stream(self):
        ours, ref = np.random.default_rng(5), np.random.default_rng(5)
        for counts in ([3, 2], [1], [4, 4, 4], [2]):
            draws = _simplex_draws(ours, counts)
            want = dirichlet_per_player(ref, counts)
            assert [d.tobytes() for d in draws] == [w.tobytes() for w in want]
        assert ours.bit_generator.state == ref.bit_generator.state

    @staticmethod
    def assert_block_same_as_calls(seed, counts, rows):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        block = _simplex_draws(ours, counts, rows)
        assert [b.shape for b in block] == [(rows, c) for c in counts]
        for r in range(rows):
            want = _simplex_draws(ref, counts)
            assert [b[r].tobytes() for b in block] == [w.tobytes() for w in want]
        assert ours.bit_generator.state == ref.bit_generator.state

    def test_block_equals_successive_calls_for_every_count(self):
        for c, n in itertools.product(range(1, 7), range(1, 4)):
            for rows in (1, 2, 5, 64):
                self.assert_block_same_as_calls(c * 10 + n + rows, [c] * n, rows)

    def test_block_equals_successive_calls_for_mixed_counts(self):
        picker = np.random.default_rng(23)
        for seed in range(300):
            counts = picker.integers(1, 7, size=int(picker.integers(1, 7))).tolist()
            self.assert_block_same_as_calls(seed, counts, int(picker.integers(1, 130)))

    def test_block_sums_left_to_right_past_seven_entries(self):
        for seed in range(50):
            self.assert_block_same_as_calls(seed, [8, 9, 12], 16)

    def test_random_profile_draws_dirichlet_per_player(self):
        picker = np.random.default_rng(41)
        for seed in range(60):
            counts = tuple(picker.integers(1, 7, size=int(picker.integers(1, 5))).tolist())
            game = Game(counts, tuple(np.zeros(math.prod(counts)) for _ in counts))
            profile = random_profile(game, np.random.default_rng(seed))
            ref = np.random.default_rng(seed)
            want = dirichlet_per_player(ref, game.action_counts)
            assert [s.probs.tobytes() for s in profile.strategies] == [
                w.tobytes() for w in want
            ]


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

    def test_report_is_kept_for_the_last_epsilon(self, gap_kernel_calls):
        game = random_game(np.random.default_rng(40), n=3)
        profile = random_profile(game, np.random.default_rng(41))
        first = satisfaction_report(game, profile, 1e-9)
        assert satisfaction_report(game, profile, 1e-9) is first
        assert satisfaction_report(game, profile, np.float64(1e-9)) is first
        # a second epsilon between the gaps splits the players differently
        middle = float(np.sort(first.gaps)[1])
        second = satisfaction_report(game, profile, middle)
        fresh = satisfaction_report(game, copied(profile), middle)
        assert second is not first and second.gaps is first.gaps
        assert second.epsilon == middle and second.max_gap == first.max_gap
        assert second.satisfied == fresh.satisfied != first.satisfied
        assert second.unsatisfied == fresh.unsatisfied
        assert second.satisfied == {i for i, g in enumerate(first.gaps) if g <= middle}
        assert satisfaction_report(game, profile, middle) is second
        assert gap_kernel_calls == [0, 1, 2, 0, 1, 2]
        # the kept reports share one pair of sets per split
        assert second.satisfied is fresh.satisfied and second.unsatisfied is fresh.unsatisfied
        assert second.unsatisfied == {0, 1, 2} - second.satisfied

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
        assert twin == profile and twin._gaps == {}
        assert satisfaction_report(game, twin).gaps.tobytes() == gaps.tobytes()
        assert gap_kernel_calls == [0, 1, 0, 1]

    @pytest.mark.parametrize(
        "duplicate", [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))]
    )
    def test_copies_hold_read_only_arrays(self, mp, duplicate):
        # the memos assume no held array changes: a writable copy of a
        # strategy could change under its profile's memo entry
        x = pure(mp, (0, 0))
        find_nash(mp)
        for twin in (duplicate(x), StrategyProfile(tuple(duplicate(s) for s in x.strategies))):
            satisfaction_report(mp, twin)
            with pytest.raises(ValueError, match="read-only"):
                twin[1].probs[:] = [0.0, 1.0]
            assert twin == x and satisfaction_report(mp, twin).gaps.tolist() == [0.0, 2.0]
        game = duplicate(mp)
        assert game == mp and not any(p.flags.writeable for p in game.payoffs)
        assert not {"_equilibria", "_tensors", "_gap_plan"} & set(vars(game))
        with pytest.raises(ValueError, match="read-only"):
            game.payoffs[0][0] = 5.0

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

    def test_a_case1_path_on_a_solved_game_runs_the_kernel_once_per_player(
        self, gap_kernel_calls
    ):
        # the median corpus path: the game's equilibrium is already solved,
        # so only the fresh start's gaps are computed, once each
        game = random_game(np.random.default_rng(42), n=3)
        rng = np.random.default_rng(43)
        construct_path(game, random_profile(game, rng))
        gap_kernel_calls.clear()
        path = construct_path(game, random_profile(game, rng))
        assert [step.kind for step in path.steps] == ["initial", "case1_jump"]
        assert gap_kernel_calls == [0, 1, 2]
        gap_kernel_calls.clear()
        assert verify_path(game, path, require_length_bound=True).ok
        assert gap_kernel_calls == []


# --- argument checks and reports ----------------------------------------------


def reference_check_real(name, value, positive=False, high=None):
    """``games._check_real`` as it was before its float fast path, kept
    verbatim as the reference."""
    real = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            real = float(value)
        except OverflowError:  # an integer beyond the range of a float
            pass
    if not (
        math.isfinite(real)
        and (real > 0.0 if positive else real >= 0.0)
        and (high is None or real <= high)
    ):
        bound = "" if high is None else f" at most {high}"
        sign = "positive" if positive else "nonnegative"
        raise GameInputError(f"{name} must be a finite {sign} real{bound}, got {value!r}")
    return real


class HalfFloat(float):
    """A float subclass whose ``__float__`` disagrees with its value."""

    def __float__(self):
        return 0.5


_EDGE_REALS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, math.inf, -math.inf,
    math.nan, np.float64(-0.0), np.float64(math.nan), np.float32(math.inf),
    np.float16(-0.0), 2**1024, -(2**1024), 2**1100, np.int64(-1), np.uint64(2**64 - 1),
    True, False, np.bool_(True), np.bool_(False), Fraction(1, 3), Fraction(-1, 3),
    Decimal("0.5"), Decimal("NaN"), "0.5", "", None, 1j, complex(0.5, 0.0),
    HalfFloat(2.0), HalfFloat(math.nan),
]

_CHECKED_VALUES = st.one_of(
    st.sampled_from(_EDGE_REALS),
    st.floats(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.floats(width=16).map(np.float16),
    st.integers(),
    st.integers(-(2**1100), 2**1100),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.fractions(),
    st.decimals(),
    st.text(max_size=4),
    st.complex_numbers(),
)


class TestCheckReal:
    @settings(max_examples=600, deadline=None)
    @given(_CHECKED_VALUES, st.booleans(), st.one_of(st.none(), st.floats(), st.just(1.0)))
    def test_agrees_with_the_reference_bit_for_bit(self, value, positive, high):
        try:
            expected = reference_check_real("x", value, positive, high)
        except GameInputError as exc:
            with pytest.raises(GameInputError) as caught:
                _check_real("x", value, positive, high)
            assert str(caught.value) == str(exc)
        else:
            real = _check_real("x", value, positive, high)
            assert type(real) is float and real.hex() == expected.hex()


class TestReportMaxGap:
    @settings(max_examples=150, deadline=None)
    @given(games_and_profiles(), st.floats(0.0, 2.0))
    def test_max_gap_is_the_gaps_maximum(self, game_and_profile, epsilon):
        game, profile = game_and_profile
        report = satisfaction_report(game, profile, epsilon)
        assert type(report.max_gap) is float
        assert report.max_gap.hex() == float(report.gaps.max()).hex()

    def test_all_zero_and_clamped_negative_zero_gaps(self, rps):
        # rps at uniform: every gap is 0; a one-player game whose payoffs are
        # all -0.0 computes -0.0 - 0.0, which the kernel clamps to 0.0
        minus_zero = Game((2,), ([-0.0, -0.0],))
        cases = [(rps, uniform(rps)), (minus_zero, profile_from([[0.5, 0.5]]))]
        for game, profile in cases:
            report = satisfaction_report(game, profile, 0.0)
            assert report.gaps.tolist() == [0.0] * game.num_players
            assert all(math.copysign(1.0, g) == 1.0 for g in report.gaps.tolist())
            assert report.max_gap.hex() == float(report.gaps.max()).hex() == (0.0).hex()
            assert report.satisfied == frozenset(range(game.num_players))

    def test_a_report_built_directly_derives_max_gap(self):
        gaps = np.array([0.25, 3.0, 1.0])
        report = SatisfactionReport(gaps, 0.1)
        assert report.max_gap == 3.0 and type(report.max_gap) is float
        # max_gap is derived, never given, so it always matches gaps
        with pytest.raises(TypeError):
            SatisfactionReport(gaps, 0.1, 0.0)
        replaced = dataclasses.replace(report, gaps=np.array([0.5, 0.0, 0.125]))
        assert replaced.max_gap == 0.5


@st.composite
def gaps_and_epsilons(draw):
    """A gap vector of 1-6 entries and an epsilon, with entries equal to
    epsilon, zeros and the float just above epsilon drawn often."""
    eps = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
    entry = st.one_of(
        st.just(eps), st.just(0.0), st.just(math.nextafter(eps, math.inf)), st.floats(0.0, 3.0)
    )
    return draw(st.lists(entry, min_size=1, max_size=6)), eps


def assert_derived(report, values, eps):
    """``report``'s derived fields are those of ``values`` at ``eps``."""
    assert report.gaps.tolist() == values and report.epsilon == eps
    assert report.satisfied == {i for i, gap in enumerate(values) if gap <= eps}
    assert report.unsatisfied == {i for i, gap in enumerate(values) if not gap <= eps}
    assert type(report.max_gap) is float and report.max_gap == max(values)


class TestDerivedReportFields:
    """A report takes only its gaps and epsilon; the split and max_gap are
    derived from them, so no report states a split its gaps contradict."""

    @settings(max_examples=300, deadline=None)
    @given(gaps_and_epsilons(), gaps_and_epsilons())
    def test_split_is_gap_at_most_epsilon(self, case, other):
        values, eps = case
        report = SatisfactionReport(np.array(values), eps)
        assert_derived(report, values, eps)
        # replace recomputes every derived field from the new inputs
        assert_derived(dataclasses.replace(report, epsilon=other[1]), values, other[1])
        assert_derived(dataclasses.replace(report, gaps=np.array(other[0])), other[0], eps)
        assert_derived(SatisfactionReport(values, eps), values, eps)

    @pytest.mark.parametrize(
        "name, value", [("satisfied", frozenset()), ("unsatisfied", frozenset()), ("max_gap", 0.0)]
    )
    def test_derived_fields_are_not_arguments(self, name, value):
        with pytest.raises(TypeError):
            SatisfactionReport(np.array([0.0, 2.0]), 1e-9, **{name: value})

    def test_split_given_at_the_parent_is_refused(self, mp):
        # matching pennies at (H, H): nobody unsatisfied at max_gap 2 cannot
        # be stated, and the derived report says player 1 is unsatisfied
        gaps = satisfaction_report(mp, pure(mp, (0, 0)), 1e-9).gaps
        assert gaps.tolist() == [0.0, 2.0]
        with pytest.raises(TypeError):
            SatisfactionReport(gaps, frozenset({0, 1}), frozenset(), 1e-9)
        assert SatisfactionReport(gaps, 1e-9).unsatisfied == {1}

    @pytest.mark.parametrize("epsilon", [-1.0, math.nan, math.inf, "1", True, None])
    def test_epsilon_is_checked(self, epsilon):
        # unchecked, -1.0 and nan would report both players unsatisfied and
        # "1" would raise a bare TypeError from the split's comparison
        with pytest.raises(GameInputError, match="epsilon must be a finite nonnegative real"):
            SatisfactionReport(np.array([0.0, 2.0]), epsilon)
        report = SatisfactionReport(np.array([0.0, 2.0]), 1e-9)
        with pytest.raises(GameInputError, match="epsilon"):
            dataclasses.replace(report, epsilon=-0.5)

    def test_epsilon_is_kept_as_a_float(self):
        for epsilon in (np.float64(0.5), 1, Fraction(1, 2)):
            report = SatisfactionReport(np.array([0.0, 2.0]), epsilon)
            assert type(report.epsilon) is float and report.epsilon == float(epsilon)

    def test_replace_epsilon_resplits(self, mp):
        # at the parent, replace(report, epsilon=5.0) kept unsatisfied {1}
        report = satisfaction_report(mp, pure(mp, (0, 0)), 1e-9)
        assert report.unsatisfied == {1}
        loose = dataclasses.replace(report, epsilon=5.0)
        assert loose.satisfied == {0, 1} and loose.unsatisfied == frozenset()
        assert loose.max_gap == 2.0 and loose.gaps is report.gaps

    def test_caller_writes_do_not_reach_the_report(self):
        gaps = np.array([0.5, 2.0])
        report = SatisfactionReport(gaps, 1.0)
        view = np.array([0.5, 2.0])[:]
        view.setflags(write=False)  # read-only, but its base stays writable
        from_view = SatisfactionReport(view, 1.0)
        gaps[:] = 0.0
        view.base[:] = 0.0
        for kept in (report, from_view):
            assert kept.gaps.tolist() == [0.5, 2.0] and not kept.gaps.flags.writeable
            assert kept.unsatisfied == {1} and kept.max_gap == 2.0

    def test_memo_gaps_are_shared_not_copied(self, mp):
        profile = pure(mp, (0, 0))
        report = satisfaction_report(mp, profile, 1e-9)
        assert report.gaps is profile._gaps[id(mp)][1]
        assert SatisfactionReport(report.gaps, 0.5).gaps is report.gaps
        # an integer array is copied as floats, so max_gap stays a float
        ints = np.array([0, 2])
        ints.setflags(write=False)
        assert type(SatisfactionReport(ints, 0.5).max_gap) is float
