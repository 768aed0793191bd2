"""Support-enumeration solver tests against closed-form and brute oracles."""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satpath.solver
from satpath import (
    Game,
    GameInputError,
    MixedStrategy,
    SolverConfig,
    SolverIncompleteError,
    StrategyProfile,
    SupportProfile,
    deviation_gap,
    enumerate_supports,
    find_nash,
    find_subgame_nash,
    generate_random_game,
    satisfaction_report,
    solve_on_support,
    verify_nash,
)

from conftest import (
    brute_expected_reward,
    brute_max_gap,
    brute_pure_payoffs,
    fresh_gaps,
    matching_pennies,
    profile_from,
    pure,
    random_game,
    two_by_two_oracle,
)


class TestSupportProfile:
    def test_normalizes_and_validates(self):
        sp = SupportProfile(((1, 0), (0,)))
        assert sp.supports == ((0, 1), (0,))
        with pytest.raises(GameInputError, match="empty"):
            SupportProfile(((), (0,)))
        with pytest.raises(GameInputError, match="repeated"):
            SupportProfile(((0, 0), (0,)))

    def test_range_check_against_game(self, mp):
        with pytest.raises(GameInputError, match="action 2"):
            SupportProfile(((0, 2), (0,))).validate_for(mp)


class TestSolverConfig:
    def test_rejects_nonpositive_tolerances(self):
        with pytest.raises(GameInputError):
            SolverConfig(tolerance=0.0)

    @pytest.mark.parametrize("tolerance", [math.inf, math.nan])
    def test_rejects_non_finite_tolerances(self, tolerance):
        with pytest.raises(GameInputError, match="finite positive"):
            SolverConfig(tolerance=tolerance)


    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tolerance": "1e-9"},
            {"tolerance": True},
        ],
    )
    def test_rejects_mistyped_fields(self, kwargs):
        with pytest.raises(GameInputError):
            SolverConfig(**kwargs)

    def test_numpy_scalars_are_accepted(self):
        assert SolverConfig(tolerance=np.float64(1e-9)) == SolverConfig(tolerance=1e-9)

    def test_tolerance_is_the_only_field(self, mp):
        assert [f.name for f in dataclasses.fields(SolverConfig)] == ["tolerance"]
        with pytest.raises(TypeError):
            SolverConfig(max_support_size=1)
        with pytest.raises(TypeError):
            enumerate_supports(mp, SolverConfig())


class TestSolveOnSupport:
    def test_matching_pennies_full_support(self, mp):
        sol = solve_on_support(mp, SupportProfile(((0, 1), (0, 1))))
        assert sol is not None
        for i in (0, 1):
            np.testing.assert_allclose(sol[i].probs, [0.5, 0.5], atol=1e-12)

    def test_prisoners_dilemma_dd(self, pd):
        sol = solve_on_support(pd, SupportProfile(((1,), (1,))))
        assert sol == pure(pd, (1, 1))

    def test_prisoners_dilemma_cc_rejected(self, pd):
        # unsupported action D pays strictly more
        assert solve_on_support(pd, SupportProfile(((0,), (0,)))) is None

    def test_rps_full_support(self, rps):
        sol = solve_on_support(rps, SupportProfile(((0, 1, 2), (0, 1, 2))))
        assert sol is not None
        for i in (0, 1):
            np.testing.assert_allclose(sol[i].probs, [1 / 3] * 3, atol=1e-12)

    def test_mismatched_support_is_rejected(self, rps):
        # a 2-support cannot make 3 actions indifferent in RPS
        assert solve_on_support(rps, SupportProfile(((0, 1, 2), (0, 1)))) is None

    def test_three_player_mixed_support(self):
        game = three_player_cycle()
        sol = solve_on_support(game, SupportProfile(((0, 1),) * 3))
        assert sol is not None
        for i in range(3):
            np.testing.assert_allclose(sol[i].probs, [0.5, 0.5], atol=1e-9)


class TestCandidateOnAFace:
    """A support's raw solution that leaves the simplex is clamped onto it
    and judged by its gaps alone: these exact equilibria sit on a face of
    the requested support.  A gate on the raw solution's signs would turn
    each away."""

    @pytest.mark.parametrize(
        "args, support, actions",
        [
            ((2, (3, 4), 316), ((0, 1, 2), (0, 1, 3)), (2, 3)),
            ((3, (2, 2, 2), 333), ((0, 1),) * 3, (1, 0, 0)),
            ((3, (2, 2, 3), 243), ((0, 1), (0, 1), (1, 2)), (0, 0, 2)),
        ],
    )
    def test_exact_equilibrium_on_a_face(self, args, support, actions):
        game = generate_random_game(*args)
        sol = solve_on_support(game, SupportProfile(support))
        assert sol is not None and sol == pure(game, actions)
        assert all(set(sol[i].support) <= set(own) for i, own in enumerate(support))
        assert fresh_gaps(game, sol).max() == 0.0


class TestOneCandidateCheck:
    """A support's candidate is checked once, by its memoized deviation gaps."""

    @staticmethod
    def gap_calls(monkeypatch) -> list:
        """The players of every ``_deviation_gap_raw`` call from now on."""
        calls = []
        real = satpath.games._deviation_gap_raw

        def spy(game, probs, player):
            calls.append(player)
            return real(game, probs, player)

        monkeypatch.setattr(satpath.games, "_deviation_gap_raw", spy)
        return calls

    def test_found_profile_holds_its_gaps(self, mp, monkeypatch):
        sol = solve_on_support(mp, SupportProfile(((0, 1), (0, 1))))
        calls = self.gap_calls(monkeypatch)
        report = satisfaction_report(mp, sol, 1e-9)
        assert calls == [] and not report.unsatisfied
        assert report.gaps.tobytes() == fresh_gaps(mp, sol).tobytes()

    def test_find_nash_reads_the_memoized_gaps(self, mp, monkeypatch):
        # games only the mixed stage solves; the pure screen seeds its gaps
        calls = self.gap_calls(monkeypatch)
        found, outside = [], []
        real_support = satpath.solver.solve_on_support

        def support_stage(*args):
            before = len(calls)
            found.append(real_support(*args))
            del calls[before:]  # the candidate's own check
            return found[-1]

        monkeypatch.setattr(satpath.solver, "solve_on_support", support_stage)
        for game in (mp, three_player_cycle()):
            sol = find_nash(game)
            assert any(sol is f for f in found)
            outside += calls
        assert outside == []


def _random_support(rng: np.random.Generator, game: Game) -> SupportProfile:
    return SupportProfile(
        tuple(
            tuple(rng.choice(c, size=int(rng.integers(1, c + 1)), replace=False))
            for c in game.action_counts
        )
    )


def _newton_system(game: Game, support: SupportProfile):
    """The sliced Newton residual and Jacobian of ``support`` as functions of u."""
    box = satpath.solver._support_blocks(game, support, margin=math.inf)  # no pruning
    offsets = [0, *itertools.accumulate(len(s) for s in support.supports)]

    def residual(u):
        return satpath.solver._newton_residual(box, u, offsets)

    def jacobian(u):
        return satpath.solver._newton_jacobian(box, residual(u)[1], offsets)

    return residual, jacobian, offsets


class TestSlicedNewtonSystem:
    @pytest.mark.parametrize("n", [3, 4])
    def test_jacobian_is_the_unit_step_difference(self, n):
        # each residual entry is affine in any single coordinate of u, so a
        # unit step along coordinate k changes it by exactly column k
        rng = np.random.default_rng(31 + n)
        for _ in range(15):
            game = random_game(rng, n=n)
            support = _random_support(rng, game)
            residual, jacobian, offsets = _newton_system(game, support)
            u = rng.uniform(-1.0, 1.0, offsets[-1] + n)
            base = residual(u)[0]
            steps = np.array([residual(u + e)[0] - base for e in np.eye(u.size)]).T
            np.testing.assert_allclose(jacobian(u), steps, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 4])
    def test_residual_rows_match_brute_payoffs(self, n):
        rng = np.random.default_rng(41 + n)
        for _ in range(15):
            game = random_game(rng, n=n)
            support = _random_support(rng, game)
            residual, _, offsets = _newton_system(game, support)
            on_support = [rng.dirichlet(np.ones(len(s))) for s in support.supports]
            values = rng.uniform(-1.0, 1.0, n)
            res = residual(np.concatenate(on_support + [values]))[0]
            full = [np.zeros(c) for c in game.action_counts]
            for vec, own, p in zip(full, support.supports, on_support):
                vec[list(own)] = p
            profile = profile_from(full)
            for i, own in enumerate(support.supports):
                brute = brute_pure_payoffs(game, profile, i)
                expected = [brute[a] - values[i] for a in own]
                np.testing.assert_allclose(
                    res[offsets[i] : offsets[i + 1]], expected, rtol=0.0, atol=1e-12
                )
            np.testing.assert_allclose(res[offsets[-1] :], 0.0, atol=1e-12)


class TestNewtonStarts:
    def test_restarts_are_the_seeded_dirichlet_draws(self):
        # the uniform start, then per restart one Dirichlet(1, ..., 1) draw
        # per player from the fixed generator, as numpy's sampler draws them
        for sizes in itertools.product(range(1, 5), repeat=3):
            support = SupportProfile(tuple(tuple(range(s)) for s in sizes))
            starts = satpath.solver._newton_starts(support, 3)
            rng = np.random.default_rng(0x5A7F)
            want = [np.concatenate([np.full(s, 1.0 / s) for s in sizes] + [np.zeros(3)])]
            for _ in range(satpath.solver._NEWTON_EXTRA_STARTS):
                draws = [rng.dirichlet(np.ones(s)) for s in sizes]
                want.append(np.concatenate(draws + [np.zeros(3)]))
            assert [a.tobytes() for a in starts] == [w.tobytes() for w in want]


class TestEverySupport:
    @pytest.mark.parametrize("n", [2, 3])
    def test_solutions_lie_in_support_and_pass_brute_checks(self, n):
        rng = np.random.default_rng(51 + n)
        tolerance = SolverConfig().tolerance
        found_mixed = 0
        for _ in range(4 if n == 2 else 2):
            game = random_game(rng, n=n)
            for support in enumerate_supports(game):
                sol = solve_on_support(game, support)
                if sol is None:
                    continue
                found_mixed += any(len(s) > 1 for s in support.supports)
                for i, own in enumerate(support.supports):
                    assert set(sol[i].support) <= set(own)
                    payoffs = brute_pure_payoffs(game, sol, i)
                    supported = [payoffs[a] for a in own]
                    value = max(supported)
                    assert value - min(supported) <= 1e-8 + 1e-12
                    assert max(payoffs) <= value + tolerance + 1e-12
        assert found_mixed > 0


class TestEnumerationOrder:
    def test_smallest_supports_first_then_lexicographic(self, mp):
        sizes = [sum(len(s) for s in sp.supports) for sp in enumerate_supports(mp)]
        assert sizes == sorted(sizes)
        first = next(iter(enumerate_supports(mp)))
        assert first.supports == ((0,), (0,))

    @pytest.mark.parametrize("counts", [(1,), (2, 3), (3, 1, 2), (2, 2, 2)])
    def test_every_support_once_in_order(self, counts):
        game = Game(counts, tuple(np.zeros(math.prod(counts)) for _ in counts))
        got = [sp.supports for sp in enumerate_supports(game)]
        every = [
            [s for k in range(1, c + 1) for s in itertools.combinations(range(c), k)]
            for c in counts
        ]
        want = sorted(
            itertools.product(*every),
            key=lambda sp: (sum(map(len, sp)), [len(s) for s in sp], sp),
        )
        assert len(want) == math.prod(2**c - 1 for c in counts)
        assert got == want


class TestFindNash:
    def test_matching_pennies(self, mp):
        sol = find_nash(mp)
        for i in (0, 1):
            np.testing.assert_allclose(sol[i].probs, [0.5, 0.5], atol=1e-9)

    def test_rock_paper_scissors(self, rps):
        sol = find_nash(rps)
        for i in (0, 1):
            np.testing.assert_allclose(sol[i].probs, [1 / 3] * 3, atol=1e-9)

    def test_prisoners_dilemma(self, pd):
        assert find_nash(pd) == pure(pd, (1, 1))

    def test_returned_profiles_verify(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            game = random_game(rng)
            sol = find_nash(game)
            assert verify_nash(game, sol, 1e-9)
            assert brute_max_gap(game, sol) <= 1e-8

    def test_deterministic(self):
        # two separately built equal games: find_nash memoizes per Game
        # instance, so one object solved twice would compare a result to itself
        a = find_nash(random_game(np.random.default_rng(22), n=3))
        b = find_nash(random_game(np.random.default_rng(22), n=3))
        assert a == b

    def test_incomplete_error_carries_best_candidate(self):
        # no pure equilibrium and an irrational mixed one: at tolerance 0
        # every support fails, which must surface as an incompleteness error
        game = Game((2, 2), ([0.1, -0.2, -0.3, 0.4], [-0.1, 0.2, 0.3, -0.4]))
        with pytest.raises(SolverIncompleteError) as exc_info:
            find_nash(game, SolverConfig(tolerance=1e-300))
        err = exc_info.value
        assert err.best_candidate is not None
        assert err.best_gap < 1e-12  # the true equilibrium was found, just not at eps=0


@pytest.fixture
def solver_work(monkeypatch):
    """Every stage ``find_nash`` runs, in order: "pure" for the one-pass
    pure stage, then each support handed to ``solve_on_support``."""
    work = []
    real_pure = satpath.solver._pure_candidate
    real_support = satpath.solver.solve_on_support

    def pure_stage(*args, **kwargs):
        work.append("pure")
        return real_pure(*args, **kwargs)

    def support_stage(*args, **kwargs):
        work.append(args[1])
        return real_support(*args, **kwargs)

    monkeypatch.setattr(satpath.solver, "_pure_candidate", pure_stage)
    monkeypatch.setattr(satpath.solver, "solve_on_support", support_stage)
    return work


class TestFindNashMemo:
    @staticmethod
    def games():
        """A 3-player game whose first equilibrium is pure, and one (the
        3-player matching cycle) that only the mixed stage solves."""
        return [random_game(np.random.default_rng(22), n=3), three_player_cycle()]

    def test_repeat_returns_same_profile_without_enumerating(self, solver_work):
        for game in self.games():
            solver_work.clear()
            first = find_nash(game)
            solved = len(solver_work)
            assert solved > 0
            assert find_nash(game) is first
            assert find_nash(game, SolverConfig(tolerance=1e-9)) is first  # equal config
            assert len(solver_work) == solved
            assert not any(s.probs.flags.writeable for s in first.strategies)

    def test_other_config_solves_again(self, solver_work):
        for game in self.games():
            solver_work.clear()
            find_nash(game)
            solved = len(solver_work)
            other = find_nash(game, SolverConfig(tolerance=1e-10))
            assert len(solver_work) > solved
            assert find_nash(game, SolverConfig(tolerance=1e-10)) is other
            assert len(solver_work) == 2 * solved

    def test_equal_games_do_not_share(self, solver_work):
        for game in self.games():
            solver_work.clear()
            twin = Game(game.action_counts, game.payoffs)
            assert twin == game and twin is not game
            first = find_nash(game)
            solved = len(solver_work)
            second = find_nash(twin)
            assert len(solver_work) == 2 * solved
            assert second == first and second is not first

    def test_incomplete_error_is_not_memoized(self, solver_work):
        game = Game((2, 2), ([0.1, -0.2, -0.3, 0.4], [-0.1, 0.2, 0.3, -0.4]))
        config = SolverConfig(tolerance=1e-300)
        # every stage: the pure pass, then each support larger than a singleton
        stages = ["pure"] + [
            sp for sp in enumerate_supports(game) if _total(sp) > game.num_players
        ]
        assert len(stages) > 1
        for attempt in (1, 2):
            with pytest.raises(SolverIncompleteError):
                find_nash(game, config)
            assert solver_work == attempt * stages


def _total(support: SupportProfile) -> int:
    return sum(len(s) for s in support.supports)


def three_player_cycle() -> Game:
    """Each player wants to match the next one, signs alternating, so every
    pure profile has a deviator and the unique equilibrium is all-uniform."""
    counts = (2, 2, 2)
    tensors = []
    for i in range(3):
        t = np.zeros(counts)
        for a in np.ndindex(*counts):
            t[a] = 1.0 if a[i] == a[(i + 1) % 3] else -1.0
        tensors.append(t.reshape(-1) * (1 if i % 2 == 0 else -1))
    return Game(counts, tuple(tensors))


# --- the one-pass pure stage against the singleton-support loop ---------------

PURE_TOL = SolverConfig().tolerance
# differences of exactly the tolerance and one ulp either side of it
_EDGE_OFFSETS = (
    0.0,
    float(np.nextafter(PURE_TOL, 0.0)),
    PURE_TOL,
    float(np.nextafter(PURE_TOL, 1.0)),
)


@st.composite
def tie_prone_games(draw):
    """1-4 players with 1-3 actions each (so 1-player games and 1-action
    players occur).  Payoffs are small integers, so ties are common, each
    plus an offset of 0, the tolerance, or the tolerance +- 1 ulp.  Half the
    games are zero-sum (the last player gets minus the others' total), which
    makes games without a pure equilibrium common."""
    counts = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    size = int(np.prod(counts))
    entry = st.tuples(st.integers(-2, 2), st.sampled_from(_EDGE_OFFSETS))
    payoffs = [
        np.array([b + off for b, off in draw(st.lists(entry, min_size=size, max_size=size))])
        for _ in counts
    ]
    if len(counts) > 1 and draw(st.booleans()):
        payoffs[-1] = -sum(payoffs[:-1])
    return Game(counts, tuple(payoffs))


def singleton_loop(game: Game, config: SolverConfig):
    """Reference for the pure stage: singleton supports in enumeration order
    through ``solve_on_support``; the first whose max gap is within tolerance,
    else the first of least gap (the best candidate), else None."""
    best, best_gap = None, math.inf
    for support in enumerate_supports(game):
        if _total(support) > game.num_players:
            break
        profile = solve_on_support(game, support, config)
        if profile is None:
            continue
        gap = max(deviation_gap(game, profile, i) for i in range(game.num_players))
        if gap <= config.tolerance:
            return profile, gap
        if gap < best_gap:
            best, best_gap = profile, gap
    return best, best_gap


def find_pure_nash(game: Game, config: SolverConfig | None = None) -> StrategyProfile:
    """``find_nash`` with its mixed stage emptied, so only the pure screen runs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(satpath.solver, "_supports_from", lambda *a: iter(()))
        return find_nash(game, config)


def _bitwise(a: StrategyProfile, b: StrategyProfile) -> bool:
    return all(
        x.probs.tobytes() == y.probs.tobytes() for x, y in zip(a.strategies, b.strategies)
    )


class TestPureStage:
    @settings(max_examples=300, deadline=None)
    @given(tie_prone_games())
    def test_matches_singleton_loop(self, game):
        config = SolverConfig()
        expected, gap = singleton_loop(game, config)
        got = satpath.solver._pure_candidate(game, config)
        if expected is None:
            assert got is None
        else:
            assert got is not None and _bitwise(got, expected)
        if gap <= config.tolerance:
            assert _bitwise(find_pure_nash(game, config), expected)
        else:
            with pytest.raises(SolverIncompleteError) as exc_info:
                find_pure_nash(game, config)
            assert exc_info.value.best_gap == gap
            if expected is not None:
                assert _bitwise(exc_info.value.best_candidate, expected)

    def test_near_miss_is_the_best_candidate(self):
        # every pure profile has a player who gains fl(1 + tol) - 1, one ulp-ish
        # above tol, yet within the off-support test fl(1 + tol) <= 1 + tol:
        # the singleton loop accepts each as a candidate that fails verification
        hi = 1.0 + PURE_TOL
        game = Game((2, 2), ([hi, 1.0, 1.0, hi], [1.0, hi, hi, 1.0]))
        assert hi - 1.0 > PURE_TOL
        with pytest.raises(SolverIncompleteError) as exc_info:
            find_pure_nash(game)
        assert exc_info.value.best_gap == hi - 1.0
        assert exc_info.value.best_candidate == pure(game, (0, 0))
        assert verify_nash(game, find_nash(game), PURE_TOL)

    def test_dominance_margin_still_rejects(self):
        # at 1e15 one ulp is 0.125, so fl(1e15 + 0.1) = 1e15 + 0.125 and the
        # off-support test passes, but 0.125 exceeds the dominance margin
        # 1e-8 + 0.1: solve_on_support rejects every singleton outright
        low = 1e15
        high = low + 0.125
        assert low + 0.1 == high
        game = Game((2, 2), ([high, low, low, high], [low, high, high, low]))
        config = SolverConfig(tolerance=0.1)
        assert singleton_loop(game, config) == (None, math.inf)
        assert satpath.solver._pure_candidate(game, config) is None
        with pytest.raises(SolverIncompleteError) as exc_info:
            find_pure_nash(game, config)
        assert exc_info.value.best_gap == math.inf

    def test_no_pure_equilibrium_under_singleton_cap(self, mp):
        with pytest.raises(SolverIncompleteError) as exc_info:
            find_pure_nash(mp)
        assert exc_info.value.best_gap == math.inf
        assert exc_info.value.best_candidate is None

    @pytest.mark.parametrize("make", [matching_pennies, three_player_cycle])
    def test_no_pure_equilibrium_reaches_mixed_stage(self, make, solver_work):
        game = make()
        assert satpath.solver._pure_candidate(game, SolverConfig()) is None
        solver_work.clear()
        sol = find_nash(game)
        assert solver_work[0] == "pure" and len(solver_work) > 1
        assert all(_total(sp) > game.num_players for sp in solver_work[1:])
        for i in range(game.num_players):
            np.testing.assert_allclose(sol[i].probs, [0.5, 0.5], atol=1e-9)


@st.composite
def screen_games(draw):
    """1-3 players with 1-3 actions, half the games with one player held to
    a single action; payoffs from {-1, 0, 1} (ties and zero gaps) or U[-1, 1]."""
    counts = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    if draw(st.booleans()):
        counts[draw(st.integers(0, len(counts) - 1))] = 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (len(counts), math.prod(counts))
    if draw(st.booleans()):
        payoffs = rng.integers(-1, 2, shape).astype(float)
    else:
        payoffs = rng.uniform(-1.0, 1.0, shape)
    return Game(tuple(counts), tuple(payoffs))


class TestPureScreenTable:
    """The screen walks its shortfall table: its pure equilibrium is the first
    singleton the per-support path accepts, made of the shared vertices,
    with gaps seeded bit for bit as the kernel computes them."""

    @settings(max_examples=200, deadline=None)
    @given(screen_games())
    def test_first_accepted_singleton_with_seeded_gaps(self, game):
        config = SolverConfig()
        expected = None
        for support in enumerate_supports(game):
            if _total(support) > game.num_players:
                break
            profile = solve_on_support(game, support, config)
            if profile is not None and fresh_gaps(game, profile).max() <= config.tolerance:
                expected = profile
                break
        screened = satpath.solver._pure_candidate(game, config)
        if screened is not None:
            owner, seeded, _ = screened._gaps[id(game)]
            assert owner is game and not seeded.flags.writeable
            assert seeded.tobytes() == fresh_gaps(game, screened).tobytes()
            for c, s in zip(game.action_counts, screened.strategies):
                assert s is MixedStrategy.pure(c, s.support[0])
        if expected is None:
            assert screened is None or screened._gaps[id(game)][1].max() > config.tolerance
            return
        solved = find_nash(game)
        assert _bitwise(solved, expected) and _bitwise(solved, screened)
        assert satisfaction_report(game, solved).gaps.tobytes() == (
            fresh_gaps(game, solved).tobytes()
        )


    def test_negative_zero_shortfall_seeds_zero(self):
        # numpy's max of (0.0, -0.0) is -0.0, so the shortfall at action 0 is
        # -0.0 - 0.0 = -0.0; the kernel clamps it to 0.0, and so must the seed
        game = Game((2,), ([0.0, -0.0],))
        screened = satpath.solver._pure_candidate(game, SolverConfig())
        assert screened == pure(game, (0,))
        assert screened._gaps[id(game)][1].tobytes() == fresh_gaps(game, screened).tobytes()


class TestVerifyNash:
    def test_matching_pennies_mixed_vs_pure(self, mp):
        mixed = StrategyProfile(
            (MixedStrategy(np.array([0.5, 0.5])), MixedStrategy(np.array([0.5, 0.5])))
        )
        assert verify_nash(mp, mixed, 1e-9)
        assert not verify_nash(mp, pure(mp, (0, 0)), 1e-9)

    def test_any_profile_passes_at_payoff_spread(self, mp):
        spread = float(max(arr.max() - arr.min() for arr in mp.payoffs))
        assert verify_nash(mp, pure(mp, (0, 0)), spread)


class TestTwoByTwoOracle:
    def test_against_closed_form_on_random_games(self):
        rng = np.random.default_rng(23)
        for _ in range(120):
            game = random_game(rng, n=2, max_actions=2)
            assert game.action_counts == (2, 2)
            sol = find_nash(game)
            kind, data = two_by_two_oracle(game)
            if kind == "pure":
                played = tuple(int(np.argmax(sol[i].probs)) for i in (0, 1))
                assert played in data
                for i in (0, 1):
                    assert sol[i].probs[played[i]] == pytest.approx(1.0, abs=1e-7)
            else:
                p, q = data
                assert sol[0].probs[0] == pytest.approx(p, abs=1e-7)
                assert sol[1].probs[0] == pytest.approx(q, abs=1e-7)


class TestFindSubgameNash:
    def test_matching_pennies_freeze_player1(self, mp):
        frozen = {0: MixedStrategy.pure(2, 0)}
        sol = find_subgame_nash(mp, frozen)
        assert sol[0] == frozen[0]  # bit-identical reinsertion
        assert sol[0].probs is frozen[0].probs
        assert sol == pure(mp, (0, 1))

    def test_freeze_nobody_equals_find_nash(self, rps):
        assert find_subgame_nash(rps, {}) == find_nash(rps)

    def test_three_player_frozen_uniform_argmax(self):
        rng = np.random.default_rng(24)
        game = random_game(rng, n=3)
        frozen = {
            1: MixedStrategy.uniform(game.action_counts[1]),
            2: MixedStrategy.uniform(game.action_counts[2]),
        }
        sol = find_subgame_nash(game, frozen)
        # oracle: average player 0's payoffs over the frozen uniforms, argmax
        averaged = [
            brute_expected_reward(
                game,
                StrategyProfile(
                    (MixedStrategy.pure(game.action_counts[0], a), frozen[1], frozen[2])
                ),
                0,
            )
            for a in range(game.action_counts[0])
        ]
        best = int(np.argmax(averaged))
        assert sol[0] == MixedStrategy.pure(game.action_counts[0], best)
        assert sol[1] == frozen[1] and sol[2] == frozen[2]

    def test_free_players_best_respond_in_full_game(self):
        rng = np.random.default_rng(25)
        for _ in range(25):
            game = random_game(rng, n=3)
            frozen = {0: MixedStrategy(rng.dirichlet(np.ones(game.action_counts[0])))}
            sol = find_subgame_nash(game, frozen)
            for i in (1, 2):
                assert deviation_gap(game, sol, i) <= 1e-9

    def test_empty_free_set_rejected(self, mp):
        frozen = {0: MixedStrategy.pure(2, 0), 1: MixedStrategy.pure(2, 0)}
        with pytest.raises(GameInputError, match="freeze every player"):
            find_subgame_nash(mp, frozen)

    def test_frozen_shape_validated(self, mp):
        with pytest.raises(GameInputError, match="entries"):
            find_subgame_nash(mp, {0: MixedStrategy.uniform(3)})


class TestSoundness:
    def test_single_player_game(self):
        game = Game((4,), ([0.3, -0.1, 0.9, 0.2],))
        sol = find_nash(game)
        assert sol == StrategyProfile((MixedStrategy.pure(4, 2),))

    def test_four_player_random_games(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            game = random_game(rng, n=4)
            sol = find_nash(game)
            assert verify_nash(game, sol, 1e-9)


class TestKnownDefects:
    @pytest.mark.xfail(
        strict=True,
        raises=SolverIncompleteError,
        reason="no support yields a verified candidate on this 3x3x2x2 game (ROADMAP item 2)",
    )
    def test_held_out_corpus_game_143_solves(self):
        # game k = 143 of the corpus under held-out seed 354529847: the shape
        # comes from the acceptance stream, the payoffs from the held-out one
        k, seed = 143, 354_529_847
        shape_rng = np.random.default_rng(np.random.SeedSequence([77_000, k]))
        counts = tuple(int(shape_rng.integers(2, 4)) for _ in range(4))
        payoff_rng = np.random.default_rng(np.random.SeedSequence([77_000 + 2 * seed, k]))
        payoffs = tuple(payoff_rng.uniform(-1.0, 1.0, int(np.prod(counts))) for _ in range(4))
        game = Game(counts, payoffs)
        assert counts == (3, 3, 2, 2)
        assert verify_nash(game, find_nash(game), 1e-9)

    @pytest.mark.xfail(
        strict=True,
        raises=SolverIncompleteError,
        reason="no support yields a verified candidate on this 2x3x3 game (ROADMAP item 2)",
    )
    def test_random_2x3x3_game_solves(self):
        # a game the exact-oracle path test drew: payoffs U[-1, 1] from one
        # seed, no pure equilibrium, and no Newton start in a root's basin
        rng = np.random.default_rng(536_870_912)
        game = Game((2, 3, 3), tuple(rng.uniform(-1.0, 1.0, (3, 18))))
        assert satpath.solver._pure_candidate(game, SolverConfig()) is None
        assert verify_nash(game, find_nash(game), 1e-9)

    @pytest.mark.xfail(
        strict=True,
        raises=SolverIncompleteError,
        reason="the solver's absolute constants fail at payoff scale 1e3 (ROADMAP item 13)",
    )
    def test_scaled_corpus_game_30_solves(self):
        # seed-0 corpus game 30 with its payoffs times 1e3: Nash equilibria do
        # not change with the payoff scale, but the best candidate's gap,
        # 1.07e-9, is just above the tolerance
        rng = np.random.default_rng(np.random.SeedSequence([77_000, 30]))
        counts = tuple(int(rng.integers(2, 4)) for _ in range(2))
        payoffs = tuple(1e3 * rng.uniform(-1.0, 1.0, int(np.prod(counts))) for _ in range(2))
        game = Game(counts, payoffs)
        assert counts == (3, 2)
        assert verify_nash(game, find_nash(game), 1e-9)
