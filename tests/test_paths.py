"""Set algebra, path construction/verification, and mixing-family utilities."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from satpath import (
    Game,
    GameInputError,
    MixedStrategy,
    PathInvariantError,
    PathVerification,
    SolverConfig,
    StrategyProfile,
    WorseSearchConfig,
    WorseSearchIncompleteError,
    build_w_xi,
    build_z_lambda,
    construct_path,
    find_worse_candidate,
    in_nob,
    in_worse,
    indifference_poly,
    is_accessible,
    pure_action_payoffs,
    random_profile,
    satisfaction_report,
    verify_nash,
    verify_path,
    zero_poly_check,
)
import satpath.paths

from conftest import brute_gap, matching_pennies, profile_from, pure, random_game, uniform

EPS = 1e-9


def report(game, profile):
    return satisfaction_report(game, profile, EPS)


class TestIsAccessible:
    def test_contains_itself(self, mp):
        x = pure(mp, (0, 0))
        assert is_accessible(x, x, report(mp, x))

    def test_everything_accessible_when_nobody_satisfied(self, pd):
        x = pure(pd, (0, 0))  # (C, C): both unsatisfied
        rep = report(pd, x)
        assert rep.satisfied == frozenset()
        for y in (pure(pd, (1, 1)), uniform(pd), pure(pd, (1, 0))):
            assert is_accessible(x, y, rep)

    def test_satisfied_player_must_not_move(self, mp):
        x = pure(mp, (0, 0))  # player 0 satisfied
        y = profile_from([[0.5, 0.5], [0.0, 1.0]])
        assert not is_accessible(x, y, report(mp, x))

    def test_shape_mismatch_rejected(self, mp):
        x = pure(mp, (0, 0))
        with pytest.raises(GameInputError):
            is_accessible(x, profile_from([[1.0, 0.0]]), report(mp, x))


class TestInNob:
    def test_reflexive(self, mp, pd, rps):
        for game in (mp, pd, rps):
            for x in (pure(game, (0,) * 2), uniform(game)):
                assert in_nob(game, x, x, EPS)

    def test_unsatisfied_player_becoming_satisfied_fails(self, mp):
        # (H, T) makes player 2 best respond (gap 0), leaving NoB
        x = pure(mp, (0, 0))
        y = pure(mp, (0, 1))
        assert brute_gap(mp, y, 1) == 0.0
        assert not in_nob(mp, x, y, EPS)

    def test_uniform_deviation_keeps_player2_unsatisfied(self, mp):
        # against a pure opponent, uniform still has gap 1 by the oracle
        x = pure(mp, (0, 0))
        y = profile_from([[1.0, 0.0], [0.5, 0.5]])
        assert brute_gap(mp, y, 1) == 1.0
        assert in_nob(mp, x, y, EPS)

    def test_lopsided_deviation_stays_in_nob(self, mp):
        x = pure(mp, (0, 0))
        y = profile_from([[1.0, 0.0], [0.9, 0.1]])
        assert brute_gap(mp, y, 1) == pytest.approx(1.8)
        assert in_nob(mp, x, y, EPS)


class TestInWorse:
    def test_never_contains_itself(self, mp, pd):
        for game in (mp, pd):
            for x in (pure(game, (0, 0)), uniform(game)):
                assert not in_worse(game, x, x, EPS)

    def test_reflexivity_on_random_samples(self):
        # x is always in NoB(x) and never in Worse(x)
        rng = np.random.default_rng(30)
        for _ in range(60):
            game = random_game(rng)
            x = (
                pure(game, tuple(int(rng.integers(c)) for c in game.action_counts))
                if rng.uniform() < 0.5
                else random_profile(game, rng)
            )
            assert in_nob(game, x, x, EPS)
            assert not in_worse(game, x, x, EPS)

    def test_flipping_player1_makes_worse(self, mp):
        x = pure(mp, (0, 0))
        y = profile_from([[1.0, 0.0], [0.4, 0.6]])
        assert brute_gap(mp, y, 0) == pytest.approx(0.4)
        assert brute_gap(mp, y, 1) == pytest.approx(0.8)
        assert in_worse(mp, x, y, EPS)

    def test_keeping_player1_satisfied_is_not_worse(self, mp):
        x = pure(mp, (0, 0))
        y = profile_from([[1.0, 0.0], [0.9, 0.1]])
        assert brute_gap(mp, y, 0) == 0.0
        assert not in_worse(mp, x, y, EPS)

    def test_inclusion_chain_on_random_triples(self):
        # Worse(x) subset of NoB(x) subset of Access(x)
        rng = np.random.default_rng(31)
        for _ in range(120):
            game = random_game(rng)
            x = (
                pure(game, tuple(int(rng.integers(c)) for c in game.action_counts))
                if rng.uniform() < 0.5
                else random_profile(game, rng)
            )
            rep = report(game, x)
            y = x
            if rep.unsatisfied:
                strategies = list(x.strategies)
                for i in rep.unsatisfied:
                    if rng.uniform() < 0.7:
                        strategies[i] = MixedStrategy(
                            rng.dirichlet(np.ones(game.action_counts[i]))
                        )
                y = StrategyProfile(tuple(strategies))
            worse = in_worse(game, x, y, EPS)
            nob = in_nob(game, x, y, EPS)
            accessible = is_accessible(x, y, rep)
            assert (not worse) or nob
            assert (not nob) or accessible

    def test_worse_grows_unsat_strictly(self, mp):
        x = pure(mp, (0, 0))
        y = profile_from([[1.0, 0.0], [0.4, 0.6]])
        assert in_worse(mp, x, y, EPS)
        assert report(mp, x).unsatisfied < report(mp, y).unsatisfied


class TestFindWorseCandidate:
    def test_matching_pennies_finds_flip(self, mp):
        x = pure(mp, (0, 0))
        y = find_worse_candidate(mp, x, EPS, WorseSearchConfig(rng_seed=5))
        assert y is not None
        assert in_worse(mp, x, y, EPS)
        # flipping player 1 requires tilting player 2 below 1/2 mass on H
        assert y[1].probs[0] < 0.5

    def test_equilibrium_start_returns_empty(self, rps):
        assert find_worse_candidate(rps, uniform(rps), EPS) is None

    def test_dominant_strategy_blocks_worse(self, pd):
        # player 1 plays dominant D and stays satisfied whatever player 2 does
        x = pure(pd, (1, 0))
        assert report(pd, x).satisfied == frozenset({0})
        assert find_worse_candidate(pd, x, EPS, WorseSearchConfig(budget=2000)) is None

    def test_dominant_case_verified_by_grid_oracle(self, pd):
        # exhaustive grid over player 2's simplex at resolution 0.01
        x = pure(pd, (1, 0))
        for p in np.linspace(0.0, 1.0, 101):
            y = x.replace(1, MixedStrategy(np.array([p, 1.0 - p])))
            assert not in_worse(pd, x, y, EPS)

    def test_budget_is_respected(self, mp):
        x = pure(mp, (0, 0))
        # stage 1 yields one pure deviation and stage 2 three blends, all of
        # which fail here; budget 4 leaves no room for Dirichlet samples
        config = WorseSearchConfig(budget=4, rng_seed=0)
        assert find_worse_candidate(mp, x, EPS, config) is None


class TestWorseSearchConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"budget": 2.5},
            {"budget": True},
            {"budget": 0},
            {"budget": sys.maxsize + 1},
            {"rng_seed": 1.5},
            {"rng_seed": False},
            {"rng_seed": "0"},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(GameInputError):
            WorseSearchConfig(**kwargs)

    def test_numpy_integers_become_ints(self, mp):
        config = WorseSearchConfig(budget=np.int64(7), rng_seed=np.int64(-3))
        assert config == WorseSearchConfig(budget=7, rng_seed=-3)
        assert type(config.budget) is int and type(config.rng_seed) is int
        # a negative numpy seed once overflowed when masked to 64 bits
        x = pure(mp, (0, 0))
        assert find_worse_candidate(mp, x, EPS, config) == find_worse_candidate(
            mp, x, EPS, WorseSearchConfig(budget=7, rng_seed=-3)
        )

    def test_escalated_budget_stops_at_maxsize(self, mp, monkeypatch):
        budgets = []
        real = satpath.paths.find_worse_candidate

        def spy(game, x, epsilon, config):
            budgets.append(config.budget)
            return real(game, x, epsilon, WorseSearchConfig(budget=1))

        monkeypatch.setattr(satpath.paths, "find_worse_candidate", spy)
        monkeypatch.setattr(satpath.paths, "find_subgame_nash", lambda *args: pure(mp, (0, 0)))
        budget = sys.maxsize // 100
        with pytest.raises(WorseSearchIncompleteError):
            construct_path(mp, pure(mp, (0, 0)), EPS, WorseSearchConfig(budget=budget))
        # the last escalation, budget * 1000, would pass sys.maxsize
        assert budgets == [budget, budget * 10, budget * 100, sys.maxsize]


class TestWorseSearchStageOrder:
    """The search tries pure deviations, then build_w_xi for xi = 0.5, 0.1,
    0.01, then seeded Dirichlet draws, and returns the first Worse member.
    Each game below is 2x3: player 0 is satisfied at (a0, b0), player 1 not."""

    def test_first_hit_is_a_pure_deviation(self):
        # b1 flips player 0 and leaves player 1 short of b2; the 0.5 blend
        # would also be a Worse member, so the pure stage must come first
        game = Game((2, 3), ([1, 0, 0, 0, 5, 0], [0, 1, 2, 0, 0, 0]))
        x = pure(game, (0, 0))
        assert in_worse(game, x, build_w_xi(game, x, report(game, x), 0.5), EPS)
        y = find_worse_candidate(game, x, EPS)
        assert y == pure(game, (0, 1))
        assert y[0] is x[0]

    def test_blend_when_every_pure_deviation_fails(self):
        # either pure deviation makes player 1 best respond; the 0.5 blend
        # puts 1/3 on {b1, b2}, enough to flip player 0, and so would the
        # first Dirichlet draw, so the blend stage must come before it
        game = Game((2, 3), ([1, 0, 0, 0, 3, 3], [0, 5, 5, 0, 0, 0]))
        x = pure(game, (0, 0))
        rep = report(game, x)
        for action in (1, 2):
            assert not in_worse(game, x, pure(game, (0, action)), EPS)
        draw = np.random.default_rng(0).dirichlet(np.ones(3))
        assert in_worse(game, x, x.replace(1, MixedStrategy(draw)), EPS)
        y = find_worse_candidate(game, x, EPS, WorseSearchConfig(rng_seed=0))
        blend = build_w_xi(game, x, rep, 0.5)
        for i in range(game.num_players):
            assert np.array_equal(y[i].probs, blend[i].probs)

    def test_dirichlet_when_pure_and_blends_fail(self, mp):
        # flipping player 0 needs player 1 below 1/2 on H; the blends of
        # (H, H) keep at least 3/4 there, so only a Dirichlet draw can hit
        x = pure(mp, (0, 0))
        rep = report(mp, x)
        assert not in_worse(mp, x, pure(mp, (0, 1)), EPS)
        for xi in (0.5, 0.1, 0.01):
            assert not in_worse(mp, x, build_w_xi(mp, x, rep, xi), EPS)
        rng = np.random.default_rng(3)
        while True:
            expected = x.replace(1, MixedStrategy(rng.dirichlet(np.ones(2))))
            if in_worse(mp, x, expected, EPS):
                break
        assert find_worse_candidate(mp, x, EPS, WorseSearchConfig(rng_seed=3)) == expected


class TestBuildWXi:
    def test_formula_and_access(self, mp):
        x = pure(mp, (0, 0))
        rep = report(mp, x)
        w = build_w_xi(mp, x, rep, 0.5)
        assert w[0] is x[0]  # satisfied player untouched, bitwise
        np.testing.assert_array_equal(w[1].probs, [0.75, 0.25])
        assert is_accessible(x, w, rep)

    def test_example_arithmetic_from_delta_t(self, mp):
        # (T, T): player 1 satisfied, player 2 unsatisfied and at delta_T
        x = pure(mp, (1, 1))
        rep = report(mp, x)
        assert rep.unsatisfied == frozenset({1})
        w = build_w_xi(mp, x, rep, 0.5)
        np.testing.assert_array_equal(w[1].probs, [0.25, 0.75])

    def test_small_xi_limit(self, mp):
        x = pure(mp, (0, 0))
        rep = report(mp, x)
        for xi in (1e-3, 1e-6, 1e-9):
            w = build_w_xi(mp, x, rep, xi)
            np.testing.assert_allclose(w[1].probs, x[1].probs, atol=xi)

    def test_xi_one_gives_uniform(self, mp):
        x = pure(mp, (0, 0))
        w = build_w_xi(mp, x, report(mp, x), 1.0)
        np.testing.assert_array_equal(w[1].probs, [0.5, 0.5])

    def test_fully_mixed_lower_bound_exact(self):
        rng = np.random.default_rng(32)
        for _ in range(60):
            game = random_game(rng)
            x = random_profile(game, rng)
            rep = report(game, x)
            xi = float(rng.uniform(0.01, 0.99))
            w = build_w_xi(game, x, rep, xi)
            for i in rep.unsatisfied:
                assert np.all(w[i].probs >= xi / game.action_counts[i])

    def test_domain_validated(self, mp):
        x = pure(mp, (0, 0))
        rep = report(mp, x)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(GameInputError, match="xi"):
                build_w_xi(mp, x, rep, bad)


class TestBuildZLambda:
    def setup_method(self):
        self.x_star = profile_from([[1.0, 0.0], [0.5, 0.5]])
        self.w = profile_from([[0.5, 0.5], [0.25, 0.75]])
        self.x_k = profile_from([[1.0, 0.0], [0.0, 1.0]])

    def test_endpoints(self):
        z0 = build_z_lambda(self.x_star, self.w, {1}, self.x_k, 0.0)
        assert z0[0] is self.x_k[0]
        np.testing.assert_array_equal(z0[1].probs, self.x_star[1].probs)
        z1 = build_z_lambda(self.x_star, self.w, {1}, self.x_k, 1.0)
        np.testing.assert_array_equal(z1[1].probs, self.w[1].probs)

    def test_midpoint_arithmetic(self):
        x_star = profile_from([[1.0, 0.0], [1.0, 0.0]])
        w = profile_from([[1.0, 0.0], [0.25, 0.75]])
        z = build_z_lambda(x_star, w, {1}, self.x_k, 0.5)
        np.testing.assert_array_equal(z[1].probs, [0.625, 0.375])

    def test_domain_validated(self):
        with pytest.raises(GameInputError, match="lambda"):
            build_z_lambda(self.x_star, self.w, {1}, self.x_k, 1.0001)
        with pytest.raises(GameInputError, match="out of range"):
            build_z_lambda(self.x_star, self.w, {7}, self.x_k, 0.5)


class TestIndifferencePoly:
    def test_matching_pennies_hand_expansion(self, mp):
        # opponent coordinate interpolates (1/2,1/2) -> (1/4,3/4), giving
        # g(lam) = -lam, i.e. coefficients (0, -1)
        x_star = profile_from([[0.5, 0.5], [0.5, 0.5]])
        w = profile_from([[0.5, 0.5], [0.25, 0.75]])
        x_k = pure(mp, (0, 0))
        coeffs = indifference_poly(mp, x_star, w, {1}, x_k, player=0, a=0, a_prime=1)
        np.testing.assert_allclose(coeffs, [0.0, -1.0], atol=1e-12)

    def test_identical_payoff_rows_give_zero_polynomial(self):
        from satpath import Game

        game = Game((2, 2), ([1.0, 2.0, 1.0, 2.0], [0.0, 0.0, 0.0, 0.0]))
        x_star = profile_from([[1.0, 0.0], [1.0, 0.0]])
        w = profile_from([[0.5, 0.5], [0.5, 0.5]])
        x_k = profile_from([[0.0, 1.0], [0.0, 1.0]])
        coeffs = indifference_poly(game, x_star, w, {0, 1}, x_k, player=0, a=0, a_prime=1)
        np.testing.assert_allclose(coeffs, [0.0, 0.0], atol=1e-12)

    def test_two_player_affine_with_anchored_constant(self, mp):
        x_star = profile_from([[1.0, 0.0], [0.7, 0.3]])
        w = profile_from([[0.5, 0.5], [0.25, 0.75]])
        x_k = pure(mp, (0, 0))
        coeffs = indifference_poly(mp, x_star, w, {1}, x_k, player=0, a=0, a_prime=1)
        assert coeffs.size == 2
        z0 = build_z_lambda(x_star, w, {1}, x_k, 0.0)
        w0 = pure_action_payoffs(mp, z0, 0)
        assert coeffs[0] == pytest.approx(float(w0[0] - w0[1]), abs=1e-12)

    def test_matches_direct_evaluation_on_random_configs(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            game = random_game(rng)
            n = game.num_players
            x_star = random_profile(game, rng)
            x_k = random_profile(game, rng)
            unsat = {i for i in range(n) if rng.uniform() < 0.6}
            w = random_profile(game, rng)
            player = int(rng.integers(n))
            count = game.action_counts[player]
            a, a_prime = rng.choice(count, size=2, replace=False)
            coeffs = indifference_poly(
                game, x_star, w, unsat, x_k, player, int(a), int(a_prime)
            )
            assert coeffs.size <= n  # degree at most n - 1
            for lam in np.linspace(0.0, 1.0, 5):
                z = build_z_lambda(x_star, w, unsat, x_k, float(lam))
                payoffs = pure_action_payoffs(game, z, player)
                direct = float(payoffs[int(a)] - payoffs[int(a_prime)])
                poly_val = float(np.polynomial.polynomial.polyval(lam, coeffs))
                assert poly_val == pytest.approx(direct, abs=1e-9)

    def test_equal_actions_rejected(self, mp):
        x = uniform(mp)
        with pytest.raises(GameInputError, match="differ"):
            indifference_poly(mp, x, x, {1}, x, player=0, a=1, a_prime=1)


class TestZeroPolyCheck:
    def test_zero_polynomial(self):
        assert zero_poly_check([0.0, 0.0], [0.2, 0.9], 1e-12)

    def test_single_root_of_degree_one_is_inconclusive(self):
        assert not zero_poly_check([0.0, -1.0], [0.0], 1e-12)

    def test_all_zero_quadratic_vector(self):
        assert zero_poly_check([0.0, 0.0, 0.0], [0.0, 0.5, 1.0], 1e-12)

    def test_nonvanishing_root_fails(self):
        # g(lam) = lam*(lam-1) vanishes at 0 and 1 but not at 0.5
        coeffs = [0.0, -1.0, 1.0]
        assert not zero_poly_check(coeffs, [0.0, 0.5, 1.0], 1e-12)

    def test_enough_near_roots_flag_zero(self):
        coeffs = [1e-14, -1e-14, 1e-15]
        assert zero_poly_check(coeffs, [0.0, 0.5, 1.0, 0.25], 1e-10)


class TestVerifyPath:
    def test_constant_sequences_always_satisfy_constraint(self, mp, pd):
        for game in (mp, pd):
            for prof in (pure(game, (0, 0)), uniform(game)):
                result = verify_path(
                    game, [prof, prof, prof], EPS, require_terminal_nash=False
                )
                assert result.ok

    def test_all_unsat_first_step_allows_anything(self, pd):
        x1 = pure(pd, (0, 0))
        assert report(pd, x1).unsatisfied == frozenset({0, 1})
        for x2 in (uniform(pd), pure(pd, (1, 1)), pure(pd, (0, 1))):
            assert verify_path(pd, [x1, x2], EPS, require_terminal_nash=False).ok

    def test_satisfied_mover_is_flagged(self, mp):
        x1 = pure(mp, (0, 0))
        x2 = profile_from([[0.5, 0.5], [0.0, 1.0]])
        result = verify_path(mp, [x1, x2], EPS, require_terminal_nash=False)
        assert not result.ok
        assert result.step == 1 and result.player == 0
        assert "satisfied" in result.reason

    def test_satisfied_mover_is_flagged_with_every_memo_warm(self, mp):
        x1 = pure(mp, (0, 0))
        x2 = profile_from([[0.5, 0.5], [0.0, 1.0]])
        for x in (x1, x2):
            report(mp, x)  # every profile's gaps are already memoized
        result = verify_path(mp, [x1, x2], EPS, require_terminal_nash=False)
        assert not result.ok
        assert result.step == 1 and result.player == 0

    def test_terminal_nash_check(self, mp):
        x1 = pure(mp, (0, 0))
        ok = verify_path(mp, [x1], EPS, require_terminal_nash=False)
        assert ok.ok
        bad = verify_path(mp, [x1], EPS, require_terminal_nash=True)
        assert not bad.ok and "equilibrium" in bad.reason

    def test_length_bound_check(self, mp):
        u = uniform(mp)
        mixed = verify_path(
            mp, [u, u, u, u], EPS, require_terminal_nash=False, require_length_bound=True
        )
        assert not mixed.ok and "bound" in mixed.reason

    def test_empty_sequence_rejected(self, mp):
        with pytest.raises(GameInputError):
            verify_path(mp, [], EPS)


class TestConstructPath:
    def test_nash_start_gives_trivial_path(self, rps):
        path = construct_path(rps, uniform(rps), EPS)
        assert len(path) == 1
        assert path.steps[0].kind == "initial"
        assert path.terminal_gap <= EPS

    def test_matching_pennies_from_hh(self, mp):
        path = construct_path(mp, pure(mp, (0, 0)), EPS)
        assert len(path) <= 3
        assert path.terminal_gap <= EPS
        terminal = path.steps[-1].profile
        for i in (0, 1):
            np.testing.assert_allclose(terminal[i].probs, [0.5, 0.5], atol=1e-9)
        assert verify_path(mp, path, EPS, require_terminal_nash=True).ok

    def test_prisoners_dilemma_case1(self, pd):
        path = construct_path(pd, pure(pd, (0, 0)), EPS)
        assert [s.kind for s in path.steps] == ["initial", "case1_jump"]
        assert path.steps[-1].profile == pure(pd, (1, 1))

    def test_prisoners_dilemma_case2(self, pd):
        # (D, C): player 1 satisfied by dominance, Worse truly empty
        path = construct_path(pd, pure(pd, (1, 0)), EPS)
        assert [s.kind for s in path.steps] == ["initial", "case2_jump"]
        assert path.steps[-1].profile == pure(pd, (1, 1))
        assert path.escalations == 0
        # frozen player's strategy is carried bitwise
        assert path.steps[-1].profile[0] is path.steps[0].profile[0]

    def test_case2_profiles_are_equilibria(self, pd):
        path = construct_path(pd, pure(pd, (1, 0)), EPS)
        for step in path.steps:
            if step.kind == "case2_jump":
                assert verify_nash(pd, step.profile, EPS)

    def test_escalation_recovers_from_false_empty_verdict(self, mp):
        # budget 4 exhausts on the pure deviation plus the three blends, all
        # of which fail at (H, H); the case-2 jump (H, T) is not a full
        # equilibrium, so the budget must escalate and then find a flip
        config = WorseSearchConfig(budget=4, rng_seed=7)
        path = construct_path(mp, pure(mp, (0, 0)), EPS, worse_config=config)
        assert path.escalations >= 1
        assert path.terminal_gap <= EPS
        assert len(path) <= mp.num_players + 1

    def test_solver_tolerance_above_epsilon_rejected(self, rps):
        # the default solver tolerance (1e-9) is looser than epsilon = 0
        with pytest.raises(GameInputError, match="solver tolerance"):
            construct_path(rps, pure(rps, (0, 0)), 0.0)
        with pytest.raises(GameInputError, match="solver tolerance"):
            construct_path(rps, pure(rps, (0, 0)), EPS, solver_config=SolverConfig(1e-6))

    def test_incomplete_search_raises_with_partial_path(self, mp, monkeypatch):
        monkeypatch.setattr(
            satpath.paths, "find_worse_candidate", lambda *args, **kwargs: None
        )
        with pytest.raises(WorseSearchIncompleteError) as exc_info:
            construct_path(mp, pure(mp, (0, 0)), EPS)
        partial = exc_info.value.partial_path
        assert partial is not None and partial[0].profile == pure(mp, (0, 0))

    @pytest.mark.parametrize(
        "target, broken, match",
        [
            (
                "verify_path",
                lambda *args, **kwargs: PathVerification(ok=False, num_steps=1, reason="forced"),
                "failed verification: forced",
            ),
            # a "Worse" candidate equal to the current profile grows nothing
            ("find_worse_candidate", lambda game, x, *args, **kwargs: x, "did not grow"),
        ],
        ids=["verification-fails", "worse-step-does-not-grow"],
    )
    def test_broken_invariant_is_typed(self, mp, monkeypatch, target, broken, match):
        monkeypatch.setattr(satpath.paths, target, broken)
        with pytest.raises(PathInvariantError, match=match):
            construct_path(mp, pure(mp, (0, 0)), EPS)

    def test_chain_growth_and_length_bound_on_crafted_starts(self):
        rng = np.random.default_rng(34)
        seen_worse = 0
        for _ in range(40):
            game = random_game(rng)
            start = pure(game, tuple(int(rng.integers(c)) for c in game.action_counts))
            path = construct_path(game, start, EPS)
            assert len(path) <= game.num_players + 1
            assert path.terminal_gap <= EPS
            unsat_sizes = [
                len(s.report.unsatisfied)
                for s in path.steps
                if s.kind in ("initial", "worse_step")
            ]
            assert all(a < b for a, b in zip(unsat_sizes, unsat_sizes[1:]))
            worse_steps = sum(1 for s in path.steps if s.kind == "worse_step")
            seen_worse += worse_steps
            assert worse_steps <= game.num_players - 1
            assert verify_path(game, path, EPS, require_terminal_nash=True).ok
        assert seen_worse > 0  # the corpus really exercises phase 1

    def test_random_mixed_starts_converge(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            game = random_game(rng)
            path = construct_path(game, random_profile(game, rng), EPS)
            assert path.terminal_gap <= EPS
            assert verify_path(game, path, EPS, require_terminal_nash=True).ok

    def test_deterministic(self):
        # separately built games, so no equilibrium memoized on one is reused
        a = construct_path(matching_pennies(), pure(matching_pennies(), (0, 0)), EPS)
        b = construct_path(matching_pennies(), pure(matching_pennies(), (0, 0)), EPS)
        assert [s.kind for s in a.steps] == [s.kind for s in b.steps]
        assert all(pa == pb for pa, pb in zip(a.profiles, b.profiles))

    def test_case2_events_are_consistent_with_mixing_machinery(self):
        # At every subgame jump in a crafted-start corpus, the uniform blend
        # at the pre-jump profile must be fully mixed on unsatisfied
        # coordinates, and the payoff-difference polynomial between the jump
        # target and that blend must agree with direct evaluation.  When the
        # jump gives an unsatisfied player a mixed strategy, the polynomial
        # is built on a support pair, which the equilibrium certifies as
        # indifferent at the target.
        rng = np.random.default_rng(36)
        case2_events = 0
        for _ in range(60):
            game = random_game(rng)
            start = pure(game, tuple(int(rng.integers(c)) for c in game.action_counts))
            path = construct_path(game, start, EPS)
            for prev, step in zip(path.steps, path.steps[1:]):
                if step.kind != "case2_jump":
                    continue
                case2_events += 1
                x_k, rep_k = prev.profile, prev.report
                x_star = step.profile
                xi = 0.5
                w = build_w_xi(game, x_k, rep_k, xi)
                unsat = rep_k.unsatisfied
                for i in unsat:
                    assert np.all(w[i].probs >= xi / game.action_counts[i])
                    support = x_star[i].support
                    if len(support) >= 2:
                        a, a_prime = support[0], support[1]
                    else:
                        a, a_prime = 0, 1
                    coeffs = indifference_poly(
                        game, x_star, w, unsat, x_k, i, a, a_prime
                    )
                    assert coeffs.size <= game.num_players
                    for lam in np.linspace(0.0, 1.0, 5):
                        z = build_z_lambda(x_star, w, unsat, x_k, float(lam))
                        payoffs = pure_action_payoffs(game, z, i)
                        direct = float(payoffs[a] - payoffs[a_prime])
                        value = float(np.polynomial.polynomial.polyval(lam, coeffs))
                        assert value == pytest.approx(direct, abs=1e-9)
        assert case2_events > 0  # the corpus really triggers subgame jumps
