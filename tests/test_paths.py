"""Set algebra, path construction and verification, and the uniform blend."""

from __future__ import annotations

import dataclasses
import io
import itertools
import json
import math
import operator
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from satpath import (
    Game,
    GameInputError,
    MixedStrategy,
    PathInvariantError,
    PathVerification,
    SatisficingPath,
    SolverConfig,
    SolverIncompleteError,
    StrategyProfile,
    WorseSearchConfig,
    WorseSearchIncompleteError,
    build_w_xi,
    construct_path,
    emit_path,
    find_worse_candidate,
    in_nob,
    in_worse,
    is_accessible,
    random_profile,
    satisfaction_report,
    verify_nash,
    verify_path,
)
import satpath.paths

from conftest import (
    brute_gap,
    exact_gaps,
    fresh_gaps,
    matching_pennies,
    profile_from,
    pure,
    random_game,
    uncertified_search,
    uniform,
)

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
        y = find_worse_candidate(mp, x, EPS)
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
        # the vertex H and its three blends fail here; the vertex T makes
        # player 1 best respond, and its 0.5 blend, the sixth candidate, hits
        assert find_worse_candidate(mp, x, EPS, WorseSearchConfig(budget=4)) is None
        assert find_worse_candidate(mp, x, EPS, WorseSearchConfig(budget=5)) is None
        y = find_worse_candidate(mp, x, EPS, WorseSearchConfig(budget=6))
        assert y == profile_from([[1.0, 0.0], [0.25, 0.75]]) and y[0] is x[0]

    def test_hit_is_made_of_its_candidate_strategies(self, mp):
        # the hit is the sixth list entry, the 0.5 blend of the vertex T: the
        # profile holds x's strategy and that shared blend, not copies
        x = pure(mp, (0, 0))
        sixth = list(satpath.paths._worse_candidates(mp, x, report(mp, x)))[5]
        y = find_worse_candidate(mp, x, EPS)
        assert y.strategies == tuple(sixth) and all(map(operator.is_, y.strategies, sixth))
        assert y[1] is satpath.paths._vertex_and_blends(2, 1)[1]


class TestWorseSearchConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"budget": 2.5},
            {"budget": True},
            {"budget": 0},
            {"budget": sys.maxsize + 1},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(GameInputError):
            WorseSearchConfig(**kwargs)

    def test_numpy_integers_become_ints(self, mp):
        config = WorseSearchConfig(budget=np.int64(7))
        assert config == WorseSearchConfig(budget=7) and type(config.budget) is int
        x = pure(mp, (0, 0))
        assert find_worse_candidate(mp, x, EPS, config) == find_worse_candidate(
            mp, x, EPS, WorseSearchConfig(budget=7)
        )

    def test_budget_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(WorseSearchConfig)] == ["budget"]
        with pytest.raises(TypeError):
            WorseSearchConfig(rng_seed=0)


def stage_game(tilt):
    """A 2x3 game where, at (a0, b0), player 0 is satisfied and player 1 is
    not.  ``tilt`` None: the vertex b1 flips player 0, and so does its 0.5
    blend.  Otherwise the vertex b1 makes player 1 best respond, and a
    blend of it flips player 0 once it puts more than 1 / (2 - tilt) on b1:
    with tilt 0, 0.8 and 0.95 the first such blend is xi = 0.5, 0.1 and 0.01.
    The vertex b0 and its blends flip no one."""
    if tilt is None:
        return Game((2, 3), ([1, 0, 0, 0, 2, 0], [0, 1, 2, 0, 0, 0]))
    return Game((2, 3), ([1, tilt, 1, 0, 1, 0], [0, 2, 1, 0, 0, 0]))


class TestWorseSearchStageOrder:
    """The search walks the joint pure profiles of the unsatisfied players in
    C order and tries each one, then its build_w_xi blends for xi = 0.5,
    0.1, 0.01, returning the first Worse member."""

    def test_candidate_list(self):
        # player 0 is indifferent everywhere; players 1 and 2 are unsatisfied
        # at (0, 0, 0), each preferring one other action
        counts = (2, 2, 3)
        joint = np.indices(counts).reshape(3, -1)
        game = Game(counts, (np.zeros(12), 1.0 * (joint[1] == 1), 1.0 * (joint[2] == 2)))
        x = pure(game, (0, 0, 0))
        rep = report(game, x)
        assert rep.unsatisfied == {1, 2}
        expected = []
        for a1, a2 in itertools.product(range(2), range(3)):
            v = pure(game, (0, a1, a2))
            expected += [v] + [build_w_xi(game, v, rep, xi) for xi in (0.5, 0.1, 0.01)]
        # then each joint blended toward x, except x's own joint, whose blends are x
        for a1, a2 in itertools.product(range(2), range(3)):
            v = pure(game, (0, a1, a2))
            for xi in (0.5, 0.1, 0.01) if (a1, a2) != (0, 0) else ():
                expected.append(StrategyProfile(tuple(
                    MixedStrategy((1 - xi) * v[i].probs + xi * x[i].probs) if i else x[0]
                    for i in range(3)
                )))
        listed = list(satpath.paths._worse_candidates(game, x, rep))
        assert len(listed) == len(expected) == 7 * 2 * 3 - 3
        # x itself is the first vertex; None holds its place in the list
        assert listed[0] is None and expected[0] == x
        for strategies, profile in zip(listed[1:], expected[1:]):
            assert strategies[0] is x[0]
            assert all(
                s.probs.tobytes() == t.probs.tobytes() for s, t in zip(strategies, profile)
            )
        # unsatisfied players get the shared vertex and blend objects: entry
        # 5 is the 0.5 blend of joint (0, 1)
        shared = satpath.paths._vertex_and_blends
        assert listed[5][1] is shared(2, 0)[1] and listed[5][2] is shared(3, 1)[1]

    def test_x_itself_is_never_a_candidate(self):
        # from a pure start x is one of the listed vertices: None holds its
        # place, its blends stay, and no candidate equals x
        rng = np.random.default_rng(77)
        starts = 0
        while starts < 40:
            game = random_game(rng)
            x = pure(game, [int(rng.integers(c)) for c in game.action_counts])
            rep = report(game, x)
            if not rep.unsatisfied:
                continue
            starts += 1
            listed = list(satpath.paths._worse_candidates(game, x, rep))
            unsat = sorted(rep.unsatisfied)
            own = np.ravel_multi_index(
                [int(np.argmax(x[i].probs)) for i in unsat], [game.action_counts[i] for i in unsat]
            )
            assert [k for k, strategies in enumerate(listed) if strategies is None] == [4 * own]
            mine = [s.probs.tolist() for s in x.strategies]
            assert all(
                [s.probs.tolist() for s in strategies] != mine for strategies in listed if strategies
            )
            # from a mixed start no vertex is x, so nothing is left out
            y = uniform(game)
            if report(game, y).unsatisfied:
                assert None not in satpath.paths._worse_candidates(game, y, report(game, y))

    def test_first_hit_is_a_pure_deviation(self):
        # the vertex b1 comes before its blends
        game = stage_game(None)
        x = pure(game, (0, 0))
        vertex = pure(game, (0, 1))
        assert in_worse(game, x, build_w_xi(game, vertex, report(game, x), 0.5), EPS)
        y = find_worse_candidate(game, x, EPS)
        assert y == vertex and y[0] is x[0]

    def test_blend_when_every_pure_deviation_fails(self):
        # the blends of b1 come in grid order, before the vertex b2
        for tilt, xi in [(0.0, 0.5), (0.8, 0.1), (0.95, 0.01)]:
            game = stage_game(tilt)
            x = pure(game, (0, 0))
            rep = report(game, x)
            vertex = pure(game, (0, 1))
            for action in (1, 2):
                assert not in_worse(game, x, pure(game, (0, action)), EPS)
            for earlier in (0.5, 0.1, 0.01)[: (0.5, 0.1, 0.01).index(xi)]:
                assert not in_worse(game, x, build_w_xi(game, vertex, rep, earlier), EPS)
            y = find_worse_candidate(game, x, EPS)
            assert y == build_w_xi(game, vertex, rep, xi)


@st.composite
def certificate_cases(draw):
    """A game with 2-4 players and 2-3 actions each, payoffs U[-1, 1] or small
    integers (so ties and weakly dominant actions are common), and a pure or
    proper-face start (each player mixing over 1..c-1 of its c actions)."""
    counts = tuple(draw(st.lists(st.integers(2, 3), min_size=2, max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (len(counts), math.prod(counts))
    if draw(st.booleans()):
        payoffs = rng.integers(-2, 3, shape).astype(float)
    else:
        payoffs = rng.uniform(-1.0, 1.0, shape)
    game = Game(counts, tuple(payoffs))
    if draw(st.booleans()):
        return game, pure(game, tuple(int(rng.integers(c)) for c in counts))
    vectors = []
    for c in counts:
        support = rng.choice(c, size=int(rng.integers(1, c)), replace=False)
        probs = np.zeros(c)
        probs[support] = rng.dirichlet(np.ones(support.size))
        vectors.append(probs)
    return game, profile_from(vectors)


def toward(x, targets, lam):
    """x with each player j in ``targets`` moved a share ``lam`` of the way to
    its pure action ``targets[j]``; lam = 1 reaches it exactly."""
    moved = []
    for j, s in enumerate(x.strategies):
        if j in targets:
            vertex = MixedStrategy.pure(s.num_actions, targets[j]).probs
            s = MixedStrategy((1.0 - lam) * s.probs + lam * vertex)
        moved.append(s)
    return StrategyProfile(tuple(moved))


class TestWorseCertificate:
    """``_certified_empty`` bounds each satisfied player's gap over Access(x)
    by its largest value at a pure profile of the unsatisfied players."""

    @settings(max_examples=300, deadline=None)
    @given(certificate_cases())
    def test_certified_access_holds_no_worse_member(self, case):
        game, x = case
        rep = report(game, x)
        if not rep.satisfied or not rep.unsatisfied:
            return
        free = sorted(rep.unsatisfied)
        vertices = [
            dict(zip(free, joint))
            for joint in itertools.product(*(range(game.action_counts[j]) for j in free))
        ]
        # the supremum the certificate computes, by the brute-force oracle
        largest = max(
            brute_gap(game, toward(x, v, 1.0), i) for v in vertices for i in rep.satisfied
        )
        certified = satpath.paths._certified_empty(game, x, rep)
        assert certified == (largest <= EPS / 2)
        if not certified:
            return
        for v in vertices:
            for lam in (0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
                assert not in_worse(game, x, toward(x, v, lam), EPS)
        assert uncertified_search(game, x, rep) is None

    # player 0's action 0 weakly dominates against both of player 1's
    # actions, so Worse((0, 0)) is empty
    DOMINANT = ([1, 1, 0, 1], [0, 1, 0, 0])

    @staticmethod
    def count_reads(monkeypatch):
        read = []
        real = satpath.paths._worse_candidates

        def counted(*args):
            for strategies in real(*args):
                read.append(strategies)
                yield strategies

        monkeypatch.setattr(satpath.paths, "_worse_candidates", counted)
        return read

    def test_certified_search_reads_no_candidate(self, monkeypatch):
        game = Game((2, 2), self.DOMINANT)
        x = pure(game, (0, 0))
        rep = report(game, x)
        assert satpath.paths._certified_empty(game, x, rep)
        # the list it skips, 4 candidates per action of player 1 and 3 blends
        # toward x for the action x does not play, holds none
        assert len(list(satpath.paths._worse_candidates(game, x, rep))) == 11
        assert uncertified_search(game, x, rep) is None
        read = self.count_reads(monkeypatch)
        assert find_worse_candidate(game, x, EPS) is None and read == []

    def test_zero_epsilon_is_searched(self, monkeypatch):
        # at epsilon 0 no margin is left for rounding, so nothing is
        # certified and the search decides
        game = Game((2, 2), self.DOMINANT)
        x = pure(game, (0, 0))
        rep = satisfaction_report(game, x, 0.0)
        assert rep.satisfied == {0} and not satpath.paths._certified_empty(game, x, rep)
        read = self.count_reads(monkeypatch)
        search = WorseSearchConfig(budget=7)
        assert find_worse_candidate(game, x, 0.0, search) is None and len(read) == 7

    def test_large_payoffs_are_searched(self):
        # payoffs of 1e8 round by more than half of the default epsilon
        for scale, certified in [(1.0, True), (1e4, True), (1e8, False)]:
            game = Game((2, 2), tuple(scale * np.array(p, float) for p in self.DOMINANT))
            x = pure(game, (0, 0))
            assert satpath.paths._certified_empty(game, x, report(game, x)) == certified


@st.composite
def exact_oracle_cases(draw):
    """A game of 1-3 players with 1-3 actions each, payoffs U[-1, 1], and a
    pure, face (each player mixing over a random nonempty subset of its
    actions) or Dirichlet start."""
    counts = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    game = Game(counts, tuple(rng.uniform(-1.0, 1.0, (len(counts), math.prod(counts)))))
    start = draw(st.sampled_from(["pure", "face", "dirichlet"]))
    if start == "pure":
        return game, pure(game, tuple(int(rng.integers(c)) for c in counts))
    if start == "dirichlet":
        return game, random_profile(game, rng)
    vectors = []
    for c in counts:
        support = rng.choice(c, size=int(rng.integers(1, c + 1)), replace=False)
        probs = np.zeros(c)
        probs[support] = rng.dirichlet(np.ones(support.size))
        vectors.append(probs)
    return game, profile_from(vectors)


class TestExactOracle:
    """Paths judged in exact rational arithmetic (``exact_gaps``)."""

    @settings(max_examples=100, deadline=None)
    @given(exact_oracle_cases())
    def test_path_against_exact_gaps(self, case):
        game, x = case
        try:
            path = construct_path(game, x, EPS)
        except SolverIncompleteError:
            # the solver's known incompleteness, which leaves no path to
            # judge: test_solver.py::TestKnownDefects holds a game drawn here
            event("solver incomplete")
            return
        exact = [exact_gaps(game, step.profile) for step in path.steps]
        for step, gaps in zip(path.steps, exact):
            for e, f in zip(gaps, step.report.gaps.tolist()):
                assert abs(e - Fraction(f)) <= Fraction(1e-14)
        # a player satisfied at a step, by the exact gap or the float one,
        # keeps its strategy bit for bit at the next
        for t, (step, following) in enumerate(zip(path.steps, path.steps[1:])):
            exactly = {i for i, e in enumerate(exact[t]) if e <= Fraction(EPS)}
            for i in exactly | step.report.satisfied:
                assert following.profile[i].probs.tobytes() == step.profile[i].probs.tobytes()
        assert (max(exact[-1]) <= Fraction(EPS)) == (path.terminal_gap <= EPS)


def floor_case(counts, seed, scale):
    """A game of ``counts`` with payoffs ``scale`` * U[-1, 1] and a
    Dirichlet start, both drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    payoffs = scale * rng.uniform(-1.0, 1.0, (len(counts), math.prod(counts)))
    game = Game(counts, tuple(payoffs))
    return game, random_profile(game, rng)


@st.composite
def floor_cases(draw):
    """``floor_case`` of 1-6 players with 1-6 actions each and at most 1,728
    joint actions, at a payoff scale from 1e-3 to 1e3."""
    counts = draw(
        st.lists(st.integers(1, 6), min_size=1, max_size=6).filter(
            lambda c: math.prod(c) <= 1728
        )
    )
    seed, scale = draw(st.integers(0, 2**32 - 1)), 10.0 ** draw(st.integers(-3, 3))
    return floor_case(tuple(counts), seed, scale)


class TestRoundingFloor:
    """The gap kernel errs by at most half of ``_rounding_floor``, the share
    its derivation allots the kernel, against exact rational gaps."""

    @settings(max_examples=60, deadline=None)
    @given(floor_cases())
    # 6-action and 4-6 player shapes, where the opponents' joint actions,
    # the length of the kernel's dot products, are most numerous
    @example(floor_case((6, 6, 6, 6), 1, 1.0))
    @example(floor_case((3, 3, 3, 3, 3, 3), 2, 1e3))
    @example(floor_case((6, 6, 6, 2, 2), 3, 1.0))
    @example(floor_case((6, 6, 2, 2, 2, 2), 4, 1e-3))
    def test_kernel_gap_within_half_the_floor(self, case):
        game, x = case
        exact = exact_gaps(game, x)
        for i, gap in enumerate(fresh_gaps(game, x).tolist()):
            half_floor = Fraction(satpath.paths._rounding_floor(game, i)) / 2
            assert abs(Fraction(gap) - exact[i]) <= half_floor


class TestSeededWorseGaps:
    """A Worse hit keeps the gaps its predicates computed, computes the rest,
    and leaves them in the candidate's gap memo, bitwise equal to a fresh
    per-player computation."""

    def check_seeded(self, game, y):
        owner, seeded, _ = y._gaps[id(game)]
        assert owner is game and not seeded.flags.writeable
        assert seeded.tobytes() == fresh_gaps(game, y).tobytes()
        assert satisfaction_report(game, y, EPS).gaps is seeded

    def test_each_candidate_stage(self, mp):
        # a vertex hit and a hit at each blend, from the games of
        # TestWorseSearchStageOrder
        for tilt in (None, 0.0, 0.8, 0.95):
            game = stage_game(tilt)
            self.check_seeded(game, find_worse_candidate(game, pure(game, (0, 0)), EPS))
        self.check_seeded(mp, find_worse_candidate(mp, pure(mp, (0, 0)), EPS))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_games(self, n):
        # with three or more players the predicates can stop before some
        # player's gap, which the hit then computes
        hits = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            game = random_game(rng, n=n)
            x = pure(game, tuple(int(rng.integers(c)) for c in game.action_counts))
            y = find_worse_candidate(game, x, EPS)
            if y is not None:
                self.check_seeded(game, y)
                hits += 1
        assert hits >= 5

    def test_worse_step_report_reads_the_memo(self, mp):
        path = construct_path(mp, pure(mp, (0, 0)))
        step = path.steps[1]
        assert step.kind == "worse_step"
        assert step.report.gaps is step.profile._gaps[id(mp)][1]
        assert step.report.gaps.tobytes() == fresh_gaps(mp, step.profile).tobytes()


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

    def test_missed_worse_member_raises_at_the_failed_jump(self, mp):
        # budget 4 reads the vertex H and its three blends, none a member at
        # (H, H), and the search is not certified; the case-2 jump (H, T)
        # breaks player 0, so the construction gives up with the path so far
        x = pure(mp, (0, 0))
        with pytest.raises(WorseSearchIncompleteError, match="subgame jump") as exc_info:
            construct_path(mp, x, EPS, worse_config=WorseSearchConfig(budget=4))
        partial = exc_info.value.partial_path
        assert [step.kind for step in partial] == ["initial"] and partial[0].profile is x
        path = construct_path(mp, x, EPS, worse_config=WorseSearchConfig(budget=6))
        assert [step.kind for step in path.steps] == ["initial", "worse_step", "case1_jump"]
        assert path.steps[1].profile == profile_from([[1.0, 0.0], [0.25, 0.75]])
        assert path.escalations == 0

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
        # coordinates.
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
                xi = 0.5
                w = build_w_xi(game, prev.profile, prev.report, xi)
                for i in prev.report.unsatisfied:
                    assert np.all(w[i].probs >= xi / game.action_counts[i])
        assert case2_events > 0  # the corpus really triggers subgame jumps


def binary_game(counts: tuple[int, ...], seed: int) -> Game:
    """A game whose payoffs are drawn from {0, 1}, so pure profiles tie often."""
    rng = np.random.default_rng(seed)
    return Game(counts, tuple(rng.choice([0.0, 1.0], math.prod(counts)) for _ in counts))


class TestDegenerateGames:
    """On {0, 1} payoffs the Worse list's vertices and uniform blends can
    leave an unsatisfied player exactly tied at every entry while Worse(x)
    is not empty; the blends toward x at the end of the list (ROADMAP item
    11) find a member there."""

    def test_seed_83_pure_start(self):
        # raised WorseSearchIncompleteError before the blends toward x
        game = binary_game((2, 3, 3), 83)
        path = construct_path(game, pure(game, (0, 1, 1)), EPS)
        assert [step.kind for step in path.steps] == ["initial", "worse_step", "case1_jump"]
        assert verify_path(game, path, EPS, require_terminal_nash=True).ok

    @pytest.mark.xfail(
        strict=True,
        raises=WorseSearchIncompleteError,
        reason="every listed candidate misses Worse(x), though 29% of uniform draws "
        "of the unsatisfied players' strategies are members (ROADMAP item 11)",
    )
    def test_seed_207_pure_start(self):
        game = binary_game((2, 2, 2, 2), 207)
        construct_path(game, pure(game, (0, 0, 0, 0)), EPS)

    # Fixed examples: about 0.3% of 2x2x2x2 {0, 1} games still hold a start
    # the list misses (test_seed_207_pure_start), and a randomized run must
    # not fail on one by chance.
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(st.integers(2, 3), min_size=2, max_size=4).filter(lambda c: math.prod(c) <= 18),
        st.integers(0, 2**32 - 1),
    )
    def test_every_pure_start_reaches_an_equilibrium(self, counts, seed):
        # games up to 2x3x3 and 2x2x2x2
        game = binary_game(tuple(counts), seed)
        for joint in itertools.product(*map(range, counts)):
            path = construct_path(game, pure(game, joint), EPS)
            assert verify_path(game, path, EPS, require_terminal_nash=True).ok


class TestDerivedPathFields:
    """A path takes only its steps and epsilon: terminal_gap is read from the
    last step's report and escalations is a class constant."""

    def test_terminal_gap_is_the_last_reports_max_gap(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            game = random_game(rng)
            path = construct_path(game, random_profile(game, rng), EPS)
            assert path.terminal_gap == path.steps[-1].report.max_gap
            assert type(path.terminal_gap) is float and path.escalations == 0

    @pytest.mark.parametrize("name, value", [("terminal_gap", 0.0), ("escalations", 7)])
    def test_derived_fields_are_not_arguments(self, mp, name, value):
        path = construct_path(mp, pure(mp, (0, 0)), EPS)
        with pytest.raises(TypeError):
            SatisficingPath(steps=path.steps, epsilon=EPS, **{name: value})

    def test_a_truncated_path_reports_its_own_terminal_gap(self, mp):
        # at the parent, SatisficingPath(path.steps[:1], 1e-9, terminal_gap=0.0,
        # escalations=7) was accepted at (H, H), a non-equilibrium
        path = construct_path(mp, pure(mp, (0, 0)), EPS)
        with pytest.raises(TypeError):
            SatisficingPath(steps=path.steps[:1], epsilon=EPS, terminal_gap=0.0, escalations=7)
        head = SatisficingPath(steps=path.steps[:1], epsilon=EPS)
        assert head.terminal_gap == 2.0 and head.escalations == 0
        buf = io.StringIO()
        emit_path(head, "json", buf)
        doc = json.loads(buf.getvalue())
        assert doc["terminal_gap"] == 2.0 and doc["escalations"] == 0
