"""Shared fixtures and independent oracles.

The oracles deliberately avoid the library's tensor-contraction code:
expected rewards are brute-force sums over action profiles in pure
Python, the exact oracle repeats those sums over ``Fraction`` values, and
the 2x2 equilibrium oracle is the closed-form pure scan plus the standard
mixing formula.  Tests compare library output against these.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod

import numpy as np
import pytest

from satpath import Game, MixedStrategy, StrategyProfile, satisfaction_report
from satpath.paths import _flips_satisfied, _keeps_unsatisfied, _worse_candidates


# --- named games ------------------------------------------------------------

def matching_pennies() -> Game:
    # actions (H, T) = (0, 1); player 1 wants to match, player 2 to mismatch
    return Game(
        action_counts=(2, 2),
        payoffs=([1, -1, -1, 1], [-1, 1, 1, -1]),
        name="matching-pennies",
    )


def prisoners_dilemma() -> Game:
    # actions (C, D) = (0, 1); T=5 R=3 P=1 S=0
    return Game(
        action_counts=(2, 2),
        payoffs=([3, 0, 5, 1], [3, 5, 0, 1]),
        name="prisoners-dilemma",
    )


def rock_paper_scissors() -> Game:
    # actions (R, P, S) = (0, 1, 2); win +1, lose -1, tie 0
    r1 = [0, -1, 1, 1, 0, -1, -1, 1, 0]
    return Game(
        action_counts=(3, 3),
        payoffs=(r1, [-v for v in r1]),
        name="rock-paper-scissors",
    )


@pytest.fixture
def mp() -> Game:
    return matching_pennies()


@pytest.fixture
def pd() -> Game:
    return prisoners_dilemma()


@pytest.fixture
def rps() -> Game:
    return rock_paper_scissors()


def pure(game: Game, actions) -> StrategyProfile:
    return StrategyProfile.pure(game, actions)


def uniform(game: Game) -> StrategyProfile:
    return StrategyProfile.uniform(game)


def profile_from(vectors) -> StrategyProfile:
    return StrategyProfile(tuple(MixedStrategy(np.asarray(v, dtype=float)) for v in vectors))


def random_game(rng: np.random.Generator, n: int | None = None, max_actions: int = 3) -> Game:
    if n is None:
        n = int(rng.integers(2, 5))
    counts = tuple(int(rng.integers(2, max_actions + 1)) for _ in range(n))
    payoffs = tuple(rng.uniform(-1.0, 1.0, int(np.prod(counts))) for _ in range(n))
    return Game(action_counts=counts, payoffs=payoffs)


def uncertified_search(game: Game, x: StrategyProfile, report):
    """The first member of Worse(x) in the Worse search's whole candidate
    list, tried by the search's two membership predicates without the
    emptiness certificate or a budget, as a profile of the candidate's
    strategies; None when the list holds none.  The list's None entry, x
    itself, is skipped as the search skips it."""
    for strategies in _worse_candidates(game, x, report):
        if strategies is None:
            continue
        probs = [s.probs for s in strategies]
        gaps = [None] * game.num_players
        if (
            _keeps_unsatisfied(game, probs, report, gaps)
            and _flips_satisfied(game, probs, report, gaps)
        ):
            return StrategyProfile(tuple(strategies))
    return None


def fresh_gaps(game: Game, profile: StrategyProfile) -> np.ndarray:
    """Every player's gap at an equal profile with fresh strategy objects,
    whose memo is empty, so the kernel runs once per player."""
    twin = StrategyProfile(tuple(MixedStrategy(s.probs) for s in profile.strategies))
    assert twin._gaps == {}
    return satisfaction_report(game, twin).gaps


# --- brute-force oracles ----------------------------------------------------

def brute_expected_reward(game: Game, profile: StrategyProfile, player: int) -> float:
    """Plain-Python enumeration of sum_a r(a) * prod_j x_j(a_j)."""
    total = 0.0
    table = game.payoffs[player]
    for k, joint in enumerate(itertools.product(*(range(c) for c in game.action_counts))):
        p = 1.0
        for j, a in enumerate(joint):
            p *= float(profile[j].probs[a])
        total += float(table[k]) * p
    return total


def brute_pure_payoffs(game: Game, profile: StrategyProfile, player: int) -> list[float]:
    out = []
    for a in range(game.action_counts[player]):
        replaced = profile.replace(player, MixedStrategy.pure(game.action_counts[player], a))
        out.append(brute_expected_reward(game, replaced, player))
    return out


def brute_gap(game: Game, profile: StrategyProfile, player: int) -> float:
    gap = max(brute_pure_payoffs(game, profile, player)) - brute_expected_reward(
        game, profile, player
    )
    return max(gap, 0.0)


def brute_max_gap(game: Game, profile: StrategyProfile) -> float:
    return max(brute_gap(game, profile, i) for i in range(game.num_players))


def exact_gaps(game: Game, profile: StrategyProfile) -> list[Fraction]:
    """Every player's deviation gap at ``profile`` in rational arithmetic:
    each payoff and probability, a float, converts to a ``Fraction`` exactly,
    so nothing is rounded and no gap is clamped."""
    probs = [[Fraction(p) for p in s.probs.tolist()] for s in profile.strategies]
    counts = game.action_counts
    gaps = []
    for i in range(game.num_players):
        pure_payoffs = [Fraction(0)] * counts[i]
        for value, joint in zip(
            game.payoffs[i].tolist(), itertools.product(*(range(c) for c in counts))
        ):
            weight = prod(probs[j][a] for j, a in enumerate(joint) if j != i)
            pure_payoffs[joint[i]] += Fraction(value) * weight
        current = sum(p * w for p, w in zip(probs[i], pure_payoffs))
        gaps.append(max(pure_payoffs) - current)
    return gaps


def two_by_two_oracle(game: Game):
    """Closed-form 2x2 equilibria: ("pure", [(a1, a2), ...]) when pure
    equilibria exist, else ("mixed", (p, q)) from the indifference formulas
    (p = P(player 1 plays action 0), q likewise for player 2)."""
    assert game.action_counts == (2, 2)
    a = np.asarray(game.payoffs[0], dtype=float).reshape(2, 2)
    b = np.asarray(game.payoffs[1], dtype=float).reshape(2, 2)
    pures = []
    for i, j in itertools.product((0, 1), repeat=2):
        if a[i, j] >= a[1 - i, j] and b[i, j] >= b[i, 1 - j]:
            pures.append((i, j))
    if pures:
        return "pure", pures
    # player 2 mixes q on action 0 to make player 1 indifferent, and vice versa
    q = (a[1, 1] - a[0, 1]) / (a[0, 0] - a[0, 1] - a[1, 0] + a[1, 1])
    p = (b[1, 1] - b[1, 0]) / (b[0, 0] - b[1, 0] - b[0, 1] + b[1, 1])
    return "mixed", (p, q)
