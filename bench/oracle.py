"""Brute-force deviation gaps, independent of satpath's contraction code.

Every joint action profile is enumerated in plain Python, in the row-major
order of the flat payoff arrays.
"""

from __future__ import annotations

import itertools

# An emitted equilibrium passes the gate when every player's gap is at most this.
TERMINAL_GAP_TOL = 1e-6


def max_gap(action_counts, payoffs, probs) -> float:
    """Largest deviation gap over players: best pure-action payoff minus
    expected payoff, with ``probs[j][a]`` the probability player j plays a."""
    n = len(action_counts)
    pure = [[0.0] * c for c in action_counts]
    expected = [0.0] * n
    tables = [[float(v) for v in table] for table in payoffs]
    rows = [[float(v) for v in p] for p in probs]
    for k, joint in enumerate(itertools.product(*(range(c) for c in action_counts))):
        weights = [rows[j][a] for j, a in enumerate(joint)]
        for i in range(n):
            others = 1.0
            for j in range(n):
                if j != i:
                    others *= weights[j]
            r = tables[i][k]
            pure[i][joint[i]] += r * others
            expected[i] += r * others * weights[i]
    return max(max(0.0, max(pure[i]) - expected[i]) for i in range(n))


def profile_gap(game, profile) -> float:
    """``max_gap`` for a satpath Game and StrategyProfile."""
    return max_gap(game.action_counts, game.payoffs, [s.probs for s in profile.strategies])
