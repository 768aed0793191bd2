"""Nash equilibrium computation by support enumeration.

A profile with prescribed supports is an equilibrium candidate exactly
when, for every player, all supported actions earn the same expected
payoff (indifference), no unsupported action earns more, and the support
probabilities form a distribution.  Supports are enumerated in a fixed
order (increasing total support size, then lexicographic), so pure
equilibria are found first and runs are reproducible.

For two players the indifference conditions decouple: each player's
supported payoffs constrain only the opponent's probabilities, giving one
linear system per player.  For three or more players the stacked system
is multilinear; it is solved by a damped Newton iteration with an
analytic Jacobian assembled from pairwise payoff contractions.

Enumeration is exponential in the game's size.  ``Game`` accepts up to 6
players with up to 6 actions each, but such a game has (2**6 - 1)**6, about
6e10, support profiles, so a large game with no small-support equilibrium may
not return in any practical time.  The benchmark measures games up to
3x3x3x3; its slowest such solve takes about 1 s on one core of an Intel
Xeon VM.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import GameInputError, SolverIncompleteError
from .games import (
    Game,
    MixedStrategy,
    StrategyProfile,
    _check_profile,
    _check_epsilon,
    _contract,
    deviation_gap,
)

_NEWTON_MAX_ITER = 200
_NEWTON_TARGET = 1e-13
_NEWTON_EXTRA_STARTS = 2
# A run still above this residual after this many damped iterations is
# crawling, not converging (convergence is quadratic once inside a basin),
# so it is abandoned as "no equilibrium on this support".
_NEWTON_CRAWL_ITER = 30
_NEWTON_CRAWL_NORM = 1e-6


@dataclass(frozen=True)
class SupportProfile:
    """One candidate support (nonempty action subset) per player."""

    supports: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        supports = tuple(tuple(sorted(int(a) for a in s)) for s in self.supports)
        for i, s in enumerate(supports):
            if not s:
                raise GameInputError(f"support for player {i} is empty")
            if len(set(s)) != len(s):
                raise GameInputError(f"support for player {i} has repeated actions: {s}")
        object.__setattr__(self, "supports", supports)

    def validate_for(self, game: Game) -> None:
        if len(self.supports) != game.num_players:
            raise GameInputError(
                f"support covers {len(self.supports)} players; game has {game.num_players}"
            )
        for i, (s, c) in enumerate(zip(self.supports, game.action_counts)):
            if s[0] < 0 or s[-1] >= c:
                raise GameInputError(
                    f"support for player {i} mentions action {s[0] if s[0] < 0 else s[-1]}; "
                    f"valid actions are 0..{c - 1}"
                )


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and enumeration controls for the support solver.

    ``tolerance`` bounds acceptable deviation gaps and probability
    clamping; ``residual_tolerance`` bounds the spread of supported
    payoffs accepted as indifferent.  ``max_support_size`` caps per-player
    support sizes (None = unlimited).
    """

    tolerance: float = 1e-9
    max_support_size: int | None = None
    residual_tolerance: float = 1e-8

    def __post_init__(self):
        if not self.tolerance > 0.0:
            raise GameInputError(f"tolerance must be positive, got {self.tolerance!r}")
        if not self.residual_tolerance > 0.0:
            raise GameInputError(
                f"residual_tolerance must be positive, got {self.residual_tolerance!r}"
            )
        if self.max_support_size is not None and self.max_support_size < 1:
            raise GameInputError("max_support_size must be at least 1")


def verify_nash(game: Game, profile: StrategyProfile, epsilon: float) -> bool:
    """True iff every player's deviation gap is at most ``epsilon``."""
    _check_profile(game, profile)
    epsilon = _check_epsilon(epsilon)
    return all(
        deviation_gap(game, profile, i) <= epsilon for i in range(game.num_players)
    )


def _conditionally_dominated(game: Game, support: SupportProfile, margin: float) -> bool:
    """Whether some supported action is strictly beaten by another action at
    every opponent profile drawn from the supports.  Such an action can never
    be payoff-maximal there, so the support admits no equilibrium."""
    for i in range(game.num_players):
        idx = [
            list(range(c)) if k == i else list(support.supports[k])
            for k, c in enumerate(game.action_counts)
        ]
        sub = game.payoff_tensor(i)[np.ix_(*idx)]
        flat = np.moveaxis(sub, i, 0).reshape(game.action_counts[i], -1)
        # worst-case advantage of a' over a across the opponents' support box
        edge = (flat[:, None, :] - flat[None, :, :]).min(axis=2)
        if np.any(edge[:, list(support.supports[i])] > margin):
            return True
    return False


def _assemble_candidate(
    game: Game, support: SupportProfile, raw_probs: list[np.ndarray], config: SolverConfig
) -> StrategyProfile | None:
    """Clamp, renormalize, and accept a solver iterate as an equilibrium with
    the given supports, or reject it."""
    strategies = []
    for i, c in enumerate(game.action_counts):
        full = np.zeros(c)
        p = np.asarray(raw_probs[i], dtype=float)
        if not np.all(np.isfinite(p)):
            return None
        if p.min() < -config.tolerance:
            return None
        p = np.clip(p, 0.0, None)
        total = p.sum()
        if total <= 0.0:
            return None
        full[list(support.supports[i])] = p / total
        strategies.append(MixedStrategy(full))
    profile = StrategyProfile(tuple(strategies))
    probs = [s.probs for s in profile.strategies]
    for i in range(game.num_players):
        w = _contract(game.payoff_tensor(i), probs, (i,))
        supported = w[list(support.supports[i])]
        value = float(supported.max())
        if value - float(supported.min()) > config.residual_tolerance:
            return None
        off = [a for a in range(game.action_counts[i]) if a not in support.supports[i]]
        if off and float(w[off].max()) > value + config.tolerance:
            return None
    return profile


def _solve_two_player(
    game: Game, support: SupportProfile, config: SolverConfig
) -> list[np.ndarray] | None:
    """Decoupled linear solves: player i's indifference over its support pins
    down the opponent's support probabilities (plus a value variable)."""
    solutions: list[np.ndarray | None] = [None, None]
    for i in (0, 1):
        j = 1 - i
        own, opp = support.supports[i], support.supports[j]
        mat = game.payoff_tensor(i) if i == 0 else game.payoff_tensor(i).T
        block = mat[np.ix_(list(own), list(opp))]
        # rows: w_i(a) - v = 0 for supported a; then sum of probs = 1
        a = np.zeros((len(own) + 1, len(opp) + 1))
        a[: len(own), : len(opp)] = block
        a[: len(own), -1] = -1.0
        a[-1, : len(opp)] = 1.0
        b = np.zeros(len(own) + 1)
        b[-1] = 1.0
        try:
            sol, *_ = np.linalg.lstsq(a, b, rcond=None)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(sol)):
            return None
        if float(np.abs(a @ sol - b).max()) > config.residual_tolerance:
            return None
        solutions[j] = sol[: len(opp)]
    return [solutions[0], solutions[1]]


def _expand_probs(
    game: Game, support: SupportProfile, u: np.ndarray, sizes: list[int], offsets: list[int]
) -> list[np.ndarray]:
    probs = []
    for i in range(game.num_players):
        full = np.zeros(game.action_counts[i])
        full[list(support.supports[i])] = u[offsets[i] : offsets[i] + sizes[i]]
        probs.append(full)
    return probs


def _newton_residual(
    game: Game, support: SupportProfile, u: np.ndarray, sizes: list[int], offsets: list[int]
):
    n = game.num_players
    m = u.size
    probs = _expand_probs(game, support, u, sizes, offsets)
    values = u[m - n :]
    res = np.zeros(m)
    row = 0
    for i in range(n):
        w = _contract(game.payoff_tensor(i), probs, (i,))
        res[row : row + sizes[i]] = w[list(support.supports[i])] - values[i]
        row += sizes[i]
    for i in range(n):
        res[row + i] = u[offsets[i] : offsets[i] + sizes[i]].sum() - 1.0
    return res, probs


def _newton_jacobian(
    game: Game,
    support: SupportProfile,
    probs: list[np.ndarray],
    sizes: list[int],
    offsets: list[int],
):
    n = game.num_players
    m = sum(sizes) + n
    jac = np.zeros((m, m))
    row = 0
    for i in range(n):
        jac[row : row + sizes[i], m - n + i] = -1.0
        for j in range(n):
            if j == i:
                continue
            pair = _contract(game.payoff_tensor(i), probs, (i, j))
            block = pair[np.ix_(list(support.supports[i]), list(support.supports[j]))]
            jac[row : row + sizes[i], offsets[j] : offsets[j] + sizes[j]] = block
        row += sizes[i]
    for i in range(n):
        jac[row + i, offsets[i] : offsets[i] + sizes[i]] = 1.0
    return jac


def _solve_newton(
    game: Game, support: SupportProfile, config: SolverConfig, start: np.ndarray
) -> list[np.ndarray] | None:
    n = game.num_players
    sizes = [len(s) for s in support.supports]
    offsets = list(itertools.accumulate([0] + sizes[:-1]))
    u = start.copy()
    res, probs = _newton_residual(game, support, u, sizes, offsets)
    norm = float(np.abs(res).max())
    for iteration in range(_NEWTON_MAX_ITER):
        if norm <= _NEWTON_TARGET:
            break
        if iteration >= _NEWTON_CRAWL_ITER and norm > _NEWTON_CRAWL_NORM:
            return None  # crawling without converging: no root in this basin
        jac = _newton_jacobian(game, support, probs, sizes, offsets)
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        alpha = 1.0
        while alpha >= 1e-4:
            trial = u + alpha * step
            t_res, t_probs = _newton_residual(game, support, trial, sizes, offsets)
            t_norm = float(np.abs(t_res).max())
            if t_norm < norm:
                u, res, probs, norm = trial, t_res, t_probs, t_norm
                break
            alpha *= 0.5
        else:
            break  # stalled: damping cannot reduce the residual
    if norm > config.residual_tolerance:
        return None
    return [u[offsets[i] : offsets[i] + sizes[i]] for i in range(n)]


def _newton_starts(support: SupportProfile, n_values: int) -> list[np.ndarray]:
    """Uniform-on-support start plus a few deterministic perturbed restarts."""
    sizes = [len(s) for s in support.supports]
    uniform = np.concatenate(
        [np.full(s, 1.0 / s) for s in sizes] + [np.zeros(n_values)]
    )
    starts = [uniform]
    rng = np.random.default_rng(0x5A7F)
    for _ in range(_NEWTON_EXTRA_STARTS):
        tilted = [rng.dirichlet(np.ones(s)) for s in sizes]
        starts.append(np.concatenate(tilted + [np.zeros(n_values)]))
    return starts


def solve_on_support(
    game: Game, support: SupportProfile, config: SolverConfig | None = None
) -> StrategyProfile | None:
    """Find an equilibrium whose supports are exactly contained in ``support``,
    or None when the indifference system has no acceptable solution there.

    Singular or non-convergent solves count as "no equilibrium on this
    support"; they never raise.
    """
    config = config or SolverConfig()
    support.validate_for(game)
    n = game.num_players
    if _conditionally_dominated(
        game, support, margin=config.residual_tolerance + config.tolerance
    ):
        return None
    if all(len(s) == 1 for s in support.supports):
        raw = [np.ones(1) for _ in range(n)]
        return _assemble_candidate(game, support, raw, config)
    if n == 1:
        raw = [np.full(len(support.supports[0]), 1.0 / len(support.supports[0]))]
        return _assemble_candidate(game, support, raw, config)
    if n == 2:
        raw = _solve_two_player(game, support, config)
        if raw is None:
            return None
        return _assemble_candidate(game, support, raw, config)
    for start in _newton_starts(support, n):
        raw = _solve_newton(game, support, config, start)
        if raw is None:
            continue
        profile = _assemble_candidate(game, support, raw, config)
        if profile is not None:
            return profile
    return None


def enumerate_supports(game: Game, config: SolverConfig | None = None):
    """Yield support profiles in increasing total size, then lexicographic order."""
    config = config or SolverConfig()
    counts = game.action_counts
    cap = config.max_support_size
    caps = [c if cap is None else min(c, cap) for c in counts]
    n = game.num_players
    for total in range(n, sum(caps) + 1):
        for sizes in itertools.product(*(range(1, c + 1) for c in caps)):
            if sum(sizes) != total:
                continue
            pools = [
                itertools.combinations(range(count), size)
                for count, size in zip(counts, sizes)
            ]
            for subsets in itertools.product(*pools):
                yield SupportProfile(subsets)


def find_nash(game: Game, config: SolverConfig | None = None) -> StrategyProfile:
    """First verified equilibrium in the deterministic support order.

    Raises SolverIncompleteError if every support is exhausted without a
    verified profile, carrying the best (minimum max-gap) candidate seen.
    """
    config = config or SolverConfig()
    best: StrategyProfile | None = None
    best_gap = float("inf")
    for support in enumerate_supports(game, config):
        profile = solve_on_support(game, support, config)
        if profile is None:
            continue
        gap = max(deviation_gap(game, profile, i) for i in range(game.num_players))
        if gap <= config.tolerance:
            return profile
        if gap < best_gap:
            best, best_gap = profile, gap
    raise SolverIncompleteError(
        f"no support produced a verified equilibrium at tolerance {config.tolerance:g} "
        f"(best max-gap seen: {best_gap:g})",
        best_candidate=best,
        best_gap=best_gap,
    )


def find_subgame_nash(
    game: Game, frozen: dict[int, MixedStrategy], config: SolverConfig | None = None
) -> StrategyProfile:
    """Equilibrium of the game induced by freezing some players' strategies.

    The induced game's players are the free players; their payoffs are the
    originals averaged over the frozen strategies.  The returned profile is
    for the full game, with the frozen strategies reinserted untouched, so
    every free player best responds (up to tolerance) in the full game.
    """
    config = config or SolverConfig()
    n = game.num_players
    for i, strategy in frozen.items():
        if not isinstance(i, (int, np.integer)) or not 0 <= i < n:
            raise GameInputError(f"frozen player index {i!r} out of range")
        if not isinstance(strategy, MixedStrategy):
            raise GameInputError(f"frozen strategy for player {i} is not a MixedStrategy")
        if strategy.num_actions != game.action_counts[i]:
            raise GameInputError(
                f"frozen strategy for player {i} has {strategy.num_actions} entries; "
                f"game expects {game.action_counts[i]}"
            )
    free = tuple(sorted(set(range(n)) - set(frozen)))
    if not free:
        raise GameInputError("cannot freeze every player; the induced game would be empty")
    if not frozen:
        return find_nash(game, config)
    probs = [frozen[j].probs if j in frozen else None for j in range(n)]
    reduced = Game(
        action_counts=tuple(game.action_counts[f] for f in free),
        payoffs=tuple(
            _contract(game.payoff_tensor(f), probs, free).reshape(-1) for f in free
        ),
    )
    solved = find_nash(reduced, config)
    strategies: list[MixedStrategy] = []
    for i in range(n):
        if i in frozen:
            strategies.append(frozen[i])
        else:
            strategies.append(solved[free.index(i)])
    return StrategyProfile(tuple(strategies))
