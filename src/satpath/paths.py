"""Satisficing paths: set algebra, constructive search, and verification.

A sequence of profiles is a satisficing path when any player best
responding at step t keeps its strategy at step t+1; unsatisfied players
may move arbitrarily.  Three nested candidate sets drive the
construction, all relative to a profile x:

    Access(x)  profiles differing from x only in unsatisfied players,
    NoB(x)     accessible profiles keeping every unsatisfied player
               unsatisfied (x itself always qualifies),
    Worse(x)   NoB profiles that additionally flip at least one
               satisfied player to unsatisfied.

The constructor repeatedly moves to a Worse profile, which strictly grows
the unsatisfied set, until either everyone is unsatisfied (then any
equilibrium is accessible in one jump) or no Worse profile can be found
(then freezing the satisfied players and solving the induced subgame
yields a full equilibrium, which is certified before being accepted).

Worse-emptiness is a universal statement over a continuum, so search
exhaustion is only presumptive; a failed certification escalates the
search budget tenfold, up to three times, before giving up.

Strategy equality along paths is bitwise on the stored probabilities:
the constructor copies satisfied strategies verbatim, so exact equality
is achievable and unambiguous.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import GameInputError, PathInvariantError, WorseSearchIncompleteError
from .games import (
    DEFAULT_EPSILON,
    Game,
    MixedStrategy,
    SatisfactionReport,
    StrategyProfile,
    _check_count,
    _check_epsilon,
    _check_profile,
    _deviation_gap_raw,
    pure_action_payoffs,
    satisfaction_report,
)
from .solver import SolverConfig, find_nash, find_subgame_nash

STEP_KINDS = ("initial", "worse_step", "case1_jump", "case2_jump")

_MAX_ESCALATIONS = 3

#: Mixing weights of the uniform-blend stage of the Worse search.
_XI_GRID = (0.5, 0.1, 0.01)


@dataclass(frozen=True, eq=False)
class PathStep:
    """One profile along a path, how it was reached, and its satisfaction split."""

    profile: StrategyProfile
    kind: str
    report: SatisfactionReport

    def __post_init__(self):
        if self.kind not in STEP_KINDS:
            raise GameInputError(f"unknown step kind {self.kind!r}")


@dataclass(frozen=True, eq=False)
class SatisficingPath:
    """An ordered profile sequence ending, when construction succeeds, at an
    epsilon-Nash equilibrium.  ``escalations`` counts budget escalations the
    Worse search needed (0 for a clean run)."""

    steps: tuple[PathStep, ...]
    epsilon: float
    terminal_gap: float
    escalations: int = 0

    def __post_init__(self):
        if not self.steps:
            raise GameInputError("a path must contain at least one step")

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def profiles(self) -> tuple[StrategyProfile, ...]:
        return tuple(step.profile for step in self.steps)


@dataclass(frozen=True)
class WorseSearchConfig:
    """Budget and seed for the Worse search.

    Candidates are tried in a low-entropy-first order: single-player pure
    deviations, then the uniform blends ``build_w_xi`` for the fixed grid
    xi = 0.5, 0.1, 0.01, then joint Dirichlet resamples seeded by
    ``rng_seed``, until ``budget`` candidates have been examined.  Both are
    integers (not bools); ``budget`` lies in 1..sys.maxsize, and the budget
    escalations of ``construct_path`` stop growing at sys.maxsize.
    """

    budget: int = 5000
    rng_seed: int = 0

    def __post_init__(self):
        budget = _check_count("budget", self.budget)
        if budget > sys.maxsize:
            raise GameInputError(f"budget must be at most {sys.maxsize}, got {budget}")
        if isinstance(self.rng_seed, bool) or not isinstance(self.rng_seed, (int, np.integer)):
            raise GameInputError(f"rng_seed must be an integer, got {self.rng_seed!r}")
        object.__setattr__(self, "budget", budget)
        object.__setattr__(self, "rng_seed", int(self.rng_seed))


@dataclass(frozen=True)
class PathVerification:
    """Outcome of verify_path: pass/fail plus the first violation found."""

    ok: bool
    num_steps: int
    reason: str | None = None
    step: int | None = None
    player: int | None = None


def is_accessible(x: StrategyProfile, y: StrategyProfile, report_x: SatisfactionReport) -> bool:
    """Whether y differs from x only in players unsatisfied at x.

    Equality is bitwise on the stored probability vectors.
    """
    if len(x) != len(y):
        raise GameInputError(f"profiles cover {len(x)} and {len(y)} players")
    for i, (sx, sy) in enumerate(zip(x.strategies, y.strategies)):
        if sx.num_actions != sy.num_actions:
            raise GameInputError(f"player {i} strategies have mismatched sizes")
    return all(y[i] == x[i] for i in report_x.satisfied)


def _keeps_unsatisfied(game: Game, probs: list[np.ndarray], report_x: SatisfactionReport) -> bool:
    """Whether every player unsatisfied at x stays unsatisfied at ``probs``."""
    return all(
        _deviation_gap_raw(game, probs, i) > report_x.epsilon for i in report_x.unsatisfied
    )


def _flips_satisfied(game: Game, probs: list[np.ndarray], report_x: SatisfactionReport) -> bool:
    """Whether some player satisfied at x is unsatisfied at ``probs``."""
    return any(
        _deviation_gap_raw(game, probs, i) > report_x.epsilon for i in report_x.satisfied
    )


def in_nob(game: Game, x: StrategyProfile, y: StrategyProfile, epsilon: float) -> bool:
    """Whether y is accessible from x and keeps every player unsatisfied at x
    unsatisfied at y."""
    _check_profile(game, x)
    _check_profile(game, y)
    report_x = satisfaction_report(game, x, epsilon)
    probs = [s.probs for s in y.strategies]
    return is_accessible(x, y, report_x) and _keeps_unsatisfied(game, probs, report_x)


def in_worse(game: Game, x: StrategyProfile, y: StrategyProfile, epsilon: float) -> bool:
    """Whether y is in NoB(x) and flips at least one satisfied player, so the
    unsatisfied set strictly grows."""
    _check_profile(game, x)
    _check_profile(game, y)
    report_x = satisfaction_report(game, x, epsilon)
    probs = [s.probs for s in y.strategies]
    return (
        is_accessible(x, y, report_x)
        and _keeps_unsatisfied(game, probs, report_x)
        and _flips_satisfied(game, probs, report_x)
    )


def build_w_xi(
    game: Game, x_k: StrategyProfile, report_k: SatisfactionReport, xi: float
) -> StrategyProfile:
    """Blend every unsatisfied player's strategy with the uniform one:
    (1 - xi) * current + xi * uniform.  Satisfied players are untouched, so
    the result is accessible from x_k, and unsatisfied players become fully
    mixed with every coordinate at least xi / num_actions."""
    _check_profile(game, x_k)
    xi = float(xi)
    if not 0.0 < xi <= 1.0:
        raise GameInputError(f"xi must lie in (0, 1], got {xi}")
    probs = _blend_uniform([s.probs for s in x_k.strategies], report_k.unsatisfied, xi)
    return _profile_from(x_k, probs)


def _blend_uniform(probs: list[np.ndarray], players, xi: float) -> list[np.ndarray]:
    """The w_xi formula over raw probability lists, without validation: the
    listed players' vectors become (1 - xi) * p + xi / len(p); the others
    are returned as the same array objects."""
    return [(1.0 - xi) * p + xi / p.size if i in players else p for i, p in enumerate(probs)]


def _profile_from(x: StrategyProfile, probs: list[np.ndarray]) -> StrategyProfile:
    """Wrap a probability list as a profile, reusing x's strategy objects
    for the arrays taken unchanged from x and validating the rest."""
    return StrategyProfile(
        tuple(s if p is s.probs else MixedStrategy(p) for s, p in zip(x.strategies, probs))
    )


def build_z_lambda(
    x_star: StrategyProfile,
    w_xi: StrategyProfile,
    unsat_set,
    x_k: StrategyProfile,
    lam: float,
) -> StrategyProfile:
    """Interpolate unsatisfied players between x_star (lam = 0) and w_xi
    (lam = 1); players outside ``unsat_set`` keep their x_k strategy."""
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise GameInputError(f"lambda must lie in [0, 1], got {lam}")
    if not len(x_star) == len(w_xi) == len(x_k):
        raise GameInputError("profiles cover different numbers of players")
    unsat = set(int(i) for i in unsat_set)
    for i in unsat:
        if not 0 <= i < len(x_k):
            raise GameInputError(f"unsatisfied player index {i} out of range")
    strategies = []
    for i in range(len(x_k)):
        if x_star[i].num_actions != w_xi[i].num_actions or x_star[i].num_actions != x_k[i].num_actions:
            raise GameInputError(f"player {i} strategies have mismatched sizes")
        if i in unsat:
            strategies.append(
                MixedStrategy((1.0 - lam) * x_star[i].probs + lam * w_xi[i].probs)
            )
        else:
            strategies.append(x_k[i])
    return StrategyProfile(tuple(strategies))


def indifference_poly(
    game: Game,
    x_star: StrategyProfile,
    w_xi: StrategyProfile,
    unsat_set,
    x_k: StrategyProfile,
    player: int,
    a: int,
    a_prime: int,
) -> np.ndarray:
    """Coefficients (ascending, length = num_players) of the payoff difference

        g(lam) = R_player(delta_a, z_lam^{-player}) - R_player(delta_a', ...)

    as a polynomial in the interpolation parameter.  The difference is a sum
    of products of at most n - 1 affine factors, so the degree is at most
    n - 1; g is evaluated at n equispaced nodes on [0, 1] and interpolated
    exactly.
    """
    _check_profile(game, x_k)
    n = game.num_players
    if not 0 <= player < n:
        raise GameInputError(f"player index {player} out of range")
    count = game.action_counts[player]
    for label, action in (("a", a), ("a_prime", a_prime)):
        if not 0 <= action < count:
            raise GameInputError(f"action {label}={action} out of range for {count} actions")
    if a == a_prime:
        raise GameInputError("the two actions to compare must differ")
    nodes = np.array([0.0]) if n == 1 else np.linspace(0.0, 1.0, n)
    values = []
    for lam in nodes:
        z = build_z_lambda(x_star, w_xi, unsat_set, x_k, float(lam))
        w = pure_action_payoffs(game, z, player)
        values.append(float(w[a]) - float(w[a_prime]))
    return npoly.polyfit(nodes, values, deg=len(nodes) - 1)


def zero_poly_check(coeffs, roots_observed, tolerance: float) -> bool:
    """Whether the observed roots force the polynomial to be identically zero:
    a degree-d polynomial vanishing at d + 1 distinct points is the zero
    polynomial.  True iff there are more distinct roots than the degree and
    the polynomial evaluates within ``tolerance`` of zero at each."""
    coeffs = np.asarray(coeffs, dtype=float)
    tolerance = float(tolerance)
    if tolerance < 0.0:
        raise GameInputError(f"tolerance must be nonnegative, got {tolerance}")
    nonzero = np.nonzero(coeffs)[0]
    degree = int(nonzero[-1]) if nonzero.size else 0
    roots = sorted({float(r) for r in roots_observed})
    if len(roots) <= degree:
        return False
    values = npoly.polyval(np.asarray(roots), coeffs)
    return bool(np.all(np.abs(values) <= tolerance))


def _worse_candidates(game: Game, x: StrategyProfile, report: SatisfactionReport, rng_seed: int):
    """Yield accessible candidates as full probability lists, in search order:
    pure deviations of each unsatisfied player, the uniform blends of
    ``build_w_xi`` over ``_XI_GRID``, then seeded Dirichlet draws forever.
    Satisfied players keep x's probability arrays (the same objects).
    Candidates are unvalidated; the caller validates only the one it keeps."""
    base = [s.probs for s in x.strategies]
    unsat = sorted(report.unsatisfied)
    for i in unsat:
        count = game.action_counts[i]
        for action in range(count):
            vec = np.zeros(count)
            vec[action] = 1.0
            if not np.array_equal(vec, base[i]):  # skip non-deviations
                yield [vec if j == i else p for j, p in enumerate(base)]
    for xi in _XI_GRID:
        yield _blend_uniform(base, report.unsatisfied, xi)
    rng = np.random.default_rng(rng_seed & 0xFFFFFFFFFFFFFFFF)
    while True:
        probs = list(base)
        for i in unsat:
            probs[i] = rng.dirichlet(np.ones(game.action_counts[i]))
        yield probs


def find_worse_candidate(
    game: Game,
    x: StrategyProfile,
    epsilon: float = DEFAULT_EPSILON,
    config: WorseSearchConfig | None = None,
) -> StrategyProfile | None:
    """Search Access(x) for a member of Worse(x); None when the budget runs
    out (presumptive emptiness) or when Worse(x) is irrelevant because no
    player is satisfied, or trivially empty because none is unsatisfied."""
    _check_profile(game, x)
    epsilon = _check_epsilon(epsilon)
    config = config or WorseSearchConfig()
    report = satisfaction_report(game, x, epsilon)
    if not report.satisfied or not report.unsatisfied:
        return None
    candidates = _worse_candidates(game, x, report, config.rng_seed)
    # candidates only move unsatisfied players, so accessibility holds by
    # construction and membership in Worse is the two gap predicates
    for probs in itertools.islice(candidates, config.budget):
        if _keeps_unsatisfied(game, probs, report) and _flips_satisfied(game, probs, report):
            return _profile_from(x, probs)
    return None


def construct_path(
    game: Game,
    x1: StrategyProfile,
    epsilon: float = DEFAULT_EPSILON,
    worse_config: WorseSearchConfig | None = None,
    solver_config: SolverConfig | None = None,
) -> SatisficingPath:
    """Build a satisficing path from ``x1`` to an epsilon-Nash equilibrium.

    While some player is satisfied and a Worse profile can be found, take
    it (each such step strictly grows the unsatisfied set, so there are at
    most n - 1 of them).  Then either every player is unsatisfied and any
    equilibrium is one accessible jump away, or the satisfied players are
    frozen and an equilibrium of the induced subgame is jumped to; the
    latter is certified against the full game, and a failed certification
    escalates the Worse-search budget tenfold (at most three times) before
    raising WorseSearchIncompleteError with the partial path.

    For the terminal certification to be meaningful, ``solver_config``'s
    tolerance must not exceed ``epsilon`` (GameInputError otherwise); the
    defaults agree at 1e-9.
    """
    _check_profile(game, x1)
    epsilon = _check_epsilon(epsilon)
    worse_config = worse_config or WorseSearchConfig()
    solver_config = solver_config or SolverConfig()
    if solver_config.tolerance > epsilon:
        raise GameInputError(
            f"solver tolerance {solver_config.tolerance:g} exceeds epsilon {epsilon:g}; "
            "equilibria it accepts could fail the epsilon certification"
        )

    report = satisfaction_report(game, x1, epsilon)
    steps = [PathStep(profile=x1, kind="initial", report=report)]
    escalations = 0
    current, current_report = x1, report

    while current_report.max_gap > epsilon:
        if not current_report.satisfied:
            # Everyone is unsatisfied, so every profile is accessible.
            target = find_nash(game, solver_config)
            steps.append(
                PathStep(
                    profile=target,
                    kind="case1_jump",
                    report=satisfaction_report(game, target, epsilon),
                )
            )
            break
        budget = min(worse_config.budget * 10**escalations, sys.maxsize)
        search = replace(worse_config, budget=budget)
        candidate = find_worse_candidate(game, current, epsilon, search)
        if candidate is not None:
            candidate_report = satisfaction_report(game, candidate, epsilon)
            if not current_report.unsatisfied < candidate_report.unsatisfied:
                raise PathInvariantError("worse candidate did not grow the unsatisfied set")
            steps.append(PathStep(profile=candidate, kind="worse_step", report=candidate_report))
            current, current_report = candidate, candidate_report
            continue
        # Presume Worse(current) is empty: freeze the satisfied players and
        # solve the game induced among the unsatisfied ones.
        frozen = {i: current[i] for i in sorted(current_report.satisfied)}
        target = find_subgame_nash(game, frozen, solver_config)
        target_report = satisfaction_report(game, target, epsilon)
        if target_report.max_gap <= epsilon:
            steps.append(PathStep(profile=target, kind="case2_jump", report=target_report))
            break
        # A previously satisfied player broke: the emptiness verdict was
        # false, so some Worse profile was missed.  Search harder.
        escalations += 1
        if escalations > _MAX_ESCALATIONS:
            raise WorseSearchIncompleteError(
                "worse search kept reporting empty, but the subgame jump is not "
                f"an equilibrium (max gap {target_report.max_gap:g} > {epsilon:g}) "
                f"after {_MAX_ESCALATIONS} budget escalations",
                partial_path=tuple(steps),
            )

    path = SatisficingPath(
        steps=tuple(steps),
        epsilon=epsilon,
        terminal_gap=steps[-1].report.max_gap,
        escalations=escalations,
    )
    check = verify_path(game, path, epsilon, require_terminal_nash=True, require_length_bound=True)
    if not check.ok:
        raise PathInvariantError(f"constructed path failed verification: {check.reason}")
    return path


def _profiles_of(path) -> list[StrategyProfile]:
    if hasattr(path, "profiles"):
        return list(path.profiles)
    return list(path)


def verify_path(
    game: Game,
    path,
    epsilon: float = DEFAULT_EPSILON,
    require_terminal_nash: bool = True,
    require_length_bound: bool = False,
) -> PathVerification:
    """Check the pairwise satisfaction constraint over a profile sequence.

    For every step t and player i with deviation gap at most ``epsilon`` at
    step t, the player's strategy must be bitwise unchanged at step t + 1.
    Optionally also require the final profile to be an epsilon-Nash
    equilibrium, and the length to be at most num_players + 1 (the
    constructor's worst case: an initial profile, at most n - 1
    Worse steps, and one jump).

    Accepts a SatisficingPath, a Trajectory, or any sequence of profiles.
    """
    profiles = _profiles_of(path)
    if not profiles:
        raise GameInputError("path must contain at least one profile")
    for p in profiles:
        _check_profile(game, p)
    epsilon = _check_epsilon(epsilon)
    for t in range(len(profiles) - 1):
        report = satisfaction_report(game, profiles[t], epsilon)
        for i in sorted(report.satisfied):
            if not profiles[t + 1][i] == profiles[t][i]:
                return PathVerification(
                    ok=False,
                    num_steps=len(profiles),
                    reason=(
                        f"player {i} is satisfied at step {t + 1} "
                        f"(gap {report.gaps[i]:.3g} <= {epsilon:g}) but changed strategy"
                    ),
                    step=t + 1,
                    player=i,
                )
    if require_terminal_nash:
        terminal = satisfaction_report(game, profiles[-1], epsilon)
        if terminal.max_gap > epsilon:
            worst = int(np.argmax(terminal.gaps))
            return PathVerification(
                ok=False,
                num_steps=len(profiles),
                reason=(
                    f"terminal profile is not an epsilon-Nash equilibrium: "
                    f"player {worst} has gap {terminal.max_gap:.3g} > {epsilon:g}"
                ),
                step=len(profiles),
                player=worst,
            )
    if require_length_bound and len(profiles) > game.num_players + 1:
        return PathVerification(
            ok=False,
            num_steps=len(profiles),
            reason=(
                f"path has {len(profiles)} steps, above the bound "
                f"{game.num_players + 1} for {game.num_players} players"
            ),
            step=len(profiles),
            player=None,
        )
    return PathVerification(ok=True, num_steps=len(profiles))
