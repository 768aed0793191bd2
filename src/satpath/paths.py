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

Worse-emptiness is a universal statement over a continuum.  Before trying
any candidate, the search tries to certify it, exactly up to a bound on
rounding (``_certified_empty``).  Where that fails, the search reads one
finite, deterministic list of candidates, built from the joint pure
profiles of the unsatisfied players and their blends toward the uniform
strategies and toward x (``_worse_candidates``).  Its vertex and
uniform-blend strategies are built and validated once per process and
shared (``_vertex_and_blends``), and the certificate's rounding floor
reads the game's cached payoff magnitudes.  An exhausted list is only
presumptive emptiness: the subgame jump is certified against the full
game, and a failed certification raises ``WorseSearchIncompleteError``
with the path built so far.

Strategy equality along paths is bitwise on the stored probabilities:
the constructor copies satisfied strategies verbatim, so exact equality
is achievable and unambiguous.
"""

from __future__ import annotations

import itertools
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import GameInputError, PathInvariantError, WorseSearchIncompleteError
from .games import (
    DEFAULT_EPSILON,
    Game,
    MixedStrategy,
    SatisfactionReport,
    StrategyProfile,
    _check_instance,
    _check_int,
    _check_profile,
    _check_real,
    _check_report,
    _contract,
    _deviation_gap_raw,
    _seed_gaps,
    _vertex,
    satisfaction_report,
)
from .solver import _DEFAULT_CONFIG, SolverConfig, find_nash, find_subgame_nash

STEP_KINDS = ("initial", "worse_step", "case1_jump", "case2_jump")

#: Mixing weights of the uniform blends the Worse search tries after each
#: joint pure profile of the unsatisfied players.
_XI_GRID = (0.5, 0.1, 0.01)

#: Share of epsilon a satisfied player's largest gap over Access(x) may reach
#: for ``_certified_empty`` to hold.  The rest must exceed the rounding of the
#: certificate's sums and of the search's gap kernel (``_rounding_floor``).
_CERTIFY_SHARE = 0.5

#: The spacing of floats at 1.0, 2**-52.
_ULP = float(np.finfo(float).eps)


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
    epsilon-Nash equilibrium.  ``steps`` is stored as a tuple, so the
    caller's list is not shared.  ``terminal_gap`` is read from the last
    step's report.  ``escalations`` is a class constant, always 0: the
    Worse search reads a finite list, so a failed subgame jump raises rather
    than searching again; it stays for readers of path traces."""

    steps: tuple[PathStep, ...]
    epsilon: float
    escalations = 0  # not annotated: a class constant, not a field

    def __post_init__(self):
        steps = tuple(_check_instance("steps", self.steps, Iterable))
        if not steps:
            raise GameInputError("a path must contain at least one step")
        object.__setattr__(self, "steps", steps)

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def terminal_gap(self) -> float:
        return self.steps[-1].report.max_gap

    @property
    def profiles(self) -> tuple[StrategyProfile, ...]:
        return tuple(step.profile for step in self.steps)


@dataclass(frozen=True)
class WorseSearchConfig:
    """How much of its candidate list the Worse search may read.

    The list is finite and deterministic (``_worse_candidates``): for each
    joint pure profile of the unsatisfied players, that profile, then its
    uniform blends ``build_w_xi`` for xi = 0.5, 0.1, 0.01; after all of
    those, each joint profile blended toward x with the same weights.  So
    it holds 7 * prod(c_i) candidates over the unsatisfied players' action
    counts (3 fewer from a pure x).  ``budget``, an integer (not a bool) in
    1..sys.maxsize, caps how many of them are examined (x itself, when
    listed, counts but is not evaluated).  The default reaches the blends
    toward x only when 4 * prod(c_i) < 5000: with 6 actions each, for up
    to 3 unsatisfied players, so not on a 6-player game with 5 of them
    unsatisfied (4 * 6**5 = 31,104).
    """

    budget: int = 5000

    def __post_init__(self):
        object.__setattr__(self, "budget", _check_int("budget", self.budget, 1, sys.maxsize))


#: The search config ``find_worse_candidate`` and ``construct_path`` use when given None.
_DEFAULT_WORSE = WorseSearchConfig()


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
    _check_instance("x", x, StrategyProfile)
    _check_instance("y", y, StrategyProfile)
    if len(x) != len(y):
        raise GameInputError(f"profiles cover {len(x)} and {len(y)} players")
    _check_report("report_x", report_x, len(x))
    for i, (sx, sy) in enumerate(zip(x.strategies, y.strategies)):
        if sx.num_actions != sy.num_actions:
            raise GameInputError(f"player {i} strategies have mismatched sizes")
    return all(y[i] == x[i] for i in report_x.satisfied)


def _keeps_unsatisfied(
    game: Game, probs: list[np.ndarray], report_x: SatisfactionReport, gaps: list
) -> bool:
    """Whether every player unsatisfied at x stays unsatisfied at ``probs``;
    stops at the first that does not, and records each gap it computes in
    ``gaps``."""
    for i in report_x.unsatisfied:
        gaps[i] = _deviation_gap_raw(game, probs, i)
        if gaps[i] <= report_x.epsilon:
            return False
    return True


def _flips_satisfied(
    game: Game, probs: list[np.ndarray], report_x: SatisfactionReport, gaps: list
) -> bool:
    """Whether some player satisfied at x is unsatisfied at ``probs``; stops
    at the first that is, and records each gap it computes in ``gaps``."""
    for i in report_x.satisfied:
        gaps[i] = _deviation_gap_raw(game, probs, i)
        if gaps[i] > report_x.epsilon:
            return True
    return False


def in_nob(game: Game, x: StrategyProfile, y: StrategyProfile, epsilon: float) -> bool:
    """Whether y is accessible from x and keeps every player unsatisfied at x
    unsatisfied at y."""
    _check_profile(game, x)
    _check_profile(game, y)
    report_x = satisfaction_report(game, x, epsilon)
    probs = [s.probs for s in y.strategies]
    gaps = [None] * game.num_players
    return is_accessible(x, y, report_x) and _keeps_unsatisfied(game, probs, report_x, gaps)


def in_worse(game: Game, x: StrategyProfile, y: StrategyProfile, epsilon: float) -> bool:
    """Whether y is in NoB(x) and flips at least one satisfied player, so the
    unsatisfied set strictly grows."""
    if not in_nob(game, x, y, epsilon):
        return False
    probs = [s.probs for s in y.strategies]
    report_x = satisfaction_report(game, x, epsilon)
    return _flips_satisfied(game, probs, report_x, [None] * game.num_players)


def build_w_xi(
    game: Game, x_k: StrategyProfile, report_k: SatisfactionReport, xi: float
) -> StrategyProfile:
    """Blend every unsatisfied player's strategy with the uniform one:
    (1 - xi) * current + xi * uniform.  Satisfied players are untouched, so
    the result is accessible from x_k, and unsatisfied players become fully
    mixed with every coordinate at least xi / num_actions."""
    _check_profile(game, x_k)
    _check_report("report_k", report_k, len(x_k))
    xi = _check_real("xi", xi, positive=True, high=1.0)
    return StrategyProfile(
        tuple(
            _blend(s.probs, xi) if i in report_k.unsatisfied else s
            for i, s in enumerate(x_k.strategies)
        )
    )


def _blend(probs: np.ndarray, xi: float) -> MixedStrategy:
    """The uniform blend (1 - xi) * probs + xi * uniform, for a checked xi
    in (0, 1]: fully mixed, with every coordinate at least xi / probs.size."""
    return MixedStrategy((1.0 - xi) * probs + xi / probs.size)


@cache
def _vertex_and_blends(num_actions: int, action: int) -> tuple[MixedStrategy, ...]:
    """The point mass on ``action`` (``games._vertex``), then its uniform
    blends (``_blend``, as in ``build_w_xi``) for each xi in ``_XI_GRID``:
    the strategies the Worse search's candidates give an unsatisfied player.
    Each is built and validated once per process and shared."""
    vertex = _vertex(num_actions, action)
    return (vertex, *(_blend(vertex.probs, xi) for xi in _XI_GRID))


def _worse_candidates(game: Game, x: StrategyProfile, report: SatisfactionReport):
    """Yield accessible candidates as full lists of strategies, in search
    order: for each joint pure profile v of the unsatisfied players, in C
    order over the sorted players, v itself and then v blended with the
    uniform strategies as in ``build_w_xi`` for each xi in ``_XI_GRID``;
    after all of those, for each v in the same order, v blended toward x,
    (1 - xi) * v_i + xi * x_i for each xi in ``_XI_GRID``.  Satisfied
    players keep x's strategies (the same objects), and in the first stage
    unsatisfied ones get the shared strategies of ``_vertex_and_blends``.
    A v equal to x, never in Worse(x), is yielded as None (its uniform
    blends stay), and its blends toward x, which are x, are left out.  So
    the list holds 7 * prod(c_i) candidates over the unsatisfied players'
    action counts, or 3 fewer when they play a joint pure profile at x.

    The blends toward x find members where every uniform blend keeps some
    player exactly tied, as on games with {0, 1} payoffs, whose pure
    profiles tie often."""
    unsat = sorted(report.unsatisfied)
    counts = [game.action_counts[i] for i in unsat]
    # x's joint action, compared once per search: each unsatisfied player's
    # action where it plays a vertex, else None, which matches no joint
    own = []
    for i, c in zip(unsat, counts):
        a = int(x[i].probs.argmax())
        own.append(a if np.array_equal(x[i].probs, _vertex(c, a).probs) else None)
    own = tuple(own)
    for joint in itertools.product(*map(range, counts)):
        rows = [_vertex_and_blends(c, a) for c, a in zip(counts, joint)]
        for k in range(1 + len(_XI_GRID)):
            if k == 0 and joint == own:
                yield None
                continue
            strategies = list(x.strategies)
            for i, row in zip(unsat, rows):
                strategies[i] = row[k]
            yield strategies
    toward = [
        [[MixedStrategy((1.0 - xi) * _vertex(c, a).probs + xi * x[i].probs) for xi in _XI_GRID]
         for a in range(c)]
        for i, c in zip(unsat, counts)
    ]
    for joint in itertools.product(*map(range, counts)):
        if joint == own:
            continue  # its blends toward x are x
        for k in range(len(_XI_GRID)):
            strategies = list(x.strategies)
            for i, row, a in zip(unsat, toward, joint):
                strategies[i] = row[a][k]
            yield strategies


def _rounding_floor(game: Game, i: int) -> float:
    """A bound on how far player i's gap, computed by the certificate or by
    the gap kernel, can stray from its exact value, doubled.  Write u for
    2**-53, P for player i's largest payoff magnitude (kept on the game),
    c for its action count and m = size / c for its opponents' joint
    actions.

    The certificate's einsum weighs at most ``size`` payoffs by products of
    ``n`` probabilities summing to 1, so each average errs by at most
    (size + n) * u * P, and a gap subtracts two of them.

    The gap kernel (``games._pure_payoffs``) rounds each entry of the
    opponents' joint distribution n - 2 times, as a product of n - 1
    probabilities, and then takes a BLAS dot product of length m, which
    rounds at most m times along any summation order (FMA only fuses some
    of them); the entries sum to 1, so each pure-action payoff errs by at
    most (m + n - 2) * u * P, to first order in u.  The gap takes their
    largest, exactly, subtracts their dot product with x_i, which rounds c
    more times, and rounds the difference once: it errs by at most
    (2m + 2n + c - 2) * u * P.  As size = c * m, both bounds are within
    2 * (size + n) * u * P, half the floor, with room for the higher-order
    terms."""
    size = game.payoffs[i].size
    return 4 * (size + game.num_players) * _ULP * game._payoff_bounds[i]


def _certified_empty(game: Game, x: StrategyProfile, report: SatisfactionReport) -> bool:
    """Whether every satisfied player's largest deviation gap over Access(x)
    is at most ``_CERTIFY_SHARE`` of epsilon, which proves Worse(x) empty
    when the rest of epsilon exceeds ``_rounding_floor``; when it does not
    (epsilon 0, or payoffs large against epsilon) nothing is certified.

    Player i's gap at y is the largest of R_i(a, y) - R_i(x_i, y) over its
    actions a; with i's strategy fixed, each difference is multilinear in
    the unsatisfied players' strategies, so its largest value over their
    product of simplices is reached at a pure profile of theirs.  One
    contraction averages the other satisfied players and keeps i's axis
    and the unsatisfied players' axes: its columns are i's pure-action
    payoffs at each such pure profile.
    """
    probs = [s.probs for s in x.strategies]
    free = tuple(sorted(report.unsatisfied))
    bound = report.epsilon * _CERTIFY_SHARE
    for i in sorted(report.satisfied):
        if _rounding_floor(game, i) >= report.epsilon - bound:
            return False  # rounding could hide a gap above epsilon: search
        block = _contract(game._tensors[i], probs, (i, *free)).reshape(probs[i].size, -1)
        if float((block.max(axis=0) - probs[i] @ block).max()) > bound:
            return False
    return True


def find_worse_candidate(
    game: Game,
    x: StrategyProfile,
    epsilon: float = DEFAULT_EPSILON,
    config: WorseSearchConfig | None = None,
) -> StrategyProfile | None:
    """Search Access(x) for a member of Worse(x); None when Worse(x) is
    certified empty (``_certified_empty``), when the candidate list
    (``_worse_candidates``) or ``config.budget`` runs out without a member
    (presumptive emptiness), or when Worse(x) is irrelevant because no
    player is satisfied, or trivially empty because none is unsatisfied.
    The first member in list order is returned, so the search is
    deterministic.

    The profile returned carries its gaps for ``game`` in its memo: those the
    two predicates computed to accept it, and the remaining players' from
    the same kernel, so its ``satisfaction_report`` computes none."""
    _check_profile(game, x)
    epsilon = _check_real("epsilon", epsilon)
    config = _check_instance("config", config, WorseSearchConfig, _DEFAULT_WORSE)
    report = satisfaction_report(game, x, epsilon)
    if not report.satisfied or not report.unsatisfied:
        return None
    if _certified_empty(game, x, report):
        return None
    candidates = _worse_candidates(game, x, report)
    # candidates only move unsatisfied players, so accessibility holds by
    # construction and membership in Worse is the two gap predicates
    for strategies in itertools.islice(candidates, config.budget):
        if strategies is None:
            continue
        probs = [s.probs for s in strategies]
        gaps = [None] * game.num_players
        if (
            _keeps_unsatisfied(game, probs, report, gaps)
            and _flips_satisfied(game, probs, report, gaps)
        ):
            profile = StrategyProfile(tuple(strategies))
            for i, gap in enumerate(gaps):
                if gap is None:
                    gaps[i] = _deviation_gap_raw(game, probs, i)
            _seed_gaps(game, profile, gaps)
            return profile
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
    frozen and an equilibrium of the induced subgame is jumped to.  That
    jump is certified against the full game; when it fails, the Worse search
    missed a member (it was not certified empty, only exhausted), and
    WorseSearchIncompleteError is raised with the partial path.

    For the terminal certification to be meaningful, ``solver_config``'s
    tolerance must not exceed ``epsilon`` (GameInputError otherwise); both
    default to ``DEFAULT_EPSILON``.
    """
    _check_profile(game, x1)
    epsilon = _check_real("epsilon", epsilon)
    worse_config = _check_instance("worse_config", worse_config, WorseSearchConfig, _DEFAULT_WORSE)
    solver_config = _check_instance("solver_config", solver_config, SolverConfig, _DEFAULT_CONFIG)
    if solver_config.tolerance > epsilon:
        raise GameInputError(
            f"solver tolerance {solver_config.tolerance:g} exceeds epsilon {epsilon:g}; "
            "equilibria it accepts could fail the epsilon certification"
        )

    report = satisfaction_report(game, x1, epsilon)
    steps = [PathStep(profile=x1, kind="initial", report=report)]
    current, current_report = x1, report

    while current_report.unsatisfied:
        candidate = None
        if current_report.satisfied:
            candidate = find_worse_candidate(game, current, epsilon, worse_config)
        if candidate is not None:
            candidate_report = satisfaction_report(game, candidate, epsilon)
            if not current_report.unsatisfied < candidate_report.unsatisfied:
                raise PathInvariantError("worse candidate did not grow the unsatisfied set")
            steps.append(PathStep(profile=candidate, kind="worse_step", report=candidate_report))
            current, current_report = candidate, candidate_report
            continue
        # Jump.  Case 1: nobody is satisfied, so every profile is accessible
        # and any equilibrium will do.  Case 2: Worse(current) is empty,
        # certified or presumed, so freeze the satisfied players and solve the
        # game induced among the unsatisfied ones.
        if current_report.satisfied:
            frozen = {i: current[i] for i in sorted(current_report.satisfied)}
            target = find_subgame_nash(game, frozen, solver_config)
        else:
            target = find_nash(game, solver_config)
        target_report = satisfaction_report(game, target, epsilon)
        if target_report.unsatisfied:
            # Only a case-2 jump can fail here (find_nash accepts gaps within
            # its tolerance, which is at most epsilon).  A previously
            # satisfied player broke, so Worse(current) was not empty: every
            # member lies outside the part of the candidate list the search
            # read.
            raise WorseSearchIncompleteError(
                "worse search found no candidate, but the subgame jump is not "
                f"an equilibrium (max gap {target_report.max_gap:g} > {epsilon:g})",
                partial_path=tuple(steps),
            )
        kind = "case2_jump" if current_report.satisfied else "case1_jump"
        steps.append(PathStep(profile=target, kind=kind, report=target_report))
        break

    path = SatisficingPath(steps=tuple(steps), epsilon=epsilon)
    check = verify_path(game, path, epsilon, require_terminal_nash=True, require_length_bound=True)
    if not check.ok:
        raise PathInvariantError(f"constructed path failed verification: {check.reason}")
    return path


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
    # one read of a path's profiles: SatisficingPath builds them per read
    profiles = list(_check_instance("path", getattr(path, "profiles", path), Iterable))
    if not profiles:
        raise GameInputError("path must contain at least one profile")
    for p in profiles:
        _check_profile(game, p)
    epsilon = _check_real("epsilon", epsilon)
    _check_instance("require_terminal_nash", require_terminal_nash, bool)
    _check_instance("require_length_bound", require_length_bound, bool)
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
        if terminal.unsatisfied:
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
