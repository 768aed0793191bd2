"""Nash equilibrium computation by support enumeration.

A profile with prescribed supports is an equilibrium candidate exactly
when, for every player, all supported actions earn the same expected
payoff (indifference), no unsupported action earns more, and the support
probabilities form a distribution.  A support's raw solution is clamped
onto the simplex and then judged once, by its deviation gaps from the gap
kernel, which stay memoized on the profile: it is kept when each player's
gap is within the dominance-pruning margin, and ``find_nash`` accepts it
when each is within tolerance.  Only a non-finite or all-zero strategy,
which no profile can hold, is turned away before the gaps.  Supports are
enumerated in a fixed order (increasing total support size, then
lexicographic), so runs are reproducible.  The smallest supports, one
action per player, are screened all at once, from one table of each
player's shortfall (best reply minus own payoff) over the action grid: a
pure profile's gaps are these shortfalls, so the first profile in that
order whose shortfalls are all within tolerance is the pure equilibrium
the singleton supports would have produced.  It is made of the shared
vertex strategies (``games._vertex``), and its gaps are seeded from the
table rather than computed again.  Only without one does the enumeration
proper begin, at total support size n + 1.

For two players the indifference conditions decouple: each player's
supported payoffs constrain only the opponent's probabilities, giving one
linear system per player.  For three or more players the stacked system
is multilinear; it is solved by a damped Newton iteration.  Each support's
payoff blocks are sliced once (``_support_blocks``), and every step of its
solve reads only them: a Newton residual row is one contraction of a
player's block, and each Jacobian block (i, j) one more.

Enumeration is exponential in the game's size.  ``Game`` accepts up to 6
players with up to 6 actions each, but such a game has (2**6 - 1)**6, about
6e10, support profiles, so a large game with no small-support equilibrium may
not return in any practical time.  The benchmark measures games up to
3x3x3x3; its slowest such solve takes about 0.5 s on one core of an Intel
Xeon VM.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import GameInputError, SolverIncompleteError
from .games import (
    DEFAULT_EPSILON,
    Game,
    MixedStrategy,
    StrategyProfile,
    _check_instance,
    _check_int,
    _check_real,
    _contract,
    _profile_gaps,
    _seed_gaps,
    _simplex_draws,
    _vertex,
    satisfaction_report,
)

_NEWTON_MAX_ITER = 200
_NEWTON_TARGET = 1e-13
# The slack in the dominance-pruning margin, this plus the solver's
# tolerance: a support is pruned when an action is beaten by more than the
# margin, and its candidate is kept when no player's gap exceeds it.
_RESIDUAL_TOLERANCE = 1e-8
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
        supports = []
        for i, raw in enumerate(_check_instance("supports", self.supports, Iterable)):
            # the support enumeration builds one per support from tuples of
            # plain ints, which skip the calls
            if type(raw) is not tuple:
                _check_instance(f"support for player {i}", raw, Iterable)
            s = tuple(sorted(a if type(a) is int else _check_int("support action", a) for a in raw))
            if not s:
                raise GameInputError(f"support for player {i} is empty")
            if len(set(s)) != len(s):
                raise GameInputError(f"support for player {i} has repeated actions: {s}")
            supports.append(s)
        object.__setattr__(self, "supports", tuple(supports))

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
    """The support solver's tolerance.

    ``tolerance`` bounds acceptable deviation gaps.  The enumeration itself
    has no setting: it visits every support profile, in
    ``enumerate_supports`` order, until one verifies.
    """

    tolerance: float = DEFAULT_EPSILON

    def __post_init__(self):
        tolerance = _check_real("tolerance", self.tolerance, positive=True)
        object.__setattr__(self, "tolerance", tolerance)


#: The config every solver entry point uses when given None.
_DEFAULT_CONFIG = SolverConfig()


def verify_nash(game: Game, profile: StrategyProfile, epsilon: float) -> bool:
    """True iff every player's deviation gap is at most ``epsilon``: the
    profile's ``satisfaction_report`` has no unsatisfied player."""
    return not satisfaction_report(game, profile, epsilon).unsatisfied


def _support_blocks(
    game: Game, support: SupportProfile, margin: float
) -> list[np.ndarray] | None:
    """The payoff blocks every per-support solve reads, sliced once, or None
    when dominance pruning rejects the support.

    ``box[i]`` is player i's payoff tensor restricted to every player's
    support.  Axes stay in player order, and along player j's axis position
    k stands for j's k-th supported action.  It is cut from i's wide block,
    the same tensor over all of i's own actions, which is checked for
    dominance as soon as it is cut and then dropped, so a pruned support,
    the common case, costs only the blocks up to its first dominated player.
    """
    box = []
    for i, own in enumerate(support.supports):
        idx = list(support.supports)
        idx[i] = range(game.action_counts[i])
        wide = game._tensors[i][np.ix_(*idx)]
        if _conditionally_dominated(wide, i, own, margin):
            return None
        box.append(np.take(wide, own, axis=i))
    return box


def _conditionally_dominated(
    block: np.ndarray, i: int, own: tuple[int, ...], margin: float
) -> bool:
    """Whether some action of player i in ``own`` is strictly beaten by
    another action at every opponent profile of ``block`` (i's wide block).
    Such an action can never be payoff-maximal there, so the support admits
    no equilibrium."""
    flat = np.moveaxis(block, i, 0).reshape(block.shape[i], -1)
    # worst-case advantage of a' over a across the opponents' support box
    edge = (flat[:, None, :] - flat[None, :, :]).min(axis=2)
    return bool(np.any(edge[:, list(own)] > margin))


def _assemble_candidate(
    game: Game, support: SupportProfile, raw_probs: list[np.ndarray], margin: float
) -> StrategyProfile | None:
    """Clamp a solver iterate's negative entries to zero and renormalize it
    into a profile on (a face of) the given supports, and keep it iff no
    player's deviation gap exceeds ``margin``.  A non-finite or all-zero
    strategy has no profile, so it is rejected first.  The gaps stay
    memoized on the profile, so ``find_nash``'s acceptance reads them
    without computing them again."""
    strategies = []
    for own, count, raw in zip(support.supports, game.action_counts, raw_probs):
        p = np.asarray(raw, dtype=float)
        if not np.all(np.isfinite(p)):
            return None
        p = np.clip(p, 0.0, None)
        total = p.sum()
        if total <= 0.0:
            return None
        full = np.zeros(count)
        full[list(own)] = p / total
        strategies.append(MixedStrategy(full))
    profile = StrategyProfile(tuple(strategies))
    if _profile_gaps(game, profile).max() > margin:
        return None
    return profile


def _solve_two_player(box: list[np.ndarray]) -> list[np.ndarray] | None:
    """Decoupled linear solves: player i's indifference over its support pins
    down the opponent's support probabilities (plus a value variable)."""
    solutions: list[np.ndarray | None] = [None, None]
    for i in (0, 1):
        block = box[0] if i == 0 else box[1].T  # i's supported actions x the opponent's
        own, opp = block.shape
        # rows: w_i(a) - v = 0 for supported a; then sum of probs = 1
        a = np.zeros((own + 1, opp + 1))
        a[:own, :opp] = block
        a[:own, -1] = -1.0
        a[-1, :opp] = 1.0
        b = np.zeros(own + 1)
        b[-1] = 1.0
        try:
            sol, *_ = np.linalg.lstsq(a, b, rcond=None)
        except np.linalg.LinAlgError:
            return None
        solutions[1 - i] = sol[:opp]
    return [solutions[0], solutions[1]]


def _newton_residual(box: list[np.ndarray], u: np.ndarray, offsets: list[int]):
    """Indifference rows ``w_i(a) - v_i`` for each player's supported actions,
    then one ``sum - 1`` row per player.  ``u`` holds every player's support
    probabilities (player i's at ``offsets[i]:offsets[i + 1]``), then the n
    values; player i's rows sit at the same positions as its probabilities."""
    n = len(box)
    probs = [u[offsets[i] : offsets[i + 1]] for i in range(n)]
    values = u[offsets[n] :]
    rows = [_contract(box[i], probs, (i,)) - values[i] for i in range(n)]
    sums = [p.sum() - 1.0 for p in probs]
    return np.concatenate(rows + [sums]), probs


def _newton_jacobian(box: list[np.ndarray], probs: list[np.ndarray], offsets: list[int]):
    """Derivative of ``_newton_residual``: w_i is linear in each opponent j's
    probabilities, with coefficients ``box[i]`` averaged over everyone else."""
    n = len(box)
    m = offsets[n] + n
    jac = np.zeros((m, m))
    for i in range(n):
        own = slice(offsets[i], offsets[i + 1])
        jac[own, offsets[n] + i] = -1.0
        jac[offsets[n] + i, own] = 1.0
        for j in range(n):
            if j != i:
                jac[own, offsets[j] : offsets[j + 1]] = _contract(box[i], probs, (i, j))
    return jac


def _solve_newton(box: list[np.ndarray], start: np.ndarray) -> list[np.ndarray] | None:
    offsets = [0, *itertools.accumulate(b.shape[i] for i, b in enumerate(box))]
    u = start.copy()
    res, probs = _newton_residual(box, u, offsets)
    norm = float(np.abs(res).max())
    for iteration in range(_NEWTON_MAX_ITER):
        if norm <= _NEWTON_TARGET:
            break
        if iteration >= _NEWTON_CRAWL_ITER and norm > _NEWTON_CRAWL_NORM:
            return None  # crawling without converging: no root in this basin
        jac = _newton_jacobian(box, probs, offsets)
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            return None
        alpha = 1.0
        while alpha >= 1e-4:
            trial = u + alpha * step
            t_res, t_probs = _newton_residual(box, trial, offsets)
            t_norm = float(np.abs(t_res).max())
            if t_norm < norm:
                u, res, probs, norm = trial, t_res, t_probs, t_norm
                break
            alpha *= 0.5
        else:
            break  # stalled: damping cannot reduce the residual
    return probs


def _newton_starts(support: SupportProfile, n_values: int) -> list[np.ndarray]:
    """Uniform-on-support start plus a few deterministic perturbed restarts,
    one fixed-seed ``_simplex_draws`` call each."""
    sizes = [len(s) for s in support.supports]
    rng = np.random.default_rng(0x5A7F)
    starts = [[np.full(s, 1.0 / s) for s in sizes]]
    starts += [_simplex_draws(rng, sizes) for _ in range(_NEWTON_EXTRA_STARTS)]
    return [np.concatenate(start + [np.zeros(n_values)]) for start in starts]


def solve_on_support(
    game: Game, support: SupportProfile, config: SolverConfig | None = None
) -> StrategyProfile | None:
    """Find an equilibrium whose supports are contained in ``support``, or
    None when the indifference system has no acceptable solution there.

    The system's solution is clamped onto the simplex (negative entries to
    zero, then renormalized), so the profile may sit on a face of
    ``support``.  It is acceptable when every player's deviation gap, from
    the gap kernel, is within the dominance-pruning margin
    (``_RESIDUAL_TOLERANCE`` plus ``config.tolerance``); the returned
    profile keeps those gaps in its memo for ``game``.  Singular or crawling
    solves count as "no equilibrium on this support"; they never raise.
    """
    _check_instance("game", game, Game)
    config = _check_instance("config", config, SolverConfig, _DEFAULT_CONFIG)
    _check_instance("support", support, SupportProfile).validate_for(game)
    n = game.num_players
    margin = _RESIDUAL_TOLERANCE + config.tolerance
    box = _support_blocks(game, support, margin)
    if box is None:
        return None
    if n == 1:
        # nothing to solve: the candidate is uniform on the support
        raws = [[np.full(len(s), 1.0 / len(s)) for s in support.supports]]
    elif n == 2:
        raws = [_solve_two_player(box)]
    else:
        raws = (_solve_newton(box, start) for start in _newton_starts(support, n))
    for raw in raws:
        profile = None if raw is None else _assemble_candidate(game, support, raw, margin)
        if profile is not None:
            return profile
    return None


def enumerate_supports(game: Game):
    """An iterator over every support profile, each once: in increasing
    total size, then lexicographically by the players' support sizes, then
    by each player's action subset.  The game is checked at the call."""
    _check_instance("game", game, Game)
    return _supports_from(game, game.num_players)


def _supports_from(game: Game, smallest_total: int):
    """``enumerate_supports`` from total support size ``smallest_total`` on."""
    counts = game.action_counts
    for total in range(smallest_total, sum(counts) + 1):
        for sizes in itertools.product(*(range(1, c + 1) for c in counts)):
            if sum(sizes) != total:
                continue
            pools = [
                itertools.combinations(range(count), size)
                for count, size in zip(counts, sizes)
            ]
            for subsets in itertools.product(*pools):
                yield SupportProfile(subsets)


def _pure_candidate(game: Game, config: SolverConfig) -> StrategyProfile | None:
    """What the singleton supports contribute to ``find_nash``, from one
    table of shortfalls over the action grid instead of one
    ``solve_on_support`` per profile.

    At a pure profile the opponents' joint distribution is a single 1 among
    zeros, so the gap kernel's matrix-vector product, in whatever order BLAS
    sums it, returns the payoffs it picks exactly, and its gaps are the
    shortfalls, best reply minus own payoff, bit for bit.  The singleton
    loop keeps a profile whose largest shortfall is within the margin, and
    ``find_nash`` accepts it when that shortfall is within ``tolerance``.
    So this returns the first profile in C order (the order
    ``enumerate_supports`` yields singletons) whose largest shortfall is
    within ``tolerance``; failing that, the first profile of least
    shortfall, the best candidate the singleton loop would have kept, if
    that shortfall is within the margin; failing that, None.

    The profile is made of the shared vertices (``games._vertex``), and its
    gap memo is seeded from the shortfalls.
    """
    tol = config.tolerance
    shape = game.action_counts
    # player i's best reply values keep i's axis, with length 1
    shortfalls = [p.max(axis=i, keepdims=True) - p for i, p in enumerate(game._tensors)]
    gap = reduce(np.maximum, shortfalls)
    flat = int(np.argmax(gap <= tol))  # 0 when no profile is within tolerance
    if gap.flat[flat] > tol:
        flat = int(np.argmin(gap))
        if gap.flat[flat] > _RESIDUAL_TOLERANCE + tol:
            return None
    index = np.unravel_index(flat, shape)
    profile = StrategyProfile(tuple(_vertex(c, int(a)) for c, a in zip(shape, index)))
    # the kernel's clamp, which also turns a -0.0 shortfall into 0.0
    gaps = [float(s[index]) for s in shortfalls]
    _seed_gaps(game, profile, [g if g > 0.0 else 0.0 for g in gaps])
    return profile


def find_nash(game: Game, config: SolverConfig | None = None) -> StrategyProfile:
    """First verified equilibrium in the deterministic support order.

    Pure profiles come first, screened from one table of shortfalls over
    the action grid (``_pure_candidate``) rather than one singleton support
    at a time; the support enumeration then starts at total support size
    n + 1.  Every candidate, pure or mixed, is accepted only once its
    ``satisfaction_report`` at ``config.tolerance`` has no unsatisfied
    player.  That report reads the gaps the candidate's own check computed
    (``solve_on_support``) or the screen seeded, memoized on the profile,
    so each candidate's gaps are computed once; the report stays memoized
    beside them.

    The result is a pure function of the immutable game and the config, so
    it is memoized on the ``Game`` instance per (equal) ``SolverConfig``: a
    repeated call returns the same profile object without solving again.
    A new ``Game`` starts with an empty memo, even when it equals a solved one.

    Raises SolverIncompleteError if every support is exhausted without a
    verified profile, carrying the best (minimum max-gap) candidate seen;
    failures are not memoized, so every such call solves again and raises.
    """
    _check_instance("game", game, Game)
    config = _check_instance("config", config, SolverConfig, _DEFAULT_CONFIG)
    memo = game._equilibria
    solved = memo.get(config)  # one hash of the config, not two
    if solved is not None:
        return solved
    best: StrategyProfile | None = None
    best_gap = float("inf")
    candidates = itertools.chain(
        [_pure_candidate(game, config)],
        (
            solve_on_support(game, support, config)
            for support in _supports_from(game, game.num_players + 1)
        ),
    )
    for profile in candidates:
        if profile is None:
            continue
        report = satisfaction_report(game, profile, config.tolerance)
        if not report.unsatisfied:
            memo[config] = profile
            return profile
        if report.max_gap < best_gap:
            best, best_gap = profile, report.max_gap
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
    _check_instance("game", game, Game)
    config = _check_instance("config", config, SolverConfig, _DEFAULT_CONFIG)
    n = game.num_players
    for i, strategy in _check_instance("frozen", frozen, dict).items():
        _check_int("frozen player index", i, 0, n - 1)
        _check_instance(f"frozen strategy for player {i}", strategy, MixedStrategy)
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
            _contract(game._tensors[f], probs, free).reshape(-1) for f in free
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
