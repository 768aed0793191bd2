"""Finite normal-form games over mixed strategies.

A game holds one flat payoff array per player, indexed row-major over
action profiles (a_1, ..., a_n) with the LAST player's action varying
fastest; entry k of player i's array is that player's reward at
``np.unravel_index(k, action_counts)``.

Expected rewards are multilinear sums of products

    R_i(x) = sum_a r_i(a) * prod_j x_j(a_j),

computed by exact tensor contraction (no sampling).  The central derived
quantity is the deviation gap

    gap_i(x) = max_a R_i(delta_a, x_{-i}) - R_i(x_i, x_{-i}),

which is continuous, nonnegative, and zero exactly when player i best
responds, i.e. when x_i is supported on the argmax of the pure-action
payoff vector.

Games, strategies and profiles are immutable: every array they hold is a
read-only copy of what the caller passed, so nothing the caller keeps can
change them.  Two memos rely on that.  A profile's gap vector is a pure
function of the (game, profile) pair, so ``_profile_gaps`` computes it once
per pair and keeps it on the profile, where every whole-profile gap read
(``satisfaction_report``, ``deviation_gap``, ``is_eps_best_response``,
``solver.verify_nash``, ``solver.find_nash``) finds it; and ``find_nash``
keeps its equilibria on the game.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from functools import cache, cached_property
from math import prod

import numpy as np

from .errors import GameInputError

MAX_PLAYERS = 6
MAX_ACTIONS = 6

#: Tolerance on probability normalization for MixedStrategy.
PROB_SUM_TOL = 1e-12

#: Default satisfaction tolerance: well below unit payoff scale, well above
#: double-precision accumulation error at this problem size.
DEFAULT_EPSILON = 1e-9


def _readonly(values, dtype=np.float64) -> np.ndarray:
    """A read-only contiguous copy of ``values``: a copy even when ``values``
    is already such an array, whose owner could make it writable again."""
    arr = np.array(values, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Game:
    """Immutable n-player game: action counts plus per-player payoff arrays."""

    action_counts: tuple[int, ...]
    payoffs: tuple[np.ndarray, ...]
    name: str | None = None

    def __post_init__(self):
        counts = tuple(int(c) for c in self.action_counts)
        if len(counts) < 1:
            raise GameInputError("a game needs at least one player")
        if len(counts) > MAX_PLAYERS:
            raise GameInputError(
                f"{len(counts)} players exceeds the supported maximum of {MAX_PLAYERS}"
            )
        for i, c in enumerate(counts):
            if c < 1:
                raise GameInputError(f"player {i} has {c} actions; need at least 1")
            if c > MAX_ACTIONS:
                raise GameInputError(
                    f"player {i} has {c} actions; maximum supported is {MAX_ACTIONS}"
                )
        if len(self.payoffs) != len(counts):
            raise GameInputError(
                f"got {len(self.payoffs)} payoff arrays for {len(counts)} players"
            )
        size = prod(counts)
        arrays = []
        for i, raw in enumerate(self.payoffs):
            arr = _readonly(raw)
            if arr.ndim != 1 or arr.size != size:
                raise GameInputError(
                    f"payoff array for player {i} has size {arr.size}; expected {size}"
                )
            if not np.all(np.isfinite(arr)):
                raise GameInputError(f"payoff array for player {i} contains non-finite values")
            arrays.append(arr)
        object.__setattr__(self, "action_counts", counts)
        object.__setattr__(self, "payoffs", tuple(arrays))

    @property
    def num_players(self) -> int:
        return len(self.action_counts)

    @cached_property
    def _tensors(self) -> tuple[np.ndarray, ...]:
        return tuple(arr.reshape(self.action_counts) for arr in self.payoffs)

    @cached_property
    def _equilibria(self) -> dict:
        """``solver.find_nash`` results of this game, keyed by SolverConfig."""
        return {}

    def payoff_tensor(self, player: int) -> np.ndarray:
        """Player's payoffs reshaped to the joint action space (read-only view)."""
        _check_player(self, player)
        return self._tensors[player]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Game):
            return NotImplemented
        return (
            self.action_counts == other.action_counts
            and self.name == other.name
            and all(np.array_equal(a, b) for a, b in zip(self.payoffs, other.payoffs))
        )

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"Game{label}(players={self.num_players}, actions={self.action_counts})"


@dataclass(frozen=True, eq=False)
class MixedStrategy:
    """A point on one player's probability simplex."""

    probs: np.ndarray

    def __post_init__(self):
        arr = _readonly(self.probs)
        if arr.ndim != 1 or arr.size < 1:
            raise GameInputError("a mixed strategy must be a nonempty vector")
        if not np.all(np.isfinite(arr)):
            raise GameInputError("mixed strategy contains non-finite entries")
        if np.any(arr < 0.0):
            raise GameInputError(f"mixed strategy has negative entries: {arr}")
        total = float(arr.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise GameInputError(f"mixed strategy sums to {total!r}, not 1")
        object.__setattr__(self, "probs", arr)

    @classmethod
    def _prechecked(cls, probs: np.ndarray) -> "MixedStrategy":
        """A strategy over ``probs``, which the caller has already put through
        these checks (the dynamics check every drawn row at once)."""
        strategy = object.__new__(cls)
        object.__setattr__(strategy, "probs", _readonly(probs))
        return strategy

    @classmethod
    def pure(cls, num_actions: int, action: int) -> "MixedStrategy":
        """The point mass on ``action``."""
        if not 0 <= action < num_actions:
            raise GameInputError(f"action {action} out of range for {num_actions} actions")
        vec = np.zeros(num_actions)
        vec[action] = 1.0
        return cls(vec)

    @classmethod
    def uniform(cls, num_actions: int) -> "MixedStrategy":
        return cls(np.full(num_actions, 1.0 / num_actions))

    @property
    def num_actions(self) -> int:
        return self.probs.size

    @property
    def support(self) -> tuple[int, ...]:
        """Actions played with strictly positive probability."""
        return tuple(int(a) for a in np.nonzero(self.probs)[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, MixedStrategy):
            return NotImplemented
        return np.array_equal(self.probs, other.probs)

    def __repr__(self) -> str:
        return f"MixedStrategy({np.array2string(self.probs, precision=6)})"


@dataclass(frozen=True, eq=False)
class StrategyProfile:
    """One mixed strategy per player."""

    strategies: tuple[MixedStrategy, ...]

    def __post_init__(self):
        strategies = tuple(self.strategies)
        if not strategies:
            raise GameInputError("a strategy profile must cover at least one player")
        for s in strategies:
            if not isinstance(s, MixedStrategy):
                raise GameInputError("profile entries must be MixedStrategy values")
        object.__setattr__(self, "strategies", strategies)

    @classmethod
    def pure(cls, game: Game, actions) -> "StrategyProfile":
        """The pure profile playing ``actions[i]`` for each player i."""
        actions = tuple(actions)
        if len(actions) != game.num_players:
            raise GameInputError(
                f"got {len(actions)} actions for {game.num_players} players"
            )
        return cls(
            tuple(
                MixedStrategy.pure(c, a) for c, a in zip(game.action_counts, actions)
            )
        )

    @classmethod
    def uniform(cls, game: Game) -> "StrategyProfile":
        return cls(tuple(MixedStrategy.uniform(c) for c in game.action_counts))

    @cached_property
    def _gaps(self) -> dict:
        """``_profile_gaps`` results for this profile, keyed by ``id(game)``."""
        return {}

    def __getstate__(self) -> dict:
        # Copy and pickle the strategies alone: the gap memo's keys are ids of
        # games in this process, which a copy does not share, and each entry
        # holds a whole game.
        return {"strategies": self.strategies}

    def __len__(self) -> int:
        return len(self.strategies)

    def __getitem__(self, player: int) -> MixedStrategy:
        return self.strategies[player]

    def replace(self, player: int, strategy: MixedStrategy) -> "StrategyProfile":
        """A new profile with one player's strategy swapped; others are shared."""
        if not 0 <= player < len(self.strategies):
            raise GameInputError(f"player {player} out of range")
        parts = list(self.strategies)
        parts[player] = strategy
        return StrategyProfile(tuple(parts))

    def __eq__(self, other) -> bool:
        if not isinstance(other, StrategyProfile):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self.strategies, other.strategies)
        )

    def __repr__(self) -> str:
        return f"StrategyProfile({', '.join(repr(s) for s in self.strategies)})"


@dataclass(frozen=True, eq=False)
class SatisfactionReport:
    """Per-player deviation gaps and the satisfied/unsatisfied split at a profile."""

    gaps: np.ndarray
    satisfied: frozenset[int]
    unsatisfied: frozenset[int]
    epsilon: float

    @property
    def max_gap(self) -> float:
        return float(self.gaps.max())

    def __repr__(self) -> str:
        return (
            f"SatisfactionReport(satisfied={sorted(self.satisfied)}, "
            f"unsatisfied={sorted(self.unsatisfied)}, max_gap={self.max_gap:.3g})"
        )


def random_profile(game: Game, rng: np.random.Generator) -> StrategyProfile:
    """A profile with each player's strategy drawn Dirichlet(1, ..., 1),
    i.e. uniform on its simplex."""
    return StrategyProfile(
        tuple(MixedStrategy(rng.dirichlet(np.ones(c))) for c in game.action_counts)
    )


def _check_player(game: Game, player: int) -> None:
    if not isinstance(player, (int, np.integer)) or not 0 <= player < game.num_players:
        raise GameInputError(
            f"player index {player!r} out of range for {game.num_players} players"
        )


def _check_profile(game: Game, profile: StrategyProfile) -> None:
    if not isinstance(profile, StrategyProfile):
        raise GameInputError("expected a StrategyProfile")
    if len(profile) != game.num_players:
        raise GameInputError(
            f"profile covers {len(profile)} players; game has {game.num_players}"
        )
    for i, (s, c) in enumerate(zip(profile.strategies, game.action_counts)):
        if s.num_actions != c:
            raise GameInputError(
                f"player {i} strategy has {s.num_actions} entries; game expects {c}"
            )


def _check_epsilon(epsilon: float) -> float:
    epsilon = float(epsilon)
    if not epsilon >= 0.0 or not np.isfinite(epsilon):
        raise GameInputError(f"epsilon must be a finite nonnegative real, got {epsilon!r}")
    return epsilon


def _check_count(name: str, value) -> int:
    """``value`` as an int, which must be an integer (not a bool) of at least 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise GameInputError(f"{name} must be an integer of at least 1, got {value!r}")
    return int(value)


@cache
def _subscripts(ndim: int, keep: tuple[int, ...], batched: bool) -> str:
    axes = string.ascii_lowercase[:ndim]
    batch = "z" if batched else ""
    averaged = [batch + axes[j] for j in range(ndim) if j not in keep]
    return ",".join([axes, *averaged]) + "->" + batch + "".join(axes[j] for j in keep)


def _contract(tensor: np.ndarray, probs, keep: tuple[int, ...]) -> np.ndarray:
    """Average ``tensor`` over every axis not in ``keep``, weighting axis j by
    ``probs[j]``; the kept axes come out in the order ``keep`` lists them.

    Only ``probs[j]`` for averaged axes is read.  Every payoff average in the
    package goes through here: keep=() is an expected reward, keep=(i,) the
    pure-action payoffs, keep=(i, j) a pairwise payoff matrix, and keeping the
    free players reduces a game to the subgame induced by frozen strategies.

    The averaged ``probs[j]`` may instead all be (B, c_j) arrays, one row per
    profile of a batch; the result then gains a leading batch axis of size B.
    Unbatched calls keep their subscripts, so their results do not change.
    A batched row equals the unbatched call bitwise unless the unbatched
    result has a single entry (every kept axis of size 1, or none kept):
    einsum then groups that full reduction differently, and the two may
    differ in the last place.
    """
    averaged = [probs[j] for j in range(tensor.ndim) if j not in keep]
    batched = bool(averaged) and averaged[0].ndim == 2
    return np.einsum(_subscripts(tensor.ndim, keep, batched), tensor, *averaged)


def expected_reward(game: Game, profile: StrategyProfile, player: int) -> float:
    """Exact expected reward of ``player`` at ``profile``."""
    _check_profile(game, profile)
    _check_player(game, player)
    probs = [s.probs for s in profile.strategies]
    return float(_contract(game.payoff_tensor(player), probs, ()))


def pure_action_payoffs(game: Game, profile: StrategyProfile, player: int) -> np.ndarray:
    """Vector of ``player``'s expected rewards from each pure action, holding
    the other players at ``profile``.  Its maximum is the best-reply value."""
    _check_profile(game, profile)
    _check_player(game, player)
    probs = [s.probs for s in profile.strategies]
    return _contract(game.payoff_tensor(player), probs, (player,))


def deviation_gap(game: Game, profile: StrategyProfile, player: int) -> float:
    """Best pure-action payoff minus current expected payoff, clamped at 0."""
    _check_profile(game, profile)
    _check_player(game, player)
    return float(_profile_gaps(game, profile)[player])


def _deviation_gap_raw(game: Game, probs: list[np.ndarray], player: int) -> float:
    w = _contract(game.payoff_tensor(player), probs, (player,))
    gap = float(w.max()) - float(w @ probs[player])
    return gap if gap > 0.0 else 0.0


def _profile_gaps(game: Game, profile: StrategyProfile) -> np.ndarray:
    """Every player's deviation gap at ``profile``, which the caller has
    checked against ``game``, as a read-only array.

    The gaps are a pure function of the immutable pair, so they are computed
    once per game and kept on the profile: a profile that is freed takes
    them with it, and nothing is stored on the game.  The memo is keyed by
    ``id(game)`` and holds the game beside the gaps, so that id cannot be
    reused while the entry lives; an equal but distinct game computes anew.
    Copies and pickles of a profile leave the memo behind (``__getstate__``).
    """
    memo = profile._gaps
    entry = memo.get(id(game))
    if entry is None:
        probs = [s.probs for s in profile.strategies]
        gaps = _readonly([_deviation_gap_raw(game, probs, i) for i in range(game.num_players)])
        memo[id(game)] = entry = (game, gaps)
    return entry[1]


def _batch_gaps(game: Game, probs: list[np.ndarray]) -> np.ndarray:
    """Every player's deviation gap at each profile of a batch: ``probs[j]``
    is a (B, c_j) array of player j's strategies, and row b of the (B, n)
    result equals the gaps ``satisfaction_report`` gives at profile b bitwise
    (the batched matmul runs the same dot product as ``w @ probs[player]``)."""
    gaps = np.empty((len(probs[0]), game.num_players))
    for i, p in enumerate(probs):
        w = _contract(game._tensors[i], probs, (i,))
        if w.ndim == 1:  # a one-player game averages over no one
            w = np.broadcast_to(w, p.shape)
        gaps[:, i] = np.maximum.reduce(w, axis=1) - (w[:, None, :] @ p[:, :, None])[:, 0, 0]
    return np.where(gaps > 0.0, gaps, 0.0)


def _report(gaps: np.ndarray, epsilon: float) -> SatisfactionReport:
    """The report for one profile's read-only ``gaps``, which it keeps: a
    player is satisfied when its gap is at most ``epsilon``."""
    satisfied = frozenset(i for i, gap in enumerate(gaps.tolist()) if gap <= epsilon)
    unsatisfied = frozenset(range(gaps.size)) - satisfied
    return SatisfactionReport(gaps=gaps, satisfied=satisfied, unsatisfied=unsatisfied, epsilon=epsilon)


def satisfaction_report(
    game: Game, profile: StrategyProfile, epsilon: float = DEFAULT_EPSILON
) -> SatisfactionReport:
    """Deviation gaps for every player and the induced satisfied/unsatisfied sets.

    A player is satisfied when its gap is at most ``epsilon``; exact best
    responding corresponds to epsilon = 0, which floating point cannot
    certify, hence the tolerance.
    """
    _check_profile(game, profile)
    epsilon = _check_epsilon(epsilon)
    return _report(_profile_gaps(game, profile), epsilon)


def is_eps_best_response(
    game: Game, profile: StrategyProfile, player: int, epsilon: float
) -> bool:
    """Whether ``player``'s strategy is within ``epsilon`` of its best reply value."""
    epsilon = _check_epsilon(epsilon)
    return deviation_gap(game, profile, player) <= epsilon
