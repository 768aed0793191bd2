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

One player's pure-action payoffs are one BLAS matrix-vector product
(``_pure_payoffs``): the game keeps each player's payoffs as a contiguous
(c_i, m) matrix, own action by the opponents' joint actions
(``Game._gap_plan``), and multiplies it by the opponents' joint
distribution q, whose m entries are products of their probabilities built
in ascending player order.  ``_batch_gaps`` builds the same products for a
batch of profiles and runs the same product per row, so its rows equal
single-profile gaps bitwise.  Gaps may differ from earlier versions of the
package, which used ``np.einsum``, in the last place.

Games, strategies and profiles are immutable: every array they hold is a
read-only copy of what the caller passed, so nothing the caller keeps can
change them.  Two memos rely on that.  A profile's gap vector is a pure
function of the (game, profile) pair, so ``_profile_gaps`` computes it once
per pair and keeps it on the profile, where every whole-profile gap read
(``satisfaction_report``, ``deviation_gap``, ``is_eps_best_response``,
``solver.verify_nash``, ``solver.find_nash``) finds it; and ``find_nash``
keeps its equilibria on the game.  The same memo entry keeps the last
``SatisfactionReport`` built from those gaps, so asking again at the same
epsilon returns that report.  A report takes only the gaps and epsilon,
sharing the memo's read-only array, and derives from one ``gaps.tolist()``
the split by ``gap <= epsilon`` and ``max_gap``, the largest entry, not a
numpy reduction.  A profile built from gaps already
in hand starts with its memo filled (``_seed_gaps``): the Worse search keeps
the gaps it computed to accept a candidate, so the Worse step's report and
its verification compute none, and ``find_nash``'s pure screen seeds its
equilibrium's gaps from its table of shortfalls.

Immutability also lets one strategy object serve many profiles.  Each point
mass is built once per process (``_vertex``, which ``MixedStrategy.pure``
returns), and the Worse search's uniform blends of each vertex are built
and validated once too (``paths._vertex_and_blends``): pure starts, the
screen's equilibria and every search share them.  A game keeps its largest
payoff magnitudes (``Game._payoff_bounds``), which bound the rounding the
Worse-emptiness certificate allows for.
"""

from __future__ import annotations

import math
import numbers
import string
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache, reduce
from math import prod
from operator import add

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


def _readonly_reals(name: str, values) -> np.ndarray:
    """``_readonly`` of a vector given from outside: a numpy array of
    integers or floats is taken whole, anything else is checked entry by
    entry (``_check_reals``), so a string or a bool is refused, not
    converted."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "fiu"):
        values = _check_reals(name, values)
    return _readonly(values)


@dataclass(frozen=True, eq=False)
class Game:
    """Immutable n-player game: action counts plus per-player payoff arrays."""

    action_counts: tuple[int, ...]
    payoffs: tuple[np.ndarray, ...]
    name: str | None = None

    def __post_init__(self):
        counts = tuple(_check_instance("action_counts", self.action_counts, Iterable))
        _check_int("number of players", len(counts), 1, MAX_PLAYERS)
        counts = tuple(
            _check_int(f"player {i}'s action count", c, 1, MAX_ACTIONS)
            for i, c in enumerate(counts)
        )
        payoffs = tuple(_check_instance("payoffs", self.payoffs, Iterable))
        if len(payoffs) != len(counts):
            raise GameInputError(f"got {len(payoffs)} payoff arrays for {len(counts)} players")
        if self.name is not None:
            _check_instance("name", self.name, str)
        size = prod(counts)
        arrays = []
        for i, raw in enumerate(payoffs):
            arr = _readonly_reals(f"payoff array for player {i}", raw)
            if arr.ndim != 1 or arr.size != size:
                raise GameInputError(
                    f"payoff array for player {i} has size {arr.size}; expected {size}"
                )
            if not np.all(np.isfinite(arr)):
                raise GameInputError(f"payoff array for player {i} contains non-finite values")
            arrays.append(arr)
        object.__setattr__(self, "action_counts", counts)
        object.__setattr__(self, "payoffs", tuple(arrays))

    def __reduce__(self):
        # Copy and pickle through the constructor, so a copy holds read-only
        # arrays (a pickled array comes back writable) and starts with empty
        # memos.
        return (Game, (self.action_counts, self.payoffs, self.name))

    @property
    def num_players(self) -> int:
        return len(self.action_counts)

    @cached_property
    def _tensors(self) -> tuple[np.ndarray, ...]:
        return tuple(arr.reshape(self.action_counts) for arr in self.payoffs)

    @cached_property
    def _gap_plan(self) -> tuple[tuple[np.ndarray, tuple[int, ...]], ...]:
        """Per player: the payoff tensor as a read-only C-contiguous (c_i, m)
        matrix, the player's own axis first and the opponents' axes after it
        in ascending order, and those opponents."""
        return tuple(
            (_readonly(t.transpose(i, *others)).reshape(t.shape[i], -1), others)
            for i, t in enumerate(self._tensors)
            for others in [tuple(j for j in range(self.num_players) if j != i)]
        )

    @cached_property
    def _payoff_bounds(self) -> tuple[float, ...]:
        """Per player: the largest payoff magnitude, which bounds rounding."""
        return tuple(float(np.abs(arr).max()) for arr in self.payoffs)

    @cached_property
    def _equilibria(self) -> dict:
        """``solver.find_nash`` results of this game, keyed by SolverConfig."""
        return {}

    def payoff_tensor(self, player: int) -> np.ndarray:
        """Player's payoffs reshaped to the joint action space (read-only view)."""
        return self._tensors[_check_int("player", player, 0, self.num_players - 1)]

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
        arr = _readonly_reals("a mixed strategy", self.probs)
        if arr.ndim != 1 or arr.size < 1:
            raise GameInputError("a mixed strategy must be a nonempty vector")
        # Two reductions accept every valid vector: a NaN or a negative entry
        # fails the minimum, and an infinity then makes the sum infinite.
        # Summing only nonnegative entries never meets inf - inf.
        if not (arr.min() >= 0.0 and abs(float(arr.sum()) - 1.0) <= PROB_SUM_TOL):
            raise GameInputError(_strategy_fault(arr))
        object.__setattr__(self, "probs", arr)

    @classmethod
    def _prechecked(cls, probs: np.ndarray) -> "MixedStrategy":
        """A strategy over ``probs``, which the caller has already put through
        these checks (the dynamics check every drawn row at once) or built as
        a point mass."""
        strategy = object.__new__(cls)
        object.__setattr__(strategy, "probs", _readonly(probs))
        return strategy

    @classmethod
    def pure(cls, num_actions: int, action: int) -> "MixedStrategy":
        """The point mass on ``action``, built once per process (``_vertex``)."""
        # Check before the lookup: True == 1, so a bool would find the cached
        # vertex of action 1, and a size past MAX_ACTIONS would hold a vertex
        # no game can play in the cache.
        num_actions = _check_int("num_actions", num_actions, 1, MAX_ACTIONS)
        return _vertex(num_actions, _check_int("action", action, 0, num_actions - 1))

    @classmethod
    def uniform(cls, num_actions: int) -> "MixedStrategy":
        num_actions = _check_int("num_actions", num_actions, 1, MAX_ACTIONS)
        return cls(np.full(num_actions, 1.0 / num_actions))

    def __reduce__(self):
        # Rebuild through the constructor, which makes the array read-only
        # again; the memos rely on that.
        return (MixedStrategy, (self.probs,))

    @property
    def num_actions(self) -> int:
        return self.probs.size

    @property
    def support(self) -> tuple[int, ...]:
        """Actions played with strictly positive probability."""
        return tuple(int(a) for a in np.nonzero(self.probs)[0])

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if not isinstance(other, MixedStrategy):
            return NotImplemented
        return np.array_equal(self.probs, other.probs)

    def __repr__(self) -> str:
        return f"MixedStrategy({np.array2string(self.probs, precision=6)})"


@lru_cache(maxsize=64)
def _vertex(num_actions: int, action: int) -> MixedStrategy:
    """The point mass on ``action`` of ``num_actions``, two checked ints.
    Strategies are immutable, so one object per vertex serves every profile
    that plays it: pure starts, the pure equilibria ``find_nash`` screens
    and the Worse search's candidates.  A game's players have at most
    MAX_ACTIONS actions, so 21 vertices cover every game."""
    return MixedStrategy._prechecked(np.eye(num_actions)[action])


def _strategy_fault(arr: np.ndarray) -> str:
    """Why ``arr`` is not a probability vector: the first failing check of
    non-finite entries, negative entries and the sum."""
    if not np.all(np.isfinite(arr)):
        return "mixed strategy contains non-finite entries"
    if np.any(arr < 0.0):
        return f"mixed strategy has negative entries: {arr}"
    return f"mixed strategy sums to {float(arr.sum())!r}, not 1"


@dataclass(frozen=True, eq=False)
class StrategyProfile:
    """One mixed strategy per player."""

    # Slots, not an instance dict: every profile carries ``_action_counts``
    # and ``_gaps`` from construction, and a dict would cost memory on each.
    __slots__ = ("strategies", "_action_counts", "_gaps", "__weakref__")

    strategies: tuple[MixedStrategy, ...]

    def __post_init__(self):
        strategies = tuple(_check_instance("strategies", self.strategies, Iterable))
        if not strategies:
            raise GameInputError("a strategy profile must cover at least one player")
        for s in strategies:
            if not isinstance(s, MixedStrategy):
                raise GameInputError("profile entries must be MixedStrategy values")
        object.__setattr__(self, "strategies", strategies)
        # Each player's number of actions, which ``_check_profile`` compares
        # with the game's on every call.
        object.__setattr__(self, "_action_counts", tuple(s.num_actions for s in strategies))
        # ``_profile_gaps`` entries for this profile, keyed by ``id(game)``.
        object.__setattr__(self, "_gaps", {})

    @classmethod
    def pure(cls, game: Game, actions) -> "StrategyProfile":
        """The pure profile playing ``actions[i]`` for each player i."""
        _check_instance("game", game, Game)
        actions = tuple(_check_instance("actions", actions, Iterable))
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
        _check_instance("game", game, Game)
        return cls(tuple(MixedStrategy.uniform(c) for c in game.action_counts))

    def __reduce__(self):
        # Copy and pickle the strategies alone, rebuilding the profile with an
        # empty memo: the gap memo's keys are ids of games in this process,
        # which a copy does not share, and each entry holds a whole game.
        return (StrategyProfile, (self.strategies,))

    def __len__(self) -> int:
        return len(self.strategies)

    def __getitem__(self, player: int) -> MixedStrategy:
        return self.strategies[player]

    def replace(self, player: int, strategy: MixedStrategy) -> "StrategyProfile":
        """A new profile with one player's strategy swapped; others are shared."""
        parts = list(self.strategies)
        parts[_check_int("player", player, 0, len(parts) - 1)] = strategy
        return StrategyProfile(tuple(parts))

    def __eq__(self, other) -> bool:
        if not isinstance(other, StrategyProfile):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self.strategies, other.strategies)
        )

    def __repr__(self) -> str:
        return f"StrategyProfile({', '.join(repr(s) for s in self.strategies)})"


@dataclass(frozen=True, eq=False, slots=True)
class SatisfactionReport:
    """Per-player deviation gaps at a profile and the split they induce: a
    player is satisfied when its gap is at most ``epsilon``, which is
    checked as every entry point's epsilon is (``_check_real``).  The split
    and ``max_gap``, the largest gap, are derived with the report (and anew
    by ``dataclasses.replace``).  ``gaps`` shares a read-only float array that
    owns its data, such as the gap memo's, and copies anything else, which
    must be a nonempty vector of finite, nonnegative reals.  Profiles keep
    their last report (``satisfaction_report``), hence the slots."""

    gaps: np.ndarray
    epsilon: float
    satisfied: frozenset[int] = field(init=False)
    unsatisfied: frozenset[int] = field(init=False)
    max_gap: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "epsilon", _check_real("epsilon", self.epsilon))
        gaps = self.gaps
        floats = isinstance(gaps, np.ndarray) and gaps.dtype == np.float64
        if not (floats and gaps.flags.owndata and not gaps.flags.writeable):
            gaps = _readonly_reals("gaps", gaps)
            # a NaN fails the min, an infinity the max
            if gaps.ndim != 1 or not gaps.size or not (gaps.min() >= 0.0 and gaps.max() < np.inf):
                raise GameInputError(
                    "gaps must be a nonempty vector of finite nonnegative reals, "
                    f"got {self.gaps!r}"
                )
            object.__setattr__(self, "gaps", gaps)
        values = self.gaps.tolist()
        satisfied, unsatisfied = _split(tuple(gap <= self.epsilon for gap in values))
        object.__setattr__(self, "satisfied", satisfied)
        object.__setattr__(self, "unsatisfied", unsatisfied)
        # kernel gaps are clamped to +0.0 and never NaN, so this is numpy's max
        object.__setattr__(self, "max_gap", max(values))

    def __repr__(self) -> str:
        return (
            f"SatisfactionReport(satisfied={sorted(self.satisfied)}, "
            f"unsatisfied={sorted(self.unsatisfied)}, max_gap={self.max_gap:.3g})"
        )


def random_profile(game: Game, rng: np.random.Generator) -> StrategyProfile:
    """A profile with each player's strategy drawn Dirichlet(1, ..., 1),
    i.e. uniform on its simplex, by one ``_simplex_draws`` call."""
    _check_instance("game", game, Game)
    _check_instance("rng", rng, np.random.Generator)
    return StrategyProfile(tuple(map(MixedStrategy, _simplex_draws(rng, game.action_counts))))


def _simplex_draws(rng: np.random.Generator, counts, rows: int | None = None) -> list[np.ndarray]:
    """A uniform draw on the simplex of each of ``counts`` actions from one
    generator call, bitwise what ``Generator.dirichlet`` with all-ones
    alphas returns for each count in turn, leaving ``rng`` in the same
    state: that draws exponentials, sums each vector left to right (unlike
    ``ndarray.sum`` from 8 entries on) and scales by the reciprocal.

    With ``rows``, each entry is a (rows, count) array whose row r is the
    draw of the r-th of ``rows`` successive calls without it, bitwise, and
    ``rng`` ends where those calls leave it: numpy draws each exponential
    on its own, so one call for all of them draws the same stream, and
    ``np.add.accumulate`` adds each row's entries one at a time, so each row
    sums left to right too."""
    total = sum(counts)
    values = rng.standard_exponential(total if rows is None else (rows, total))
    draws, start = [], 0
    for count in counts:
        draw = values[..., start : start + count]
        if rows is None:
            draw *= 1.0 / reduce(add, draw.tolist())
        else:
            draw *= 1.0 / np.add.accumulate(draw, axis=1)[:, -1:]
        draws.append(draw)
        start += count
    return draws


def _check_profile(game: Game, profile: StrategyProfile) -> None:
    _check_instance("game", game, Game)
    if not isinstance(profile, StrategyProfile):
        raise GameInputError("expected a StrategyProfile")
    if profile._action_counts == game.action_counts:
        return
    if len(profile) != game.num_players:
        raise GameInputError(
            f"profile covers {len(profile)} players; game has {game.num_players}"
        )
    for i, (s, c) in enumerate(zip(profile.strategies, game.action_counts)):
        if s.num_actions != c:
            raise GameInputError(
                f"player {i} strategy has {s.num_actions} entries; game expects {c}"
            )


# The argument checks every public entry point uses; each raises
# GameInputError naming the argument.


def _check_int(name: str, value, low: int | None = None, high: int | None = None) -> int:
    """``value`` as an int: a Python or numpy integer, not a bool, of at least
    ``low`` and at most ``high`` where they are given.  An index into n items
    is an integer in 0..n - 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise GameInputError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if low is not None and value < low:
        raise GameInputError(f"{name} must be at least {low}, got {value}: out of range")
    if high is not None and value > high:
        raise GameInputError(
            f"{name} must be at most {high}, the maximum, got {value}: out of range"
        )
    return value


def _check_real(name: str, value, positive: bool = False, high: float | None = None) -> float:
    """``value`` as a float: a finite real, not a bool or a string, that is
    nonnegative (positive when ``positive``) and at most ``high`` if given."""
    real = math.nan
    if isinstance(value, float):  # numpy's float64 subclasses float
        real = float(value)
    elif isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            real = float(value)
        except OverflowError:  # an integer beyond the range of a float
            pass
    if not (
        math.isfinite(real)
        and (real > 0.0 if positive else real >= 0.0)
        and (high is None or real <= high)
    ):
        bound = "" if high is None else f" at most {high}"
        sign = "positive" if positive else "nonnegative"
        raise GameInputError(f"{name} must be a finite {sign} real{bound}, got {value!r}")
    return real


def _check_reals(name: str, values) -> list[float]:
    """``values`` as a list of floats: an iterable of ``numbers.Real``
    entries (a ``Fraction`` or an int beyond int64 too), none a bool or a
    string, each within the range of a float."""
    try:
        entries = list(_check_instance(name, values, Iterable))
        if all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in entries):
            return [float(v) for v in entries]
    except (TypeError, OverflowError):  # a 0-d array; an int beyond a float
        pass
    raise GameInputError(f"{name} must hold reals, got {values!r}")


def _check_seed(name: str, value) -> int:
    """A seed: any integer (not a bool), reduced to the 64 bits numpy's
    generators take; negative seeds wrap around."""
    return _check_int(name, value) % 2**64


def _check_instance(name: str, value, cls, default=None):
    """``value``, which must be a ``cls`` (a class or a tuple of classes); None
    stands for ``default`` when one is given.  Defaults are shared instances
    built once, at import."""
    if value is None and default is not None:
        return default
    if not isinstance(value, cls):
        kinds = " or ".join(c.__name__ for c in cls) if isinstance(cls, tuple) else cls.__name__
        raise GameInputError(f"{name} must be of type {kinds}, got {value!r}")
    return value


@cache
def _subscripts(ndim: int, keep: tuple[int, ...]) -> str:
    axes = string.ascii_lowercase[:ndim]
    averaged = [axes[j] for j in range(ndim) if j not in keep]
    return ",".join([axes, *averaged]) + "->" + "".join(axes[j] for j in keep)


def _contract(tensor: np.ndarray, probs, keep: tuple[int, ...]) -> np.ndarray:
    """Average ``tensor`` over every axis not in ``keep``, weighting axis j by
    ``probs[j]``; the kept axes come out in the order ``keep`` lists them.

    Only ``probs[j]`` for averaged axes is read.  The solver, the Worse
    certificate and the subgame reduction average payoffs through here:
    keep=() is an expected reward, keep=(i,) the pure-action payoffs,
    keep=(i, j) a pairwise payoff matrix, and keeping the free players
    reduces a game to the subgame induced by frozen strategies.  Gaps go
    through ``_pure_payoffs`` instead.
    """
    averaged = [probs[j] for j in range(tensor.ndim) if j not in keep]
    return np.einsum(_subscripts(tensor.ndim, keep), tensor, *averaged)


def expected_reward(game: Game, profile: StrategyProfile, player: int) -> float:
    """Exact expected reward of ``player`` at ``profile``."""
    _check_profile(game, profile)
    player = _check_int("player", player, 0, game.num_players - 1)
    return float(_contract(game._tensors[player], [s.probs for s in profile.strategies], ()))


def pure_action_payoffs(game: Game, profile: StrategyProfile, player: int) -> np.ndarray:
    """Vector of ``player``'s expected rewards from each pure action, holding
    the other players at ``profile``.  Its maximum is the best-reply value,
    and for this vector w, ``max(w) - w @ x_i`` clamped at 0 is
    ``deviation_gap`` bit for bit."""
    _check_profile(game, profile)
    player = _check_int("player", player, 0, game.num_players - 1)
    return _pure_payoffs(game, [s.probs for s in profile.strategies], player)


def deviation_gap(game: Game, profile: StrategyProfile, player: int) -> float:
    """Best pure-action payoff minus current expected payoff, clamped at 0."""
    _check_profile(game, profile)
    player = _check_int("player", player, 0, game.num_players - 1)
    return float(_profile_gaps(game, profile)[player])


def _pure_payoffs(game: Game, probs: list[np.ndarray], player: int) -> np.ndarray:
    """``player``'s pure-action payoffs at the profile whose strategies are
    ``probs``: the game's plan matrix times the opponents' joint
    distribution q, in one BLAS matrix-vector product.  q is built by
    successive outer products in ascending player order, so each entry is
    ((x_a x_b) x_c) ... for opponents a < b < c; broadcasting forms each
    outer product with less overhead than ``np.multiply.outer``.
    ``flat.dot(q)`` makes the BLAS call ``np.matmul`` makes for each row of
    ``_batch_gaps``, with less overhead than ``flat @ q``."""
    flat, others = game._gap_plan[player]
    q = probs[others[0]] if others else np.ones(1)  # a one-player game has no opponents
    for j in others[1:]:
        q = (q[:, None] * probs[j]).ravel()
    return flat.dot(q)


def _deviation_gap_raw(game: Game, probs: list[np.ndarray], player: int) -> float:
    """``player``'s deviation gap at the profile whose strategies are
    ``probs``: the largest of the pure-action payoffs ``_pure_payoffs``
    gives, minus their dot product with ``probs[player]``, clamped at 0."""
    w = _pure_payoffs(game, probs, player)
    gap = max(w.tolist()) - float(w.dot(probs[player]))
    return gap if gap > 0.0 else 0.0


def _gap_entry(game: Game, profile: StrategyProfile) -> list:
    """``profile``'s memo entry for ``game`` (a pair the caller has checked):
    ``[game, gaps, report]``, where ``gaps`` is every player's deviation gap
    as a read-only array and ``report`` the last ``satisfaction_report``
    built from them (None before the first).

    The gaps are a pure function of the immutable pair, so they are computed
    once per game and kept on the profile: a profile that is freed takes
    them with it, and nothing is stored on the game.  The memo is keyed by
    ``id(game)`` and holds the game beside the gaps, so that id cannot be
    reused while the entry lives; an equal but distinct game computes anew.
    Copies and pickles of a profile leave the memo behind (``__reduce__``).
    """
    memo = profile._gaps
    entry = memo.get(id(game))
    if entry is None:
        probs = [s.probs for s in profile.strategies]
        gaps = _readonly([_deviation_gap_raw(game, probs, i) for i in range(game.num_players)])
        memo[id(game)] = entry = [game, gaps, None]
    return entry


def _profile_gaps(game: Game, profile: StrategyProfile) -> np.ndarray:
    """Every player's deviation gap at ``profile``, which the caller has
    checked against ``game``, as a read-only array (``_gap_entry``)."""
    return _gap_entry(game, profile)[1]


def _seed_gaps(game: Game, profile: StrategyProfile, gaps: list[float]) -> None:
    """Fill ``profile``'s memo entry for ``game`` with ``gaps``, every
    player's ``_deviation_gap_raw`` at ``profile``'s probabilities: the entry
    ``_gap_entry`` would have computed, bit for bit."""
    profile._gaps[id(game)] = [game, _readonly(gaps), None]


def _batch_gaps(game: Game, probs: list[np.ndarray]) -> np.ndarray:
    """Every player's deviation gap at each profile of a batch: ``probs[j]``
    is a (B, c_j) array of player j's strategies, and row b of the (B, n)
    result equals the gaps ``satisfaction_report`` gives at profile b
    bitwise.  Broadcasting builds each player's (B, m) array of opponents'
    joint distributions, row b holding the products ``_pure_payoffs`` forms
    at profile b, in the same association, and ``np.matmul`` runs that BLAS
    matrix-vector product once per row."""
    gaps = np.empty((len(probs[0]), game.num_players))
    for i, (flat, others) in enumerate(game._gap_plan):
        q = probs[others[0]] if others else np.ones((len(gaps), 1))
        for j in others[1:]:
            q = (q[:, :, None] * probs[j][:, None, :]).reshape(len(q), -1)
        w = np.matmul(flat, q[:, :, None])[:, :, 0]
        gaps[:, i] = w.max(axis=1) - (w[:, None, :] @ probs[i][:, :, None])[:, 0, 0]
    return np.where(gaps > 0.0, gaps, 0.0)


def satisfaction_report(
    game: Game, profile: StrategyProfile, epsilon: float = DEFAULT_EPSILON
) -> SatisfactionReport:
    """Deviation gaps for every player and the induced satisfied/unsatisfied sets.

    A player is satisfied when its gap is at most ``epsilon``; exact best
    responding corresponds to epsilon = 0, which floating point cannot
    certify, hence the tolerance.

    The report is kept in the profile's gap memo beside the gaps, so a
    repeated call at an equal epsilon returns the same report object; a
    call at another epsilon builds, and keeps, a report of its own.
    """
    _check_profile(game, profile)
    epsilon = _check_real("epsilon", epsilon)
    entry = _gap_entry(game, profile)
    if entry[2] is None or entry[2].epsilon != epsilon:
        entry[2] = SatisfactionReport(entry[1], epsilon)
    return entry[2]


@lru_cache(maxsize=1024)
def _split(flags: tuple[bool, ...]) -> tuple[frozenset[int], frozenset[int]]:
    """The satisfied and unsatisfied sets of the players whose ``flags`` say
    whether each is satisfied, built once per split and shared by the
    reports that profiles keep."""
    satisfied = frozenset(i for i, flag in enumerate(flags) if flag)
    return satisfied, frozenset(range(len(flags))).difference(satisfied)


def is_eps_best_response(
    game: Game, profile: StrategyProfile, player: int, epsilon: float
) -> bool:
    """Whether ``player``'s strategy is within ``epsilon`` of its best reply value."""
    report = satisfaction_report(game, profile, epsilon)
    return _check_int("player", player, 0, game.num_players - 1) in report.satisfied
