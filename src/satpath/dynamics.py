"""Win-stay, lose-shift dynamics over strategy profiles.

Each step keeps every satisfied player's strategy bitwise and resamples
the unsatisfied players according to an exploration policy.  Every
trajectory this produces is a satisficing path by construction, and
epsilon-Nash profiles are fixed points.

Trials step in lock-step through one loop over a (trials x total actions)
array of profiles: each step evaluates every active trial's gaps with one
batched contraction per player, then every unsatisfied player of every
active trial redraws from that trial's own generator, in ascending player
order, and a trial that hits an epsilon-Nash profile drops out.
``run_dynamics`` is that loop on one trial, so every ``batch_experiment``
row equals a replay of its trials through ``run_dynamics``.

The default satisfaction tolerance here is looser (1e-6) than the path
constructor's internal one: continuous resampling never lands exactly on
a mixed equilibrium, so a strict tolerance would make mixed rest points
unreachable.  It is a knob, not a claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GameInputError
from .games import (
    PROB_SUM_TOL,
    Game,
    MixedStrategy,
    SatisfactionReport,
    StrategyProfile,
    _batch_gaps,
    _check_count,
    _check_epsilon,
    _check_profile,
    _readonly,
    _report,
    satisfaction_report,
)

EXPLORER_KINDS = ("dirichlet_uniform", "pure_uniform", "mixture_with_current")

#: Default satisfaction tolerance for the dynamics.
DYNAMICS_EPSILON = 1e-6

_SEED_MASK = 0xFFFFFFFFFFFFFFFF

#: Trace kind of every trajectory profile after the initial one.
_STEP_KIND = "dynamics_step"

# Most trials one lock-step loop runs at once: each trial holds a generator
# (about 1 KB), so blocks keep batch_experiment's memory flat in the trial count.
_TRIAL_BLOCK = 1024


@dataclass(frozen=True)
class ExplorerPolicy:
    """How an unsatisfied player picks its next strategy.

    dirichlet_uniform      draw uniformly from the player's simplex
    pure_uniform           jump to a uniformly random vertex
    mixture_with_current   blend the current strategy with a Dirichlet draw
                           using ``mixture_weight`` on the draw
    """

    kind: str = "dirichlet_uniform"
    mixture_weight: float = 0.5

    def __post_init__(self):
        if self.kind not in EXPLORER_KINDS:
            raise GameInputError(
                f"unknown explorer kind {self.kind!r}; choose from {EXPLORER_KINDS}"
            )
        if not 0.0 <= self.mixture_weight <= 1.0:
            raise GameInputError(
                f"mixture_weight must lie in [0, 1], got {self.mixture_weight!r}"
            )


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A simulated profile sequence with per-step satisfaction reports.

    ``hit_step`` is the 1-based index of the first epsilon-Nash profile, or
    None if the run stopped at the step cap without absorbing.
    """

    profiles: tuple[StrategyProfile, ...]
    reports: tuple[SatisfactionReport, ...]
    hit_step: int | None
    seed: int

    def __post_init__(self):
        if not self.profiles:
            raise GameInputError("a trajectory must contain at least one profile")
        if len(self.profiles) != len(self.reports):
            raise GameInputError("trajectory profiles and reports differ in length")
        if self.hit_step is not None:
            if not 1 <= self.hit_step <= len(self.profiles):
                raise GameInputError(f"hit_step {self.hit_step} out of range")
            report = self.reports[self.hit_step - 1]
            if report.max_gap > report.epsilon:
                raise GameInputError("hit_step does not index an epsilon-Nash profile")

    def __len__(self) -> int:
        return len(self.profiles)


def _check_explorer(explorer) -> ExplorerPolicy:
    if explorer is None:
        return ExplorerPolicy()
    if not isinstance(explorer, ExplorerPolicy):
        raise GameInputError(f"explorer must be an ExplorerPolicy, got {explorer!r}")
    return explorer


def _segments(game: Game) -> list[slice]:
    """Each player's columns in a row holding one profile."""
    ends = np.cumsum(game.action_counts).tolist()
    return [slice(end - c, end) for c, end in zip(game.action_counts, ends)]


def _check_rows(rows: np.ndarray, segments: list[slice]) -> None:
    """MixedStrategy's checks on every player's segment of every row: a NaN
    fails the ``min``, an infinity the sum test."""
    sums = np.add.reduceat(rows, [seg.start for seg in segments], axis=1)
    off = np.abs(sums - 1.0).max()
    if not (rows.min() >= 0.0 and off <= PROB_SUM_TOL):
        raise GameInputError(
            "drawn strategy is not a probability vector (a negative or non-finite "
            f"entry, or a sum off 1 by {off!r})"
        )


def _redraw(
    row: np.ndarray,
    players,
    segments: list[slice],
    explorer: ExplorerPolicy,
    rng: np.random.Generator,
) -> None:
    """Resample ``players`` of the profile in ``row`` in place from ``rng``.

    Players draw in the order given (ascending), one generator call each, so
    the draw order fixes every stream: ``pure_uniform`` jumps to vertex
    ``rng.integers(c)``, the others draw ``rng.dirichlet(ones(c))``, which
    ``mixture_with_current`` blends into the current strategy.
    """
    for i in players:
        seg = segments[i]
        count = seg.stop - seg.start
        if explorer.kind == "pure_uniform":
            row[seg] = 0.0
            row[seg.start + int(rng.integers(count))] = 1.0
            continue
        sample = rng.dirichlet(np.ones(count))
        if explorer.kind == "dirichlet_uniform":
            row[seg] = sample
        else:
            w = explorer.mixture_weight
            row[seg] = (1.0 - w) * row[seg] + w * sample


def _rebuilt(
    profile: StrategyProfile, row: np.ndarray, players, segments: list[slice]
) -> StrategyProfile:
    """``profile`` with ``players``' strategies read from ``row``, which has
    passed ``_check_rows``; every other player keeps its strategy object."""
    strategies = list(profile.strategies)
    for i in players:
        strategies[i] = MixedStrategy._prechecked(row[segments[i]])
    return StrategyProfile(tuple(strategies))


def _lockstep(
    game: Game,
    rows: np.ndarray,
    rngs: list[np.random.Generator],
    epsilon: float,
    explorer: ExplorerPolicy,
    max_steps: int,
    record=None,
) -> list[int | None]:
    """Run trial t from profile ``rows[t]`` with generator ``rngs[t]`` until
    it hits an epsilon-Nash profile or has ``max_steps`` profiles; returns
    each trial's hit step, or None.  ``rows`` (trials x total actions) is
    overwritten.  ``record(rows, gaps)``, if given, sees every step's active
    rows and their gaps before any trial drops out."""
    segments = _segments(game)
    hits: list[int | None] = [None] * len(rngs)
    live = list(range(len(rngs)))  # the trial behind each row of ``rows``
    for step in range(1, max_steps + 1):
        gaps = _batch_gaps(game, [rows[:, seg] for seg in segments])
        if record is not None:
            record(rows, gaps)
        unsatisfied = gaps > epsilon
        going = unsatisfied.any(axis=1)
        if not going.all():
            for r in np.flatnonzero(~going).tolist():
                hits[live[r]] = step
            rows, unsatisfied = rows[going], unsatisfied[going]
            live = [t for t, keep in zip(live, going.tolist()) if keep]
            if not live:
                break
        if step == max_steps:
            break
        for r, flags in enumerate(unsatisfied.tolist()):
            players = [i for i, flag in enumerate(flags) if flag]
            _redraw(rows[r], players, segments, explorer, rngs[live[r]])
        _check_rows(rows, segments)
    return hits


def satisficing_step(
    game: Game,
    profile: StrategyProfile,
    epsilon: float,
    explorer: ExplorerPolicy,
    rng: np.random.Generator,
) -> StrategyProfile:
    """One win-stay lose-shift update: satisfied players keep their strategies
    bitwise; unsatisfied players resample per the explorer (in ascending
    player order, which fixes the generator draw order)."""
    _check_profile(game, profile)
    explorer = _check_explorer(explorer)
    report = satisfaction_report(game, profile, epsilon)
    if not report.unsatisfied:
        return profile
    segments = _segments(game)
    row = np.concatenate([s.probs for s in profile.strategies])
    players = sorted(report.unsatisfied)
    _redraw(row, players, segments, explorer, rng)
    _check_rows(row[None, :], segments)
    return _rebuilt(profile, row, players, segments)


def run_dynamics(
    game: Game,
    x1: StrategyProfile,
    epsilon: float = DYNAMICS_EPSILON,
    max_steps: int = 1000,
    explorer: ExplorerPolicy | None = None,
    seed: int = 0,
) -> Trajectory:
    """Iterate satisficing steps from ``x1``, stopping at the first
    epsilon-Nash profile or once ``max_steps`` profiles have been emitted."""
    _check_profile(game, x1)
    epsilon = _check_epsilon(epsilon)
    max_steps = _check_count("max_steps", max_steps)
    explorer = _check_explorer(explorer)
    seed = int(seed) & _SEED_MASK
    segments = _segments(game)
    profiles: list[StrategyProfile] = []
    reports: list[SatisfactionReport] = []

    def record(rows, gaps):
        if profiles:
            redrawn = sorted(reports[-1].unsatisfied)
            profiles.append(_rebuilt(profiles[-1], rows[0], redrawn, segments))
        else:
            profiles.append(x1)
        reports.append(_report(_readonly(gaps[0]), epsilon))

    rows = np.concatenate([s.probs for s in x1.strategies])[None, :]
    (hit,) = _lockstep(
        game, rows, [np.random.default_rng(seed)], epsilon, explorer, max_steps, record
    )
    return Trajectory(profiles=tuple(profiles), reports=tuple(reports), hit_step=hit, seed=seed)


def batch_experiment(
    games,
    trials_per_game: int,
    epsilon: float = DYNAMICS_EPSILON,
    explorer: ExplorerPolicy | None = None,
    max_steps: int = 1000,
    master_seed: int = 0,
) -> list[dict]:
    """Run seeded independent trials of the dynamics on each game and
    aggregate hitting statistics.

    Trial t of game g derives its randomness from
    SeedSequence([master_seed, g, t]), so results depend only on the
    arguments; each trial draws its own initial profile uniformly from the
    product of simplices.  A game's trials step in lock-step, up to
    ``_TRIAL_BLOCK`` at a time, and each row equals a per-trial replay:
    ``run_dynamics`` from that initial profile, seeded from the second child
    of the trial's SeedSequence.  Returns one row per game with the hit
    frequency and the mean/median hitting time among hits.
    """
    epsilon = _check_epsilon(epsilon)
    trials = _check_count("trials_per_game", trials_per_game)
    max_steps = _check_count("max_steps", max_steps)
    explorer = _check_explorer(explorer)
    games = list(games)
    for g, game in enumerate(games):
        if not isinstance(game, Game):
            raise GameInputError(f"games[{g}] is not a Game")
    master = int(master_seed) & _SEED_MASK
    out: list[dict] = []
    for g, game in enumerate(games):
        hit_steps: list[int] = []
        for first in range(0, trials, _TRIAL_BLOCK):
            block = range(first, min(first + _TRIAL_BLOCK, trials))
            starts = np.empty((len(block), sum(game.action_counts)))
            rngs = []
            for r, t in enumerate(block):
                init_ss, run_ss = np.random.SeedSequence([master, g, t]).spawn(2)
                init = np.random.default_rng(init_ss)
                # random_profile's draws, without building the profile
                starts[r] = np.concatenate([init.dirichlet(np.ones(c)) for c in game.action_counts])
                rngs.append(np.random.default_rng(int(run_ss.generate_state(1, np.uint64)[0])))
            _check_rows(starts, _segments(game))
            hits = _lockstep(game, starts, rngs, epsilon, explorer, max_steps)
            hit_steps += [h for h in hits if h is not None]
        out.append(
            {
                "game": game.name or f"game-{g}",
                "game_index": g,
                "trials": trials,
                "hits": len(hit_steps),
                "hit_frequency": len(hit_steps) / trials,
                "mean_hit_step": float(np.mean(hit_steps)) if hit_steps else None,
                "median_hit_step": float(np.median(hit_steps)) if hit_steps else None,
            }
        )
    return out
