"""Win-stay, lose-shift dynamics over strategy profiles.

Each step keeps every satisfied player's strategy bitwise and resamples
the unsatisfied players according to an exploration policy.  Every
trajectory this produces is a satisficing path by construction, and
epsilon-Nash profiles are fixed points.

``run_dynamics`` iterates the single-profile step of ``satisficing_step``,
reading each profile's gaps from ``satisfaction_report``.
``batch_experiment`` runs a game's trials together through one loop,
``_blockstep``, over a (rows x total actions) array of profiles, reading
every row's gaps of a round from one ``_batch_gaps`` call, which runs per
row and player the BLAS matrix-vector product of the per-profile kernel;
each trial redraws from its own generator, and a trial that hits an
epsilon-Nash profile drops out.  Each trial advances by a block of
profiles a round: it draws its next k profiles as if its unsatisfied set
stayed put, keeps them up to the first whose set differs, and rolls its
generator back to redraw the kept steps when it keeps fewer than k.  A
Dirichlet explorer's blocks grow while its set lasts; a ``pure_uniform``
trial's stay at one profile, because its draw is a vertex, often a best
response, so its set changes too often for longer blocks to pay.

Every ``batch_experiment`` row equals a replay of its trials through
``run_dynamics`` because ``_batch_gaps`` rows equal ``satisfaction_report``
gaps bitwise, and both redraw through ``_redraw_steps``, the one-profile
step as a block of one row.  A block of k steps draws what k one-row
blocks would, bitwise: a Dirichlet explorer makes one ``_simplex_draws``
call for the block, which draws what k single calls would, and
``pure_uniform`` one generator call per step and unsatisfied player.  The
gaps agree because both kernels multiply each player's payoff matrix by
the same products of the opponents' probabilities, with the same BLAS
product; they may differ in the last place from earlier versions of the
package.

The default satisfaction tolerance here is looser (1e-6) than the path
constructor's internal one: continuous resampling never lands exactly on
a mixed equilibrium, so a strict tolerance would make mixed rest points
unreachable.  It is a knob, not a claim.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import GameInputError
from .games import (
    MAX_PLAYERS,
    PROB_SUM_TOL,
    Game,
    MixedStrategy,
    SatisfactionReport,
    StrategyProfile,
    _batch_gaps,
    _check_instance,
    _check_int,
    _check_profile,
    _check_real,
    _check_seed,
    _simplex_draws,
    satisfaction_report,
)

EXPLORER_KINDS = ("dirichlet_uniform", "pure_uniform", "mixture_with_current")

#: Default satisfaction tolerance for the dynamics.
DYNAMICS_EPSILON = 1e-6

#: Default cap on the profiles of one run (``run_dynamics``, ``batch_experiment``).
_DEFAULT_MAX_STEPS = 1000

#: Trace kind of every trajectory profile after the initial one.
_STEP_KIND = "dynamics_step"

# Most profile rows one round of batch_experiment holds, and so the most
# trials it runs at once (each holds a generator, about 1 KB): memory stays
# flat in the trial count and in the block length.
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
        weight = _check_real("mixture_weight", self.mixture_weight, high=1.0)
        object.__setattr__(self, "mixture_weight", weight)


#: The policy every dynamics entry point uses when given None.
_DEFAULT_EXPLORER = ExplorerPolicy()


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A simulated profile sequence with per-step satisfaction reports.

    ``hit_step``, derived from the reports, is the 1-based index of the
    first epsilon-Nash profile (a report with no unsatisfied player), or
    None if the run stopped at the step cap without absorbing.
    """

    profiles: tuple[StrategyProfile, ...]
    reports: tuple[SatisfactionReport, ...]
    seed: int
    hit_step: int | None = field(init=False)

    def __post_init__(self):
        if not self.profiles:
            raise GameInputError("a trajectory must contain at least one profile")
        if len(self.profiles) != len(self.reports):
            raise GameInputError("trajectory profiles and reports differ in length")
        hits = (t for t, report in enumerate(self.reports, 1) if not report.unsatisfied)
        object.__setattr__(self, "hit_step", next(hits, None))

    def __len__(self) -> int:
        return len(self.profiles)


def _trial_streams(master: int, game_index: int, trial: int) -> tuple[np.random.Generator, int]:
    """The generator that draws a trial's initial profile and the seed of its
    run, from the two children of SeedSequence([master, game_index, trial]),
    built as ``spawn(2)`` would build them (spawn keys 0 and 1)."""
    entropy = [master, game_index, trial]
    init_ss = np.random.SeedSequence(entropy, spawn_key=(0,))
    run_ss = np.random.SeedSequence(entropy, spawn_key=(1,))
    return np.random.default_rng(init_ss), int(run_ss.generate_state(1, np.uint64)[0])


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


def _redraw_steps(
    rows: np.ndarray,
    players,
    segments: list[slice],
    explorer: ExplorerPolicy,
    rng: np.random.Generator,
) -> None:
    """Fill ``rows``, k copies of a trial's profile, with its next k profiles
    if every step redraws ``players`` from ``rng``.  Rows draw in order and
    players in the order given (ascending), which fixes every stream:
    ``pure_uniform`` jumps each player of each row to vertex
    ``rng.integers(c)``; the other explorers draw all k rows by one
    ``_simplex_draws`` call (per-player Dirichlet draws, row after row,
    bitwise), which ``mixture_with_current`` blends into the strategy of the
    step before."""
    counts = [segments[i].stop - segments[i].start for i in players]
    # rows are taken by index: iterating an array ends by raising an IndexError
    if explorer.kind == "pure_uniform":
        for r in range(len(rows)):
            row = rows[r]
            for i, count in zip(players, counts):
                row[segments[i]] = 0.0
                row[segments[i].start + int(rng.integers(count))] = 1.0
        return
    w = explorer.mixture_weight
    for i, samples in zip(players, _simplex_draws(rng, counts, len(rows))):
        seg = segments[i]
        if explorer.kind == "dirichlet_uniform":
            rows[:, seg] = samples
            continue
        previous = rows[0, seg]
        for r in range(len(rows)):
            row = rows[r]
            row[seg] = previous = (1.0 - w) * previous + w * samples[r]


def _step(
    profile: StrategyProfile,
    report: SatisfactionReport,
    segments: list[slice],
    explorer: ExplorerPolicy,
    rng: np.random.Generator,
) -> StrategyProfile:
    """The profile after one update from ``profile``, whose report is
    ``report``: its unsatisfied players redraw from ``rng`` and every other
    player keeps its strategy object."""
    rows = np.concatenate([s.probs for s in profile.strategies])[None, :]
    players = sorted(report.unsatisfied)
    _redraw_steps(rows, players, segments, explorer, rng)
    _check_rows(rows, segments)
    strategies = list(profile.strategies)
    for i in players:
        strategies[i] = MixedStrategy._prechecked(rows[0, segments[i]])
    return StrategyProfile(tuple(strategies))


#: The players whose bits are set in each unsatisfied-set mask (bit i for
#: player i), in ascending order: the players a trial's next step redraws.
#: Mask m + 2**i holds the players of mask m < 2**i and then i.
_PLAYERS_OF: list[tuple[int, ...]] = [()]
for _i in range(MAX_PLAYERS):
    _PLAYERS_OF += [players + (_i,) for players in _PLAYERS_OF]
del _i


class _Trial:
    """A trial of ``_blockstep``: its generator, the unsatisfied set of its
    last kept profile as a mask (0 once it hits), the profiles it has
    emitted, its next block length and the generator state saved before its
    block."""

    __slots__ = ("rng", "mask", "done", "k", "state")

    def __init__(self, rng: np.random.Generator, mask: int):
        self.rng, self.mask, self.done, self.k, self.state = rng, mask, 1, 1, None


def _blockstep(
    game: Game,
    rows: np.ndarray,
    rngs: list[np.random.Generator],
    epsilon: float,
    explorer: ExplorerPolicy,
    max_steps: int,
) -> list[int]:
    """Run trial t from profile ``rows[t]`` with generator ``rngs[t]`` until
    it hits an epsilon-Nash profile or has ``max_steps`` profiles; returns
    the hit steps of the trials that hit, in trial order.  ``rows`` (trials
    x total actions) may be overwritten.

    Each round steps every live trial by a block of k profiles, drawn by one
    ``_redraw_steps`` call as if its unsatisfied set stayed put; every
    block of the round is checked, before any gap is computed, and
    evaluated together.  The trial keeps its rows up to the first whose
    unsatisfied set differs (or the block's end); if that leaves some
    unkept, its generator goes back to the state saved before the block and
    draws the kept steps again, so its stream goes on as a step-by-step
    run's would.  k doubles after a block that kept every row, unless the
    explorer is ``pure_uniform``, drops to 1 after a change, and a round
    holds at most ``_TRIAL_BLOCK`` rows.
    """
    segments = _segments(game)
    bits = 1 << np.arange(game.num_players)

    def masks(block: np.ndarray) -> list[int]:  # each row's unsatisfied set
        return (_batch_gaps(game, [block[:, seg] for seg in segments]) > epsilon).dot(bits).tolist()

    growth = 1 if explorer.kind == "pure_uniform" else 2
    trials = [_Trial(rng, mask) for rng, mask in zip(rngs, masks(rows))]
    live = [trial for trial in trials if trial.mask]
    rows = rows[[bool(trial.mask) for trial in trials]]
    while live and max_steps > 1:
        block = rows  # a round of one-row blocks draws into ``rows`` itself
        if growth > 1 and any(trial.k > 1 for trial in live):
            for trial in live:
                trial.k = min(trial.k, _TRIAL_BLOCK // len(live), max_steps - trial.done)
            block = np.repeat(rows, [trial.k for trial in live], axis=0)
        end = 0
        for trial in live:
            if trial.k > 1:
                trial.state = trial.rng.bit_generator.state
            players = _PLAYERS_OF[trial.mask]
            _redraw_steps(block[end : end + trial.k], players, segments, explorer, trial.rng)
            end += trial.k
        _check_rows(block, segments)
        new = masks(block)
        going, kept, end = [], [], 0  # the trials that go on and their last kept rows
        for r, trial in enumerate(live):
            start, end = end, end + trial.k
            last = start
            while last < end - 1 and new[last] == trial.mask:
                last += 1
            trial.done += last + 1 - start
            if new[last] == trial.mask:
                trial.k *= growth
            else:
                if last < end - 1 and new[last]:
                    trial.rng.bit_generator.state = trial.state
                    again = np.repeat(rows[r : r + 1], last + 1 - start, axis=0)
                    _redraw_steps(again, _PLAYERS_OF[trial.mask], segments, explorer, trial.rng)
                trial.k, trial.mask = 1, new[last]
            if trial.mask and trial.done < max_steps:
                going.append(trial)
                kept.append(last)
        live = going
        rows = block if len(kept) == len(block) else block[kept]
    return [trial.done for trial in trials if not trial.mask]


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
    explorer = _check_instance("explorer", explorer, ExplorerPolicy, _DEFAULT_EXPLORER)
    _check_instance("rng", rng, np.random.Generator)
    report = satisfaction_report(game, profile, epsilon)
    if not report.unsatisfied:
        return profile
    return _step(profile, report, _segments(game), explorer, rng)


def run_dynamics(
    game: Game,
    x1: StrategyProfile,
    epsilon: float = DYNAMICS_EPSILON,
    max_steps: int = _DEFAULT_MAX_STEPS,
    explorer: ExplorerPolicy | None = None,
    seed: int = 0,
) -> Trajectory:
    """Iterate satisficing steps from ``x1``, stopping at the first
    epsilon-Nash profile or once ``max_steps`` profiles have been emitted."""
    _check_profile(game, x1)
    epsilon = _check_real("epsilon", epsilon)
    max_steps = _check_int("max_steps", max_steps, 1)
    explorer = _check_instance("explorer", explorer, ExplorerPolicy, _DEFAULT_EXPLORER)
    seed = _check_seed("seed", seed)
    segments = _segments(game)
    rng = np.random.default_rng(seed)
    profiles = [x1]
    reports = [satisfaction_report(game, x1, epsilon)]
    while reports[-1].unsatisfied and len(profiles) < max_steps:
        profiles.append(_step(profiles[-1], reports[-1], segments, explorer, rng))
        reports.append(satisfaction_report(game, profiles[-1], epsilon))
    return Trajectory(profiles=tuple(profiles), reports=tuple(reports), seed=seed)


def batch_experiment(
    games,
    trials_per_game: int,
    epsilon: float = DYNAMICS_EPSILON,
    explorer: ExplorerPolicy | None = None,
    max_steps: int = _DEFAULT_MAX_STEPS,
    master_seed: int = 0,
) -> list[dict]:
    """Run seeded independent trials of the dynamics on each game and
    aggregate hitting statistics.

    Trial t of game g derives its randomness from
    SeedSequence([master_seed, g, t]), so results depend only on the
    arguments; each trial draws its own initial profile uniformly from the
    product of simplices.  A game's trials run together, up to
    ``_TRIAL_BLOCK`` at a time, each by blocks of profiles whose generators
    roll back past a change of unsatisfied set (``_blockstep``; a
    ``pure_uniform`` trial's blocks hold one profile).  Each row equals a
    per-trial replay: ``run_dynamics`` from that initial profile, seeded
    from the second child of the trial's SeedSequence.  Returns one row per
    game with the hit frequency and the mean/median hitting time among
    hits.
    """
    epsilon = _check_real("epsilon", epsilon)
    trials = _check_int("trials_per_game", trials_per_game, 1)
    max_steps = _check_int("max_steps", max_steps, 1)
    explorer = _check_instance("explorer", explorer, ExplorerPolicy, _DEFAULT_EXPLORER)
    games = list(_check_instance("games", games, Iterable))
    for g, game in enumerate(games):
        _check_instance(f"games[{g}]", game, Game)
    master = _check_seed("master_seed", master_seed)
    out: list[dict] = []
    for g, game in enumerate(games):
        hit_steps: list[int] = []
        for first in range(0, trials, _TRIAL_BLOCK):
            block = range(first, min(first + _TRIAL_BLOCK, trials))
            starts = np.empty((len(block), sum(game.action_counts)))
            rngs = []
            for r, t in enumerate(block):
                init, run_seed = _trial_streams(master, g, t)
                # random_profile's draws, without building the profile
                starts[r] = np.concatenate(_simplex_draws(init, game.action_counts))
                rngs.append(np.random.default_rng(run_seed))
            _check_rows(starts, _segments(game))
            hit_steps += _blockstep(game, starts, rngs, epsilon, explorer, max_steps)
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
