"""Seeded inputs for the four benchmark workloads.

Every input is a pure function of the workload seed.  Seed 0 reproduces the
acceptance corpus exactly: games and Dirichlet starts from the stream
SeedSequence([77_000, k]), boundary starts from SeedSequence([77_001, k]).
Every seed plays the games and boundary starts of those streams; seed s > 0
draws its Dirichlet starts from [77_000 + 2s, k] and runs the boundary starts
in an order drawn from [77_001 + 2s].  With ``held_out`` seed s > 0 draws the
payoffs from [77_000 + 2s, k] and the boundary starts from [77_001 + 2s, k]
as well, keeping the acceptance shapes, so a held-out corpus has exactly the
same shape mix.  bench/README.md says why the timed workloads keep to the
acceptance games and boundary starts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from math import prod

import numpy as np

from satpath import (
    ExplorerPolicy,
    Game,
    MixedStrategy,
    StrategyProfile,
    generate_random_game,
    random_profile,
)

CORPUS_GAMES = 200
STARTS_PER_GAME = 5
PATH_EPSILON = 1e-9

DYNAMICS_SHAPES = ((2, 2), (3, 3), (2, 2, 2), (3, 3, 3), (3, 3, 3, 3))
# (explorer, trials per batch call, step cap): dirichlet_uniform never
# absorbs at the dynamics epsilon, so it runs few trials to the cap;
# pure_uniform absorbs within tens of steps on games with a pure equilibrium.
DYNAMICS_CALLS = (("dirichlet_uniform", 2, 100), ("pure_uniform", 10, 100))
DYNAMICS_ROUNDS = 8

CLI_SHAPES = ((2, 2), (3, 3), (2, 2, 2))
CLI_ITERATIONS = 12


def _seq(*words) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(w) for w in words])


def _derived_int(*words) -> int:
    return int(_seq(*words).generate_state(1, np.uint64)[0])


def corpus_game(seed: int, k: int, held_out: bool = False) -> tuple[Game, np.random.Generator]:
    """Game k of the corpus and the generator its Dirichlet starts come from.

    n = 2, 3, 4 by k mod 3; 2-3 actions per player; payoffs U[-1, 1].
    """
    shape_rng = np.random.default_rng(_seq(77_000, k))
    n = (2, 3, 4)[k % 3]
    counts = tuple(int(shape_rng.integers(2, 4)) for _ in range(n))
    rng = shape_rng if seed == 0 else np.random.default_rng(_seq(77_000 + 2 * seed, k))
    payoff_rng = rng if held_out else shape_rng
    payoffs = tuple(payoff_rng.uniform(-1.0, 1.0, prod(counts)) for _ in range(n))
    return Game(action_counts=counts, payoffs=payoffs), rng


def corpus_mixed(
    seed: int, games: int = CORPUS_GAMES, held_out: bool = False
) -> list[tuple[int, Game, StrategyProfile]]:
    """(k, game, start) for the first ``games`` games x 5 fully mixed starts."""
    out = []
    for k in range(games):
        game, rng = corpus_game(seed, k, held_out)
        for _ in range(STARTS_PER_GAME):
            out.append((k, game, random_profile(game, rng)))
    return out


def boundary_start(seed: int, k: int, game: Game) -> StrategyProfile:
    """A pure profile for even k; for odd k a proper-face profile where each
    player mixes over 1..c-1 of its c actions."""
    rng = np.random.default_rng(_seq(77_001 + 2 * seed, k))
    if k % 2 == 0:
        return StrategyProfile.pure(game, [int(rng.integers(c)) for c in game.action_counts])
    strategies = []
    for c in game.action_counts:
        size = int(rng.integers(1, c))
        support = np.sort(rng.choice(c, size=size, replace=False))
        probs = np.zeros(c)
        probs[support] = rng.dirichlet(np.ones(size))
        strategies.append(MixedStrategy(probs))
    return StrategyProfile(tuple(strategies))


def corpus_boundary(
    seed: int, games: int = CORPUS_GAMES, held_out: bool = False
) -> list[tuple[int, Game, StrategyProfile]]:
    """(k, game, start) for the first ``games`` corpus games, one boundary
    start each, in input order for seed 0 and in a seeded order otherwise."""
    out = []
    start_seed = seed if held_out else 0
    for k in range(games):
        game, _ = corpus_game(seed, k, held_out)
        out.append((k, game, boundary_start(start_seed, k, game)))
    if seed and not held_out:
        order = np.random.default_rng(_seq(77_001 + 2 * seed)).permutation(games)
        out = [out[i] for i in order]
    return out


@dataclass(frozen=True)
class BatchCall:
    """One batch_experiment call: one game, one explorer."""

    game: Game
    explorer: ExplorerPolicy
    trials: int
    max_steps: int
    master_seed: int


def dynamics_batch(seed: int, rounds: int = DYNAMICS_ROUNDS) -> list[BatchCall]:
    """Each round draws one fresh game per shape and calls both explorers on it."""
    calls = []
    for r in range(rounds):
        for j, shape in enumerate(DYNAMICS_SHAPES):
            game = generate_random_game(len(shape), shape, _derived_int(78_000, seed, r, j))
            for e, (kind, trials, cap) in enumerate(DYNAMICS_CALLS):
                calls.append(
                    BatchCall(game, ExplorerPolicy(kind), trials, cap, _derived_int(78_001, seed, r, j, e))
                )
    return calls


def cli_script(seed: int, workdir: str, iterations: int = CLI_ITERATIONS) -> list[list[str]]:
    """``satpath`` argument lists, six commands per iteration on one small game."""
    script = []
    for i in range(iterations):
        shape = CLI_SHAPES[i % len(CLI_SHAPES)]
        s = _derived_int(79_000, seed, i) % 2**31
        game, sol, trace, ver, sim, bat = (
            f"{workdir}/{i}-{name}" for name in
            ("game.json", "solve.json", "path.csv", "verify.json", "simulate.json", "batch.json")
        )
        script += [
            ["gen", "--players", str(len(shape)), "--actions", ",".join(map(str, shape)),
             "--seed", str(s), "--out", game],
            ["solve", "--game", game, "--out", sol],
            ["path", "--game", game, "--seed", str(s), "--format", "csv", "--out", trace],
            ["verify", "--game", game, "--in", trace, "--out", ver],
            ["simulate", "--game", game, "--seed", str(s), "--max-steps", "200",
             "--explorer", "pure_uniform", "--out", sim],
            ["batch", "--game", game, "--trials", "5", "--max-steps", "200", "--seed", str(s),
             "--explorer", "pure_uniform", "--out", bat],
        ]
    return script


def profile_bytes(profile: StrategyProfile) -> bytes:
    return b";".join(b",".join(float(v).hex().encode() for v in s.probs) for s in profile.strategies)


def _game_bytes(game: Game) -> bytes:
    return repr(game.action_counts).encode() + b"|" + b"".join(arr.tobytes() for arr in game.payoffs)


def inputs_digest(workload: str, inputs) -> str:
    """SHA-256 over the canonical bytes of a workload's generated inputs."""
    h = hashlib.sha256(workload.encode())
    for item in inputs:
        if isinstance(item, BatchCall):
            h.update(_game_bytes(item.game))
            h.update(repr((item.explorer.kind, item.trials, item.max_steps, item.master_seed)).encode())
        elif isinstance(item, list):
            h.update("\0".join(item).encode())
        else:
            k, game, start = item
            h.update(str(k).encode() + _game_bytes(game) + profile_bytes(start))
    return h.hexdigest()
