"""Command-line interface.

Subcommands: gen, solve, path, verify, simulate, batch.  Exit codes:
0 success, 1 verification failure, 2 input error, 3 solver or candidate
search gave up, 4 path construction broke an internal invariant.  All
commands are deterministic given identical flags, including --seed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys

from .dynamics import (
    _DEFAULT_EXPLORER,
    _DEFAULT_MAX_STEPS,
    DYNAMICS_EPSILON,
    EXPLORER_KINDS,
    ExplorerPolicy,
    _trial_streams,
    batch_experiment,
    run_dynamics,
)
from .errors import (
    GameInputError,
    PathInvariantError,
    SolverIncompleteError,
    WorseSearchIncompleteError,
)
from .games import (
    DEFAULT_EPSILON,
    MAX_ACTIONS,
    MAX_PLAYERS,
    Game,
    StrategyProfile,
    _check_int,
    _check_real,
    _check_seed,
    _profile_gaps,
    random_profile,
)
from .gameio import (
    emit_path,
    generate_random_game,
    load_game,
    read_trace,
    save_game,
    _write_text,
)
from .paths import _DEFAULT_WORSE, WorseSearchConfig, construct_path, verify_path
from .solver import SolverConfig, find_nash

import numpy as np


def _integers(flag: str, spec: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in spec.split(","))
    except ValueError:
        raise GameInputError(f"{flag} expects comma-separated integers, got {spec!r}") from None


def _initial_profile(game: Game, spec: str, rng: np.random.Generator) -> StrategyProfile:
    if spec == "random":
        return random_profile(game, rng)
    if spec == "uniform":
        return StrategyProfile.uniform(game)
    if spec.startswith("pure:"):
        actions = _integers("--init pure:", spec[len("pure:") :])
        if len(actions) != game.num_players:
            raise GameInputError(
                f"--init pure: gives {len(actions)} actions for {game.num_players} players"
            )
        for i, (action, count) in enumerate(zip(actions, game.action_counts)):
            _check_int(f"--init pure: player {i}'s action", action, 0, count - 1)
        return StrategyProfile.pure(game, actions)
    raise GameInputError(
        f"unknown --init {spec!r}; use 'random', 'uniform', or 'pure:a1,a2,...'"
    )


def _dynamics_flags(args) -> tuple[float, int, ExplorerPolicy]:
    """The --eps, --max-steps and explorer flags of simulate and batch, each
    checked against the library's bounds under the flag's own name."""
    epsilon = _check_real("--eps", args.eps)
    max_steps = _check_int("--max-steps", args.max_steps, 1)
    weight = _check_real("--mixture-weight", args.mixture_weight, high=1.0)
    return epsilon, max_steps, ExplorerPolicy(kind=args.explorer, mixture_weight=weight)


def _cmd_gen(args) -> int:
    players = _check_int("--players", args.players, 1, MAX_PLAYERS)
    counts = _integers("--actions", args.actions)
    actions = [_check_int("--actions", c, 1, MAX_ACTIONS) for c in counts]
    if len(actions) != players:
        raise GameInputError(
            f"--actions gives {len(actions)} action counts for --players {players}"
        )
    game = generate_random_game(players, actions, args.seed, name=args.name)
    save_game(game, args.out or sys.stdout)
    return 0


def _cmd_solve(args) -> int:
    game = load_game(args.game)
    config = SolverConfig(tolerance=_check_real("--eps", args.eps, positive=True))
    profile = find_nash(game, config)
    gaps = _profile_gaps(game, profile).tolist()
    doc = {
        "game": game.name,
        "epsilon": args.eps,
        "profile": [[float(v) for v in s.probs] for s in profile.strategies],
        "gaps": gaps,
        "max_gap": max(gaps),
    }
    _write_text(args.out or sys.stdout, json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_path(args) -> int:
    solver = SolverConfig(tolerance=_check_real("--eps", args.eps, positive=True))
    worse = WorseSearchConfig(budget=_check_int("--budget", args.budget, 1, sys.maxsize))
    game = load_game(args.game)
    rng = np.random.default_rng(_check_seed("--seed", args.seed))
    x1 = _initial_profile(game, args.init, rng)
    path = construct_path(game, x1, args.eps, worse_config=worse, solver_config=solver)
    emit_path(path, args.format, args.out or sys.stdout)
    return 0


def _cmd_verify(args) -> int:
    epsilon = _check_real("--eps", args.eps)
    game = load_game(args.game)
    trace = read_trace(args.infile)
    result = verify_path(
        game,
        list(trace.profiles),
        epsilon,
        require_terminal_nash=not args.no_terminal_nash,
        require_length_bound=not args.no_length_bound,
    )
    _write_text(args.out or sys.stdout, json.dumps(dataclasses.asdict(result), indent=2) + "\n")
    return 0 if result.ok else 1


def _cmd_simulate(args) -> int:
    epsilon, max_steps, explorer = _dynamics_flags(args)
    game = load_game(args.game)
    # trial 0 of game 0 in `batch --seed`: the start and the run draw from
    # separate streams, so a random start is not the run's first redraw
    init, run_seed = _trial_streams(_check_seed("--seed", args.seed), 0, 0)
    x1 = _initial_profile(game, args.init, init)
    trajectory = run_dynamics(game, x1, epsilon, max_steps, explorer, run_seed)
    emit_path(trajectory, args.format, args.out or sys.stdout)
    return 0


def _cmd_batch(args) -> int:
    epsilon, max_steps, explorer = _dynamics_flags(args)
    games = [load_game(path) for path in args.game]
    rows = batch_experiment(
        games,
        trials_per_game=_check_int("--trials", args.trials, 1),
        epsilon=epsilon,
        explorer=explorer,
        max_steps=max_steps,
        master_seed=args.seed,
    )
    if args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        # --game is required, so there is a row to take the columns from
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0])
        # csv writes None as an empty field and a float as its repr
        writer.writerows(row.values() for row in rows)
        text = buf.getvalue()
    _write_text(args.out or sys.stdout, text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satpath",
        description=(
            "Construct, verify, and simulate satisficing paths to Nash "
            "equilibrium in finite normal-form games."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flags shared by several subcommands, each defined once in a parent parser
    game, exact, dynamics, seed, init, fmt, out = (
        argparse.ArgumentParser(add_help=False) for _ in range(7)
    )
    game.add_argument("--game", required=True)
    # the path constructor and the dynamics default to different epsilons
    for eps_flags, eps in ((exact, DEFAULT_EPSILON), (dynamics, DYNAMICS_EPSILON)):
        eps_flags.add_argument("--eps", type=float, default=eps)
    dynamics.add_argument("--max-steps", type=int, default=_DEFAULT_MAX_STEPS)
    dynamics.add_argument("--explorer", choices=EXPLORER_KINDS, default=_DEFAULT_EXPLORER.kind)
    dynamics.add_argument("--mixture-weight", type=float, default=_DEFAULT_EXPLORER.mixture_weight)
    seed.add_argument("--seed", type=int, default=0)
    init.add_argument(
        "--init",
        default="random",
        help="initial profile: random (default), uniform, or pure:a1,a2,...",
    )
    fmt.add_argument("--format", choices=["csv", "json"], default="json")
    out.add_argument("--out", default=None)

    gen = sub.add_parser("gen", parents=[seed, out], help="generate a random game document")
    gen.add_argument("--players", type=int, required=True)
    gen.add_argument("--actions", required=True, help="comma-separated action counts, e.g. 2,3")
    gen.add_argument("--name", default=None)
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser(
        "solve", parents=[game, exact, out], help="find a Nash equilibrium by support enumeration"
    )
    solve.set_defaults(func=_cmd_solve)

    path = sub.add_parser(
        "path",
        parents=[game, exact, seed, init, fmt, out],
        help="construct a satisficing path to equilibrium",
    )
    path.add_argument("--budget", type=int, default=_DEFAULT_WORSE.budget)
    path.set_defaults(func=_cmd_path)

    verify = sub.add_parser(
        "verify", parents=[game, exact, out], help="verify an emitted trace file"
    )
    verify.add_argument("--in", dest="infile", required=True, help="trace file (csv or json)")
    verify.add_argument(
        "--no-terminal-nash",
        action="store_true",
        help="do not require the last profile to be an epsilon-Nash equilibrium",
    )
    verify.add_argument(
        "--no-length-bound",
        action="store_true",
        help="do not require length <= players + 1 (use for trajectories)",
    )
    verify.set_defaults(func=_cmd_verify)

    simulate = sub.add_parser(
        "simulate",
        parents=[game, dynamics, seed, init, fmt, out],
        help="run win-stay lose-shift dynamics",
    )
    simulate.set_defaults(func=_cmd_simulate)

    batch = sub.add_parser(
        "batch",
        parents=[dynamics, seed, fmt, out],
        help="aggregate dynamics statistics over games",
    )
    batch.add_argument(
        "--game", action="append", required=True, help="game file; repeat for several games"
    )
    batch.add_argument("--trials", type=int, default=100)
    batch.set_defaults(func=_cmd_batch)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GameInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverIncompleteError, WorseSearchIncompleteError) as exc:
        print(f"incomplete: {exc}", file=sys.stderr)
        return 3
    except PathInvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
