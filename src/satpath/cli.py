"""Command-line interface.

Subcommands: gen, solve, path, verify, simulate, batch.  Exit codes:
0 success, 1 verification failure, 2 input error, 3 solver or candidate
search gave up, 4 path construction broke an internal invariant.  All
commands are deterministic given identical flags, including --seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .dynamics import DYNAMICS_EPSILON, EXPLORER_KINDS, ExplorerPolicy, run_dynamics, batch_experiment
from .errors import (
    GameInputError,
    PathInvariantError,
    SolverIncompleteError,
    WorseSearchIncompleteError,
)
from .games import (
    DEFAULT_EPSILON,
    Game,
    StrategyProfile,
    _profile_gaps,
    random_profile,
)
from .gameio import (
    emit_path,
    game_document,
    generate_random_game,
    load_game,
    read_trace,
    _write_text,
)
from .paths import WorseSearchConfig, construct_path, verify_path
from .solver import SolverConfig, find_nash

import numpy as np


def _emit_or_print(text: str, out: str | None) -> None:
    if out:
        _write_text(out, text)
    else:
        sys.stdout.write(text)


def _parse_actions(spec: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in spec.split(","))
    except ValueError:
        raise GameInputError(
            f"--actions expects comma-separated integers, got {spec!r}"
        ) from None


def _initial_profile(game: Game, spec: str, rng: np.random.Generator) -> StrategyProfile:
    if spec == "random":
        return random_profile(game, rng)
    if spec == "uniform":
        return StrategyProfile.uniform(game)
    if spec.startswith("pure:"):
        try:
            actions = tuple(int(part) for part in spec[len("pure:") :].split(","))
        except ValueError:
            raise GameInputError(f"bad pure profile spec {spec!r}") from None
        return StrategyProfile.pure(game, actions)
    raise GameInputError(
        f"unknown --init {spec!r}; use 'random', 'uniform', or 'pure:a1,a2,...'"
    )


def _cmd_gen(args) -> int:
    game = generate_random_game(
        args.players, _parse_actions(args.actions), args.seed, name=args.name
    )
    _emit_or_print(json.dumps(game_document(game), indent=2) + "\n", args.out)
    return 0


def _cmd_solve(args) -> int:
    game = load_game(args.game)
    config = SolverConfig(tolerance=args.eps)
    profile = find_nash(game, config)
    gaps = _profile_gaps(game, profile).tolist()
    doc = {
        "game": game.name,
        "epsilon": args.eps,
        "profile": [[float(v) for v in s.probs] for s in profile.strategies],
        "gaps": gaps,
        "max_gap": max(gaps),
    }
    _emit_or_print(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_path(args) -> int:
    solver = SolverConfig(tolerance=args.eps)
    worse = WorseSearchConfig(budget=args.budget, rng_seed=args.seed)
    game = load_game(args.game)
    rng = np.random.default_rng(args.seed & 0xFFFFFFFFFFFFFFFF)
    x1 = _initial_profile(game, args.init, rng)
    path = construct_path(game, x1, args.eps, worse_config=worse, solver_config=solver)
    emit_path(path, args.format, args.out if args.out else sys.stdout)
    return 0


def _cmd_verify(args) -> int:
    game = load_game(args.game)
    trace = read_trace(args.infile)
    result = verify_path(
        game,
        list(trace.profiles),
        args.eps,
        require_terminal_nash=not args.no_terminal_nash,
        require_length_bound=not args.no_length_bound,
    )
    doc = {
        "ok": result.ok,
        "num_steps": result.num_steps,
        "reason": result.reason,
        "step": result.step,
        "player": result.player,
    }
    _emit_or_print(json.dumps(doc, indent=2) + "\n", args.out)
    return 0 if result.ok else 1


def _cmd_simulate(args) -> int:
    game = load_game(args.game)
    rng = np.random.default_rng(args.seed & 0xFFFFFFFFFFFFFFFF)
    x1 = _initial_profile(game, args.init, rng)
    explorer = ExplorerPolicy(kind=args.explorer, mixture_weight=args.mixture_weight)
    trajectory = run_dynamics(game, x1, args.eps, args.max_steps, explorer, args.seed)
    emit_path(trajectory, args.format, args.out if args.out else sys.stdout)
    return 0


def _cmd_batch(args) -> int:
    games = [load_game(path) for path in args.game]
    explorer = ExplorerPolicy(kind=args.explorer, mixture_weight=args.mixture_weight)
    rows = batch_experiment(
        games,
        trials_per_game=args.trials,
        epsilon=args.eps,
        explorer=explorer,
        max_steps=args.max_steps,
        master_seed=args.seed,
    )
    if args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        header = [
            "game",
            "game_index",
            "trials",
            "hits",
            "hit_frequency",
            "mean_hit_step",
            "median_hit_step",
        ]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        # csv writes None as an empty field and a float as its repr
        writer.writerows([row[key] for key in header] for row in rows)
        text = buf.getvalue()
    _emit_or_print(text, args.out)
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

    gen = sub.add_parser("gen", help="generate a random game document")
    gen.add_argument("--players", type=int, required=True)
    gen.add_argument("--actions", required=True, help="comma-separated action counts, e.g. 2,3")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--name", default=None)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="find a Nash equilibrium by support enumeration")
    solve.add_argument("--game", required=True)
    solve.add_argument("--eps", type=float, default=DEFAULT_EPSILON)
    solve.add_argument("--out", default=None)
    solve.set_defaults(func=_cmd_solve)

    path = sub.add_parser("path", help="construct a satisficing path to equilibrium")
    path.add_argument("--game", required=True)
    path.add_argument("--eps", type=float, default=DEFAULT_EPSILON)
    path.add_argument("--seed", type=int, default=0)
    path.add_argument("--budget", type=int, default=5000)
    path.add_argument(
        "--init",
        default="random",
        help="initial profile: random (default), uniform, or pure:a1,a2,...",
    )
    path.add_argument("--format", choices=["csv", "json"], default="json")
    path.add_argument("--out", default=None)
    path.set_defaults(func=_cmd_path)

    verify = sub.add_parser("verify", help="verify an emitted trace file")
    verify.add_argument("--game", required=True)
    verify.add_argument("--in", dest="infile", required=True, help="trace file (csv or json)")
    verify.add_argument("--eps", type=float, default=DEFAULT_EPSILON)
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
    verify.add_argument("--out", default=None)
    verify.set_defaults(func=_cmd_verify)

    simulate = sub.add_parser("simulate", help="run win-stay lose-shift dynamics")
    simulate.add_argument("--game", required=True)
    simulate.add_argument("--eps", type=float, default=DYNAMICS_EPSILON)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--max-steps", type=int, default=1000)
    simulate.add_argument("--explorer", choices=list(EXPLORER_KINDS), default="dirichlet_uniform")
    simulate.add_argument("--mixture-weight", type=float, default=0.5)
    simulate.add_argument(
        "--init",
        default="random",
        help="initial profile: random (default), uniform, or pure:a1,a2,...",
    )
    simulate.add_argument("--format", choices=["csv", "json"], default="json")
    simulate.add_argument("--out", default=None)
    simulate.set_defaults(func=_cmd_simulate)

    batch = sub.add_parser("batch", help="aggregate dynamics statistics over games")
    batch.add_argument(
        "--game", action="append", required=True, help="game file; repeat for several games"
    )
    batch.add_argument("--trials", type=int, default=100)
    batch.add_argument("--eps", type=float, default=DYNAMICS_EPSILON)
    batch.add_argument("--seed", type=int, default=0)
    batch.add_argument("--max-steps", type=int, default=1000)
    batch.add_argument("--explorer", choices=list(EXPLORER_KINDS), default="dirichlet_uniform")
    batch.add_argument("--mixture-weight", type=float, default=0.5)
    batch.add_argument("--format", choices=["csv", "json"], default="json")
    batch.add_argument("--out", default=None)
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
