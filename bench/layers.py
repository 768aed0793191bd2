"""Layer boundaries the traced run wraps, and the per-layer metrics it derives.

Each boundary is a public satpath function, wrapped in the namespace of the
module that calls it.  Every traced run reports every metric in
``PER_LAYER_UNITS``; a layer the workload never enters reports 0.
"""

from __future__ import annotations

import inspect
import statistics

from tracer import self_times

COMMANDS = ("gen", "solve", "path", "verify", "simulate", "batch")

PER_LAYER_UNITS = {
    "games.satisfaction_report.calls": "count",
    "games.satisfaction_report.us_per_call": "us",
    "solver.find_nash.calls": "count",
    "solver.find_nash.total_s": "s",
    "solver.find_nash.p50_ms": "ms",
    "solver.find_nash.max_ms": "ms",
    "solver.solve_on_support.calls.two_player": "count",
    "solver.solve_on_support.calls.newton": "count",
    "solver.solve_on_support.us_per_call.two_player": "us",
    "solver.solve_on_support.us_per_call.newton": "us",
    "solver.solve_on_support.found_ratio.two_player": "ratio",
    "solver.solve_on_support.found_ratio.newton": "ratio",
    "solver.supports_per_solve": "count",
    "solver.find_subgame_nash.calls": "count",
    "solver.find_subgame_nash.total_s": "s",
    "paths.find_worse_candidate.hit.calls": "count",
    "paths.find_worse_candidate.hit.total_s": "s",
    "paths.find_worse_candidate.exhausted.calls": "count",
    "paths.find_worse_candidate.exhausted.total_s": "s",
    "paths.find_worse_candidate.exhausted.ms_per_call": "ms",
    "paths.verify_path.calls": "count",
    "paths.verify_path.total_s": "s",
    "paths.construct_path.self_s": "s",
    "paths.steps.worse_step": "count",
    "paths.steps.case1_jump": "count",
    "paths.steps.case2_jump": "count",
    "paths.escalations": "count",
    "dynamics.steps": "count",
    "dynamics.hit_ratio": "ratio",
    "dynamics.us_per_step.dirichlet_uniform": "us",
    "dynamics.us_per_step.pure_uniform": "us",
    "dynamics.trial_setup_us": "us",
    "cli.import_ms": "ms",
    **{f"cli.run_ms.{command}": "ms" for command in COMMANDS},
    "gameio.load_game.us_per_call": "us",
    "gameio.emit_path.us_per_call": "us",
    "gameio.read_trace.us_per_call": "us",
    "trace.overhead_ratio": "ratio",
}


def _note_solve(span, args, kwargs, result):
    game = args[0] if args else kwargs["game"]
    span.attrs["kind"] = "two_player" if game.num_players <= 2 else "newton"
    span.attrs["found"] = result is not None


def _note_worse(span, args, kwargs, result):
    span.attrs["hit"] = result is not None


def _note_path(span, args, kwargs, result):
    span.attrs["kinds"] = [step.kind for step in result.steps]
    span.attrs["escalations"] = result.escalations


def _note_trajectory(signature):
    def note(span, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        explorer = bound.arguments["explorer"]
        span.attrs["explorer"] = explorer.kind if explorer is not None else "dirichlet_uniform"
        span.attrs["steps"] = len(result)
        span.attrs["hit"] = result.hit_step is not None

    return note


def _note_batch(span, args, kwargs, result):
    span.attrs["trials"] = sum(row["trials"] for row in result)


def _note_command(span, args, kwargs, result):
    argv = args[0] if args else kwargs["argv"]
    span.attrs["command"] = argv[0]


def install(tracer) -> None:
    """Wrap every layer boundary of satpath with ``tracer``."""
    # Imported here: run.py reads PER_LAYER_UNITS without loading satpath.
    import satpath
    from satpath import cli, dynamics, paths, solver

    trajectory = _note_trajectory(inspect.signature(dynamics.run_dynamics))
    boundaries = [
        (satpath, "construct_path", "paths.construct_path", _note_path),
        (paths, "satisfaction_report", "games.satisfaction_report", None),
        (paths, "find_worse_candidate", "paths.find_worse_candidate", _note_worse),
        (paths, "find_nash", "solver.find_nash", None),
        (paths, "find_subgame_nash", "solver.find_subgame_nash", None),
        (paths, "verify_path", "paths.verify_path", None),
        (solver, "find_nash", "solver.find_nash", None),
        (solver, "solve_on_support", "solver.solve_on_support", _note_solve),
        (satpath, "batch_experiment", "dynamics.batch_experiment", _note_batch),
        (dynamics, "run_dynamics", "dynamics.run_dynamics", trajectory),
        (dynamics, "satisfaction_report", "games.satisfaction_report", None),
        (cli, "run", "cli.run", _note_command),
        (cli, "load_game", "gameio.load_game", None),
        (cli, "emit_path", "gameio.emit_path", None),
        (cli, "read_trace", "gameio.read_trace", None),
        (cli, "find_nash", "solver.find_nash", None),
        (cli, "construct_path", "paths.construct_path", _note_path),
        (cli, "verify_path", "paths.verify_path", None),
        (cli, "run_dynamics", "dynamics.run_dynamics", trajectory),
        (cli, "batch_experiment", "dynamics.batch_experiment", _note_batch),
    ]
    for module, attr, name, annotate in boundaries:
        tracer.wrap(module, attr, name, annotate)


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, import_ms: float = 0.0) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans (raised calls excluded
    from timings)."""
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    selfs = self_times(spans)

    def dur(name, **match):
        return [
            s.duration for s in by_name.get(name, ())
            if not s.attrs.get("raised") and all(s.attrs.get(k) == v for k, v in match.items())
        ]

    m: dict[str, float] = {}
    sat = dur("games.satisfaction_report")
    m["games.satisfaction_report.calls"] = len(sat)
    m["games.satisfaction_report.us_per_call"] = _mean(sat) * 1e6

    nash = dur("solver.find_nash")
    m["solver.find_nash.calls"] = len(nash)
    m["solver.find_nash.total_s"] = sum(nash)
    m["solver.find_nash.p50_ms"] = _median(nash) * 1e3
    m["solver.find_nash.max_ms"] = max(nash, default=0.0) * 1e3
    supports = 0
    for kind in ("two_player", "newton"):
        calls = dur("solver.solve_on_support", kind=kind)
        found = dur("solver.solve_on_support", kind=kind, found=True)
        supports += len(calls)
        m[f"solver.solve_on_support.calls.{kind}"] = len(calls)
        m[f"solver.solve_on_support.us_per_call.{kind}"] = _mean(calls) * 1e6
        m[f"solver.solve_on_support.found_ratio.{kind}"] = _ratio(len(found), len(calls))
    m["solver.supports_per_solve"] = _ratio(supports, len(nash))
    sub = dur("solver.find_subgame_nash")
    m["solver.find_subgame_nash.calls"] = len(sub)
    m["solver.find_subgame_nash.total_s"] = sum(sub)

    hit = dur("paths.find_worse_candidate", hit=True)
    miss = dur("paths.find_worse_candidate", hit=False)
    m["paths.find_worse_candidate.hit.calls"] = len(hit)
    m["paths.find_worse_candidate.hit.total_s"] = sum(hit)
    m["paths.find_worse_candidate.exhausted.calls"] = len(miss)
    m["paths.find_worse_candidate.exhausted.total_s"] = sum(miss)
    m["paths.find_worse_candidate.exhausted.ms_per_call"] = _mean(miss) * 1e3
    verify = dur("paths.verify_path")
    m["paths.verify_path.calls"] = len(verify)
    m["paths.verify_path.total_s"] = sum(verify)
    built = [s for s in by_name.get("paths.construct_path", ()) if "kinds" in s.attrs]
    m["paths.construct_path.self_s"] = sum(selfs[s.sid] for s in built)
    for kind in ("worse_step", "case1_jump", "case2_jump"):
        m[f"paths.steps.{kind}"] = sum(s.attrs["kinds"].count(kind) for s in built)
    m["paths.escalations"] = sum(s.attrs["escalations"] for s in built)

    runs = [s for s in by_name.get("dynamics.run_dynamics", ()) if "steps" in s.attrs]
    batches = [s for s in by_name.get("dynamics.batch_experiment", ()) if "trials" in s.attrs]
    m["dynamics.steps"] = sum(s.attrs["steps"] for s in runs)
    m["dynamics.hit_ratio"] = _ratio(sum(s.attrs["hit"] for s in runs), len(runs))
    for kind in ("dirichlet_uniform", "pure_uniform"):
        mine = [s for s in runs if s.attrs["explorer"] == kind]
        m[f"dynamics.us_per_step.{kind}"] = _ratio(
            sum(s.duration for s in mine) * 1e6, sum(s.attrs["steps"] for s in mine)
        )
    m["dynamics.trial_setup_us"] = _ratio(
        sum(selfs[s.sid] for s in batches) * 1e6, sum(s.attrs["trials"] for s in batches)
    )

    m["cli.import_ms"] = import_ms
    for command in COMMANDS:
        m[f"cli.run_ms.{command}"] = _median(dur("cli.run", command=command)) * 1e3
    for name in ("load_game", "emit_path", "read_trace"):
        m[f"gameio.{name}.us_per_call"] = _mean(dur(f"gameio.{name}")) * 1e6
    return m
