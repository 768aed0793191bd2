"""satpath benchmark: one command, four seeded workloads.

    python3 bench/run.py --workload corpus_mixed --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the command spawns
fresh worker processes (bench/worker.py), each one pass over the workload's
timed subset with freshly built inputs, until ``--seconds`` of timed work are
done.  Timings are divided by the host slowdown a probe measures alongside
them (bench/hostspeed.py).  With ``--trace 1`` it runs the workload's fixed subset
twice in fresh processes, untraced and then traced, and reports the
per-layer metrics and the tracing overhead.  Human-readable lines come first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import stats

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("corpus_mixed", "corpus_boundary", "dynamics_batch", "cli")
SETUP_PROBES = 4
MIN_PASSES = 2
# Every worker is killed if the whole run would otherwise pass this.
RUN_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
# The issue-facing name of each workload's operation metrics.
OP_NAMES = {
    "corpus_mixed": ("paths_per_s", "path_p50_ms", "path_tail_ms"),
    "corpus_boundary": ("paths_per_s", "path_p50_ms", "path_tail_ms"),
    "dynamics_batch": ("dyn_steps_per_s", "dyn_step_p50_ms", "dyn_step_tail_ms"),
    "cli": ("cli_calls_per_s", "cli_call_p50_ms", "cli_call_tail_ms"),
}


class BenchError(Exception):
    pass


def _environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "cpu": cpu, "nproc": os.cpu_count()}


class Spawner:
    def __init__(self, workload: str, seed: int, held_out: bool, started: float):
        self.base = {"workload": workload, "seed": seed, "held_out": held_out}
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.update({var: "1" for var in BLAS_THREAD_VARS})

    def __call__(self, **spec) -> dict:
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise BenchError("run time limit reached")
        # The worker leads its own process group, so the satpath processes it
        # starts are stopped with it.
        proc = subprocess.Popen(
            [sys.executable, str(ROOT / "bench" / "worker.py"), json.dumps({**self.base, **spec})],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=remaining)
        except BaseException as exc:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError("worker killed at the run time limit") from None
            raise
        lines = out.decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker exited {proc.returncode}")
        return json.loads(lines[-1])


def _scaled_ms(timed_pass: dict) -> list[float]:
    """A pass's operation times, each scaled by the median slowdown of the
    (up to) five probe samples nearest to it."""
    at = [t for t, _ in timed_pass["host"]]
    slow = [x for _, x in timed_pass["host"]]
    out = []
    for _, start_s, ms in timed_pass["op_ms"]:
        last = bisect.bisect_right(at, start_s) - 1
        out.append(ms * hostspeed.scale(slow[max(0, last - 2): last + 3]))
    return out


def _untraced(workload: str, seconds: int, spawn: Spawner) -> tuple[dict, list[str]]:
    # Half the set-up probes run before the timed passes and half after, so
    # the median spans the run rather than one moment of host load.
    probes = [spawn(mode="setup") for _ in range(SETUP_PROBES // 2)]
    passes = []
    measured = 0.0
    # Another pass starts while at least half a pass's time is left.
    while len(passes) < MIN_PASSES or seconds - measured >= 0.5 * measured / len(passes):
        passes.append(spawn(mode="run"))
        measured += passes[-1]["timed_s"]
    first = passes[0]
    probes += [spawn(mode="setup") for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    setups = [p["setup_s"] for p in probes]
    setups_scaled = [p["setup_s"] * hostspeed.scale(p["host"]) for p in probes]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = [msg for p in passes for msg in p["failures"]]
    if len({p["digest"] for p in passes}) > 1:
        failed += 1
        failures.append("the passes gave different outputs")
    timed = [p for p in passes if p["op_ms"]]
    if not timed:
        raise BenchError("no operation passed the correctness gate: " + "; ".join(failures))
    pass_p50_scaled = [stats.median(_scaled_ms(p)) for p in timed]
    best: dict[int, float] = {}
    for p in timed:
        for index, _, ms in p["op_ms"]:
            best[index] = min(ms, best.get(index, math.inf))
    op_ms = list(best.values())
    work = sum(p["work"] for p in passes)
    busy_s = sum(p["busy_s"] for p in passes)
    rate_name, p50_name, tail_name = OP_NAMES[workload]
    pct, tail_ms = stats.tail(op_ms)
    host = [x for p in passes for _, x in p["host"]]
    metrics = {
        "setup_s": stats.median(setups_scaled),
        "op_p50_ms": stats.median(pass_p50_scaled),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    lines = [
        f"passes           {len(passes)} fresh processes over {first['attempted']} "
        f"operations, {measured:.2f} s timed",
        f"host probe       median slowdown {stats.median(host):.4g} over {len(host)} samples",
        f"{'op_p50_ms':<24} {metrics['op_p50_ms']:.6g} ms (scaled by the slowdown; "
        f"median over passes of each pass's median)",
        f"{p50_name:<24} {stats.median(op_ms):.6g} ms (as measured, each operation's fastest "
        f"pass, n={len(op_ms)})",
        f"{tail_name:<24} "
        + (f"{tail_ms:.6g} ms (p{pct:g}, n={len(op_ms)})" if pct else f"n/a (n={len(op_ms)})"),
        f"{rate_name:<24} {work / busy_s:.6g} 1/s (over every pass, as measured)",
        f"{'setup_s':<24} {metrics['setup_s']:.6g} s scaled, {stats.median(setups):.6g} s measured "
        f"(median of {len(setups)})",
        f"{'failed_ratio':<24} {failed / attempted:.6g} ({failed}/{attempted})",
        f"{'peak_rss_mb':<24} {metrics['peak_rss_mb']:.6g} MB",
        f"{'inputs_digest':<24} {first['inputs_digest']}",
        f"{'outputs_digest':<24} {first['digest']} (over the operations timed)",
    ]
    lines += [f"failure: {msg}" for msg in failures]
    result = {"numpy": first["numpy"], "attempted": attempted, "failed": failed, "metrics": {
        name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in metrics.items()
    }}
    return result, lines


def _traced(spawn: Spawner) -> tuple[dict, list[str]]:
    import layers

    plain = spawn(mode="fixed", trace=False)
    traced = spawn(mode="fixed", trace=True)
    values = dict(traced["layers"])
    values["trace.overhead_ratio"] = traced["timed_s"] / plain["timed_s"]
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    lines = [
        f"fixed subset     {traced['attempted']} operations, untraced {plain['timed_s']:.3f} s, "
        f"traced {traced['timed_s']:.3f} s",
        f"{'failed_ratio':<24} {failed / attempted if attempted else 0.0:.6g} ({failed}/{attempted})",
        f"{'outputs_digest':<24} {traced['digest']}",
    ]
    if plain["digest"] != traced["digest"]:
        lines.append("failure: traced and untraced outputs differ")
        failed += 1
    lines += [f"failure: {msg}" for msg in plain["failures"] + traced["failures"]]
    lines += [f"{name:<48} {v:.6g} {layers.PER_LAYER_UNITS[name]}" for name, v in values.items()]
    result = {"numpy": traced["numpy"], "attempted": attempted, "failed": failed, "metrics": {
        name: {"value": v, "unit": layers.PER_LAYER_UNITS[name]} for name, v in values.items()
    }}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0, help="0 is the acceptance corpus")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="corpora: draw payoffs and boundary starts from the seed too")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "satpath" / "__init__.py").is_file():
        print(f"error: no satpath sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    spawn = Spawner(args.workload, args.seed, args.held_out, started)
    print(f"satpath bench  workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} held_out={int(args.held_out)}")
    try:
        if args.trace:
            result, lines = _traced(spawn)
        else:
            result, lines = _untraced(args.workload, args.seconds, spawn)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ROOT / ".bench_work", ignore_errors=True)
    lines.append(f"{'run_wall_s':<24} {time.perf_counter() - started:.3f} s")
    env = _environment()
    print(f"environment    python {env['python']}, numpy {result['numpy']}, "
          f"cpu {env['cpu']!r}, nproc {env['nproc']}, BLAS threads pinned to 1")
    for line in lines:
        print(f"  {line}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        **{key: result[key] for key in ("attempted", "failed", "metrics")},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
