"""One pass of a benchmark workload, in a fresh process.

    python3 bench/worker.py '<json spec>'

The spec names the workload, seed and mode:

    setup   import satpath, build the inputs, report the set-up time
    run     then run the workload's timed subset once, in input order
    fixed   run the workload's fixed traced subset, with tracing when
            ``trace`` is true, so counts repeat exactly across runs

The worker checks every output off the clock (the correctness gate) and
prints one JSON line.  satpath comes from the checkout's ``src``; the
parent sets PYTHONPATH and pins BLAS to one thread.
"""

from __future__ import annotations

import time

# Set-up time counts from here: importing satpath below is part of it.
STARTED = time.perf_counter()

import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import satpath
from satpath import (
    DYNAMICS_EPSILON,
    game_document,
    generate_random_game,
    load_game,
    random_profile,
    read_trace,
    run_dynamics,
    verify_path,
)
from satpath import cli as satpath_cli

import hostspeed
import layers
import oracle
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
# Scratch space for CLI outputs; run.py removes .bench_work when a run ends.
WORKDIR = ".bench_work/cli"
CALL_TIMEOUT_S = 60

# Timed subsets: what one pass of an untraced run covers (about 5 s here).
TIMED_GAMES = {"corpus_mixed": 60, "corpus_boundary": 150}
TIMED_CLI_ITERATIONS = 3
# Fixed traced subsets: how many inputs each workload's traced run covers.
FIXED_DYNAMICS_ROUNDS = 4
IMPORT_PROBES = 5
SETUP_HOST_SAMPLES = 5


class Corpus:
    """construct_path on each (game, start); one path is one operation."""

    def __init__(self, seed: int, workload: str, held_out: bool):
        self.workload = workload
        self.items = getattr(workloads, workload)(seed, held_out=held_out)
        self.inputs_digest = workloads.inputs_digest("corpus", self.items)

    def timed(self):
        return [item for item in self.items if item[0] < TIMED_GAMES[self.workload]]

    def fixed(self):
        """The 200-game corpus itself."""
        return self.items

    def op(self, item):
        _, game, start = item
        return satpath.construct_path(game, start, workloads.PATH_EPSILON)

    def work(self, item, out) -> int:
        return 1

    def check(self, index, item, path) -> str | None:
        _, game, _ = item
        result = verify_path(
            game, path, workloads.PATH_EPSILON, require_terminal_nash=True, require_length_bound=True
        )
        if not result.ok:
            return f"verify_path: {result.reason}"
        gap = oracle.profile_gap(game, path.steps[-1].profile)
        if gap > oracle.TERMINAL_GAP_TOL:
            return f"oracle terminal gap {gap:.3g}"
        return None

    def canonical(self, item, path) -> bytes:
        return b"".join(
            step.kind.encode() + b":" + workloads.profile_bytes(step.profile) + b"\n"
            for step in path.steps
        ) + f"esc={path.escalations}\n".encode()


class Dynamics:
    """batch_experiment on one game and explorer; emitted profiles are the work."""

    # One batch call in every REPLAY_EVERY is replayed trial by trial by the gate.
    REPLAY_EVERY = 5

    def __init__(self, seed: int):
        self.items = workloads.dynamics_batch(seed)
        self.inputs_digest = workloads.inputs_digest("dynamics", self.items)

    def timed(self):
        return self.items

    def fixed(self):
        per_round = len(workloads.DYNAMICS_SHAPES) * len(workloads.DYNAMICS_CALLS)
        return self.items[: FIXED_DYNAMICS_ROUNDS * per_round]

    def op(self, call):
        return satpath.batch_experiment(
            [call.game], call.trials, explorer=call.explorer, max_steps=call.max_steps,
            master_seed=call.master_seed,
        )

    def work(self, call, rows) -> int:
        (row,) = rows
        hit_total = round(row["hits"] * row["mean_hit_step"]) if row["hits"] else 0
        return hit_total + (row["trials"] - row["hits"]) * call.max_steps

    def check(self, index, call, rows) -> str | None:
        (row,) = rows
        if row["trials"] != call.trials or not 0 <= row["hits"] <= call.trials:
            return f"bad row {row}"
        if index % self.REPLAY_EVERY:
            return None
        hit_steps = []
        for t in range(call.trials):
            init_ss, run_ss = np.random.SeedSequence([call.master_seed, 0, t]).spawn(2)
            x1 = random_profile(call.game, np.random.default_rng(init_ss))
            seed = int(run_ss.generate_state(1, np.uint64)[0])
            traj = run_dynamics(call.game, x1, DYNAMICS_EPSILON, call.max_steps, call.explorer, seed)
            check = verify_path(call.game, traj, DYNAMICS_EPSILON, require_terminal_nash=False)
            if not check.ok:
                return f"trial {t}: {check.reason}"
            if traj.hit_step is None:
                if len(traj) != call.max_steps:
                    return f"trial {t}: stopped at {len(traj)} without a hit"
                continue
            if traj.hit_step != len(traj):
                return f"trial {t}: ran past its hit step"
            gap = oracle.profile_gap(call.game, traj.profiles[-1])
            if gap > DYNAMICS_EPSILON + 1e-12:
                return f"trial {t}: hit profile has oracle gap {gap:.3g}"
            hit_steps.append(traj.hit_step)
        mean = float(np.mean(hit_steps)) if hit_steps else None
        if (len(hit_steps), mean) != (row["hits"], row["mean_hit_step"]):
            return f"replayed {len(hit_steps)} hits, mean {mean}; batch row {row}"
        return None

    def canonical(self, call, rows) -> bytes:
        return json.dumps(rows, sort_keys=True).encode() + b"\n"


class Cli:
    """Fresh-process ``python -m satpath`` calls; one call is one operation."""

    def __init__(self, seed: int):
        self.items = workloads.cli_script(seed, WORKDIR)
        self.inputs_digest = workloads.inputs_digest("cli", self.items)
        shutil.rmtree(ROOT / WORKDIR, ignore_errors=True)
        (ROOT / WORKDIR).mkdir(parents=True)

    def timed(self):
        return self.items[: TIMED_CLI_ITERATIONS * len(layers.COMMANDS)]

    def fixed(self):
        return self.items

    def op(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "satpath", *argv],
            cwd=ROOT, capture_output=True, timeout=CALL_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def op_in_process(self, argv):
        with redirect_stdout(io.StringIO()) as out:
            code = satpath_cli.run(argv)
        return code, out.getvalue().encode(), b""

    def work(self, argv, out) -> int:
        return 1

    def check(self, index, argv, out) -> str | None:
        code, _, stderr = out
        if code != 0:
            return f"exit {code}: {stderr.decode(errors='replace')[-200:]}"
        flags = dict(zip(argv[1::2], argv[2::2]))
        command = argv[0]
        out_path = ROOT / flags.get("--out", "")
        if command == "gen":
            counts = [int(c) for c in flags["--actions"].split(",")]
            game = generate_random_game(len(counts), counts, int(flags["--seed"]))
            expected = json.dumps(game_document(game), indent=2) + "\n"
            return None if out_path.read_text() == expected else "gen output differs from the API"
        game = load_game(ROOT / flags["--game"])
        if command == "solve":
            probs = json.loads(out_path.read_text())["profile"]
            gap = oracle.max_gap(game.action_counts, game.payoffs, probs)
            return None if gap <= oracle.TERMINAL_GAP_TOL else f"solve: oracle gap {gap:.3g}"
        if command == "path":
            profiles = list(read_trace(out_path).profiles)
            result = verify_path(game, profiles, workloads.PATH_EPSILON, require_length_bound=True)
            gap = oracle.profile_gap(game, profiles[-1])
            if not result.ok or gap > oracle.TERMINAL_GAP_TOL:
                return f"path: {result.reason or f'oracle gap {gap:.3g}'}"
            return None
        if command == "verify":
            return None if json.loads(out_path.read_text())["ok"] is True else "verify: not ok"
        if command == "simulate":
            trace = read_trace(out_path)
            result = verify_path(
                game, list(trace.profiles), DYNAMICS_EPSILON, require_terminal_nash=False
            )
            return None if result.ok else f"simulate: {result.reason}"
        rows = json.loads(out_path.read_text())
        ok = len(rows) == 1 and rows[0]["trials"] == 5 and 0 <= rows[0]["hits"] <= 5
        return None if ok else f"batch: bad rows {rows}"

    def canonical(self, argv, out) -> bytes:
        flags = dict(zip(argv[1::2], argv[2::2]))
        text = (ROOT / flags["--out"]).read_bytes() if "--out" in flags else b""
        return " ".join(argv).encode() + b"\n" + out[1] + text

    def import_ms(self) -> float:
        """Fresh-interpreter ``import satpath`` minus bare interpreter start-up."""
        def probe(code):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=CALL_TIMEOUT_S)
            return time.perf_counter() - start

        bare, loaded = [], []
        for _ in range(IMPORT_PROBES):
            bare.append(probe("pass"))
            loaded.append(probe("import satpath"))
        return (statistics.median(loaded) - statistics.median(bare)) * 1e3


class Gate:
    """The correctness gate: checks each output and tallies what passed."""

    def __init__(self, runner):
        self.runner = runner
        self.attempted = 0
        self.failures: list[str] = []
        # (input index, timed seconds before it started, ms per work unit)
        self.op_ms: list[tuple[int, float, float]] = []
        self.work = 0
        self.busy_s = 0.0
        self.digest = hashlib.sha256()

    def record(self, index, at_s, item, out, elapsed: float, error: str | None) -> None:
        self.attempted += 1
        if error is None:
            try:
                error = self.runner.check(index, item, out)
            except Exception as exc:  # a gate that cannot read the output fails the operation
                error = f"gate {type(exc).__name__}: {exc}"
        if error is not None:
            self.failures.append(error)
            return
        units = self.runner.work(item, out)
        self.work += units
        self.busy_s += elapsed
        self.op_ms.append((index, at_s, elapsed * 1e3 / units))
        self.digest.update(self.runner.canonical(item, out))


def _peak_rss_mb(cli: bool) -> float:
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main() -> None:
    spec = json.loads(sys.argv[1])
    workload, mode = spec["workload"], spec["mode"]
    if not Path(satpath.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"satpath imported from {satpath.__file__}, not from this checkout's src")
    if workload == "dynamics_batch":
        runner = Dynamics(spec["seed"])
    elif workload == "cli":
        runner = Cli(spec["seed"])
    else:
        runner = Corpus(spec["seed"], workload, spec["held_out"])
    setup_s = time.perf_counter() - STARTED
    result = {"setup_s": setup_s, "inputs_digest": runner.inputs_digest, "numpy": np.__version__}
    if mode == "setup":
        result["host"] = [hostspeed.slowdown() for _ in range(SETUP_HOST_SAMPLES)]
        print(json.dumps(result))
        return

    tracer = None
    op = runner.op
    if mode == "fixed":
        items = runner.fixed()
        if workload == "cli":
            op = runner.op_in_process
            if spec["trace"]:
                result["import_ms"] = runner.import_ms()
        if spec["trace"]:
            tracer = Tracer()
            layers.install(tracer)
    else:
        items = runner.timed()

    gate = Gate(runner)
    # A timed pass samples a host-speed probe every so much timed work (the
    # fresh-process probe for CLI calls); the probe's time counts against
    # no operation.
    probe, every_s = hostspeed.slowdown, hostspeed.EVERY_S
    if workload == "cli":
        probe, every_s = hostspeed.process_slowdown, hostspeed.PROCESS_EVERY_S
    # The gate checks each output as soon as it exists, off the clock, and
    # keeps only the digest, so memory does not grow with the number of
    # operations.  A traced run defers the gate until the tracer is removed.
    host, deferred = [], []
    clock = time.perf_counter
    timed_s = next_probe = 0.0
    for index, item in enumerate(items):
        if mode == "run" and timed_s >= next_probe:
            host.append((timed_s, probe()))
            next_probe = timed_s + every_s
        t0 = clock()
        try:
            out, error = op(item), None
        except Exception as exc:  # counted as a failed operation
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = clock() - t0
        if tracer is None:
            gate.record(index, timed_s, item, out, elapsed, error)
        else:
            deferred.append((index, timed_s, item, out, elapsed, error))
        timed_s += elapsed
    if tracer is not None:
        tracer.close()
        result["layers"] = layers.layer_metrics(tracer.spans, result.get("import_ms", 0.0))
        for args in deferred:
            gate.record(*args)
    result.update(
        timed_s=timed_s,
        attempted=gate.attempted,
        failed=len(gate.failures),
        failures=gate.failures[:5],
        op_ms=gate.op_ms,
        host=host,
        work=gate.work,
        busy_s=gate.busy_s,
        digest=gate.digest.hexdigest(),
        peak_rss_mb=_peak_rss_mb(workload == "cli" and mode == "run"),
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
