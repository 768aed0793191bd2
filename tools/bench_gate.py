"""Run one benchmark gate: bench/run.py with this script's arguments.

    python3 tools/bench_gate.py --workload corpus_boundary --seed 0 --trace 1

The run's output is echoed as it arrives.  The gate passes (exit 0) only
when bench/run.py exits 0 and the JSON object on its last output line has
``correct`` true and ``failed`` 0.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    last = ""
    with subprocess.Popen(
        [sys.executable, "bench/run.py", *argv], cwd=ROOT, stdout=subprocess.PIPE, text=True
    ) as proc:
        for line in proc.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            last = line
    if proc.returncode != 0:
        print(f"bench/run.py exited with status {proc.returncode}")
        return 1
    result = json.loads(last)
    print("correct:", result["correct"], "failed:", result["failed"])
    return 0 if result["correct"] is True and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
