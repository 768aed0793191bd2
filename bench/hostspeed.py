"""Host-speed probes: fixed computations that do not touch satpath.

On a shared host the CPU speed one process sees drifts by tens of percent,
and a slow spell can outlast a whole run.  Workers time a probe before their
first operation and then every ``EVERY_S`` of timed work, interleaved with
the operations.  A probe reports its slowdown, its time over its time on a
host that is not slowed; a timing divided by the slowdown measured around it
reads as the time on that host.

``slowdown`` times interpreter work (integer arithmetic, tuple hashing) and
the small numpy calls (tensor contractions, dense solves) that satpath's
operations are made of, for several milliseconds so that one sample is not
noise.  ``process_slowdown`` times a fresh interpreter that imports numpy:
the process start-up and import work a CLI call is made of, which the
in-process probe does not see.  Both are part of the benchmark, never of
the library, so no library change moves them.
"""

from __future__ import annotations

import itertools
import statistics
import subprocess
import sys
import time

import numpy as np

# Each probe's time in microseconds when the host is not slowed (about the
# tenth percentile of its samples), on the machine where the baseline was
# recorded (2-core Intel Xeon VM, Python 3.11.7, numpy 2.4.6).
NOMINAL_US = 7_000.0
PROCESS_NOMINAL_US = 170_000.0
EVERY_S = 0.05
PROCESS_EVERY_S = 0.5

_rng = np.random.default_rng(0)
_TENSOR = _rng.uniform(-1.0, 1.0, (3, 3, 3, 3))
_VECTORS = [_rng.dirichlet(np.ones(3)) for _ in range(3)]
_MATRIX = _rng.normal(size=(8, 8))
_RHS = _rng.normal(size=8)


def probe() -> float:
    acc = 0
    for i in range(20_000):
        acc = (acc * 31 + i) % 1_000_003
    table = {joint: sum(joint) for joint in itertools.product(range(3), repeat=6)}
    total = float(acc + len(table))
    for _ in range(150):
        t = _TENSOR
        for q in _VECTORS:
            t = np.tensordot(t, q, axes=([-1], [0]))
        total += float(t.max()) + float(np.linalg.solve(_MATRIX, _RHS)[0])
    return total


def slowdown() -> float:
    start = time.perf_counter()
    probe()
    return (time.perf_counter() - start) * 1e6 / NOMINAL_US


def process_slowdown() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return (time.perf_counter() - start) * 1e6 / PROCESS_NOMINAL_US


def scale(slowdowns) -> float:
    """Factor that converts a timing taken alongside ``slowdowns`` to the
    host that is not slowed."""
    return 1.0 / statistics.median(slowdowns)
