"""Summary statistics for benchmark samples (stdlib only)."""

from __future__ import annotations

import math
import statistics

# Percentiles considered for the tail, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

# The tail is the highest percentile with at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def _rank(n: int, pct: float) -> int:
    """1-based nearest rank of the ``pct`` percentile among ``n`` samples."""
    return max(1, math.ceil(pct / 100.0 * n - 1e-9))


def tail(values):
    """(percentile, value) of the highest ladder percentile that leaves at
    least ten samples strictly beyond its nearest-rank position, or
    (None, None) when there are too few samples even for the median."""
    ordered = sorted(values)
    best = (None, None)
    for pct in TAIL_LADDER:
        rank = _rank(len(ordered), pct)
        if len(ordered) - rank >= TAIL_MIN_BEYOND:
            best = (pct, ordered[rank - 1])
    return best


median = statistics.median
