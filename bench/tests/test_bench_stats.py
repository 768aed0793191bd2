import random

import pytest

import stats


@pytest.mark.parametrize(
    "n, pct",
    [(0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    values = list(range(n))
    random.Random(n).shuffle(values)
    got_pct, got = stats.tail(values)
    assert got_pct == pct
    if pct is None:
        assert got is None
    else:
        assert sum(v > got for v in values) >= stats.TAIL_MIN_BEYOND
        # one percentile step higher would leave fewer than ten beyond
        higher = [p for p in stats.TAIL_LADDER if p > pct]
        if higher:
            rank = stats._rank(n, higher[0])
            assert n - rank < stats.TAIL_MIN_BEYOND


def test_tail_of_1000_is_the_eleventh_largest():
    values = [float(v) for v in range(1000)]
    assert stats.tail(values) == (99.0, 989.0)



def test_each_operation_is_scaled_by_the_five_probe_samples_nearest_to_it():
    import run

    timed_pass = {
        # (timed seconds when sampled, slowdown)
        "host": [(0.0, 1.0), (0.1, 2.0), (0.2, 2.0), (0.3, 2.0), (0.4, 4.0), (0.5, 4.0), (0.6, 4.0)],
        # (input index, timed seconds when it started, ms)
        "op_ms": [(0, 0.0, 10.0), (1, 0.25, 10.0), (2, 0.65, 10.0)],
    }
    # Samples 0-2 -> median 2; samples 0-4 -> 2; samples 4-6 -> 4.
    assert run._scaled_ms(timed_pass) == [5.0, 5.0, 2.5]
