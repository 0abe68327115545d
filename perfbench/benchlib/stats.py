"""Order statistics shared by the workloads, `repeat.py` and `compare.py`."""

import statistics


def median(values):
    return statistics.median(values)


def percentile(values, q):
    """The q-th percentile (0..100) by linear interpolation between order
    statistics: 0 is the minimum, 100 the maximum."""
    if not values:
        raise ValueError("percentile of no values")
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def quartiles(values):
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them,
    which is how the benchmark's spread is judged. One value is its own
    quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median (0 when the
    median is 0 and the values agree)."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(q2)
