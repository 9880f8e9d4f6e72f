"""Order statistics for the benchmark's reports."""

import math
import statistics

# Percentiles tried for a tail figure, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, as
    statistics.quantiles(values, n=4) gives them; a single value is its
    own quartiles."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p % of
    the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values, beyond=10):
    """The highest percentile of TAIL_LADDER that has at least `beyond`
    samples above its nearest rank, as (percentile, value, sample count);
    None when even the median has fewer than `beyond` samples above it."""
    n = len(values)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= beyond:
            return p, percentile(values, p), n
    return None
