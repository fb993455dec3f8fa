"""Arithmetic of the campaign benchmark: percentiles, span self time, ratios.

Every function here is pure; perfbench/test_metrics.py covers them. A result
that does not exist (a ratio over zero, a percentile with too few samples
beyond it) is None, which the report prints as n/a.
"""

import math
import statistics

# Percentiles a timing may be reported at, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
# Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def ratio(numerator, denominator):
    """numerator / denominator, or None when the denominator is zero."""
    if denominator == 0:
        return None
    return numerator / denominator


def median(values):
    """Median of a non-empty sequence; None when it is empty."""
    values = list(values)
    return statistics.median(values) if values else None


def _rank(count, p):
    """1-based nearest rank of the p-th percentile among `count` samples."""
    # round() keeps 99.9% of 10000 at rank 9990, not 9991 by float error.
    return max(1, math.ceil(round(p * count / 100.0, 9)))


def percentile(values, p):
    """Nearest-rank p-th percentile (0 < p <= 100) of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(count, p):
    """Samples strictly above the nearest-rank p-th percentile of `count`."""
    return count - _rank(count, p)


def highest_supported_percentile(count, candidates=PERCENTILES, min_beyond=MIN_BEYOND):
    """The highest candidate percentile with >= min_beyond samples beyond it."""
    supported = [p for p in candidates if samples_beyond(count, p) >= min_beyond]
    return max(supported) if supported else None


def supported_percentile(values, p, min_beyond=MIN_BEYOND):
    """The p-th percentile, or None when fewer than min_beyond samples lie beyond it."""
    if samples_beyond(len(values), p) < min_beyond:
        return None
    return percentile(values, p)


def union_length(intervals):
    """Total length covered by (start, end) intervals, overlaps counted once."""
    covered = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def child_coverage(parent, children):
    """Length of `parent` (start, end) covered by the union of its children."""
    start, end = parent
    clipped = [(max(s, start), min(e, end)) for s, e in children]
    return union_length([(s, e) for s, e in clipped if e > s])


def self_time(parent, children):
    """A span's duration minus the part of it its children cover."""
    return (parent[1] - parent[0]) - child_coverage(parent, children)

