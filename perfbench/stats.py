"""Sample statistics with the benchmark's reporting rules."""

from __future__ import annotations

import math
import resource
import statistics

#: A percentile is reported only with at least this many samples
#: beyond it.
BEYOND = 10


def tail(samples: "list[float]") -> "tuple[str, float]":
    """The highest percentile with ``BEYOND`` samples beyond it.

    Nearest-rank: the value of rank ``n - BEYOND`` is named
    ``p{100 * (n - BEYOND) / n}``. Needs ``2 * BEYOND`` samples, so the
    tail is never below the median.
    """
    n = len(samples)
    if n < 2 * BEYOND:
        raise ValueError(f"a tail needs {2 * BEYOND} samples, got {n}")
    rank = n - BEYOND
    value = sorted(samples)[rank - 1]
    return f"p{100.0 * rank / n:.1f}", value


def median(samples: "list[float]") -> float:
    if len(samples) < 2 * BEYOND:
        raise ValueError(
            f"a median needs {2 * BEYOND} samples, got {len(samples)}")
    return statistics.median(samples)


def middle(repeats: "list[list[float]]") -> "list[float]":
    """Per position, the median of its values over the repeats.

    Every repeat does the same work in the same order, so sample ``i``
    of each repeat times the same operation.
    """
    if any(len(r) != len(repeats[0]) for r in repeats):
        raise ValueError("repeats differ in length")
    return [statistics.median(values) for values in zip(*repeats)]


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else math.nan


def rss_peak_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
