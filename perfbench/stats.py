"""Arithmetic the benchmark reports: medians, the tail rule and real-time factor."""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10


def tail(samples, beyond: int = TAIL_BEYOND):
    """The highest whole percentile with at least ``beyond`` samples above it.

    Uses the nearest-rank definition: percentile p is the k-th smallest
    sample with k = ceil(p * n / 100). Returns ``(value, percentile, n)``.
    With ``beyond`` samples or fewer no percentile qualifies, and the
    maximum is returned as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return ordered[-1], 100, n
    percentile = (100 * (n - beyond)) // n
    rank = max(1, -(-percentile * n // 100))
    return ordered[rank - 1], percentile, n


def rtf(op_seconds, audio_seconds) -> float:
    """Total op wall time over the seconds of input audio those ops handled."""
    audio = math.fsum(audio_seconds)
    if audio <= 0:
        raise ValueError("ops handled no audio")
    return math.fsum(op_seconds) / audio


def median(values) -> float:
    return float(statistics.median(values))

