"""Order statistics for the benchmark's timings.

Every timing is reported as a median plus a tail percentile, with the
sample count.  The tail is only meaningful when enough samples lie
beyond it, so :func:`tail_rule` picks the highest percentile of a fixed
ladder that leaves at least ten samples above it.  Percentiles use the
nearest-rank definition, so a reported value is always a sample that
was actually measured.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

__all__ = ["LADDER", "MIN_BEYOND", "percentile", "beyond", "tail_rule", "timing"]

LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def beyond(n: int, p: float) -> int:
    """How many of ``n`` samples rank above percentile ``p``."""
    return n - _rank(n, p) if n else 0


def tail_rule(n: int) -> Optional[float]:
    """The highest ladder percentile with >= 10 of ``n`` samples beyond it."""
    chosen = None
    for p in LADDER:
        if beyond(n, p) >= MIN_BEYOND:
            chosen = p
    return chosen


def timing(values: Sequence[float], scale: float = 1.0) -> dict:
    """Mean, median, p90, p99 and the rule's tail of ``values`` times ``scale``.

    ``p90_valid``/``p99_valid`` say whether that percentile has ten
    samples beyond it; only then is it printed.
    """
    n = len(values)
    ordered = sorted(values)
    tail_p = tail_rule(n)
    return {
        "n": n,
        "mean": sum(values) / n * scale if n else 0.0,
        "p50": ordered[_rank(n, 50.0) - 1] * scale if n else 0.0,
        "p90": ordered[_rank(n, 90.0) - 1] * scale if n else 0.0,
        "p99": ordered[_rank(n, 99.0) - 1] * scale if n else 0.0,
        "p90_valid": beyond(n, 90.0) >= MIN_BEYOND,
        "p99_valid": beyond(n, 99.0) >= MIN_BEYOND,
        "tail_p": tail_p,
        "tail": ordered[_rank(n, tail_p) - 1] * scale if tail_p else None,
        "tail_beyond": beyond(n, tail_p) if tail_p else 0,
    }
