"""Order statistics used to summarise runs and judge their spread."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them.

    This is the rule the benchmark's acceptance check uses, so spreads
    computed here match it exactly.  A single value is its own quartiles.
    """
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def iqr_share(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 if median 0)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``pct``
    percent of the values at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= pct <= 100:
        raise ValueError(f"percentile {pct} outside [0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return float(ordered[rank - 1])
