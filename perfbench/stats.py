"""Order statistics used by the benchmark report."""
from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A tail percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank q-th percentile (0 < q <= 100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(values: Sequence[float], q: float) -> int:
    """Number of samples ranked above the nearest-rank q-th percentile."""
    return len(values) - max(1, math.ceil(q / 100.0 * len(values)))


def tail(values: Sequence[float], q: float = 90.0) -> tuple[float | None, int]:
    """(q-th percentile, samples beyond it); the value is None below MIN_BEYOND."""
    if not values:
        return None, 0
    n_beyond = beyond(values, q)
    return (percentile(values, q) if n_beyond >= MIN_BEYOND else None), n_beyond


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as statistics.quantiles(n=4) gives them; one value repeats."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3
