"""Sample arithmetic: percentiles that refuse thin tails, run-to-run spread."""

from __future__ import annotations

import math
import statistics

#: samples that must lie beyond a reported percentile
MIN_TAIL_SAMPLES = 10


def min_samples(q: float) -> int:
    """Smallest sample count for which percentile ``q`` (0-100) is reportable."""
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    return math.ceil(MIN_TAIL_SAMPLES * 100 / (100 - q) - 1e-9)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` of ``values``.

    Refuses (``ValueError``) unless at least :data:`MIN_TAIL_SAMPLES`
    samples lie beyond it, so a p99 needs 1,000 samples and a p90 needs 100.
    """
    data = sorted(values)
    need = min_samples(q)
    if len(data) < need:
        raise ValueError(
            f"p{q:g} needs >= {need} samples ({MIN_TAIL_SAMPLES} beyond it), "
            f"got {len(data)}"
        )
    rank = math.ceil(q / 100 * len(data))
    return data[max(rank, 1) - 1]


def quartile_spread(values) -> float:
    """Inter-quartile distance over the median (``statistics.quantiles``)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
