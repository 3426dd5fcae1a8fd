"""Small statistics the benchmark reports: medians, tail percentiles and
run-to-run spread."""

from __future__ import annotations

import math
import random
import statistics
from typing import Optional, Sequence, Tuple

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A reported percentile must leave at least this many samples above it.
MIN_BEYOND = 10


def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(p, value)`` for the highest percentile in
    :data:`TAIL_PERCENTILES` with at least :data:`MIN_BEYOND` samples
    strictly beyond its rank, or ``None`` when the run is too short.

    The value is the nearest-rank sample: the ``ceil(p/100 * n)``-th
    smallest, which leaves ``n - ceil(p/100 * n)`` samples beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= MIN_BEYOND:
            return p, ordered[rank - 1]
    return None


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def seed_list(workload: str, seed: int, count: int) -> Tuple[int, ...]:
    """The simulation seeds one run hands the program: ``count`` distinct
    seeds drawn from ``(workload, seed)`` alone."""
    rng = random.Random(f"{workload}:{int(seed)}")
    return tuple(rng.sample(range(1_000_000), count))
