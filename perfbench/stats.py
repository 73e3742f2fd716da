"""Order statistics used for every reported timing."""

import math

#: Tail percentiles considered, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 50.0)

#: A percentile is only reported when at least this many samples lie
#: beyond it; fewer makes the tail one or two outliers.
MIN_BEYOND = 10


def percentile(values, pct):
    """Nearest-rank percentile (a value that was actually observed)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(pct, len(ordered)) - 1]


def _rank(pct, count):
    # Rounded first so that e.g. 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(pct * count / 100.0, 9)))


def tail_percentile(count):
    """Highest percentile of TAIL_PERCENTILES with at least MIN_BEYOND
    of *count* samples strictly beyond its nearest rank, or None."""
    for pct in TAIL_PERCENTILES:
        if count - _rank(pct, count) >= MIN_BEYOND:
            return pct
    return None
