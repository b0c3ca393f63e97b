"""Order statistics with the benchmark's sample-size rule.

A percentile is reported only when at least :data:`MIN_BEYOND` samples
lie beyond it in the same run; below that, the tail is one or two
unlucky operations and the number says nothing repeatable.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


def samples_beyond(count: int, fraction: float) -> int:
    """How many of ``count`` sorted samples sit above the nearest-rank
    ``fraction`` percentile."""
    if not 0 < fraction < 1:
        raise ValueError("fraction must lie strictly between 0 and 1")
    return count - math.ceil(fraction * count)


def min_samples(fraction: float) -> int:
    """The fewest samples for which ``fraction`` satisfies the rule."""
    count = 1
    while samples_beyond(count, fraction) < MIN_BEYOND:
        count += 1
    return count


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; raises unless the tail rule holds."""
    beyond = samples_beyond(len(samples), fraction)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{fraction * 100:g} of {len(samples)} samples has only {beyond} "
            f"beyond it (need {MIN_BEYOND})"
        )
    ordered = sorted(samples)
    return ordered[math.ceil(fraction * len(ordered)) - 1]
