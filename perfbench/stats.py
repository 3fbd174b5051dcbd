"""Summary statistics for timing samples."""

from __future__ import annotations

import math
from typing import Optional, Sequence

# A tail percentile is reported only when at least this many samples lie
# beyond it, so that one outlier cannot set it.
MIN_BEYOND = 10


def tail_percentile(samples: Sequence[float], q: float = 0.9) -> Optional[float]:
    """Nearest-rank q-quantile, or None when fewer than ``MIN_BEYOND``
    samples lie strictly above its rank (for q = 0.9: fewer than 100)."""
    n = len(samples)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]

