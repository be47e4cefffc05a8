"""Percentiles and the tail-percentile rule."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples a reported tail percentile needs strictly beyond it.
MIN_BEYOND = 10


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` sorted samples lie beyond the ``pct``-th
    percentile (the top ``(100 - pct)%``, rounded down)."""
    return math.floor(count * (100.0 - pct) / 100.0 + 1e-9)


def tail_percentile(count: int, ladder: Sequence[float] = TAIL_LADDER) -> float:
    """The highest percentile on ``ladder`` with at least
    :data:`MIN_BEYOND` samples beyond it; ``nan`` when none qualifies."""
    for pct in ladder:
        if samples_beyond(count, pct) >= MIN_BEYOND:
            return pct
    return float("nan")


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    return float(np.percentile(np.asarray(samples, dtype=float), pct))
