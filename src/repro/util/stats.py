"""Small statistics helpers for experiment reporting and serving.

Sweeps report means; when trials are few, a confidence interval keeps
readers honest about the noise.  Implemented with Student's t critical
values (scipy) so there is no normality hand-waving at n = 3.  The
serving metrics, the SLO monitor and the load generator share one
nearest-rank :func:`percentile`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class MeanCI:
    """A sample mean with a two-sided confidence interval."""

    mean: float
    half_width: float
    confidence: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.half_width:.2g}"


def mean_ci(samples: Sequence[float], *, confidence: float = 0.95) -> MeanCI:
    """Sample mean with a Student-t confidence interval.

    A single sample yields a zero-width interval (there is nothing to
    estimate spread from, and callers shouldn't crash on smoke runs).
    """
    if not (0 < confidence < 1):
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one sample")
    mean = float(arr.mean())
    if arr.size == 1:
        return MeanCI(mean=mean, half_width=0.0, confidence=confidence, n=1)
    # imported here: the serving path imports this module for
    # ``percentile`` and never needs scipy.stats
    from scipy import stats

    sem = float(arr.std(ddof=1) / math.sqrt(arr.size))
    t_crit = float(stats.t.ppf((1 + confidence) / 2, arr.size - 1))
    return MeanCI(
        mean=mean,
        half_width=t_crit * sem,
        confidence=confidence,
        n=int(arr.size),
    )


def geometric_mean(samples: Sequence[float]) -> float:
    """Geometric mean — the right average for ratio-to-LB samples."""
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one sample")
    if np.any(arr <= 0):
        raise ValueError("geometric mean needs positive samples")
    return float(np.exp(np.log(arr).mean()))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``q`` in ``[0, 100]``) of
    ``samples``: the sorted sample at index ``round(q / 100 * (n - 1))``.
    0.0 when there are no samples."""
    if not len(samples):
        return 0.0
    ordered = sorted(samples)
    index = round(q / 100.0 * (len(ordered) - 1))
    return ordered[min(len(ordered) - 1, index)]
