"""Pairwise perturbation of directory snapshots.

Adaptivity experiments (paper Sections 5 and 6.3) need "the same network,
a bit later": bandwidths drifted by some multiplicative factor, a few
pairs degraded sharply, and so on.  :func:`perturb_snapshot` produces a
new snapshot from an old one without touching the underlying directory.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.directory.service import DirectorySnapshot
from repro.util.rng import RngLike, to_rng
from repro.util.validation import check_positive


@lru_cache(maxsize=4)
def _mirror_indices(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Flat indices of an ``n x n`` matrix's strict upper triangle and
    of their mirror images below the diagonal (read-only, per ``n``)."""
    rows, cols = np.triu_indices(n, k=1)
    upper = rows * n + cols
    lower = cols * n + rows
    upper.flags.writeable = False
    lower.flags.writeable = False
    return upper, lower


def _zero_diagonal(matrix: np.ndarray) -> bool:
    """Whether every diagonal entry is ``+0.0`` (``-0.0`` is not)."""
    diagonal = matrix.diagonal()
    return not (diagonal.any() or np.signbit(diagonal).any())


def perturb_snapshot(
    snapshot: DirectorySnapshot,
    *,
    bandwidth_sigma: float = 0.0,
    latency_sigma: float = 0.0,
    degrade_pairs: Optional[Sequence[Tuple[int, int]]] = None,
    degrade_factor: float = 1.0,
    symmetric: bool = True,
    time_delta: float = 0.0,
    rng: RngLike = None,
) -> DirectorySnapshot:
    """Return a multiplicatively perturbed copy of ``snapshot``.

    Parameters
    ----------
    bandwidth_sigma, latency_sigma:
        Standard deviations of log-normal multiplicative noise applied per
        pair (0 disables).
    degrade_pairs:
        Ordered pairs whose bandwidth is additionally divided by
        ``degrade_factor`` (e.g. a backbone link suddenly congested).
    degrade_factor:
        Must be >= 1; 1 means no targeted degradation.
    symmetric:
        Apply identical noise to ``(i, j)`` and ``(j, i)``.
    time_delta:
        Advance the snapshot's timestamp.

    A matrix left unperturbed is shared with ``snapshot`` (latency only
    when its diagonal is already zero), not copied.
    """
    check_positive("bandwidth_sigma", bandwidth_sigma, allow_zero=True)
    check_positive("latency_sigma", latency_sigma, allow_zero=True)
    if degrade_factor < 1.0:
        raise ValueError(f"degrade_factor must be >= 1, got {degrade_factor}")
    rng = to_rng(rng)
    n = snapshot.num_procs

    def noise(sigma: float) -> np.ndarray:
        factors = np.exp(rng.normal(0.0, sigma, size=(n, n)))
        if symmetric:
            upper, lower = _mirror_indices(n)
            flat = factors.reshape(-1)
            flat[lower] = flat[upper]
        np.fill_diagonal(factors, 1.0)
        return factors

    latency = snapshot.latency
    if latency_sigma != 0.0:
        latency = latency * noise(latency_sigma)
        np.fill_diagonal(latency, 0.0)
    elif not _zero_diagonal(latency):
        latency = latency.copy()
        np.fill_diagonal(latency, 0.0)
    bandwidth = snapshot.bandwidth
    if bandwidth_sigma != 0.0:
        bandwidth = bandwidth * noise(bandwidth_sigma)

    if degrade_pairs:
        if bandwidth is snapshot.bandwidth:
            bandwidth = bandwidth.copy()
        for src, dst in degrade_pairs:
            if src == dst:
                raise ValueError("cannot degrade a diagonal pair")
            bandwidth[src, dst] /= degrade_factor
            if symmetric:
                bandwidth[dst, src] /= degrade_factor

    return snapshot._derived(latency, bandwidth, snapshot.time + time_delta)
