"""Communication-cost matrices from directory snapshots.

``cost[i, j] = T_ij + m_ij / B_ij`` — the paper's linear model for the
message from ``P_i`` to ``P_j``.  Note the *internal* convention is
src-major; the paper's matrix ``C`` is the transpose (``C_{i,j}`` is the
time from ``P_j`` to ``P_i``).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.directory.service import DirectorySnapshot
from repro.model.messages import SizeSpec
from repro.util.rng import RngLike


def cost_matrix(
    snapshot: DirectorySnapshot,
    sizes: Union[np.ndarray, SizeSpec],
    *,
    rng: RngLike = None,
) -> np.ndarray:
    """Build the ``[src, dst]`` communication-time matrix in seconds.

    ``sizes`` may be an explicit byte matrix or a
    :class:`~repro.model.messages.SizeSpec` (sampled with ``rng``).
    Diagonal entries are zero: the paper treats local copies as free.
    Zero-size off-diagonal messages also cost zero (no message is sent).
    """
    if isinstance(sizes, SizeSpec):
        size_matrix = sizes.sizes(snapshot.num_procs, rng=rng)
    else:
        size_matrix = np.asarray(sizes, dtype=float)
    if size_matrix.shape != (snapshot.num_procs, snapshot.num_procs):
        raise ValueError(
            f"size matrix shape {size_matrix.shape} does not match "
            f"{snapshot.num_procs} processors"
        )
    if np.any(size_matrix < 0):
        raise ValueError("message sizes must be non-negative")
    return unchecked_cost_matrix(snapshot, size_matrix)


def unchecked_cost_matrix(
    snapshot: DirectorySnapshot, size_matrix: np.ndarray
) -> np.ndarray:
    """:func:`cost_matrix`'s arithmetic alone, for a float size matrix
    already checked against ``snapshot``; returns a fresh array."""
    with np.errstate(invalid="ignore"):
        cost = snapshot.latency + size_matrix / snapshot.bandwidth
    cost = np.where(size_matrix == 0, 0.0, cost)
    np.fill_diagonal(cost, 0.0)
    return cost


class CommunicationModel:
    """Convenience wrapper binding a snapshot for repeated cost queries."""

    def __init__(self, snapshot: DirectorySnapshot):
        self._snapshot = snapshot

    @property
    def snapshot(self) -> DirectorySnapshot:
        return self._snapshot

    @property
    def num_procs(self) -> int:
        return self._snapshot.num_procs

    def transfer_time(self, src: int, dst: int, size_bytes: float) -> float:
        """Time for a single ``size_bytes`` message from ``src`` to ``dst``."""
        return self._snapshot.transfer_time(src, dst, size_bytes)

    def cost_matrix(
        self, sizes: Union[np.ndarray, SizeSpec], *, rng: RngLike = None
    ) -> np.ndarray:
        """Cost matrix for a full total-exchange size pattern."""
        return cost_matrix(self._snapshot, sizes, rng=rng)
