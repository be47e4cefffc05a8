"""Directory service API and snapshots."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.util.validation import check_index


@dataclass(frozen=True)
class DirectorySnapshot:
    """Immutable point-in-time view of pairwise network performance.

    Attributes
    ----------
    latency:
        ``[src, dst]`` start-up costs ``T_ij`` in seconds; zero diagonal.
    bandwidth:
        ``[src, dst]`` transfer rates ``B_ij`` in bytes/second; ``inf``
        diagonal (local copies are free under the paper's model).
    time:
        Directory clock at which the snapshot was taken, in seconds.
    """

    latency: np.ndarray
    bandwidth: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        latency = np.asarray(self.latency, dtype=float)
        bandwidth = np.asarray(self.bandwidth, dtype=float)
        if latency.ndim != 2 or latency.shape[0] != latency.shape[1]:
            raise ValueError(f"latency must be square, got {latency.shape}")
        if bandwidth.shape != latency.shape:
            raise ValueError(
                f"bandwidth shape {bandwidth.shape} != latency shape "
                f"{latency.shape}"
            )
        if np.any(latency < 0) or np.any(np.isnan(latency)):
            raise ValueError("latencies must be non-negative and not NaN")
        if not np.all(bandwidth > 0):  # also rejects NaN
            raise ValueError("bandwidths must be positive")
        latency = latency.copy()
        bandwidth = bandwidth.copy()
        latency.flags.writeable = False
        bandwidth.flags.writeable = False
        object.__setattr__(self, "latency", latency)
        object.__setattr__(self, "bandwidth", bandwidth)

    def restamped(self, time: float) -> "DirectorySnapshot":
        """These checked, read-only matrices at clock ``time``, shared
        rather than re-checked and copied."""
        stamped = object.__new__(type(self))
        stamped.__dict__.update(self.__dict__, time=time)
        return stamped

    @property
    def num_procs(self) -> int:
        return self.latency.shape[0]

    def pair(self, src: int, dst: int) -> Tuple[float, float]:
        """``(T_ij, B_ij)`` for one ordered pair."""
        check_index("src", src, self.num_procs)
        check_index("dst", dst, self.num_procs)
        return float(self.latency[src, dst]), float(self.bandwidth[src, dst])

    def transfer_time(self, src: int, dst: int, size_bytes: float) -> float:
        """The paper's cost model for one message: ``T_ij + m / B_ij``."""
        if src == dst:
            return 0.0
        t, b = self.pair(src, dst)
        return t + size_bytes / b


class DirectoryService(abc.ABC):
    """Query interface for current network performance.

    Concrete directories answer per-pair queries against their *current*
    state and can be advanced in time; :meth:`snapshot` freezes the
    current state for schedule construction, matching the paper's usage
    ("schedules are developed at run-time, based on network performance
    information obtained from a directory service").
    """

    @property
    @abc.abstractmethod
    def num_procs(self) -> int:
        """Number of compute nodes known to the directory."""

    @property
    @abc.abstractmethod
    def time(self) -> float:
        """Current directory clock in seconds."""

    @abc.abstractmethod
    def snapshot(self) -> DirectorySnapshot:
        """Freeze current latency/bandwidth matrices."""

    @abc.abstractmethod
    def advance(self, dt: float) -> None:
        """Advance the directory clock by ``dt`` seconds, evolving load."""

    # Convenience per-pair queries (MDS-style API).

    def latency(self, src: int, dst: int) -> float:
        """Current start-up cost ``T_ij`` in seconds."""
        return self.snapshot().pair(src, dst)[0]

    def bandwidth(self, src: int, dst: int) -> float:
        """Current end-to-end bandwidth ``B_ij`` in bytes/second."""
        return self.snapshot().pair(src, dst)[1]
