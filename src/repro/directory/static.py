"""Static directories backed by fixed matrices."""

from __future__ import annotations

import numpy as np

from repro.directory.service import DirectoryService, DirectorySnapshot
from repro.network.gusto import gusto_parameters


class StaticDirectory(DirectoryService):
    """A directory whose answers never change.

    Useful for the GUSTO tables, for unit tests, and as the frozen end of
    adaptivity experiments.
    """

    def __init__(self, latency: np.ndarray, bandwidth: np.ndarray):
        self._snapshot = DirectorySnapshot(
            latency=latency, bandwidth=bandwidth, time=0.0
        )
        self._time = 0.0

    @property
    def num_procs(self) -> int:
        return self._snapshot.num_procs

    @property
    def time(self) -> float:
        return self._time

    def snapshot(self) -> DirectorySnapshot:
        return self._snapshot.restamped(self._time)

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError(f"dt must be >= 0, got {dt}")
        self._time += dt


def gusto_directory() -> StaticDirectory:
    """The 5-site GUSTO directory from the paper's Tables 1-2."""
    latency, bandwidth = gusto_parameters()
    return StaticDirectory(latency=latency, bandwidth=bandwidth)
