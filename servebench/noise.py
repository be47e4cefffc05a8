"""Noise diagnostics: they show a slow machine state but gate nothing."""

from __future__ import annotations

import statistics
import time

import numpy as np


def calibrate() -> float:
    """Median of three timings, in wall milliseconds, of a fixed
    single-threaded loop: pure-Python integer arithmetic plus numpy
    sorts and a dot product."""
    samples = []
    data = np.random.default_rng(0).random(200_000)
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        for _ in range(5):
            np.sort(data)
            float(data @ data)
        samples.append((time.perf_counter() - started) * 1e3)
    return statistics.median(samples)


def steal_ticks() -> int:
    """Machine-wide steal ticks so far (``/proc/stat``; 0 if absent)."""
    with open("/proc/stat", "r", encoding="ascii") as handle:
        fields = handle.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0
