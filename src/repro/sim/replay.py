"""Replaying planned schedules under different network conditions.

Adaptivity claims are about exactly this gap: a schedule is planned from
one directory snapshot, but the network has moved on by the time it runs.
These helpers re-execute a planned schedule's event order — which fixes
both each sender's dispatch order and each receiver's service order —
under the costs that actually materialised, using the same strict
order-preserving semantics the schedulers plan for: the serving
runtime's re-timer (:func:`repro.adaptive.delta.retime_schedule`).

The module also provides recorded *drift traces* — timestamped snapshot
sequences (:class:`DriftTrace`) playable through a
:class:`TraceDirectory` — which is how the adaptive runtime
(:mod:`repro.runtime`) and ``python -m repro.cli serve`` are driven:
plan against the directory, watch it drift, measure the gap.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from repro.core.problem import TotalExchangeProblem
from repro.directory.perturb import perturb_snapshot
from repro.directory.service import DirectoryService, DirectorySnapshot
from repro.timing.events import Schedule, event_columns
from repro.util.rng import stable_seed, to_rng


def replay_schedule(
    planned: Schedule, actual: TotalExchangeProblem
) -> Schedule:
    """Execute ``planned``'s event order under ``actual``'s costs.

    The planned per-port orders are kept and every start is recomputed
    (an event starts once both of its ports are free), so start times
    stretch or shrink with the new costs.  Zero-cost markers sit at
    their sender's clock.  A pair the plan sends in pieces keeps its
    pieces, scaled to the pair's new cost.
    """
    # imported here: repro.adaptive imports the schedulers, which import
    # this package
    from repro.adaptive.delta import retime_schedule

    n = planned.num_procs
    if n != actual.num_procs:
        raise ValueError(
            f"schedule over {n} processors cannot replay on "
            f"a {actual.num_procs}-processor instance"
        )
    _, srcs, dsts, durations = event_columns(planned)
    basis = np.bincount(
        srcs * n + dsts, weights=durations, minlength=n * n
    ).reshape(n, n)
    return retime_schedule(planned, basis, actual).schedule


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying a planned schedule under actual conditions."""

    planned: Schedule
    actual: Schedule

    @property
    def planned_time(self) -> float:
        return self.planned.completion_time

    @property
    def actual_time(self) -> float:
        return self.actual.completion_time

    @property
    def slowdown(self) -> float:
        """``actual / planned`` completion-time ratio (1.0 = as planned)."""
        if self.planned_time == 0:
            return 1.0 if self.actual_time == 0 else float("inf")
        return self.actual_time / self.planned_time


def planned_vs_actual(
    planned_schedule: Schedule,
    actual: TotalExchangeProblem,
) -> ReplayResult:
    """Pair a planned schedule with its replay under actual conditions."""
    return ReplayResult(
        planned=planned_schedule,
        actual=replay_schedule(planned_schedule, actual),
    )


# ---------------------------------------------------------------------------
# Drift traces: recorded directory histories for replay-driven serving.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DriftTrace:
    """A timestamped sequence of directory snapshots.

    ``snapshots[k]`` is in force over ``[times[k], times[k+1])``; the
    last snapshot extends forever.  Traces can be recorded from a live
    directory or synthesised (:func:`synthetic_drift_trace`); either way
    they make drift experiments exactly reproducible.
    """

    times: Tuple[float, ...]
    snapshots: Tuple[DirectorySnapshot, ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.snapshots) or not self.times:
            raise ValueError(
                "need equally many times and snapshots, at least one"
            )
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("trace times must be strictly increasing")
        n = self.snapshots[0].num_procs
        if any(s.num_procs != n for s in self.snapshots):
            raise ValueError("all trace snapshots must share a size")

    @property
    def num_procs(self) -> int:
        return self.snapshots[0].num_procs

    @property
    def duration(self) -> float:
        return self.times[-1] - self.times[0]

    def __len__(self) -> int:
        return len(self.snapshots)

    def __iter__(self) -> Iterator[DirectorySnapshot]:
        return iter(self.snapshots)

    def at(self, time: float) -> DirectorySnapshot:
        """The snapshot in force at ``time`` (clamped at the ends)."""
        return self.snapshots[max(bisect_right(self.times, time) - 1, 0)]


def synthetic_drift_trace(
    base: DirectorySnapshot,
    *,
    ticks: int,
    dt: float = 1.0,
    base_sigma: float = 0.02,
    burst_sigma: float = 0.5,
    burst_every: int = 0,
    seed: int = 0,
) -> DriftTrace:
    """A deterministic multiplicative-random-walk drift trace.

    Each step perturbs the *previous* snapshot's bandwidths with
    log-normal noise of magnitude ``base_sigma`` — drift compounds, as
    live networks do.  When ``burst_every`` is positive, every that-many
    ticks the step uses ``burst_sigma`` instead, modelling sudden load
    shifts (a backbone link congesting) on top of slow wander.  The walk
    is seeded per step from ``(seed, step)`` so a trace prefix never
    depends on its length.
    """
    if ticks < 1:
        raise ValueError(f"ticks must be >= 1, got {ticks}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if burst_every < 0:
        raise ValueError(f"burst_every must be >= 0, got {burst_every}")
    times = [0.0]
    snapshots = [base]
    for step in range(1, ticks):
        burst = burst_every > 0 and step % burst_every == 0
        sigma = burst_sigma if burst else base_sigma
        rng = to_rng(stable_seed("drift-trace", seed, step))
        snapshots.append(
            perturb_snapshot(
                snapshots[-1],
                bandwidth_sigma=sigma,
                time_delta=dt,
                rng=rng,
            )
        )
        times.append(step * dt)
    return DriftTrace(times=tuple(times), snapshots=tuple(snapshots))


def drift_storm_trace(
    base: DirectorySnapshot,
    *,
    ticks: int,
    dt: float = 1.0,
    calm_sigma: float = 0.005,
    storm_every: int = 4,
    storm_nodes: int = 2,
    storm_sigma: float = 0.8,
    seed: int = 0,
) -> DriftTrace:
    """A bursty, node-correlated drift trace: calm wander + row storms.

    Unlike :func:`synthetic_drift_trace`'s independent per-pair noise,
    storms here are *cluster-correlated*: every ``storm_every`` ticks a
    contiguous window of ``storm_nodes`` nodes congests, and each
    affected node's entire outgoing row is repriced by one log-normal
    factor (latency multiplied, bandwidth divided — so per-pair costs
    scale exactly by the factor).  That is the localisation structure
    delta-repair exploits: a storm dirties roughly ``storm_nodes / P``
    of the pairs while the drift magnitude can be large, landing in the
    policy's repair band rather than the reuse or reschedule ends.

    Calm ticks perturb the previous snapshot with independent log-normal
    bandwidth noise of magnitude ``calm_sigma``; both kinds compound, as
    live networks do.  Each step is seeded from ``(seed, step)`` so a
    trace prefix never depends on the trace length.
    """
    if ticks < 1:
        raise ValueError(f"ticks must be >= 1, got {ticks}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if storm_every < 0:
        raise ValueError(f"storm_every must be >= 0, got {storm_every}")
    if storm_nodes < 1:
        raise ValueError(f"storm_nodes must be >= 1, got {storm_nodes}")
    if calm_sigma < 0 or storm_sigma < 0:
        raise ValueError("sigmas must be >= 0")
    n = base.num_procs
    span = min(storm_nodes, n)
    times = [0.0]
    snapshots = [base]
    for step in range(1, ticks):
        rng = to_rng(stable_seed("drift-storm", seed, step))
        previous = snapshots[-1]
        storm = storm_every > 0 and step % storm_every == 0
        if storm:
            start = int(rng.integers(0, n - span + 1))
            factors = np.exp(
                np.abs(rng.normal(0.0, storm_sigma, size=span))
            )
            latency = previous.latency.copy()
            bandwidth = previous.bandwidth.copy()
            rows = slice(start, start + span)
            latency[rows, :] *= factors[:, None]
            bandwidth[rows, :] /= factors[:, None]
            np.fill_diagonal(latency, 0.0)
            snapshots.append(
                DirectorySnapshot(
                    latency=latency,
                    bandwidth=bandwidth,
                    time=previous.time + dt,
                )
            )
        else:
            snapshots.append(
                perturb_snapshot(
                    previous,
                    bandwidth_sigma=calm_sigma,
                    time_delta=dt,
                    rng=rng,
                )
            )
        times.append(step * dt)
    return DriftTrace(times=tuple(times), snapshots=tuple(snapshots))


class TraceDirectory(DirectoryService):
    """A directory that answers from a recorded :class:`DriftTrace`.

    The serving runtime subscribes to directories; wrapping a trace in
    this class replays a recorded (or synthesised) network history
    against it deterministically.
    """

    def __init__(self, trace: DriftTrace, *, start_time: float = 0.0):
        self._trace = trace
        self._time = float(start_time)

    @property
    def trace(self) -> DriftTrace:
        return self._trace

    @property
    def num_procs(self) -> int:
        return self._trace.num_procs

    @property
    def time(self) -> float:
        return self._time

    def snapshot(self) -> DirectorySnapshot:
        return self._trace.at(self._time).restamped(self._time)

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError(f"dt must be >= 0, got {dt}")
        self._time += dt
