"""The three workloads, every input derived from the workload seed.

The program under test receives only what these functions generate:
tenant profiles (spec strings and seeds) for the daemon workloads, and
a platform, a drift-storm trace and a size matrix for ``storm``.  Each
run serves a fixed request sequence whose length follows from
``--seconds`` (see :func:`plan_for`), so the same seed and seconds give
the same sequence, the same decisions and the same makespans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

WORKLOADS = ("fleet", "storm", "mixed")

FLEET_TENANTS = 100
FLEET_COHORTS = 16
FLEET_PROCS = 8
FLEET_DIRECTORY = "drift:sigma=0.02"
FLEET_WORKLOAD = "mixed"

HEAVY_PROCS = 192
HEAVY_DIRECTORY = "drift:sigma=0.6"
HEAVY_WORKLOAD = "mixed"

STORM_PROCS = 256
STORM_CLUSTER_SIZE = 64
STORM_NODE_SHARE = 0.05
STORM_EVERY = 4
STORM_SIGMA = 0.8
CALM_SIGMA = 0.004
STORM_MESSAGE_BYTES = 1e6

SCHEDULER = "openshop"

#: Timed-phase units per second on a 2-core x86-64 VM (fleet: rounds of
#: 16 bursts; mixed: rounds plus one heavy plan; storm: ticks).  They
#: convert ``--seconds`` into a fixed request count.
UNITS_PER_SECOND = {"fleet": 10.0, "mixed": 2.5, "storm": 5.0}

#: The storm tail is p90, which needs 100 ticks for 10 samples beyond.
STORM_MIN_TICKS = 100
#: fleet/mixed tails are p99: 10 rounds give 1000 small requests.
MIN_ROUNDS = 10


@dataclass(frozen=True)
class Tenant:
    """One daemon tenant, as the spec strings its open request carries."""

    name: str
    cohort: int
    procs: int
    directory: str
    workload: str
    seed: int
    scheduler: str = SCHEDULER

    def open_fields(self) -> dict:
        return {
            "tenant": self.name,
            "procs": self.procs,
            "scheduler": self.scheduler,
            "directory": self.directory,
            "workload": self.workload,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class Plan:
    """The fixed request sequence of one run."""

    workload: str
    seed: int
    #: fleet/mixed: rounds of one burst per cohort; storm: 0
    rounds: int
    #: storm: timed ticks; fleet/mixed: 0
    ticks: int
    tenants: tuple = ()
    heavy: Optional[Tenant] = None

    @property
    def trace_ticks(self) -> int:
        """Drift-trace length: the cold tick plus every timed tick."""
        return 1 + max(self.rounds, self.ticks)

    @property
    def cohorts(self) -> List[List[Tenant]]:
        members: List[List[Tenant]] = [[] for _ in range(FLEET_COHORTS)]
        for tenant in self.tenants:
            members[tenant.cohort].append(tenant)
        return members

    @property
    def requests(self) -> int:
        """Timed requests (ticks) the run serves."""
        if self.workload == "storm":
            return self.ticks
        return self.rounds * (len(self.tenants) + (self.heavy is not None))


def _seeds(seed: int, count: int) -> List[int]:
    """``count`` 32-bit seeds drawn from the workload seed (any int)."""
    entropy = int(seed) % (1 << 64)
    state = np.random.SeedSequence(entropy).generate_state(count)
    return [int(value) for value in state]


def _drift_spec(base: str, ticks: int, seed: int) -> str:
    return f"{base},ticks={ticks},seed={seed}"


def plan_for(workload: str, seed: int, seconds: float) -> Plan:
    """The fixed sequence for ``workload``: its count is ``seconds``
    times the workload's nominal rate, floored where the tail
    percentile needs more samples."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    units = seconds * UNITS_PER_SECOND[workload]
    if workload == "storm":
        return Plan(
            workload, seed, rounds=0,
            ticks=max(STORM_MIN_TICKS, math.ceil(units)),
        )
    rounds = max(MIN_ROUNDS, math.ceil(units))
    seeds = _seeds(seed, FLEET_COHORTS + 1)
    trace_ticks = rounds + 1
    tenants = tuple(
        Tenant(
            name=f"t-{index:03d}",
            cohort=index % FLEET_COHORTS,
            procs=FLEET_PROCS,
            directory=_drift_spec(
                FLEET_DIRECTORY, trace_ticks, seeds[index % FLEET_COHORTS]
            ),
            workload=FLEET_WORKLOAD,
            seed=seeds[index % FLEET_COHORTS],
        )
        for index in range(FLEET_TENANTS)
    )
    heavy = None
    if workload == "mixed":
        heavy = Tenant(
            name="heavy",
            cohort=-1,
            procs=HEAVY_PROCS,
            directory=_drift_spec(
                HEAVY_DIRECTORY, trace_ticks, seeds[FLEET_COHORTS]
            ),
            workload=HEAVY_WORKLOAD,
            seed=seeds[FLEET_COHORTS],
        )
    return Plan(workload, seed, rounds=rounds, ticks=0,
                tenants=tenants, heavy=heavy)


def storm_inputs(plan: Plan):
    """``(trace, sizes)`` for the storm workload.  The trace builder is
    looked up on :mod:`repro.sim.replay` at call time, so a traced run
    times it."""
    from repro.directory.service import DirectorySnapshot
    from repro.network.generators import clustered_pairwise_parameters
    from repro.sim import replay

    platform_seed, trace_seed = _seeds(plan.seed, 2)
    latency, bandwidth = clustered_pairwise_parameters(
        STORM_PROCS, cluster_size=STORM_CLUSTER_SIZE, rng=platform_seed
    )
    base = DirectorySnapshot(latency=latency, bandwidth=bandwidth)
    trace = replay.drift_storm_trace(
        base,
        ticks=plan.trace_ticks,
        storm_every=STORM_EVERY,
        storm_nodes=round(STORM_NODE_SHARE * STORM_PROCS),
        storm_sigma=STORM_SIGMA,
        calm_sigma=CALM_SIGMA,
        seed=trace_seed,
    )
    sizes = np.full((STORM_PROCS, STORM_PROCS), STORM_MESSAGE_BYTES)
    np.fill_diagonal(sizes, 0.0)
    return trace, sizes
