"""Golden digests of the serving workloads' drift traces.

Every snapshot the daemon and the storm session serve from comes out of
:func:`repro.sim.replay.synthetic_drift_trace` (the ``drift:`` directory
flavour) or :func:`repro.sim.replay.drift_storm_trace`.  A trace step
may share the matrix it did not perturb and skip re-copying what it
built, but the numbers must not move: these digests chain every
snapshot's clock, latency and bandwidth bytes, pinned from the trace
functions that rebuilt and re-checked every matrix on every step.

The specs are servebench's: a ``fleet`` cohort (P=8, sigma 0.02, 101
snapshots), the ``mixed`` heavy tenant (P=192, sigma 0.6, 26) and the
``storm`` platform and trace (P=256 in 64-node clusters, 101), each at
the seeds servebench derives from workload seeds 1 and 2.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.directory.factory import make_directory
from repro.directory.service import DirectorySnapshot
from repro.network.generators import clustered_pairwise_parameters
from repro.sim.replay import DriftTrace, drift_storm_trace


def _digest(trace: DriftTrace) -> str:
    hasher = hashlib.sha256()
    for time, snapshot in zip(trace.times, trace.snapshots):
        hasher.update(np.float64(time).tobytes())
        hasher.update(np.float64(snapshot.time).tobytes())
        hasher.update(snapshot.latency.tobytes())
        hasher.update(snapshot.bandwidth.tobytes())
    return hasher.hexdigest()


@pytest.mark.parametrize(
    "procs, spec, seed, digest",
    [
        (8, "drift:sigma=0.02,ticks=101", 1835504127,
         "9a6d79b41e28dadfe6e2ad69d2a7713df9ff9b25098cbf51a7b60fd94d04b72d"),
        (8, "drift:sigma=0.02,ticks=101", 2834126987,
         "6bc2067478f5c1a60bb8bd15a3907bd335f4941271e45f7a73b8069c731ffc03"),
        (192, "drift:sigma=0.6,ticks=26", 349926915,
         "9413bf081d2d5fa378ad658c6fff829087e3b5e4dc90801d8cfd82e5ec585b31"),
        (192, "drift:sigma=0.6,ticks=26", 1335728571,
         "3f2d825f81530c6ecf9095288b2c12c63c68a0d02e84240e684f7d317a74d35a"),
    ],
    ids=["fleet-1", "fleet-2", "heavy-1", "heavy-2"],
)
def test_synthetic_drift_trace_is_bit_identical(procs, spec, seed, digest):
    directory = make_directory(
        f"{spec},seed={seed}", num_procs=procs, rng=seed
    )
    assert _digest(directory.trace) == digest


@pytest.mark.parametrize(
    "platform_seed, trace_seed, digest",
    [
        (1835504127, 1731038949,
         "bd48af64b31e058f1b3ada51af074a2226151b7d5fe307f16eacfa86687aa959"),
        (2834126987, 2358157858,
         "51a7d4d5617a02c00bda2e4a40daba64bd1caad5e8f7c105d80c246fa3fd4f01"),
    ],
    ids=["storm-1", "storm-2"],
)
def test_drift_storm_trace_is_bit_identical(platform_seed, trace_seed, digest):
    latency, bandwidth = clustered_pairwise_parameters(
        256, cluster_size=64, rng=platform_seed
    )
    base = DirectorySnapshot(latency=latency, bandwidth=bandwidth)
    trace = drift_storm_trace(
        base, ticks=101, storm_every=4, storm_nodes=13,
        storm_sigma=0.8, calm_sigma=0.004, seed=trace_seed,
    )
    assert _digest(trace) == digest
    # a calm step shares the latency it did not perturb; a storm step
    # (every 4th) builds both matrices
    assert trace.snapshots[2].latency is trace.snapshots[1].latency
    assert trace.snapshots[4].latency is not trace.snapshots[3].latency
    assert all(
        not (s.latency.flags.writeable or s.bandwidth.flags.writeable)
        for s in trace.snapshots
    )
