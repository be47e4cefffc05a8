"""Chaos soak harness: faults + drift storms + timeouts, continuously
oracle-checked.

The soak is the long-horizon validation tier above ``check`` and the
per-subsystem smoke runs: many tenants serve adaptive sessions over
node-correlated drift storms (:func:`repro.sim.replay.drift_storm_trace`)
with injected fault profiles (:mod:`repro.faults`) and forced scheduler
timeouts, for hours of *simulated* time.  Every tick's executed schedule
is asserted against the vectorized invariant oracle
(:func:`repro.timing.validate.check_schedule`); every tick event is
persisted into the rotating metrics store and evaluated against the SLO
set, so the run both proves invariants hold under sustained chaos and
produces the alert firing/resolving evidence that the SLO machinery
works.  A daemon phase then drives socket load, drains, backs the state
up (bit-identity verified), restarts from the snapshot, and asserts the
zero-loss ``accepted == served`` invariant across the restart.

``python -m repro.cli ops soak --smoke`` runs the seeded CI-sized
configuration; :class:`SoakConfig` scales the same harness to real
soaks (``SoakConfig.hours(4)`` ≈ a 4-hour simulated storm).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.ops.backup import BackupManager, verify_backup_payload
from repro.ops.sink import MultiSink, StoreSink
from repro.ops.slo import (
    FileNotifier,
    Notifier,
    SloMonitor,
    SloSpec,
    parse_slo_spec,
)
from repro.ops.store import MetricsStore

#: The soak's SLO set (windows are in simulated seconds for the session
#: phase).  ``fallback_rate`` is the deterministic canary: the forced
#: timeout burst drives it over threshold, then the sliding window
#: drains and it resolves — every soak must fire and resolve it.
SOAK_SLOS: Tuple[SloSpec, ...] = (
    SloSpec("fallback_rate", threshold=0.25, window_s=6.0, min_samples=8),
    SloSpec("repair_rate", threshold=0.6, window_s=6.0, min_samples=8),
    SloSpec(
        "p99_decision_latency", threshold=5.0, window_s=30.0, min_samples=8
    ),
    SloSpec(
        "queue_saturation_rate", threshold=0.5, window_s=30.0, min_samples=10
    ),
)


@dataclass(frozen=True)
class SoakConfig:
    """One soak run's shape (fully seeded — same config, same report)."""

    tenants: int = 6
    procs: int = 8
    ticks: int = 40
    dt: float = 1.0
    seed: int = 0
    scheduler: str = "openshop"
    #: Drift-storm cadence/violence (node-correlated row storms).
    storm_every: int = 6
    storm_nodes: int = 2
    storm_sigma: float = 0.8
    calm_sigma: float = 0.01
    #: Ticks on which *every* tenant's scheduler is forced to time out
    #: (the deterministic fallback burst the SLO canary fires on).
    timeout_ticks: Tuple[int, ...] = (16, 17, 18, 19)
    #: Fraction of tenants that get an injected fault profile.
    fault_fraction: float = 0.5
    #: SLO specs (strings or :class:`SloSpec`).
    slos: Tuple[Union[str, SloSpec], ...] = SOAK_SLOS
    #: Metrics-store segment budget — small enough that a smoke soak
    #: rotates (seals + gzips) at least one segment.
    segment_bytes: int = 32768
    max_segments: Optional[int] = None
    #: Daemon phase: socket load, drain, backup, verified restart.
    daemon_phase: bool = True
    daemon_tenants: int = 12
    daemon_cohorts: int = 4
    daemon_procs: int = 6
    daemon_duration_s: float = 1.0
    daemon_max_queue: int = 32
    backup_retention: int = 3

    @classmethod
    def smoke(cls, seed: int = 0) -> "SoakConfig":
        """The seeded CI-sized soak (~seconds of wall clock)."""
        return cls(seed=seed)

    @classmethod
    def hours(cls, hours: float, *, seed: int = 0) -> "SoakConfig":
        """A long soak: ``dt`` = 5 simulated minutes per tick, enough
        ticks to cover ``hours`` of simulated time, storms and timeout
        bursts rescaled to the longer horizon."""
        dt = 300.0
        ticks = max(8, int(round(hours * 3600.0 / dt)))
        burst = tuple(range(ticks // 3, ticks // 3 + 4))
        return cls(
            ticks=ticks,
            dt=dt,
            seed=seed,
            timeout_ticks=burst,
            slos=(
                SloSpec(
                    "fallback_rate",
                    threshold=0.25,
                    window_s=6 * dt,
                    min_samples=8,
                ),
                SloSpec(
                    "repair_rate",
                    threshold=0.6,
                    window_s=6 * dt,
                    min_samples=8,
                ),
                SloSpec(
                    "p99_decision_latency",
                    threshold=5.0,
                    window_s=30 * dt,
                    min_samples=8,
                ),
                SloSpec(
                    "queue_saturation_rate",
                    threshold=0.5,
                    window_s=30 * dt,
                    min_samples=10,
                ),
            ),
            daemon_duration_s=2.0,
        )

    @property
    def sim_seconds(self) -> float:
        return self.ticks * self.dt


@dataclass
class SoakReport:
    """What one soak run proved (written as ``slo_report.json``)."""

    config: Dict[str, Any]
    tenants: int
    ticks: int
    sim_seconds: float
    oracle_checks: int
    oracle_violations: int
    violations: List[str]
    decisions: Dict[str, int]
    fallback_activations: int
    repair_episodes: int
    faults_seen: int
    alerts_fired: int
    alerts_resolved: int
    slo: Dict[str, Any]
    daemon: Dict[str, Any]
    backup: Dict[str, Any]
    store: Dict[str, Any]
    wall_s: float

    @property
    def ok(self) -> bool:
        return (
            self.oracle_violations == 0
            and self.daemon.get("dropped", 0) == 0
            and bool(self.daemon.get("zero_loss", True))
            and bool(self.backup.get("bit_identical", True))
            and self.alerts_fired >= 1
            and self.alerts_resolved >= 1
        )

    def to_json(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["ok"] = self.ok
        return payload

    def write(self, path: Union[str, pathlib.Path]) -> None:
        pathlib.Path(path).write_text(
            json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"
        )

    def render(self) -> str:
        lines = [
            f"soak: {self.tenants} tenants x {self.ticks} ticks "
            f"({self.sim_seconds:g} simulated seconds)",
            f"  oracle: {self.oracle_checks} checks, "
            f"{self.oracle_violations} violations",
            f"  decisions: "
            + ", ".join(
                f"{name}={count}"
                for name, count in sorted(self.decisions.items())
            ),
            f"  fallbacks: {self.fallback_activations}  "
            f"repairs: {self.repair_episodes}  "
            f"faults seen: {self.faults_seen}",
            f"  alerts: {self.alerts_fired} fired, "
            f"{self.alerts_resolved} resolved",
        ]
        for status in self.slo.get("slos", []):
            value = status.get("value")
            rendered = "n/a" if value is None else f"{value:.4g}"
            lines.append(
                f"    [{status['state']:>6}] {status['slo']} "
                f"value={rendered} "
                f"(fired {status['fired']}, resolved {status['resolved']})"
            )
        if self.daemon:
            lines.append(
                f"  daemon: accepted={self.daemon.get('accepted', 0)} "
                f"served={self.daemon.get('served', 0)} "
                f"dropped={self.daemon.get('dropped', 0)} "
                f"zero_loss={self.daemon.get('zero_loss')} "
                f"restart_bit_identical="
                f"{self.daemon.get('restart_bit_identical')}"
            )
        if self.backup:
            lines.append(
                f"  backup: {self.backup.get('path', '-')} "
                f"(tenants={self.backup.get('tenants')}, "
                f"bit_identical={self.backup.get('bit_identical')})"
            )
        lines.append(
            f"  store: {self.store.get('segments')} segments "
            f"({self.store.get('sealed_segments')} sealed), "
            f"{self.store.get('records_written')} records, "
            f"{self.store.get('total_bytes')} bytes"
        )
        lines.append(
            f"  wall: {self.wall_s:.2f}s  "
            f"verdict: {'OK' if self.ok else 'FAIL'}"
        )
        return "\n".join(lines)


def _tenant_fault_profile(config: SoakConfig, index: int):
    """A deterministic per-tenant chaos profile scaled to the horizon."""
    from repro.faults.models import (
        BLACKOUT,
        BW_COLLAPSE,
        LINK_DEAD,
        NODE_DROP,
        Fault,
        FaultProfile,
    )

    if config.fault_fraction <= 0.0:
        return FaultProfile()
    period = max(1, int(round(1.0 / config.fault_fraction)))
    if index % period != 0:
        return FaultProfile()
    p = config.procs
    horizon = config.sim_seconds
    faults = [
        Fault(
            kind=BW_COLLAPSE,
            at=0.2 * horizon,
            src=(1 + index) % p,
            dst=(2 + index) % p,
            factor=6.0,
        ),
        Fault(
            kind=BLACKOUT,
            at=0.35 * horizon,
            src=index % p,
            dst=(index + 1) % p,
            duration=2.0 * config.dt,
            at_event=6,
        ),
        Fault(
            kind=LINK_DEAD,
            at=0.55 * horizon,
            src=(index + 2) % p,
            dst=(index + 3) % p,
            at_event=10,
        ),
    ]
    if p >= 5 and index % (2 * period) == 0:
        faults.append(
            Fault(kind=NODE_DROP, at=0.7 * horizon, node=(index + 4) % p)
        )
    return FaultProfile(faults=tuple(faults))


def _build_sessions(config: SoakConfig, store: MetricsStore, monitor):
    """One seeded session per tenant: drift storm + faults + timeouts."""
    from repro.directory.service import DirectorySnapshot
    from repro.faults.directory import FaultyDirectory
    from repro.model.messages import MixedSizes
    from repro.network.generators import random_pairwise_parameters
    from repro.runtime import AdaptiveSession
    from repro.sim.replay import TraceDirectory, drift_storm_trace

    sessions = []
    for index in range(config.tenants):
        rng = np.random.default_rng((config.seed, index))
        latency, bandwidth = random_pairwise_parameters(
            config.procs, rng=rng
        )
        base = DirectorySnapshot(latency=latency, bandwidth=bandwidth)
        trace = drift_storm_trace(
            base,
            ticks=config.ticks + 2,
            dt=config.dt,
            calm_sigma=config.calm_sigma,
            storm_every=config.storm_every,
            storm_nodes=config.storm_nodes,
            storm_sigma=config.storm_sigma,
            seed=config.seed + index,
        )
        directory = TraceDirectory(trace)
        profile = _tenant_fault_profile(config, index)
        if profile:
            directory = FaultyDirectory(directory, profile)
        sink = MultiSink(
            [
                StoreSink(store, source=f"tenant-{index}", kind="tick"),
                monitor,
            ]
        )
        session = AdaptiveSession(
            directory,
            MixedSizes(),
            scheduler=config.scheduler,
            sink=sink,
            force_timeout_ticks=config.timeout_ticks,
            rng=rng,
        )
        sessions.append(session)
    return sessions


def _session_phase(
    config: SoakConfig,
    sessions,
    *,
    progress=None,
) -> Tuple[int, int, List[str]]:
    """Round-robin the tenants through every tick, oracle-checking each
    executed schedule.  Returns (checks, violations, messages)."""
    from repro.timing.validate import ScheduleError, check_schedule

    checks = 0
    violations: List[str] = []
    for tick in range(config.ticks):
        dt = 0.0 if tick == 0 else config.dt
        for index, session in enumerate(sessions):
            result = session.tick(dt=dt)
            checks += 1
            try:
                # Coverage is waived: degraded ticks legitimately drop
                # pairs no surviving route can carry.
                check_schedule(
                    result.schedule, require_coverage=False
                )
            except ScheduleError as exc:
                violations.append(
                    f"tenant-{index} tick {tick}: {exc}"
                )
        if progress is not None and (tick + 1) % 10 == 0:
            progress(f"  tick {tick + 1}/{config.ticks}")
    return checks, len(violations), violations


def _daemon_phase(
    config: SoakConfig,
    ops_dir: pathlib.Path,
    store: MetricsStore,
    monitor,
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Socket load, drain, verified backup, bit-identical restart.

    Returns (daemon_report, backup_report)."""
    import threading

    from repro.ops.backup import canonical_json
    from repro.serve import DaemonClient, DaemonConfig, LoadGenerator
    from repro.serve.daemon import SchedulerDaemon

    state_file = str(ops_dir / "daemon_state.json")
    sink = MultiSink(
        [StoreSink(store, source="daemon", kind="daemon.event"), monitor]
    )

    def start(resume_from: str = ""):
        daemon = SchedulerDaemon(
            DaemonConfig(
                host="127.0.0.1",
                port=0,
                max_queue=config.daemon_max_queue,
                state_file=state_file,
                resume_from=resume_from,
            ),
            sink=sink,
        )
        address = daemon.bind()
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        return daemon, thread, address

    daemon1, thread1, address = start()
    generator = LoadGenerator(
        tuple(address),
        tenants=config.daemon_tenants,
        cohorts=config.daemon_cohorts,
        procs=config.daemon_procs,
        connections=4,
    )
    report1 = generator.run(config.daemon_duration_s)
    with DaemonClient(tuple(address)) as client:
        drained = client.drain(state_file)
        stats1 = client.stats()
        client.shutdown()
    thread1.join(timeout=30)
    counters1 = stats1["counters"]

    # Backup the drained state; verify the restore path bit-identically.
    manager = BackupManager(
        ops_dir / "backups", retention=config.backup_retention
    )
    payload = json.loads(pathlib.Path(state_file).read_text())
    backup_path = manager.write(payload)
    backup_report = verify_backup_payload(manager.load(backup_path))
    backup_report["path"] = str(backup_path)

    # Restart from the snapshot; the restarted daemon must re-drain to a
    # bit-identical payload before serving anything new.
    daemon2, thread2, address2 = start(resume_from=state_file)
    restart_payload = daemon2.state_payload()
    restart_identical = canonical_json(payload) == canonical_json(
        restart_payload
    )
    generator2 = LoadGenerator(
        tuple(address2),
        tenants=config.daemon_tenants,
        cohorts=config.daemon_cohorts,
        procs=config.daemon_procs,
        connections=4,
    )
    report2 = generator2.run(config.daemon_duration_s)
    with DaemonClient(tuple(address2)) as client:
        stats2 = client.stats()
        client.shutdown()
    thread2.join(timeout=30)
    counters2 = stats2["counters"]

    accepted = counters1["accepted"] + counters2["accepted"]
    served = counters1["served"] + counters2["served"]
    daemon_report = {
        "accepted": accepted,
        "served": served,
        "zero_loss": accepted == served,
        "dropped": report1.dropped + report2.dropped,
        "requests": report1.requests + report2.requests,
        "retried": report1.retried + report2.retried,
        "rejected_saturated": counters1["rejected_saturated"]
        + counters2["rejected_saturated"],
        "restored_tenants": counters2["restored"],
        "drained_tenants": drained.tenants,
        "restart_bit_identical": restart_identical,
        "decision_p99_s": max(
            report1.decision_p99_s, report2.decision_p99_s
        ),
    }
    return daemon_report, backup_report


def run_soak(
    config: SoakConfig,
    ops_dir: Union[str, pathlib.Path],
    *,
    notifiers: Sequence[Notifier] = (),
    progress=None,
) -> SoakReport:
    """Run one soak into ``ops_dir``; returns (and writes) the report.

    ``ops_dir`` ends up holding ``store/`` (the rotated metrics store),
    ``alerts.jsonl`` (every SLO transition), ``backups/`` and
    ``daemon_state.json`` (the daemon phase), and ``slo_report.json``.
    """
    started = time.monotonic()
    ops_dir = pathlib.Path(ops_dir)
    ops_dir.mkdir(parents=True, exist_ok=True)
    store = MetricsStore(
        ops_dir / "store",
        max_segment_bytes=config.segment_bytes,
        max_segments=config.max_segments,
    )
    monitor = SloMonitor(
        [parse_slo_spec(spec) for spec in config.slos],
        notifiers=[FileNotifier(ops_dir / "alerts.jsonl"), *notifiers],
    )

    sessions = _build_sessions(config, store, monitor)
    checks, violation_count, violations = _session_phase(
        config, sessions, progress=progress
    )

    decisions: Dict[str, int] = {}
    fallbacks = 0
    repairs = 0
    faults_seen = 0
    for session in sessions:
        summary = session.metrics.summary()
        for name, count in summary["decisions"].items():
            decisions[name] = decisions.get(name, 0) + count
        fallbacks += summary["fallback_activations"]
        repairs += summary["repair_episodes"]
        faults_seen += summary["faults_seen"]

    daemon_report: Dict[str, Any] = {}
    backup_report: Dict[str, Any] = {}
    if config.daemon_phase:
        daemon_report, backup_report = _daemon_phase(
            config, ops_dir, store, monitor
        )

    # Seal the final segment so the on-disk store is fully rotated and
    # every record is queryable from gzip segments.
    store.rotate()
    store_stats = store.stats()
    store.close()

    report = SoakReport(
        config=dataclasses.asdict(config),
        tenants=config.tenants,
        ticks=config.ticks,
        sim_seconds=config.sim_seconds,
        oracle_checks=checks,
        oracle_violations=violation_count,
        violations=violations[:20],
        decisions=decisions,
        fallback_activations=fallbacks,
        repair_episodes=repairs,
        faults_seen=faults_seen,
        alerts_fired=monitor.fired,
        alerts_resolved=monitor.resolved,
        slo=monitor.report(),
        daemon=daemon_report,
        backup=backup_report,
        store=store_stats,
        wall_s=time.monotonic() - started,
    )
    report.write(ops_dir / "slo_report.json")
    return report
