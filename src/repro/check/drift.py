"""The drift family: repriced plans must be repaired, not just rebuilt.

Deterministic drift scenarios drive the serving runtime's four-tier
decision ladder (:mod:`repro.runtime.policy`) and assert the
delta-rescheduling contract end to end:

* a **scripted ladder** walks one session through all four tiers —
  zero drift reuses, widespread mild drift refines, localised sharp
  drift repairs, catastrophic drift reschedules — in a fixed order;
* **storm scenarios** (:func:`repro.sim.replay.drift_storm_trace`)
  alternate calm wander with cluster-correlated row repricing: the
  localised storms must land in the repair tier, the whole-fabric storm
  must *never* repair (dirty fraction ≈ 1 defeats localisation);
* every served schedule passes the fast one-port checker against the
  tick's actual costs, and every *repaired* tick additionally passes
  the full invariant oracle (:mod:`repro.check.oracle`);
* a zero-drift "repair" is bit-identical to reuse — the same schedule
  object, not an equally good one (the golden path: the repair layer
  must be invisible when nothing moved).

Run it via ``python -m repro.cli check --drift``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.adaptive.delta import repair_schedule_delta
from repro.check.oracle import oracle_violations
from repro.core.problem import TotalExchangeProblem
from repro.core.registry import make_scheduler
from repro.directory.service import DirectorySnapshot
from repro.network.generators import random_pairwise_parameters
from repro.runtime import AdaptiveSession, PolicyConfig
from repro.sim.replay import DriftTrace, TraceDirectory, drift_storm_trace
from repro.timing.validate import ScheduleError, check_schedule
from repro.util.tables import format_table


@dataclass(frozen=True)
class DriftScenario:
    """One deterministic storm-driven serving run and its contract."""

    name: str
    num_procs: int = 16
    ticks: int = 12
    storm_every: int = 4
    storm_nodes: int = 2
    storm_sigma: float = 0.8
    calm_sigma: float = 0.004
    seed: int = 0
    #: decisions that must each appear at least once over the run
    expect: Tuple[str, ...] = ("reuse", "repair")
    #: decisions that must never appear
    forbid: Tuple[str, ...] = ()
    message_bytes: float = 64 * 1024.0


def drift_scenarios() -> Tuple[DriftScenario, ...]:
    """The deterministic storm battery."""
    return (
        # Two of sixteen nodes congest every fourth tick: ~1/8 of the
        # pairs move, often sharply — squarely the repair tier's case.
        DriftScenario(name="p16-row-storms", seed=0),
        # A single hot node at P=8: the smallest interesting storm.
        DriftScenario(
            name="p8-single-row",
            num_procs=8,
            storm_nodes=1,
            seed=3,
        ),
        # The whole fabric repricing at once: dirty fraction ~1 defeats
        # localisation, so the session must refine or reschedule but
        # never attempt a delta repair.
        DriftScenario(
            name="p16-whole-fabric",
            storm_nodes=16,
            seed=2,
            expect=("reuse", "reschedule"),
            forbid=("repair",),
        ),
    )


def _scenario_sizes(num_procs: int, message_bytes: float) -> np.ndarray:
    sizes = np.full((num_procs, num_procs), float(message_bytes))
    np.fill_diagonal(sizes, 0.0)
    return sizes


def _tick_problems(
    trace: DriftTrace, sizes: np.ndarray
) -> List[TotalExchangeProblem]:
    return [
        TotalExchangeProblem.from_snapshot(snapshot, sizes)
        for snapshot in trace.snapshots
    ]


def _run_session(
    trace: DriftTrace,
    sizes: np.ndarray,
    *,
    scheduler: str,
    policy: PolicyConfig,
):
    """Serve one tick per trace snapshot; returns the session + results.

    The first tick plans at the trace origin (``dt=0``); each later tick
    advances the directory by one trace step, so tick ``k`` is served
    against ``trace.snapshots[k]`` exactly.
    """
    session = AdaptiveSession(
        TraceDirectory(trace), sizes, scheduler=scheduler, policy=policy
    )
    results = [
        session.tick(dt=(0.0 if k == 0 else 1.0))
        for k in range(len(trace))
    ]
    return session, results


def _served_schedule_violations(
    results, problems, *, repair_oracle: bool
) -> List[str]:
    """Every served schedule is valid; repaired ticks pass the oracle."""
    violations: List[str] = []
    for k, (result, problem) in enumerate(zip(results, problems)):
        try:
            check_schedule(result.schedule, problem.cost)
        except ScheduleError as exc:
            violations.append(
                f"tick {k} ({result.decision}): served schedule invalid "
                f"under actual costs: {exc}"
            )
            continue
        if repair_oracle and result.decision == "repair":
            for v in oracle_violations(problem, result.schedule):
                violations.append(f"tick {k} (repair): oracle: {v}")
    return violations


def golden_zero_drift_violations(
    num_procs: int = 8, *, seed: int = 0, scheduler: str = "openshop"
) -> List[str]:
    """The repair layer must be invisible when nothing drifted.

    Two golden checks: (a) a direct zero-drift ``repair_schedule_delta``
    returns the *same object* as the incumbent schedule, and (b) a
    session over a constant trace reuses on every tick after the first
    and keeps serving bit-identical event lists.
    """
    latency, bandwidth = random_pairwise_parameters(num_procs, rng=seed)
    snapshot = DirectorySnapshot(latency=latency, bandwidth=bandwidth)
    sizes = _scenario_sizes(num_procs, 64 * 1024.0)
    problem = TotalExchangeProblem.from_snapshot(snapshot, sizes)
    violations: List[str] = []

    schedule = make_scheduler(scheduler)(problem)
    result = repair_schedule_delta(schedule, problem.cost, problem)
    if not result.identical or result.schedule is not schedule:
        violations.append(
            "golden: zero-drift delta repair is not bit-identical to "
            "reuse (must return the incumbent schedule object)"
        )
    if result.reinserted != 0:
        violations.append(
            f"golden: zero-drift repair re-inserted {result.reinserted} "
            "events; must be 0"
        )

    trace = DriftTrace(
        times=tuple(float(k) for k in range(4)),
        snapshots=tuple(
            DirectorySnapshot(
                latency=latency, bandwidth=bandwidth, time=float(k)
            )
            for k in range(4)
        ),
    )
    _, results = _run_session(
        trace, sizes, scheduler=scheduler, policy=PolicyConfig()
    )
    decisions = [r.decision for r in results]
    if decisions != ["reschedule"] + ["reuse"] * 3:
        violations.append(
            f"golden: constant trace produced {decisions}; expected one "
            "reschedule then pure reuse"
        )
    baseline = results[0].schedule.events
    for k, r in enumerate(results[1:], start=1):
        if r.schedule.events != baseline:
            violations.append(
                f"golden: reuse tick {k} served different events than "
                "the plan tick"
            )
    return violations


def _ladder_trace(num_procs: int, seed: int) -> DriftTrace:
    """A scripted five-tick trace hitting all four decision tiers.

    With the default thresholds (reuse < 0.05, refine < 0.25, repair
    < 0.75 when at most 25% of pairs moved):

    * tick 1 repeats the plan cost exactly — drift 0, **reuse**;
    * tick 2 reprices *every* pair by +10% — drift 0.10, dirty 1.0,
      widespread so **refine**;
    * tick 3 reprices one pair 6x — drift ~0.09, dirty ~0.02,
      localised so **repair**;
    * tick 4 triples everything — drift 2.0, **reschedule**.
    """
    rng = np.random.default_rng(seed)
    n = num_procs
    cost = rng.uniform(0.5, 5.0, (n, n))
    np.fill_diagonal(cost, 0.0)
    spike = cost * 1.10
    spiked = spike.copy()
    spiked[0, 1] *= 6.0
    costs = [cost, cost, spike, spiked, spiked * 3.0]
    bandwidth = np.full((n, n), np.inf)
    return DriftTrace(
        times=tuple(float(k) for k in range(len(costs))),
        snapshots=tuple(
            DirectorySnapshot(latency=c, bandwidth=bandwidth, time=float(k))
            for k, c in enumerate(costs)
        ),
    )


def check_decision_ladder(
    *, scheduler: str = "openshop", num_procs: int = 8, seed: int = 7
) -> List[str]:
    """Walk one session through reuse → refine → repair → reschedule."""
    trace = _ladder_trace(num_procs, seed)
    sizes = _scenario_sizes(num_procs, 100.0)
    session, results = _run_session(
        trace, sizes, scheduler=scheduler, policy=PolicyConfig()
    )
    violations: List[str] = []
    decisions = [r.decision for r in results]
    expected = ["reschedule", "reuse", "refine", "repair", "reschedule"]
    if decisions != expected:
        violations.append(
            f"ladder: decisions {decisions}; expected {expected}"
        )
    problems = _tick_problems(trace, sizes)
    violations += _served_schedule_violations(
        results, problems, repair_oracle=True
    )
    repair_ticks = [
        e for e in session.metrics.events if e.decision == "repair"
    ]
    for event in repair_ticks:
        if event.repaired_events < 1:
            violations.append(
                f"ladder: repair tick {event.tick} re-inserted no events"
            )
        if event.dirty_fraction > 0.25:
            violations.append(
                f"ladder: repair tick {event.tick} dirty fraction "
                f"{event.dirty_fraction:.3f} exceeds the localisation cap"
            )
    return violations


def check_drift_storm(
    scenario: DriftScenario, *, scheduler: str = "openshop"
) -> List[str]:
    """All drift-contract violations for one storm scenario."""
    latency, bandwidth = random_pairwise_parameters(
        scenario.num_procs, rng=scenario.seed
    )
    base = DirectorySnapshot(latency=latency, bandwidth=bandwidth)
    trace = drift_storm_trace(
        base,
        ticks=scenario.ticks,
        storm_every=scenario.storm_every,
        storm_nodes=scenario.storm_nodes,
        storm_sigma=scenario.storm_sigma,
        calm_sigma=scenario.calm_sigma,
        seed=scenario.seed,
    )
    sizes = _scenario_sizes(scenario.num_procs, scenario.message_bytes)
    session, results = _run_session(
        trace, sizes, scheduler=scheduler, policy=PolicyConfig()
    )
    violations: List[str] = []
    decisions = [r.decision for r in results]
    for wanted in scenario.expect:
        if wanted not in decisions:
            violations.append(
                f"expected at least one {wanted!r} decision, got "
                f"{decisions}"
            )
    for banned in scenario.forbid:
        if banned in decisions:
            violations.append(
                f"forbidden decision {banned!r} appeared: {decisions}"
            )
    problems = _tick_problems(trace, sizes)
    violations += _served_schedule_violations(
        results, problems, repair_oracle=True
    )
    config = PolicyConfig()
    for event in session.metrics.events:
        if event.decision != "repair":
            continue
        if event.dirty_fraction > config.repair_max_dirty_fraction:
            violations.append(
                f"tick {event.tick}: repaired despite dirty fraction "
                f"{event.dirty_fraction:.3f} > "
                f"{config.repair_max_dirty_fraction:g}"
            )
    return violations


def scenario_decisions(
    scenario: DriftScenario, *, scheduler: str = "openshop"
) -> Dict[str, int]:
    """Decision counts for one scenario (for reporting)."""
    latency, bandwidth = random_pairwise_parameters(
        scenario.num_procs, rng=scenario.seed
    )
    base = DirectorySnapshot(latency=latency, bandwidth=bandwidth)
    trace = drift_storm_trace(
        base,
        ticks=scenario.ticks,
        storm_every=scenario.storm_every,
        storm_nodes=scenario.storm_nodes,
        storm_sigma=scenario.storm_sigma,
        calm_sigma=scenario.calm_sigma,
        seed=scenario.seed,
    )
    sizes = _scenario_sizes(scenario.num_procs, scenario.message_bytes)
    session, _ = _run_session(
        trace, sizes, scheduler=scheduler, policy=PolicyConfig()
    )
    return dict(session.summary()["decisions"])


@dataclass
class DriftCheckReport:
    """Outcome of the drift family run."""

    scheduler: str
    scenarios: int = 0
    failures: List[Tuple[str, List[str]]] = field(default_factory=list)
    decisions: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_drift_check(*, scheduler: str = "openshop") -> DriftCheckReport:
    """Run the full drift family: golden path, ladder, storm battery."""
    report = DriftCheckReport(scheduler=scheduler)

    golden = golden_zero_drift_violations(scheduler=scheduler)
    report.scenarios += 1
    if golden:
        report.failures.append(("golden-zero-drift", golden))

    ladder = check_decision_ladder(scheduler=scheduler)
    report.scenarios += 1
    if ladder:
        report.failures.append(("decision-ladder", ladder))

    for scenario in drift_scenarios():
        report.scenarios += 1
        violations = check_drift_storm(scenario, scheduler=scheduler)
        if violations:
            report.failures.append((scenario.name, violations))
        report.decisions[scenario.name] = scenario_decisions(
            scenario, scheduler=scheduler
        )
    return report


def render_drift_check(report: DriftCheckReport) -> str:
    """Human-readable drift family report."""
    lines = [
        f"drift family: {report.scenarios} scenarios against "
        f"scheduler {report.scheduler!r}"
    ]
    rows = []
    for name, counts in report.decisions.items():
        rows.append([
            name,
            counts.get("reuse", 0),
            counts.get("refine", 0),
            counts.get("repair", 0),
            counts.get("reschedule", 0),
        ])
    if rows:
        lines.append(format_table(
            ["scenario", "reuse", "refine", "repair", "reschedule"],
            rows,
            title="storm scenario decision mix",
        ))
    if report.ok:
        lines.append("drift family: all scenarios PASS")
    else:
        for name, violations in report.failures:
            lines.append(f"FAIL {name}:")
            lines += [f"  - {v}" for v in violations[:10]]
            if len(violations) > 10:
                lines.append(f"  ... +{len(violations) - 10} more")
    return "\n".join(lines)
