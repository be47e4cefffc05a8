"""The fault family: repaired schedules must still be correct schedules.

Deterministic fault-recovery scenarios (P ∈ {2, 3, 8}: the degenerate
pair, the minimal relay triangle, and a general instance) drive the full
salvage → repair → merge pipeline of :mod:`repro.faults` and assert the
recovery contract:

* the merged timeline still obeys the one-port rules;
* every demanded pair between *surviving* nodes is delivered — salvaged,
  re-sent directly, or relayed over two surviving legs in order — and a
  pair is only ever declared unreachable when no 2-hop route exists at
  all (P=2 with its only link dead is the canonical case);
* the relay-free residual reschedule passes the full invariant oracle
  (:mod:`repro.check.oracle`) on the compacted surviving-world instance;
* a zero-fault "repair" is bit-identical to the unrepaired schedule
  (the golden path: the repair layer must be invisible when the world
  is healthy);
* incremental repair salvages strictly more events than a naive
  full reschedule from scratch while staying within 1.5× its makespan.

Run it via ``python -m repro.cli check --faults``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.check.oracle import oracle_violations
from repro.core.problem import TotalExchangeProblem
from repro.core.registry import make_scheduler
from repro.directory.service import DirectorySnapshot
from repro.faults.executor import cut_execution, merge_with_salvaged
from repro.faults.models import (
    BLACKOUT,
    Fault,
    LINK_DEAD,
    NODE_DROP,
    apply_fault_to_snapshot,
    apply_fault_to_state,
)
from repro.faults.repair import repair_schedule
from repro.network.generators import random_pairwise_parameters
from repro.timing.validate import ScheduleError, check_schedule
from repro.util.tables import format_table


@dataclass(frozen=True)
class FaultScenario:
    """One deterministic fault-recovery case."""

    name: str
    num_procs: int
    fault: Fault
    seed: int = 0
    message_bytes: float = 64 * 1024.0


def fault_scenarios() -> Tuple[FaultScenario, ...]:
    """The deterministic scenario battery (P ∈ {2, 3, 8})."""
    return (
        # P=2: the only link dies — no relay can exist, the pair must be
        # reported unreachable, never silently "delivered".
        FaultScenario(
            name="p2-partitioned",
            num_procs=2,
            fault=Fault(kind=LINK_DEAD, at=0.0, src=0, dst=1, at_event=0),
        ),
        # P=3: the minimal relay triangle — 0<->1 dies before anything
        # completes, node 2 must carry both directions.
        FaultScenario(
            name="p3-relay-triangle",
            num_procs=3,
            fault=Fault(kind=LINK_DEAD, at=0.0, src=0, dst=1, at_event=0),
            seed=1,
        ),
        # P=8: general mid-schedule link death with plenty of salvage.
        FaultScenario(
            name="p8-link-dead-mid",
            num_procs=8,
            fault=Fault(kind=LINK_DEAD, at=0.0, src=2, dst=5, at_event=30),
            seed=2,
        ),
        # P=8: an early strike — almost nothing to salvage.
        FaultScenario(
            name="p8-link-dead-early",
            num_procs=8,
            fault=Fault(kind=LINK_DEAD, at=0.0, src=0, dst=7, at_event=1),
            seed=3,
        ),
        # P=8: a node drops out — its whole row and column are lost.
        FaultScenario(
            name="p8-node-drop",
            num_procs=8,
            fault=Fault(kind=NODE_DROP, at=0.0, node=3, at_event=20),
            seed=4,
        ),
        # P=8: a blackout treated as permanent (retries exhausted).
        FaultScenario(
            name="p8-blackout-declared-dead",
            num_procs=8,
            fault=Fault(
                kind=BLACKOUT, at=0.0, src=1, dst=6, duration=1e9,
                at_event=25,
            ),
            seed=5,
        ),
    )


def _scenario_snapshot(scenario: FaultScenario) -> DirectorySnapshot:
    latency, bandwidth = random_pairwise_parameters(
        scenario.num_procs, rng=scenario.seed
    )
    return DirectorySnapshot(latency=latency, bandwidth=bandwidth)


def _scenario_sizes(scenario: FaultScenario) -> np.ndarray:
    n = scenario.num_procs
    sizes = np.full((n, n), float(scenario.message_bytes))
    np.fill_diagonal(sizes, 0.0)
    return sizes


def _positive_events(schedule) -> List:
    return [e for e in schedule if e.duration > 0]


def golden_zero_fault_violations(
    num_procs: int = 8, *, seed: int = 0, scheduler: str = "openshop"
) -> List[str]:
    """The repair layer must be invisible on a healthy world.

    ``repair_schedule`` with no faults, no salvage and full availability
    must return *bit-identical* events to the plain scheduler — not just
    an equally good schedule.
    """
    latency, bandwidth = random_pairwise_parameters(num_procs, rng=seed)
    snapshot = DirectorySnapshot(latency=latency, bandwidth=bandwidth)
    sizes = np.full((num_procs, num_procs), 64 * 1024.0)
    np.fill_diagonal(sizes, 0.0)
    solve = make_scheduler(scheduler)
    baseline = solve(TotalExchangeProblem.from_snapshot(snapshot, sizes))
    repaired = repair_schedule(snapshot, sizes, scheduler=solve)
    violations: List[str] = []
    if repaired.schedule.events != baseline.events:
        violations.append(
            f"golden: zero-fault repair is not bit-identical to "
            f"{scheduler} (got {len(repaired.schedule.events)} events vs "
            f"{len(baseline.events)})"
        )
    if repaired.undeliverable != 0:
        violations.append(
            f"golden: zero-fault repair reports "
            f"{repaired.undeliverable} undeliverable pairs; must be 0"
        )
    return violations


def _delivery_violations(
    scenario: FaultScenario,
    sizes: np.ndarray,
    partial,
    result,
    merged,
    alive: np.ndarray,
    link_ok: np.ndarray,
) -> List[str]:
    """Assert the surviving demand is delivered (or provably unroutable)."""
    violations: List[str] = []
    n = scenario.num_procs
    routes = result.routes
    relayed_by_pair = {(s, d): r for (s, r, d) in routes.relayed}
    direct = set(routes.direct)
    unreachable = set(routes.unreachable)
    lost = set(routes.lost)
    residual_events: Dict[Tuple[int, int], List] = {}
    for event in _positive_events(result.schedule):
        residual_events.setdefault((event.src, event.dst), []).append(event)
    merged_pairs = {
        (e.src, e.dst) for e in _positive_events(merged)
    }

    for src in range(n):
        for dst in range(n):
            if src == dst or sizes[src, dst] <= 0:
                continue
            pair = (src, dst)
            if not (alive[src] and alive[dst]):
                if pair not in lost and not partial.delivered[src, dst]:
                    violations.append(
                        f"{pair}: dead endpoint but not accounted as lost"
                    )
                continue
            if partial.delivered[src, dst]:
                if pair not in merged_pairs:
                    violations.append(
                        f"{pair}: salvaged delivery missing from the "
                        "merged timeline"
                    )
                continue
            if pair in direct:
                if pair not in residual_events:
                    violations.append(
                        f"{pair}: routed direct but never re-sent"
                    )
                continue
            relay = relayed_by_pair.get(pair)
            if relay is not None:
                leg1 = residual_events.get((src, relay), [])
                leg2 = residual_events.get((relay, dst), [])
                if not leg1 or not leg2:
                    violations.append(
                        f"{pair}: relay via {relay} missing a leg "
                        f"(leg1={len(leg1)}, leg2={len(leg2)})"
                    )
                # the leg pair may also carry an unrelated direct
                # message, so compare the latest second-leg start with
                # the earliest first-leg finish: the true second leg is
                # released only when the first leg's data arrived.
                elif max(e.start for e in leg2) < min(
                    e.finish for e in leg1
                ) - 1e-9:
                    violations.append(
                        f"{pair}: relay leg {relay}->{dst} starts before "
                        f"{src}->{relay} finished"
                    )
                continue
            if pair in unreachable:
                # Only legitimate when genuinely partitioned: no alive
                # relay with both legs up.
                for k in range(n):
                    if (
                        k not in (src, dst)
                        and alive[k]
                        and link_ok[src, k]
                        and link_ok[k, dst]
                    ):
                        violations.append(
                            f"{pair}: declared unreachable but relay {k} "
                            "has both legs up"
                        )
                        break
                continue
            violations.append(f"{pair}: surviving demand left unrouted")
    return violations


def _residual_oracle_violations(
    scenario: FaultScenario,
    sizes: np.ndarray,
    snap_after: DirectorySnapshot,
    partial,
    result,
    alive: np.ndarray,
    scheduler: str,
) -> List[str]:
    """The relay-free residual reschedule must pass the full oracle."""
    if result.routes.needs_relays:
        return []  # relay legs are not one-event-per-pair by design
    survivors = np.flatnonzero(alive)
    if survivors.size < 2:
        return []
    residual = np.where(partial.delivered, 0.0, sizes)
    residual[:, ~alive] = 0.0
    residual[~alive, :] = 0.0
    if not residual.any():
        return []
    sub_snapshot = DirectorySnapshot(
        latency=snap_after.latency[np.ix_(survivors, survivors)],
        bandwidth=snap_after.bandwidth[np.ix_(survivors, survivors)],
        time=snap_after.time,
    )
    sub_problem = TotalExchangeProblem.from_snapshot(
        sub_snapshot, residual[np.ix_(survivors, survivors)]
    )
    sub_schedule = make_scheduler(scheduler)(sub_problem)
    return [
        f"residual oracle: {v}"
        for v in oracle_violations(
            sub_problem, sub_schedule, scheduler=scheduler
        )
    ]


def check_fault_recovery(
    scenario: FaultScenario, *, scheduler: str = "openshop"
) -> List[str]:
    """All recovery-contract violations for one scenario (empty = pass)."""
    snapshot = _scenario_snapshot(scenario)
    sizes = _scenario_sizes(scenario)
    solve = make_scheduler(scheduler)
    schedule = solve(TotalExchangeProblem.from_snapshot(snapshot, sizes))

    partial = cut_execution(schedule, scenario.fault.at_event)
    n = scenario.num_procs
    alive, link_ok = apply_fault_to_state(
        np.ones(n, dtype=bool), np.ones((n, n), dtype=bool), scenario.fault
    )
    snap_after = apply_fault_to_snapshot(snapshot, scenario.fault)
    result = repair_schedule(
        snap_after, sizes,
        delivered=partial.delivered, alive=alive, link_ok=link_ok,
        scheduler=solve,
    )
    merged = merge_with_salvaged(
        partial.salvaged, result.schedule, offset=partial.strike_time
    )

    violations: List[str] = []
    try:
        check_schedule(merged)
    except ScheduleError as exc:
        violations += [
            f"merged timeline: {v}" for v in (exc.violations or [str(exc)])
        ]
    violations += _delivery_violations(
        scenario, sizes, partial, result, merged, alive, link_ok
    )
    violations += _residual_oracle_violations(
        scenario, sizes, snap_after, partial, result, alive, scheduler
    )
    return violations


def repair_vs_full_reschedule(
    scenario: FaultScenario, *, scheduler: str = "openshop"
) -> Dict[str, float]:
    """Compare incremental repair against a naive restart from scratch.

    The naive strategy throws the whole partial execution away and
    reschedules the *full* surviving demand.  Returns both approaches'
    salvaged-event counts and makespans (measured from the strike).
    """
    snapshot = _scenario_snapshot(scenario)
    sizes = _scenario_sizes(scenario)
    solve = make_scheduler(scheduler)
    schedule = solve(TotalExchangeProblem.from_snapshot(snapshot, sizes))
    partial = cut_execution(schedule, scenario.fault.at_event)
    n = scenario.num_procs
    alive, link_ok = apply_fault_to_state(
        np.ones(n, dtype=bool), np.ones((n, n), dtype=bool), scenario.fault
    )
    snap_after = apply_fault_to_snapshot(snapshot, scenario.fault)

    repaired = repair_schedule(
        snap_after, sizes,
        delivered=partial.delivered, alive=alive, link_ok=link_ok,
        scheduler=solve,
    )
    naive = repair_schedule(
        snap_after, sizes,
        delivered=None, alive=alive, link_ok=link_ok, scheduler=solve,
    )
    return {
        "salvaged_repair": float(partial.salvaged_events),
        "salvaged_naive": 0.0,
        "resent_repair": float(repaired.resent),
        "resent_naive": float(naive.resent),
        "makespan_repair": float(repaired.schedule.completion_time),
        "makespan_naive": float(naive.schedule.completion_time),
    }


@dataclass
class FaultCheckReport:
    """Outcome of the fault family run."""

    scheduler: str
    scenarios: int = 0
    failures: List[Tuple[str, List[str]]] = field(default_factory=list)
    comparisons: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_fault_check(
    *, scheduler: str = "openshop", makespan_slack: float = 1.5
) -> FaultCheckReport:
    """Run the full fault family: scenarios, golden path, repair-vs-naive.

    ``makespan_slack`` bounds how much slower incremental repair may be
    than the naive full reschedule (it re-sends less but over the same
    degraded network, so parity within 1.5× is the contract).
    """
    report = FaultCheckReport(scheduler=scheduler)

    golden = golden_zero_fault_violations(scheduler=scheduler)
    report.scenarios += 1
    if golden:
        report.failures.append(("golden-zero-fault", golden))

    for scenario in fault_scenarios():
        report.scenarios += 1
        violations = check_fault_recovery(scenario, scheduler=scheduler)
        if violations:
            report.failures.append((scenario.name, violations))
        stats = repair_vs_full_reschedule(scenario, scheduler=scheduler)
        report.comparisons[scenario.name] = stats
        issues: List[str] = []
        if scenario.fault.at_event and scenario.fault.at_event > 1:
            if stats["salvaged_repair"] <= stats["salvaged_naive"]:
                issues.append(
                    "repair salvaged no more events than the naive "
                    f"restart ({stats['salvaged_repair']:g} vs "
                    f"{stats['salvaged_naive']:g})"
                )
        if stats["makespan_repair"] > makespan_slack * stats["makespan_naive"]:
            issues.append(
                f"repair makespan {stats['makespan_repair']:g} exceeds "
                f"{makespan_slack:g}x the naive restart's "
                f"{stats['makespan_naive']:g}"
            )
        if issues:
            report.failures.append((f"{scenario.name}-vs-naive", issues))
    return report


def render_fault_check(report: FaultCheckReport) -> str:
    """Human-readable fault family report."""
    lines = [
        f"fault family: {report.scenarios} scenarios against "
        f"scheduler {report.scheduler!r}"
    ]
    rows = []
    for name, stats in report.comparisons.items():
        rows.append([
            name,
            int(stats["salvaged_repair"]),
            int(stats["resent_repair"]),
            int(stats["resent_naive"]),
            stats["makespan_repair"],
            stats["makespan_naive"],
        ])
    if rows:
        lines.append(format_table(
            ["scenario", "salvaged", "resent", "resent (naive)",
             "makespan", "makespan (naive)"],
            rows, precision=4,
            title="incremental repair vs naive full reschedule",
        ))
    if report.ok:
        lines.append("fault family: all scenarios PASS")
    else:
        for name, violations in report.failures:
            lines.append(f"FAIL {name}:")
            lines += [f"  - {v}" for v in violations[:10]]
            if len(violations) > 10:
                lines.append(f"  ... +{len(violations) - 10} more")
    return "\n".join(lines)
