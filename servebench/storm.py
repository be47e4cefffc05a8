"""The ``storm`` workload: one in-process session over a drift-storm
trace at P=256 (no wire, no daemon).

Each tick is timed on its own; between ticks, outside the timed
intervals, the executed schedule is checked against that tick's actual
costs and its makespan is divided by that tick's lower bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from servebench.noise import steal_ticks
from servebench.specs import SCHEDULER, Plan, storm_inputs


@dataclass
class StormSetup:
    session: object
    trace: object
    sizes: object
    setup_s: float
    window: Tuple[float, float]


@dataclass
class StormServed:
    windows: List[Tuple[float, float]]
    latencies_s: List[float]
    cpu_s: float
    steal_ticks: int
    decisions: Dict[str, int]
    #: (decision, executed makespan) per timed tick
    answers: List[Tuple[str, float]]
    ratios: List[float]
    #: (tick, message) per failed output check
    problems: List[Tuple[int, str]]


def set_up(plan: Plan) -> StormSetup:
    """Build the platform and trace, open the session, serve the cold tick."""
    from repro.runtime.session import AdaptiveSession
    from repro.sim import replay

    started = time.perf_counter()
    trace, sizes = storm_inputs(plan)
    session = AdaptiveSession(
        replay.TraceDirectory(trace), sizes, scheduler=SCHEDULER
    )
    session.tick(dt=0.0)
    finished = time.perf_counter()
    return StormSetup(session, trace, sizes, finished - started,
                      (started, finished))


def serve(plan: Plan, setup: StormSetup, check: bool = True) -> StormServed:
    """The timed ticks; ``check`` validates every executed schedule."""
    from repro.core.problem import TotalExchangeProblem
    from repro.timing.validate import ScheduleError, check_schedule_fast

    clock, cpu_clock = time.perf_counter, time.process_time
    windows, latencies, answers, ratios, problems = [], [], [], [], []
    decisions: Dict[str, int] = {}
    cpu = 0.0
    steal = 0
    for k in range(1, plan.ticks + 1):
        s0 = steal_ticks()
        c0 = cpu_clock()
        t0 = clock()
        result = setup.session.tick(dt=1.0)
        t1 = clock()
        cpu += cpu_clock() - c0
        steal += steal_ticks() - s0
        windows.append((t0, t1))
        latencies.append(t1 - t0)
        event = result.event
        decisions[event.decision] = decisions.get(event.decision, 0) + 1
        answers.append((event.decision, event.executed_makespan))
        actual = TotalExchangeProblem.from_snapshot(
            setup.trace.snapshots[k], setup.sizes
        )
        if check:
            try:
                check_schedule_fast(result.schedule, actual.cost)
            except ScheduleError as exc:
                problems.append((k, f"tick {k} ({event.decision}): {exc}"))
        if event.fallback:
            problems.append((k, f"tick {k}: plan fell back to the baseline"))
        ratios.append(event.executed_makespan / actual.lower_bound())
        # Free this tick's schedule now, not inside the next timed call.
        del result, event, actual
    return StormServed(
        windows, latencies, cpu, steal, decisions, answers, ratios, problems
    )
