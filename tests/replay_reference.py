"""The per-event strict replay, frozen as a test reference.

:func:`repro.sim.replay.replay_schedule` used to materialise every
:class:`~repro.timing.events.CommEvent` of the planned schedule, sort
them by ``(start, src, dst)`` and run one
:func:`~repro.sim.engine.execute_steps_strict` step per event.  It now
re-times the plan through :func:`repro.adaptive.delta.retime_schedule`.
The old body moved here, verbatim, so that ``tests/test_retime.py`` can
hold the new path to it: bit-identical positive events and equal
makespans.  (Markers differ on purpose: the old path put a zero-cost
marker at the later of its two port clocks, the re-timer puts it at its
sender's clock, where the executor does.)

Do not "fix" or optimize this module: its value is fidelity to the old
replay.
"""

from __future__ import annotations

from repro.core.problem import TotalExchangeProblem
from repro.sim.engine import execute_steps_strict
from repro.timing.events import Schedule


def replay_schedule_reference(
    planned: Schedule, actual: TotalExchangeProblem
) -> Schedule:
    """Execute ``planned``'s event order under ``actual``'s costs.

    Every event becomes its own single-event step, in planned start
    order; strict execution then respects the planned per-port orders
    while letting start times stretch or shrink with the new costs.
    """
    if planned.num_procs != actual.num_procs:
        raise ValueError(
            f"schedule over {planned.num_procs} processors cannot replay on "
            f"a {actual.num_procs}-processor instance"
        )
    ordered = sorted(planned, key=lambda e: (e.start, e.src, e.dst))
    steps = [[(e.src, e.dst)] for e in ordered]
    return execute_steps_strict(actual.cost, steps, sizes=actual.sizes)
