"""Execution engines: from send orders to timed schedules.

The matching, greedy, and baseline schedulers fix only the *order* in
which each sender dispatches its messages; actual start times emerge from
the run-time rule that "a communication event will begin whenever the
sending and receiving processors are both ready" (paper Section 4.3).
:func:`~repro.sim.engine.execute_orders` is that rule as a deterministic
event-driven simulation.

* :mod:`repro.sim.engine` — the base executor (one send + one receive per
  node, FIFO receiver queueing);
* :mod:`repro.sim.replay` — re-execute planned orders under *different*
  network conditions (adaptivity experiments);
* :mod:`repro.sim.variants` — Section 6.1 executor variants (interleaved
  receive, finite buffers);
* :mod:`repro.sim.fluid` — flow-level simulation over a link topology with
  fair bandwidth sharing (model-error ablation).
"""

from repro.sim.engine import (
    SendOrders,
    Step,
    check_orders,
    execute_orders,
    execute_orders_on_cost,
    execute_steps_barrier,
    execute_steps_strict,
)
from repro.sim.fluid import fluid_execute_orders
from repro.sim.replay import (
    DriftTrace,
    TraceDirectory,
    drift_storm_trace,
    planned_vs_actual,
    replay_schedule,
    synthetic_drift_trace,
)
from repro.sim.variants import (
    execute_orders_buffered,
    execute_orders_interleaved,
)

__all__ = [
    "DriftTrace",
    "SendOrders",
    "Step",
    "TraceDirectory",
    "check_orders",
    "drift_storm_trace",
    "execute_orders",
    "execute_orders_buffered",
    "execute_orders_interleaved",
    "execute_orders_on_cost",
    "execute_steps_barrier",
    "execute_steps_strict",
    "fluid_execute_orders",
    "planned_vs_actual",
    "replay_schedule",
    "synthetic_drift_trace",
]
