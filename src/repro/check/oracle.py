"""Universal schedule invariant oracle.

Layered on :func:`repro.timing.validate.check_schedule` (one active send
and one active receive per node, per-event durations equal to the cost
model, no duplicate pairs), this oracle additionally asserts the paper's
Section 3/4 conditions that every scheduler — present and future — must
satisfy on *every* instance:

* **full message coverage** — all ``P^2`` messages are placed: every
  off-diagonal pair appears exactly once (zero-cost pairs as
  zero-duration markers), and every positive-cost diagonal self-message
  appears too;
* **lower bound** — the makespan is at least ``t_lb``, the busiest send
  or receive port (paper Section 4.1);
* **per-scheduler guarantees** — proven worst-case factors over the
  lower bound, e.g. Theorem 3's ``2x`` for the open shop heuristic.

Tolerances are relative-plus-absolute so the oracle stays sound on the
heterogeneous families whose costs span orders of magnitude.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.problem import TotalExchangeProblem
from repro.core.registry import iter_specs
from repro.timing.events import Schedule
from repro.timing.validate import (
    ScheduleError,
    _event_columns,
    check_schedule,
    check_schedule_fast,
)


class OracleError(ScheduleError):
    """Raised when a schedule violates an oracle invariant."""


#: Proven worst-case completion-time factors over the lower bound, keyed
#: by registry scheduler name (``P -> factor``).  Sourced from the
#: registry specs so the oracle and the public metadata cannot drift
#: apart: Theorem 3's 2x for the open shop heuristic, Theorem 2's tight
#: P/2 for the unsynchronised caterpillar, and the preemptive optimum's
#: exact lower bound.
GUARANTEED_BOUNDS: Dict[str, Callable[[int], float]] = {
    spec.name: spec.guarantee
    for spec in iter_specs()
    if spec.guarantee is not None
}


def _tol(atol: float, rtol: float, scale: float) -> float:
    return atol + rtol * abs(scale)


def oracle_violations(
    problem: TotalExchangeProblem,
    schedule: Schedule,
    *,
    scheduler: Optional[str] = None,
    atol: float = 1e-9,
    rtol: float = 1e-9,
) -> List[str]:
    """All invariant violations of ``schedule`` against ``problem``.

    Returns an empty list for a conforming schedule.  Violations are
    grouped kind-by-kind in a deterministic order, the base
    :func:`check_schedule` batch first.
    """
    violations: List[str] = []
    if schedule.num_procs != problem.num_procs:
        return [
            f"schedule covers {schedule.num_procs} processors, "
            f"problem has {problem.num_procs}"
        ]
    # The vectorized fast checker covers the same invariants as the
    # event-by-event check_schedule; it prefilters, and only a failure
    # falls back to the slow path for its detailed per-event violation
    # batch (so failure reports stay as rich as before while clean
    # schedules — the overwhelmingly common case — pay only the
    # vectorized cost).
    try:
        check_schedule_fast(schedule, problem.cost, atol=atol)
    except ScheduleError:
        try:
            check_schedule(schedule, problem.cost, atol=atol)
        except ScheduleError as exc:
            violations += exc.violations or [str(exc)]

    # Full P^2 placement: check_schedule only demands the positive
    # off-diagonal pairs, but every registered scheduler also emits
    # zero-duration markers for free pairs and real events for positive
    # diagonal self-messages — schedules missing them break consumers
    # like send_orders() re-execution and checkpoint restriction.
    # Vectorized: the Python loop runs only over violations (normally
    # none), in the same row-major order as the original scan.
    n = problem.num_procs
    cost = problem.cost
    _, srcs, dsts, _ = _event_columns(schedule)
    has_event = np.zeros((n, n), dtype=bool)
    # out-of-range processors are already reported by the base check
    inside = (srcs >= 0) & (srcs < n) & (dsts >= 0) & (dsts < n)
    has_event[srcs[inside], dsts[inside]] = True
    eye = np.eye(n, dtype=bool)
    missing = ~has_event & (
        (~eye & (cost == 0)) | (eye & (cost > 0))
    )
    for src, dst in zip(*np.nonzero(missing)):
        if src != dst:
            violations.append(
                f"coverage: zero-cost pair ({src}, {dst}) has no marker"
            )
        else:
            violations.append(
                f"coverage: self-message ({src}, {dst}) missing"
            )

    lb = problem.lower_bound()
    makespan = schedule.completion_time
    if makespan < lb - _tol(atol, rtol, lb):
        violations.append(
            f"makespan {makespan:.9g} beats the lower bound {lb:.9g} "
            "(impossible for a valid schedule)"
        )

    bound = GUARANTEED_BOUNDS.get(scheduler or "")
    if bound is not None:
        factor = bound(n)
        limit = factor * lb
        if makespan > limit + _tol(atol, rtol, limit):
            violations.append(
                f"guarantee: {scheduler} makespan {makespan:.9g} exceeds "
                f"its proven {factor:g}x lower-bound cap {limit:.9g}"
            )
    return violations


def check_invariants(
    problem: TotalExchangeProblem,
    schedule: Schedule,
    *,
    scheduler: Optional[str] = None,
    atol: float = 1e-9,
    rtol: float = 1e-9,
) -> None:
    """Raise :class:`OracleError` when any invariant is violated."""
    violations = oracle_violations(
        problem, schedule, scheduler=scheduler, atol=atol, rtol=rtol
    )
    if violations:
        preview = "; ".join(violations[:5])
        more = f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""
        name = scheduler or "schedule"
        raise OracleError(
            f"{name} violates {len(violations)} invariant"
            f"{'s' if len(violations) != 1 else ''}: {preview}{more}",
            violations=violations,
        )
