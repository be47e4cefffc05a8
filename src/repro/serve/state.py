"""Session snapshot + restore for graceful drain/restart.

:func:`session_state` captures everything an
:class:`~repro.runtime.session.AdaptiveSession` needs to keep making
the *same* decisions after a process boundary: the active plan (orders,
basis cost, repairable event schedule), the policy
counters (tick index, reuse streak, plan age), and the fault-tracking
state (declared-dead link mask, last fault-scan time, faults already
counted).  :func:`restore_session_state` writes that state back into a
freshly constructed session.

What is deliberately *not* snapshot:

* **The schedule cache.**  Schedulers are deterministic, so a restarted
  daemon recomputes exactly what the cache held; only the first tick
  after restart pays the recompute.  Bit-identity of *decisions* is
  preserved — ``cache_hit`` flags on the first post-restart ticks are
  the one legitimate difference, and the drain/restart test compares
  decisions/makespans/digests, never ``cache_hit``.
* **The directory.**  The daemon records the directory's clock and the
  spec it was built from; restore rebuilds the directory and advances
  it to the recorded time.  This is bit-exact for the time-deterministic
  flavours (``static``, ``gusto``, ``drift``, ``dynamics``, trace
  replay) which is why the daemon defaults tenants to ``drift``.
  ``noisy``/``perturb`` directories draw from an RNG on every query and
  cannot be resumed bit-identically — the daemon refuses to snapshot
  such tenants rather than silently diverge.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.io.serialize import schedule_from_dict, schedule_to_dict
from repro.runtime.session import AdaptiveSession, _Plan
from repro.util.validation import check_square_matrix

#: Format tag written into every state payload.
STATE_FORMAT = "repro/session-state"
STATE_VERSION = 1


def _plan_state(plan: Optional[_Plan]) -> Optional[Dict[str, Any]]:
    if plan is None:
        return None
    return {
        "orders": [list(map(int, order)) for order in plan.orders],
        "basis_cost": np.asarray(plan.basis_cost, dtype=float).tolist(),
        "schedule": schedule_to_dict(plan.schedule),
    }


def _plan_from_state(
    state: Optional[Dict[str, Any]], session: AdaptiveSession
) -> Optional[_Plan]:
    """The stored plan, checked as input from outside the process: the
    session's ticks trust a plan's basis, orders and schedule."""
    if state is None:
        return None
    n = session._sizes.shape[0]
    basis = check_square_matrix("basis", state["basis_cost"], nonnegative=True)
    basis.flags.writeable = False
    orders = [list(map(int, order)) for order in state["orders"]]
    schedule = state.get("schedule")
    schedule = None if schedule is None else schedule_from_dict(schedule)
    # Ticks execute the orders and re-time the schedule, so sender by
    # sender both dispatch the same events (a splitting scheduler
    # repeats a pair; a degraded tick may leave one out).  The session
    # never writes a plan without its schedule.
    if (
        basis.shape != (n, n)
        or len(orders) != n
        or not all(0 <= dst < n for order in orders for dst in order)
        or schedule is None
        or schedule.num_procs != n
        or [sorted(order) for order in orders]
        != [sorted(order) for order in schedule.send_orders()]
    ):
        raise ValueError(
            f"not a plan over {n} processors: it needs a {n}x{n} basis, "
            f"send orders over [0, {n}) and the schedule they dispatch"
        )
    return _Plan(orders=orders, basis_cost=basis, schedule=schedule)


def _fault_state(fault: Any) -> Dict[str, Any]:
    # Fault is a frozen dataclass of JSON scalars; keep only non-defaults
    # compact is not worth it — dump all fields for unambiguous restore.
    return {
        "kind": fault.kind,
        "at": fault.at,
        "src": fault.src,
        "dst": fault.dst,
        "node": fault.node,
        "duration": fault.duration,
        "factor": fault.factor,
        "at_event": fault.at_event,
        "symmetric": fault.symmetric,
    }


def _fault_from_state(state: Dict[str, Any]) -> Any:
    from repro.faults.models import Fault

    return Fault(**state)


def session_state(session: AdaptiveSession) -> Dict[str, Any]:
    """Serialize the mutable state of ``session`` to a JSON-safe dict."""
    last_scan = session._last_fault_scan
    return {
        "format": STATE_FORMAT,
        "version": STATE_VERSION,
        "tick_index": session._tick_index,
        "reuse_streak": session._reuse_streak,
        "ticks_since_reschedule": session._ticks_since_reschedule,
        "plan": _plan_state(session._plan),
        "declared_dead": np.asarray(
            session._declared_dead, dtype=bool
        ).tolist(),
        # -inf (never scanned) is not valid JSON; encode as None.
        "last_fault_scan": (
            None if last_scan == float("-inf") else float(last_scan)
        ),
        "seen_faults": sorted(
            (_fault_state(fault) for fault in session._seen_faults),
            key=lambda f: (f["kind"], f["at"], str(f)),
        ),
        "last_schedule": (
            schedule_to_dict(session.last_schedule)
            if session.last_schedule is not None
            else None
        ),
    }


def restore_session_state(
    session: AdaptiveSession, state: Dict[str, Any]
) -> AdaptiveSession:
    """Write a :func:`session_state` payload back into ``session``.

    ``session`` must have been constructed with the same problem shape
    (procs, scheduler, policy) it was snapshot with; the caller — the
    daemon's tenant layer — guarantees that by rebuilding from the same
    :class:`~repro.serve.tenants.TenantProfile`.
    """
    if state.get("format") != STATE_FORMAT:
        raise ValueError(
            f"not a session-state payload: format={state.get('format')!r}"
        )
    if state.get("version") != STATE_VERSION:
        raise ValueError(
            f"session-state version {state.get('version')!r} unsupported "
            f"(expected {STATE_VERSION})"
        )
    session._tick_index = int(state["tick_index"])
    session._reuse_streak = int(state["reuse_streak"])
    session._ticks_since_reschedule = int(state["ticks_since_reschedule"])
    session._plan = _plan_from_state(state.get("plan"), session)
    declared = np.asarray(state["declared_dead"], dtype=bool)
    if declared.shape != session._declared_dead.shape:
        raise ValueError(
            f"declared_dead shape {declared.shape} does not match the "
            f"session's {session._declared_dead.shape} — wrong procs?"
        )
    session._declared_dead = declared
    last_scan = state.get("last_fault_scan")
    session._last_fault_scan = (
        float("-inf") if last_scan is None else float(last_scan)
    )
    session._seen_faults = {
        _fault_from_state(fault) for fault in state.get("seen_faults", [])
    }
    last_schedule = state.get("last_schedule")
    session.last_schedule = (
        schedule_from_dict(last_schedule) if last_schedule is not None else None
    )
    return session
