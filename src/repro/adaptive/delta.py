"""Delta-rescheduling: repair an existing plan instead of rebuilding it.

A drift tick that crosses the refine threshold used to trigger a full
reschedule — ~5 s of flat open-shop list scheduling at P = 1024 — even
when only a handful of links were repriced.  This module generalises the
fault layer's residual-reschedule machinery (:mod:`repro.faults.repair`,
"these links died") to the far more common serving case of "these links
were repriced": diff the old and new cost matrices into dirty pairs and
splice the incumbent plan instead of rebuilding it.

The repair has two regimes, picked by what the reprice did to the
event durations:

* **nothing grew** (every ``new <= old`` duration) — every event keeps
  its old start with its new duration.  Each new window is a subset of
  its old window, and old windows were mutually disjoint per port, so
  no conflict can appear.  Pairs repriced to zero become the usual
  zero-duration markers at their old start.
* **something grew** (any ``new > old``) — a grown event no longer fits
  its old window, and in a tightly packed plan no *other* vacated
  window fits it either (every freed slot holds exactly an old
  duration), so repairing around frozen start times would cascade the
  grown rows to the tail of the plan.  Instead the repair freezes each
  port's *availability profile in order form*: every send and receive
  port keeps the exact sequence the incumbent plan proved feasible, and
  start times are recomputed in one earliest-start pass over the events
  in old start order (``start = max(send avail, recv avail)``).  Events
  ahead of every cascade keep their old start bit-for-bit; events
  behind a grown one slide by the accumulated growth excess — the plan
  shifts locally instead of re-packing globally.  Zero-duration
  markers never occupy a port, so they keep their old starts, and
  appeared pairs (a self-message on a node that previously had none)
  are appended after the ordered events.

The first splice of a plan computes, in the same sequential pass as the
start times, each event's dependency *level* (the longest predecessor
chain through the two port sequences behind it) and leaves the levels
on the repaired schedule as a pair-keyed matrix.  Splices preserve
per-port order, so the levels stay a valid wave partition for every
later repair of the lineage: all events of one level touch distinct
ports, and the recompute collapses to one vectorized gather/max/scatter
against the 2n port clocks per level — ~P events per numpy call, the
steady-state cost the drift bench measures.  The repaired
makespan stays within a few percent of a from-scratch reschedule at the
dirty fractions the policy routes here (see
``PolicyConfig.repair_max_dirty_fraction``) because the incumbent
ordering is near-optimal for the mildly repriced costs.  Zero drift
returns the old schedule *object* — repair is then bit-identical to
reuse.

Hierarchical plans are repaired at block granularity by
:meth:`repro.core.hierarchical.HierarchicalScheduler.delta_repair`;
:func:`repair_plan` dispatches to it when the scheduler offers the hook
and falls back to the flat event-level repair here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.problem import TotalExchangeProblem
from repro.timing.events import (
    Schedule,
    event_columns,
    schedule_from_unsorted_columns,
)
# imported under its alias so the inline check stays replaceable as
# ``repro.adaptive.delta.check_schedule_fast`` (see the alias's comment)
from repro.timing.validate import check_schedule_fast


# Attribute under which a repaired schedule carries its pair-keyed
# level matrix for the next repair in the lineage (see module docstring).
_LEVELS_ATTR = "_delta_levels"

# Sort orders memoised on the (frozen) incumbent: its start order never
# changes, and the level order only changes when the event set does, so
# a plan repaired on every serving tick pays each argsort once.
_ORDER_ATTR = "_delta_start_order"
_LEVEL_ORDER_ATTR = "_delta_level_order"
_HAS_EVENT_ATTR = "_delta_has_event"


def _compute_levels_and_starts(
    n: int,
    srcs: np.ndarray,
    dsts: np.ndarray,
    durs: np.ndarray,
) -> tuple:
    """One sequential pass: earliest starts and DAG depth per event.

    Events are processed front to back in the given per-port order;
    each starts as soon as both its send and receive port are free, and
    its *level* is the longest predecessor chain behind it (one more
    than the deepest of its two port predecessors).  Levels are what
    make the next repair in the lineage cheap — see
    :func:`_execute_by_levels`.
    """
    send_level = [0] * n
    recv_level = [0] * n
    send_avail = [0.0] * n
    recv_avail = [0.0] * n
    levels = []
    starts = []
    for i, j, d in zip(srcs.tolist(), dsts.tolist(), durs.tolist()):
        li = send_level[i]
        lj = recv_level[j]
        level = li if li > lj else lj
        a = send_avail[i]
        b = recv_avail[j]
        t = a if a > b else b
        levels.append(level)
        starts.append(t)
        f = t + d
        send_avail[i] = f
        recv_avail[j] = f
        level += 1
        send_level[i] = level
        recv_level[j] = level
    return np.asarray(starts), np.asarray(levels, dtype=np.int64)


def _execute_by_levels(
    n: int,
    srcs: np.ndarray,
    dsts: np.ndarray,
    durs: np.ndarray,
    levels: np.ndarray,
    order: np.ndarray = None,
) -> np.ndarray:
    """Earliest start times, one vectorized step per dependency level.

    ``levels`` must be strictly increasing along every send and receive
    port's event sequence (the DAG-depth property of
    :func:`_compute_levels_and_starts`, which repairs preserve).  All
    events of one level then touch distinct ports, so the whole level
    is one gather/max/scatter against the 2n port clocks — ~P events
    per numpy call instead of a per-event Python step.  ``order``, when
    given, must be a stable argsort of ``levels`` (callers repairing
    the same plan every tick memoise it).
    """
    total = srcs.shape[0]
    if order is None:
        order = np.argsort(levels, kind="stable")
    s = srcs[order]
    r = dsts[order] + n
    d = durs[order]
    ranked = levels[order]
    bounds = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    bounds = np.append(bounds, total)
    avail = np.zeros(2 * n)
    out = np.empty(total)
    for k in range(bounds.shape[0] - 1):
        sl = slice(bounds[k], bounds[k + 1])
        t = np.maximum(avail[s[sl]], avail[r[sl]])
        out[sl] = t
        finish = t + d[sl]
        avail[s[sl]] = finish
        avail[r[sl]] = finish
    result = np.empty(total)
    result[order] = out
    return result


@dataclass(frozen=True)
class DeltaRepairResult:
    """Outcome of one delta repair.

    Attributes
    ----------
    schedule:
        The repaired schedule, valid for the new costs.
    dirty_pairs:
        Pairs whose cost changed at all between basis and new matrix.
    reinserted:
        Events the splice actually moved to a new start time (plus
        appeared self-messages); zero when every event kept its slot.
    frozen:
        Events kept at their old start (clean, shrunk, and every event
        ahead of the cascades).
    identical:
        True when the costs did not move at all and ``schedule`` *is*
        the old schedule object (repair == reuse, bit-identically).
    """

    schedule: Schedule
    dirty_pairs: int
    reinserted: int
    frozen: int
    identical: bool = False

    @property
    def completion_time(self) -> float:
        return self.schedule.completion_time


def repair_schedule_delta(
    schedule: Schedule,
    basis_cost: np.ndarray,
    problem: TotalExchangeProblem,
    *,
    validate: bool = True,
) -> DeltaRepairResult:
    """Repair ``schedule`` (planned for ``basis_cost``) for ``problem``.

    ``schedule`` must be a valid full-coverage plan for ``basis_cost``.
    The result is a valid full-coverage plan for ``problem.cost``; with
    ``validate`` (the default) it is checked inline by
    :func:`~repro.timing.validate.check_schedule` before being
    returned, so an invalid repair can never escape into serving.
    """
    basis = np.asarray(basis_cost, dtype=float)
    new_cost = problem.cost
    n = problem.num_procs
    if schedule.num_procs != n:
        raise ValueError(
            f"schedule covers {schedule.num_procs} processors, "
            f"problem has {n}"
        )
    if basis.shape != new_cost.shape:
        raise ValueError(
            f"basis shape {basis.shape} != cost shape {new_cost.shape}"
        )
    if np.array_equal(basis, new_cost):
        return DeltaRepairResult(
            schedule=schedule,
            dirty_pairs=0,
            reinserted=0,
            frozen=len(schedule),
            identical=True,
        )

    starts, srcs, dsts, durations = event_columns(schedule)
    new_dur = new_cost[srcs, dsts]
    grown = new_dur > durations

    # Required pairs the old plan has no event for at all (a
    # self-message appearing on a node that previously had none —
    # off-diagonal pairs are always covered by a valid plan's markers).
    flat_new = new_cost.reshape(-1)
    has_event = schedule.__dict__.get(_HAS_EVENT_ATTR)
    if has_event is None:
        has_event = np.zeros(n * n, dtype=bool)
        has_event[srcs * n + dsts] = True
        schedule.__dict__[_HAS_EVENT_ATTR] = has_event
    appeared = np.flatnonzero((flat_new > 0) & ~has_event)

    sizes = (
        np.asarray(problem.sizes, dtype=float)
        if problem.sizes is not None
        else None
    )

    levels = None
    if not grown.any() and appeared.size == 0:
        # Strict freeze: every new window is a subset of its old window.
        out_starts = starts
        out_srcs = srcs
        out_dsts = dsts
        out_durs = new_dur
        reinserted = 0
    else:
        # Order-preserving splice: positive events re-executed in old
        # start order against the frozen per-port sequences; markers
        # (zero new duration) occupy no port time and keep their slot;
        # appeared self-messages go after the ordered events.
        start_order = schedule.__dict__.get(_ORDER_ATTR)
        if start_order is None:
            start_order = np.argsort(starts, kind="stable")
            schedule.__dict__[_ORDER_ATTR] = start_order
        positive = start_order[new_dur[start_order] > 0]
        ev_srcs = np.concatenate([srcs[positive], appeared // n])
        ev_dsts = np.concatenate([dsts[positive], appeared % n])
        ev_durs = np.concatenate([new_dur[positive], flat_new[appeared]])
        level_mat = None
        cached = schedule.__dict__.get(_LEVELS_ATTR)
        if cached is not None and cached.shape == (n, n):
            levels = cached[ev_srcs, ev_dsts]
            # pairs the matrix has never seen (former markers grown to
            # a positive duration, appeared self-messages) go after
            # everything, each on its own level so no port can clash
            unseen = np.flatnonzero(levels < 0)
            if unseen.size:
                top = int(levels.max()) + 1 if levels.size > unseen.size else 0
                levels[unseen] = top + np.arange(unseen.size)
            else:
                level_mat = cached
        if levels is not None:
            memo = schedule.__dict__.get(_LEVEL_ORDER_ATTR)
            if memo is not None and np.array_equal(memo[0], levels):
                level_order = memo[1]
            else:
                level_order = np.argsort(levels, kind="stable")
                schedule.__dict__[_LEVEL_ORDER_ATTR] = (levels, level_order)
            ev_starts = _execute_by_levels(
                n, ev_srcs, ev_dsts, ev_durs, levels, level_order
            )
        else:
            ev_starts, levels = _compute_levels_and_starts(
                n, ev_srcs, ev_dsts, ev_durs
            )
        moved = int(
            np.count_nonzero(ev_starts[: positive.size] != starts[positive])
        )
        reinserted = moved + int(appeared.size)
        markers = np.flatnonzero(new_dur == 0)
        if markers.size:
            out_starts = np.concatenate([starts[markers], ev_starts])
            out_srcs = np.concatenate([srcs[markers], ev_srcs])
            out_dsts = np.concatenate([dsts[markers], ev_dsts])
            out_durs = np.concatenate([new_dur[markers], ev_durs])
        else:
            out_starts = ev_starts
            out_srcs = ev_srcs
            out_dsts = ev_dsts
            out_durs = ev_durs

    if sizes is not None:
        out_sizes = sizes[out_srcs, out_dsts]
    else:
        out_sizes = np.zeros(out_srcs.shape[0])

    repaired = schedule_from_unsorted_columns(
        n, out_starts, out_srcs, out_dsts, out_durs, out_sizes
    )
    if levels is not None:
        # Hand the level structure to the next repair in the lineage.
        # Splices preserve per-port order (starts strictly increase
        # along a port), so the levels stay a valid wave partition for
        # every later repair of this plan.  Skipped if any pair somehow
        # holds two events — the matrix could not tell them apart.
        # When the levels came whole from the incumbent's cache the
        # matrix is unchanged and is passed along as-is.
        if level_mat is None:
            mat = np.full((n, n), -1, dtype=np.int64)
            mat[ev_srcs, ev_dsts] = levels
            if int(np.count_nonzero(mat >= 0)) == ev_srcs.shape[0]:
                level_mat = mat
        if level_mat is not None:
            repaired.__dict__[_LEVELS_ATTR] = level_mat
            # the incumbent has the same per-port orders, so callers
            # that repair the same plan repeatedly (the session keeps
            # its plan anchored across repair ticks) warm up after one
            # splice
            schedule.__dict__[_LEVELS_ATTR] = level_mat
    if validate:
        check_schedule_fast(repaired, new_cost)
    return DeltaRepairResult(
        schedule=repaired,
        dirty_pairs=int(np.count_nonzero(new_cost != basis)),
        reinserted=reinserted,
        frozen=len(schedule) + int(appeared.size) - reinserted,
        identical=False,
    )


def repair_plan(
    schedule: Schedule,
    basis_cost: np.ndarray,
    problem: TotalExchangeProblem,
    *,
    scheduler=None,
    validate: bool = True,
):
    """Repair a plan, preferring the scheduler's own delta hook.

    Schedulers that keep plan-level state (the hierarchical scheduler's
    block decomposition) expose ``delta_repair(problem, validate=...)``
    returning a :class:`DeltaRepairResult` or ``None``; this dispatcher
    tries the hook first (duck-typed, like the session's fault hooks)
    and falls back to the flat event-level
    :func:`repair_schedule_delta`.  Returns ``None`` only when neither
    path produced a valid repair — the caller should fully reschedule.
    """
    hook = getattr(scheduler, "delta_repair", None)
    if hook is not None:
        try:
            result = hook(problem, validate=validate)
        except Exception:  # noqa: BLE001 — repair must never take serving down
            result = None
        if result is not None:
            return result
    if schedule is None:
        return None
    try:
        return repair_schedule_delta(
            schedule, basis_cost, problem, validate=validate
        )
    except Exception:  # noqa: BLE001 — see above
        return None
