"""Strict re-timing: serve an existing plan under new costs.

A drift tick that crosses the refine threshold used to trigger a full
reschedule — ~5 s of flat open-shop list scheduling at P = 1024 — even
when only a handful of links were repriced.  This module keeps the
incumbent plan instead and *re-times* it: every send and receive port
keeps the sequence the plan gave it, and every start is recomputed in
one earliest-start pass over the plan's events in ``(start, src, dst)``
order (``start = max(send port free, receive port free)``).  That is
the strict discipline of the paper's timing diagrams, and the one pass
serves every caller: the repair tier, the strict candidate the session
serves on every tick, and :func:`repro.sim.replay.replay_schedule`.  A
re-time never starts an event later than the plan did under its own
costs.  Zero drift returns the plan object itself (re-time == reuse).

The structure a pass needs is built once per plan and memoised on the
(frozen) schedule.  Two passes run over it and agree bit for bit:

* the plain-Python sequential pass over the 2n port clocks — for plans
  of at most :data:`SEQUENTIAL_MAX_EVENTS` positive events, and for a
  larger plan's first re-time (many plans are never re-timed twice);
* the level pass — a larger plan's second re-time finds each event's
  dependency *level* (the longest predecessor chain behind it) and
  stores the plan in level order with each event's predecessors on its
  two ports (int32).  All events of one level touch distinct ports, so
  a level is one vectorized gather/max over its predecessors' finishes.

**FIFO's answer.**  The pass also reports whether its schedule is
exactly what the FIFO executor (:func:`repro.sim.engine.execute_orders`)
makes of the plan's send orders: that holds when every receiver's
sequence is strictly increasing in ``(request time, src)``, an event's
request time being the finish of its sender's previous positive event
(0 for the first).  The executor pops requests globally in that order
and every chain event finishes after its request, so its schedule is
the only one in which each receiver serves in that order; a re-time
that already has it computes the same ``max(request, receiver free)``
starts and ``start + duration`` finishes with the same float
operations.  The caller then needs no executor run.

Zero-cost markers occupy no port; they sit at their sender's clock (the
finish of its previous positive event in the plan's order, or 0), where
the executor puts them.  A marker tied in start with that event may
stand on either side of it in the plan's send orders, so such a plan
claims no FIFO answer.  Splitting schedulers (``preemptive``,
``openshop_partitioned``) send a pair in pieces: an event whose duration
is its pair's basis cost takes the new cost exactly, a piece takes its
duration times new over basis cost, and the plan is flagged ``split``
(the executor would charge each piece its pair's whole cost).

A re-time that is not FIFO's answer is checked inline in O(E): every
time finite and every event starting no earlier than the finish of its
predecessor on both of its ports.  The sequential pass starts each
event at the later of its two port clocks, so it only has to check the
times are finite.  The event set is the plan's, so the check is
complete; ``validate=True`` adds the full
:func:`~repro.timing.validate.check_schedule`.

Hierarchical plans are repaired at block granularity by
:meth:`repro.core.hierarchical.HierarchicalScheduler.delta_repair`;
:func:`repair_plan` dispatches to it when the scheduler offers the hook
and falls back to the flat re-timer here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.problem import TotalExchangeProblem
from repro.timing.events import (
    Schedule,
    event_columns,
    event_order,
    schedule_from_unsorted_columns,
)
# imported under its alias so the full check stays replaceable as
# ``repro.adaptive.delta.check_schedule_fast`` (see the alias's comment)
from repro.timing.validate import ScheduleError, check_schedule_fast

#: Plans with at most this many positive events re-time in the
#: sequential pass; larger ones in the level pass from their second
#: re-time on.  Measured on a 2-core x86-64 VM (docs/performance.md):
#: the sequential pass costs ~0.35 µs per event, the level pass ~2.7 µs
#: per level, so the level pass wins above ~8 events per level — from
#: P≈64 on the clustered platforms and from P≈128 on the random ones.
SEQUENTIAL_MAX_EVENTS = 8192

# Instance-dict key of a plan's memoised :class:`_Structure`.
_STRUCTURE_ATTR = "_retime"


class _Structure:
    """What re-timing one plan needs (module docstring).

    ``cols`` holds the plan's events as column indices: its ``m``
    positive events in ``(start, src, dst)`` order (level order once
    ``bounds``, the level boundaries, is known), then its markers.
    ``marker_pred``, ``send_pred`` and ``recv_pred`` index ``cols``
    (-1: none).  A small plan keeps its ``ports`` (see :func:`_ports`):
    numpy's per-call overhead, not the pass, dominates a small re-time.
    """

    __slots__ = (
        "cols", "m", "live_bytes", "marker_pred", "tied", "split",
        "has_event", "retimed", "send_pred", "recv_pred", "bounds",
        "ports",
    )

    def __init__(self, n, starts, srcs, dsts, live, perm):
        total = srcs.shape[0]
        index = np.intp if total <= SEQUENTIAL_MAX_EVENTS else np.int32
        order = np.arange(total) if perm is None else perm
        ranked = live[order]
        self.m = m = int(np.count_nonzero(ranked))
        self.live_bytes = b"\x01" * m + b"\x00" * (total - m)
        counts = np.bincount(srcs * n + dsts, minlength=n * n)
        self.has_event = counts > 0
        self.split = bool(total and counts.max() > 1)
        positive, markers = order[ranked], order[~ranked]
        self.cols = np.concatenate([positive, markers]).astype(index)
        self.marker_pred = np.full(markers.size, -1, dtype=index)
        self.tied = False
        if markers.size:
            # a marker's sender predecessor: one search over the
            # positive events keyed by (src, rank)
            psrc, rank = srcs[positive], np.flatnonzero(ranked)
            by_src = _stable_order(psrc)
            keys = psrc[by_src] * total + rank[by_src]
            hit = np.searchsorted(
                keys, srcs[markers] * total + np.flatnonzero(~ranked)
            ) - 1
            found = hit >= 0
            found[found] = psrc[by_src[hit[found]]] == srcs[markers[found]]
            self.marker_pred[found] = by_src[hit[found]]
            self.tied = bool(np.any(
                starts[markers[found]]
                == starts[positive[self.marker_pred[found]]]
            ))
        self.retimed = False  # levels wait for the second re-time
        self.send_pred = self.recv_pred = self.bounds = self.ports = None
        if index is np.intp:
            self.ports = _ports(n, self, starts, srcs, dsts, lists=True)

    def preds(self, srcs, dsts):
        """Each positive event's predecessors on its two ports."""
        if self.send_pred is None:
            positive = self.cols[:self.m]
            dtype = self.cols.dtype
            self.send_pred = _port_pred(srcs[positive]).astype(dtype)
            self.recv_pred = _port_pred(dsts[positive]).astype(dtype)
        return self.send_pred, self.recv_pred

    def by_levels(self, n, srcs, dsts) -> None:
        """Put the positive events in level order."""
        send_pred, recv_pred = self.preds(srcs, dsts)
        positive = self.cols[:self.m]
        send = [0] * n
        recv = [0] * n
        levels = []
        for i, j in zip(srcs[positive].tolist(), dsts[positive].tolist()):
            a = send[i]
            b = recv[j]
            send[i] = recv[j] = level = (a if a > b else b) + 1
            levels.append(level)
        levels = np.asarray(levels)
        perm = _stable_order(levels)
        rank = np.empty(self.m + 1, dtype=self.cols.dtype)
        rank[perm] = np.arange(self.m)
        rank[-1] = -1  # "no predecessor" stays -1
        self.cols[:self.m] = positive[perm]
        self.send_pred = rank[send_pred][perm]
        self.recv_pred = rank[recv_pred][perm]
        self.marker_pred = rank[self.marker_pred]
        ranked = levels[perm]
        self.bounds = np.flatnonzero(
            np.concatenate(([True], ranked[1:] != ranked[:-1], [True]))
        )


def _ports(n, st, starts, srcs, dsts, lists=False):
    """The senders, receivers, flat pair indices and starts of
    ``st.cols``, then (with ``lists``) its positive senders and
    receivers as lists, for the sequential pass."""
    ev_srcs, ev_dsts = srcs[st.cols], dsts[st.cols]
    return (
        ev_srcs, ev_dsts, ev_srcs * n + ev_dsts, starts[st.cols],
        ev_srcs[:st.m].tolist() if lists else None,
        ev_dsts[:st.m].tolist() if lists else None,
    )


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """A stable argsort; keys that fit 16 bits take numpy's radix sort."""
    if keys.size and keys.max() < 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


def _port_pred(ports: np.ndarray) -> np.ndarray:
    """Each event's predecessor on its port (-1: none), in event order."""
    pred = np.full(ports.shape[0], -1, dtype=np.intp)
    by_port = _stable_order(ports)
    same = ports[by_port[1:]] == ports[by_port[:-1]]
    pred[by_port[1:][same]] = by_port[:-1][same]
    return pred


def _sequential(n, srcs, dsts, durs):
    """Earliest starts in one pass over the port clocks.

    Returns ``(starts, fifo, finite)``: whether every receiver's
    sequence is strictly increasing in ``(request time, src)``, and
    whether every finish is finite (the costs are, so only an overflow
    can make one infinite, and then the latest finish is).
    """
    send = [0.0] * n
    recv = [0.0] * n
    # the (request time, src) each receiver served last
    last_request = [-1.0] * n
    last_src = [-1] * n
    starts = []
    append = starts.append
    fifo = True
    latest = 0.0
    for i, j, d in zip(srcs, dsts, durs):
        a = send[i]
        b = recv[j]
        t = a if a > b else b
        append(t)
        send[i] = recv[j] = f = t + d
        if f > latest:
            latest = f
        r = last_request[j]
        if a < r or (a == r and i <= last_src[j]):
            fifo = False
        last_request[j] = a
        last_src[j] = i
    return np.asarray(starts, dtype=float), fifo, math.isfinite(latest)


def _level_pass(send_pred, recv_pred, durs, bounds) -> np.ndarray:
    """Earliest starts, one vectorized step per dependency level."""
    finish = np.zeros(durs.shape[0] + 1)  # finish[-1]: "no predecessor"
    starts = np.empty(durs.shape[0])
    # one cast here, not one per level and gather
    send_pred = send_pred.astype(np.intp)
    recv_pred = recv_pred.astype(np.intp)
    bounds = bounds.tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        t = np.maximum(finish[send_pred[lo:hi]], finish[recv_pred[lo:hi]])
        starts[lo:hi] = t
        np.add(t, durs[lo:hi], out=finish[lo:hi])
    return starts


def _finish(starts, durs) -> np.ndarray:
    """Finish times, plus a trailing 0 that predecessor index -1 reads."""
    finish = np.empty(starts.shape[0] + 1)
    np.add(starts, durs, out=finish[:-1])
    finish[-1] = 0.0
    return finish


def _checked(starts, finish, send_pred, recv_pred, srcs, claim) -> bool:
    """The O(E) check of a strict schedule, then its FIFO test."""
    ready = np.maximum(finish[send_pred], finish[recv_pred])
    if not (np.isfinite(finish).all() and (starts >= ready).all()):
        raise ScheduleError(
            "re-timed schedule invalid: an event is non-finite or "
            "overlaps a port predecessor"
        )
    if not (claim and ready.tobytes() == starts.tobytes()):
        return False  # not tight: not the executor's schedule
    request = finish[send_pred]
    has = recv_pred >= 0
    prev = recv_pred[has]
    r, q = request[has], request[prev]
    return bool(((r > q) | ((r == q) & (srcs[has] > srcs[prev]))).all())


@dataclass(frozen=True)
class DeltaRepairResult:
    """Outcome of one re-time (a delta repair).

    Attributes
    ----------
    schedule:
        The re-timed schedule, valid for the new costs.
    dirty_pairs:
        Pairs whose cost changed at all between basis and new matrix.
    reinserted:
        Events the re-time moved to a new start time (plus appeared
        self-messages); zero when every event kept its slot.
    frozen:
        Events kept at their old start.
    identical:
        True when the costs did not move at all and ``schedule`` *is*
        the old schedule object (repair == reuse, bit-identically).
    fifo:
        True when ``schedule`` is, bit for bit, what the FIFO executor
        makes of the plan's send orders under the new costs.
    split:
        True when the plan repeats a pair: the FIFO executor offers no
        candidate for it.
    """

    schedule: Schedule
    dirty_pairs: int
    reinserted: int
    frozen: int
    identical: bool = False
    fifo: bool = False
    split: bool = False

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
    """Re-time ``schedule`` (planned for ``basis_cost``) for ``problem``.

    ``schedule`` must be a valid full-coverage plan for ``basis_cost``.
    The result is a valid full-coverage plan for ``problem.cost``,
    checked inline in O(E) unless it is FIFO's answer; ``validate``
    (the default) adds the full
    :func:`~repro.timing.validate.check_schedule`, so an invalid
    re-time can never escape into serving.  Zero drift returns
    ``schedule`` itself.
    """
    return _retime(schedule, basis_cost, problem, validate, True)


def retime_schedule(
    schedule: Schedule,
    basis_cost: np.ndarray,
    problem: TotalExchangeProblem,
    *,
    validate: bool = False,
) -> DeltaRepairResult:
    """:func:`repair_schedule_delta` that re-times under zero drift too
    (a plan with idle gaps then tightens)."""
    return _retime(schedule, basis_cost, problem, validate, False)


def _retime(schedule, basis_cost, problem, validate, keep_unchanged):
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
    starts, srcs, dsts, durations = event_columns(schedule)
    st = schedule.__dict__.get(_STRUCTURE_ATTR)
    if st is None:
        st = _Structure(
            n, starts, srcs, dsts, durations > 0, event_order(schedule)
        )
        schedule.__dict__[_STRUCTURE_ATTR] = st
    dirty = int(np.count_nonzero(new_cost != basis))
    ports = st.ports or _ports(n, st, starts, srcs, dsts)
    ev_srcs, ev_dsts, pairs, old, src_list, dst_list = ports
    m = st.m
    claim = not (st.tied or st.split)
    if keep_unchanged and not dirty:
        # the plan itself; FIFO's answer when it is tight and passes
        # the FIFO test
        send_pred, recv_pred = st.preds(srcs, dsts)
        finish = _finish(old[:m], durations[st.cols[:m]])
        fifo = _checked(
            old[:m], finish, send_pred, recv_pred, ev_srcs[:m], claim
        ) and old[m:].tobytes() == finish[st.marker_pred].tobytes()
        return DeltaRepairResult(
            schedule, 0, 0, len(schedule), identical=True, fifo=fifo,
            split=st.split,
        )

    def durations_of(st, pairs):
        durs = np.take(new_cost, pairs)
        if st.split:  # a piece keeps its share of its pair's cost
            plan, base = durations[st.cols], np.take(basis, pairs)
            pieces = plan != base
            durs[pieces] = plan[pieces] * durs[pieces] / base[pieces]
        return durs

    ev_durs = durations_of(st, pairs)
    live = ev_durs > 0
    same = live.tobytes() == st.live_bytes
    if not same:
        # a pair repriced to or from zero: a structure for this call
        # alone, over the events that hold a port now
        now = np.empty(live.shape[0], dtype=bool)
        now[st.cols] = live
        st = _Structure(n, starts, srcs, dsts, now, event_order(schedule))
        ev_srcs, ev_dsts, pairs, old, src_list, dst_list = st.ports or (
            _ports(n, st, starts, srcs, dsts)
        )
        m = st.m
        ev_durs = durations_of(st, pairs)
    # Required pairs the plan has no event for (a self-message appearing
    # on a node that had none; a valid plan covers every other pair).
    appeared = np.empty(0, dtype=np.intp)
    if st.split or np.count_nonzero(new_cost) > m:
        appeared = np.flatnonzero((new_cost.reshape(-1) > 0) & ~st.has_event)
    same = same and not appeared.size
    claim = claim and same
    if same and m > SEQUENTIAL_MAX_EVENTS and st.retimed:
        if st.bounds is None:
            st.by_levels(n, srcs, dsts)
            ev_srcs, ev_dsts, pairs, old, _, _ = _ports(
                n, st, starts, srcs, dsts
            )
            ev_durs = durations_of(st, pairs)
        send_pred, recv_pred = st.send_pred, st.recv_pred
        pos_durs = ev_durs[:m]
        pos_starts = _level_pass(send_pred, recv_pred, pos_durs, st.bounds)
        finish = _finish(pos_starts, pos_durs)
        fifo = _checked(
            pos_starts, finish, send_pred, recv_pred, ev_srcs[:m], claim
        )
    else:
        pos_durs = ev_durs[:m]
        if src_list is None:
            src_list, dst_list = ev_srcs[:m].tolist(), ev_dsts[:m].tolist()
        if appeared.size:  # after the plan's events
            src_list = src_list + (appeared // n).tolist()
            dst_list = dst_list + (appeared % n).tolist()
            pos_durs = np.concatenate([pos_durs, np.take(new_cost, appeared)])
        pos_starts, fifo, finite = _sequential(
            n, src_list, dst_list, pos_durs.tolist()
        )
        if not finite:
            raise ScheduleError("re-timed schedule has non-finite times")
        fifo = fifo and claim
        st.retimed = st.retimed or same

    # columns: positive events, markers at their senders' clocks, then
    # the appeared pairs
    ev_starts = pos_starts
    if m < old.size or appeared.size:
        finish = _finish(pos_starts, pos_durs)
        ev_starts = np.concatenate(
            [pos_starts[:m], finish[st.marker_pred], pos_starts[m:]]
        )
        ev_durs = np.concatenate(
            [pos_durs[:m], np.zeros(old.size - m), pos_durs[m:]]
        )
        ev_srcs = np.concatenate([ev_srcs, appeared // n])
        ev_dsts = np.concatenate([ev_dsts, appeared % n])
        pairs = np.concatenate([pairs, appeared])
    reinserted = int(np.count_nonzero(ev_starts[:old.size] != old))
    reinserted += appeared.size
    sizes = (
        np.take(problem.sizes, pairs) if problem.sizes is not None
        else np.zeros(pairs.shape[0])
    )
    repaired = schedule_from_unsorted_columns(
        n, ev_starts, ev_srcs, ev_dsts, ev_durs, sizes
    )
    if validate:
        check_schedule_fast(repaired, None if st.split else new_cost)
    frozen = len(schedule) + appeared.size - reinserted
    return DeltaRepairResult(
        repaired, dirty, reinserted, frozen, fifo=fifo, split=st.split
    )


def repair_plan(
    schedule: Schedule,
    basis_cost: np.ndarray,
    problem: TotalExchangeProblem,
    *,
    scheduler=None,
    validate: bool = True,
):
    """Re-time a plan, preferring the scheduler's own delta hook.

    Schedulers that keep plan-level state (the hierarchical scheduler's
    block decomposition) expose ``delta_repair(problem, validate=...)``
    returning a :class:`DeltaRepairResult` or ``None``; this dispatcher
    tries the hook first (duck-typed, like the session's fault hooks)
    and falls back to the flat :func:`repair_schedule_delta`.  Returns
    ``None`` only when neither path produced a valid schedule — the
    caller should serve or plan something else.
    """
    hook = getattr(scheduler, "delta_repair", None)
    if hook is not None:
        try:
            # the hook re-plans blocks instead of re-timing port orders,
            # so the O(E) check does not cover it: it checks in full
            result = hook(problem, validate=True)
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
