"""Event-driven execution of order-based schedules.

Semantics (paper Sections 3.2 and 4.3):

* each sender dispatches its messages strictly in its given order;
* a node performs at most one send and at most one receive at a time;
* when a sender becomes free it immediately *requests* its next receiver
  (the control message of Section 3.2); contending requests at a receiver
  are served FIFO by request time, with sender index as the tie-break;
* a transfer occupies the sender and the receiver for its full duration;
  self-messages (``src == dst``, only present in adversarial instances)
  occupy both ports of their node at once;
* zero-cost events are free: they are emitted as zero-duration markers at
  the sender's current clock and constrain nothing.

The simulation is deterministic, so a given ``(cost, orders)`` always
yields the same schedule.

The executors are the innermost hot path of every sweep and of every
serving tick, so none of them builds a per-event Python object: the
event-driven executor runs its FIFO loop over flat Python lists and
writes bare start times, while the step executors relax whole steps at
a time with vectorized ``maximum`` updates.  All of them hand their
column arrays, in the order they built them (sender by sender, or step
by step), straight to a lazily-materialised schedule, which sorts them
into ``(start, src, dst)`` order only if a reader needs that order
(:func:`repro.timing.events.event_order`); a serving tick that only
reads the makespan never does.  ``tests/test_golden_equivalence.py`` and
``tests/test_properties.py`` pin these kernels to the seed
implementations preserved in :mod:`repro.perf.reference`.
"""

from __future__ import annotations

import heapq
from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.problem import TotalExchangeProblem
from repro.timing.events import Schedule, schedule_from_unsorted_columns
from repro.util.validation import check_square_matrix

#: Per-sender destination lists, in dispatch order.
SendOrders = List[List[int]]


def check_orders(
    orders: Sequence[Sequence[int]],
    cost: np.ndarray,
    *,
    require_coverage: bool = True,
) -> None:
    """Validate send orders against a cost matrix.

    Each sender's list must contain valid destination indices without
    repeats; with ``require_coverage``, every positive-cost pair must
    appear.
    """
    cost = check_square_matrix("cost", cost, nonnegative=True)
    n = cost.shape[0]
    if len(orders) != n:
        raise ValueError(f"expected {n} sender lists, got {len(orders)}")
    # Vectorized happy path: one bounds check and one bincount over all
    # (src, dst) pairs at once.  Only when something is wrong do we walk
    # the orders scalar-style, so errors name the first offender exactly
    # as the original element-by-element scan did.
    lengths = [len(dsts) for dsts in orders]
    counts = None
    ok = True
    if sum(lengths):
        flat = np.concatenate(
            [np.asarray(dsts, dtype=np.intp) for dsts in orders if dsts]
        )
        ok = bool(flat.min() >= 0 and flat.max() < n)
        if ok:
            keys = flat + np.repeat(
                np.arange(n, dtype=np.intp) * n, lengths
            )
            counts = np.bincount(keys, minlength=n * n)
            ok = not np.any(counts > 1)
    if ok and require_coverage:
        present = (
            counts.reshape(n, n) > 0
            if counts is not None
            else np.zeros((n, n), dtype=bool)
        )
        ok = not np.any((cost > 0) & ~present)
    if ok:
        return
    for src, dsts in enumerate(orders):
        seen = set()
        for dst in dsts:
            if not (0 <= dst < n):
                raise ValueError(
                    f"sender {src} targets invalid destination {dst}"
                )
            if dst in seen:
                raise ValueError(f"sender {src} targets {dst} twice")
            seen.add(dst)
        if require_coverage:
            needed = {int(d) for d in np.nonzero(cost[src])[0]}
            missing = needed - seen
            if missing:
                raise ValueError(
                    f"sender {src} never sends to {sorted(missing)}"
                )
    raise AssertionError("check_orders: vectorized and scalar walks disagree")


def execute_orders_on_cost(
    cost: np.ndarray,
    orders: Sequence[Sequence[int]],
    *,
    sizes: Optional[np.ndarray] = None,
    validate: bool = True,
) -> Schedule:
    """Execute ``orders`` under ``cost`` and return the timed schedule.

    The orders are flattened sender-major into one event array.  Each
    sender's positive-cost events form its *chain*; only the chains run
    through the FIFO loop, which writes each start into a flat float
    list and builds no per-event record.  Zero-cost markers sit at their
    sender's clock — the finish of the chain event before them, or 0 —
    and are placed in one vectorized pass afterwards.
    """
    cost = check_square_matrix("cost", cost, nonnegative=True)
    return _execute_orders(cost, orders, sizes, validate)


def _execute_orders(cost, orders, sizes, validate) -> Schedule:
    """:func:`execute_orders_on_cost` on a cost matrix already checked."""
    if validate:
        check_orders(orders, cost, require_coverage=False)
    n = cost.shape[0]
    lengths = [len(dsts) for dsts in orders]
    total = sum(lengths)
    if not total:
        return Schedule(num_procs=n)
    dsts = np.fromiter(chain.from_iterable(orders), dtype=np.intp, count=total)
    srcs = np.arange(n, dtype=np.intp).repeat(lengths)
    durations = cost[srcs, dsts]
    positive = durations > 0.0
    markers = (~positive).nonzero()[0]
    durations[markers] = 0.0  # a zero cost entry may be -0.0

    # The chains, concatenated: sender s's chain occupies chain indices
    # [bounds[s], bounds[s + 1]).
    chain_durations = durations[positive]
    bounds = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(srcs[positive], minlength=n), out=bounds[1:])
    dst_of = dsts[positive].tolist()
    duration_of = chain_durations.tolist()
    chain_starts = [0.0] * len(dst_of)
    recv_free = [0.0] * n
    first = bounds.tolist()
    end = first[1:]

    # Heap entries are (request time, src, chain index).  A sender has
    # at most one outstanding request, so (time, src) is unique and the
    # pop order is FIFO by request time, ties by sender.  The initial
    # list is sorted, hence already a heap.
    heap = [
        (0.0, src, first[src]) for src in range(n) if first[src] < end[src]
    ]
    heapreplace = heapq.heapreplace
    heappop = heapq.heappop
    while heap:
        request_time, src, i = heap[0]
        dst = dst_of[i]
        ready = recv_free[dst]
        start = request_time if request_time >= ready else ready
        finish = start + duration_of[i]
        recv_free[dst] = finish
        chain_starts[i] = start
        i += 1
        if i < end[src]:
            heapreplace(heap, (finish, src, i))
        else:
            heappop(heap)

    starts = np.empty(total)
    chain_starts = np.array(chain_starts)
    starts[positive] = chain_starts
    if markers.size:
        # The chain events a sender dispatched before a marker are the
        # positive ones ahead of it in the flat order; the last of them
        # (if it is the sender's own) sets the marker's clock.
        before = np.cumsum(positive)[markers]
        dispatched = before > bounds[srcs[markers]]
        previous = before[dispatched] - 1
        clock = np.zeros(markers.size)
        clock[dispatched] = chain_starts[previous] + chain_durations[previous]
        starts[markers] = clock
    event_sizes = (
        np.zeros(total) if sizes is None
        else np.asarray(sizes, dtype=float)[srcs, dsts]
    )
    return schedule_from_unsorted_columns(
        n, starts, srcs, dsts, durations, event_sizes
    )


def execute_orders(
    problem: TotalExchangeProblem,
    orders: Sequence[Sequence[int]],
    *,
    validate: bool = True,
) -> Schedule:
    """Execute ``orders`` under a problem's (already checked) cost."""
    return _execute_orders(problem.cost, orders, problem.sizes, validate)


#: A communication step: the (src, dst) events of one round.  Complete
#: matchings give permutations (every src exactly once); greedy steps may
#: be partial.  A src or dst must not repeat within a step.
Step = Sequence[Tuple[int, int]]


def _check_steps(steps: Sequence[Step], n: int) -> None:
    for index, step in enumerate(steps):
        if not step:
            continue
        srcs = [src for src, _ in step]
        dsts = [dst for _, dst in step]
        # C-level min/max first; only walk elements when a bound fails.
        if min(srcs) < 0 or max(srcs) >= n or min(dsts) < 0 or max(dsts) >= n:
            for proc in (*srcs, *dsts):
                if not (0 <= proc < n):
                    raise ValueError(
                        f"step {index} references processor {proc} "
                        f"outside [0, {n})"
                    )
        if len(set(srcs)) != len(srcs) or len(set(dsts)) != len(dsts):
            raise ValueError(f"step {index} repeats a sender or receiver")


def _steps_as_pairs(steps: Sequence[Step]) -> List[Tuple[list, list]]:
    """Split steps into parallel sender/receiver index lists.

    Empty steps emit no events and constrain nothing, so they are
    dropped here.
    """
    pairs: List[Tuple[list, list]] = []
    for step in steps:
        if step:
            pairs.append(
                ([src for src, _ in step], [dst for _, dst in step])
            )
    return pairs


def _columns_schedule(
    n: int,
    starts_parts: List[np.ndarray],
    srcs_parts: List[np.ndarray],
    dsts_parts: List[np.ndarray],
    duration_parts: List[np.ndarray],
    sizes: Optional[np.ndarray],
) -> Schedule:
    """Assemble per-step event columns, step by step, into a lazy
    schedule."""
    if not starts_parts:
        return Schedule(num_procs=n)
    srcs = np.concatenate(srcs_parts)
    dsts = np.concatenate(dsts_parts)
    event_sizes = (
        np.zeros(len(srcs)) if sizes is None
        else np.asarray(sizes, dtype=float)[srcs, dsts]
    )
    return schedule_from_unsorted_columns(
        n,
        np.concatenate(starts_parts),
        srcs,
        dsts,
        np.concatenate(duration_parts),
        event_sizes,
    )


def execute_steps_strict(
    cost: np.ndarray,
    steps: Sequence[Step],
    *,
    sizes: Optional[np.ndarray] = None,
    validate: bool = True,
) -> Schedule:
    """Order-preserving execution of a step-structured schedule.

    No barriers: an event starts as soon as its sender has finished its
    previous step's send *and* its receiver has finished its previous
    step's receive (receives are served in step order, not arrival
    order).  This is the semantics of the paper's dependence-graph
    analysis and of its matching/greedy timing diagrams: "a communication
    event will begin whenever the sending and receiving processors are
    both ready", with the schedule fixing who is next at every port.

    Runs in ``O(P^2)``: each step is relaxed with one vectorized
    ``maximum`` over the step's senders and receivers, and events are
    accumulated as column arrays — no per-event Python work at all.
    Schedulers that generate their own steps pass ``validate=False`` to
    skip the step well-formedness check.
    """
    cost = check_square_matrix("cost", cost, nonnegative=True)
    n = cost.shape[0]
    if validate:
        _check_steps(steps, n)
    send_free = np.zeros(n)
    recv_free = np.zeros(n)
    starts_parts: List[np.ndarray] = []
    srcs_parts: List[np.ndarray] = []
    dsts_parts: List[np.ndarray] = []
    duration_parts: List[np.ndarray] = []
    for srcs_l, dsts_l in _steps_as_pairs(steps):
        srcs = np.asarray(srcs_l, dtype=np.intp)
        dsts = np.asarray(dsts_l, dtype=np.intp)
        # Senders/receivers are unique within a step, so all starts
        # derive from the pre-step port state and the fancy-indexed
        # update cannot collide.
        starts = np.maximum(send_free[srcs], recv_free[dsts])
        durations = cost[srcs, dsts]
        finishes = starts + durations
        busy = durations > 0.0
        if busy.all():
            send_free[srcs] = finishes
            recv_free[dsts] = finishes
        else:
            # Free events are emitted as markers but consume no port
            # time and impose no ordering on later events.
            send_free[srcs[busy]] = finishes[busy]
            recv_free[dsts[busy]] = finishes[busy]
        starts_parts.append(starts)
        srcs_parts.append(srcs)
        dsts_parts.append(dsts)
        duration_parts.append(durations)
    return _columns_schedule(
        n, starts_parts, srcs_parts, dsts_parts, duration_parts, sizes
    )


def execute_steps_barrier(
    cost: np.ndarray,
    steps: Sequence[Step],
    *,
    sizes: Optional[np.ndarray] = None,
    validate: bool = True,
) -> Schedule:
    """Barrier-synchronised execution of a step-structured schedule.

    All events of step ``k`` start together once every step ``k-1`` event
    has completed, so each step costs its longest event.  This is how the
    caterpillar schedule runs on lockstep/SIMD-style systems (the paper's
    reference [13]) and is the semantics under which the baseline
    degrades as sharply as the paper's figures show.
    """
    cost = check_square_matrix("cost", cost, nonnegative=True)
    n = cost.shape[0]
    if validate:
        _check_steps(steps, n)
    starts_parts: List[np.ndarray] = []
    srcs_parts: List[np.ndarray] = []
    dsts_parts: List[np.ndarray] = []
    duration_parts: List[np.ndarray] = []
    clock = 0.0
    for srcs_l, dsts_l in _steps_as_pairs(steps):
        srcs = np.asarray(srcs_l, dtype=np.intp)
        dsts = np.asarray(dsts_l, dtype=np.intp)
        durations = cost[srcs, dsts]
        starts_parts.append(np.full(len(srcs_l), clock))
        srcs_parts.append(srcs)
        dsts_parts.append(dsts)
        duration_parts.append(durations)
        clock += float(durations.max())
    return _columns_schedule(
        n, starts_parts, srcs_parts, dsts_parts, duration_parts, sizes
    )
