"""Communication events and schedules.

A :class:`CommEvent` is one rectangle of the paper's timing diagram: the
message from one processor to another, with a start time and duration.  A
:class:`Schedule` is the full diagram — every event of a collective
communication pattern with concrete start times.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True, order=True)
class CommEvent:
    """One point-to-point message in a schedule.

    Ordering is lexicographic on ``(start, src, dst)`` so sorted event lists
    read top-to-bottom like a timing diagram.

    Attributes
    ----------
    start:
        Time (seconds) at which the transfer begins.
    src, dst:
        Sender and receiver processor indices.
    duration:
        Transfer time in seconds (``T_ij + m / B_ij`` under the paper's
        model).
    size:
        Message size in bytes; informational (the duration is authoritative
        for scheduling).
    """

    start: float
    src: int
    dst: int
    duration: float
    size: float = 0.0

    def __post_init__(self) -> None:
        if self.src < 0 or self.dst < 0:
            raise ValueError(f"processor indices must be >= 0: {self}")
        if self.duration < 0:
            raise ValueError(f"event duration must be >= 0: {self}")
        if self.start < 0:
            raise ValueError(f"event start must be >= 0: {self}")

    @property
    def finish(self) -> float:
        """Completion time of the transfer."""
        return self.start + self.duration

    def shifted(self, delta: float) -> "CommEvent":
        """Return a copy of this event translated in time by ``delta``."""
        return replace(self, start=self.start + delta)

    def overlaps(self, other: "CommEvent") -> bool:
        """True when the two events' half-open time intervals intersect.

        Zero-duration events never overlap anything — they model the
        paper's free diagonal (local copy) entries.
        """
        if self.duration == 0 or other.duration == 0:
            return False
        return self.start < other.finish and other.start < self.finish


@dataclass(frozen=True)
class Schedule:
    """A complete communication schedule over ``num_procs`` processors.

    Instances are immutable; the event tuple is stored sorted so equal
    schedules compare equal regardless of construction order.

    Schedules built by the trusted constructor
    (:func:`schedule_from_unsorted_columns`) hold their event data as
    parallel numpy columns, in the order their producer built them, and
    materialise the :class:`CommEvent` tuple only when ``events`` is
    first read.  All behaviour is unchanged — equality, iteration,
    hashing and every accessor see the same tuple — but the
    serving-path readers (:attr:`completion_time`, ``len``,
    :func:`event_columns`) read the columns directly and need no event
    order, so a serving tick or a sweep that only scores schedules
    never pays the per-event object cost or the sort.  Readers that do
    need ``(start, src, dst)`` order (:meth:`send_orders`,
    materialisation, the re-timer) share one permutation from
    :func:`event_order`.  The columns outlive a read of ``events``:
    readers (and what they memoise on the schedule) see the same arrays
    for the schedule's whole life.
    """

    num_procs: int
    events: Tuple[CommEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.num_procs <= 0:
            raise ValueError(f"num_procs must be positive, got {self.num_procs}")
        events = tuple(sorted(self.events))
        for event in events:
            if event.src >= self.num_procs or event.dst >= self.num_procs:
                raise ValueError(
                    f"event {event} references a processor outside "
                    f"[0, {self.num_procs})"
                )
        object.__setattr__(self, "events", events)

    def __getattr__(self, name: str):
        # Only ever reached for attributes missing from the instance
        # dict — i.e. ``events`` on a column-built schedule.
        if name == "events" and _RAW_KEY in self.__dict__:
            events = _materialize_events(self)
            self.__dict__["events"] = events
            return events
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    @classmethod
    def from_events(
        cls, num_procs: int, events: Iterable[CommEvent]
    ) -> "Schedule":
        """Build a schedule from any iterable of events."""
        return cls(num_procs=num_procs, events=tuple(events))

    def __iter__(self) -> Iterator[CommEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        raw = self.__dict__.get(_RAW_KEY)
        if raw is not None:
            return len(raw[0])
        return len(self.events)

    @property
    def completion_time(self) -> float:
        """Makespan: finish time of the last event (0 for an empty schedule).

        Computed once: the schedule is frozen, so the value is memoised
        in the instance dict.
        """
        d = self.__dict__
        makespan = d.get("_completion_time")
        if makespan is not None:
            return makespan
        raw = d.get(_RAW_KEY)
        if raw is None:
            makespan = max(
                (event.finish for event in self.events), default=0.0
            )
        else:
            starts, _, _, durations, _ = raw
            makespan = (
                float((starts + durations).max()) if len(starts) else 0.0
            )
        d["_completion_time"] = makespan
        return makespan

    def sender_events(self, src: int) -> List[CommEvent]:
        """Events sent by processor ``src``, in start order."""
        return [event for event in self.events if event.src == src]

    def receiver_events(self, dst: int) -> List[CommEvent]:
        """Events received by processor ``dst``, in start order."""
        return [event for event in self.events if event.dst == dst]

    def send_orders(self) -> List[List[int]]:
        """Per-sender destination lists, in dispatch order.

        This recovers the *order-based* form of the schedule, suitable for
        re-execution under different network conditions via
        :func:`repro.sim.engine.execute_orders`.
        """
        if _RAW_KEY not in self.__dict__:
            orders: List[List[int]] = [[] for _ in range(self.num_procs)]
            for event in self.events:  # already start-sorted
                orders[event.src].append(event.dst)
            return orders
        _, srcs, dsts, _ = event_columns(self)
        order = event_order(self)
        srcs = srcs[order]
        dsts = dsts[order]
        # Group the canonically ordered destinations by sender; the
        # stable sort keeps each sender's (start, dst) order.
        by_src = np.argsort(srcs, kind="stable")
        flat = dsts[by_src].tolist()
        bounds = np.cumsum(
            np.bincount(srcs, minlength=self.num_procs)
        ).tolist()
        return [flat[lo:hi] for lo, hi in zip([0] + bounds[:-1], bounds)]

    def busy_time(self, proc: int) -> Tuple[float, float]:
        """Return ``(send_busy, recv_busy)`` seconds for processor ``proc``."""
        send = sum(event.duration for event in self.events if event.src == proc)
        recv = sum(event.duration for event in self.events if event.dst == proc)
        return send, recv

    def idle_time(self, proc: int) -> float:
        """Sender-side idle time of ``proc`` before its last send finishes."""
        events = self.sender_events(proc)
        if not events:
            return 0.0
        span = max(event.finish for event in events)
        busy = sum(event.duration for event in events)
        return span - busy

    def finish_time_of(self, proc: int) -> float:
        """Time at which ``proc`` has completed all its sends and receives."""
        return max(
            (
                event.finish
                for event in self.events
                if event.src == proc or event.dst == proc
            ),
            default=0.0,
        )

    def event_map(self) -> Dict[Tuple[int, int], CommEvent]:
        """Map ``(src, dst) -> event``; raises if a pair repeats."""
        mapping: Dict[Tuple[int, int], CommEvent] = {}
        for event in self.events:
            key = (event.src, event.dst)
            if key in mapping:
                raise ValueError(f"duplicate event for pair {key}")
            mapping[key] = event
        return mapping

    def duration_matrix(self) -> np.ndarray:
        """Dense ``[src, dst]`` duration matrix (0 where no event exists)."""
        matrix = np.zeros((self.num_procs, self.num_procs))
        for event in self.events:
            matrix[event.src, event.dst] = event.duration
        return matrix

    def utilisation(self) -> float:
        """Mean sender busy fraction over the schedule's makespan.

        1.0 means every processor sends continuously until the makespan —
        only possible when the lower bound is met by every sender.
        """
        makespan = self.completion_time
        if makespan == 0:
            return 1.0
        total_busy = sum(event.duration for event in self.events)
        return total_busy / (self.num_procs * makespan)

    def without_trivial_events(self) -> "Schedule":
        """Drop zero-duration events (e.g. diagonal self-messages)."""
        return Schedule.from_events(
            self.num_procs, (e for e in self.events if e.duration > 0)
        )


#: Instance-dict key of a column-built schedule's raw form: the
#: columns ``(starts, srcs, dsts, durations, sizes)`` as built.
_RAW_KEY = "_raw"

#: Instance-dict key of a column-built schedule's memoised canonical
#: permutation (see :func:`event_order`).
_EVENT_ORDER_KEY = "_event_order"


def event_order(schedule: Schedule) -> Optional[np.ndarray]:
    """Permutation of :func:`event_columns` into ``(start, src, dst)`` order.

    ``None`` for a schedule built from events: its columns are in that
    order already.  A column-built schedule (open shop, the executors,
    hierarchical plans, re-timed outputs, the collectives) gets its
    permutation computed once and memoised on the (frozen) schedule —
    one index array, not a sorted copy of the columns — so a plan that
    is re-read every serving tick pays the sort once, and a schedule
    only ever scored never pays it.

    The permutation is exactly ``np.lexsort((dsts, srcs, starts))``,
    found with two stable sorts: one of the starts, then one of the
    int64 key ``(run * n + src) * n + dst``, where ``run`` numbers the
    runs of equal starts (``-0.0`` equals ``+0.0``; NaNs, sorted last,
    form one run).  A pair that repeats (a split plan's pieces) at one
    start keeps its column order.
    """
    d = schedule.__dict__
    raw = d.get(_RAW_KEY)
    if raw is None:
        return None
    order = d.get(_EVENT_ORDER_KEY)
    if order is None:
        starts, srcs, dsts = raw[:3]
        by_start = np.argsort(starts, kind="stable")
        ordered = starts[by_start]
        run = np.zeros(len(ordered), dtype=np.int64)
        np.cumsum(
            (ordered[1:] != ordered[:-1]) & ~np.isnan(ordered[:-1]),
            out=run[1:],
        )
        n = schedule.num_procs
        key = (run * n + srcs[by_start]) * n + dsts[by_start]
        order = by_start[np.argsort(key, kind="stable")]
        d[_EVENT_ORDER_KEY] = order
    return order


def _materialize_events(schedule: Schedule) -> Tuple[CommEvent, ...]:
    """Build the event tuple of a column-built schedule.

    The columns are permuted into event order by :func:`event_order`
    first.  Events are built by populating the instance dict directly:
    the frozen-dataclass ``__setattr__`` and per-field validation are
    bypassed by the trusted constructor's contract.
    """
    order = event_order(schedule)
    columns = (column[order] for column in schedule.__dict__[_RAW_KEY])
    rows = zip(*(column.tolist() for column in columns))
    new = object.__new__
    events = []
    append = events.append
    for start, src, dst, duration, size in rows:
        event = new(CommEvent)
        d = event.__dict__
        d["start"] = start
        d["src"] = src
        d["dst"] = dst
        d["duration"] = duration
        d["size"] = size
        append(event)
    return tuple(events)


def schedule_from_unsorted_columns(
    num_procs: int,
    starts: np.ndarray,
    srcs: np.ndarray,
    dsts: np.ndarray,
    durations: np.ndarray,
    sizes: np.ndarray,
) -> Schedule:
    """Trusted lazy construction from parallel event columns.

    The arrays may arrive in any order — open shop emits its events in
    pick order, the FIFO executor sender by sender, the step executors
    step by step — and a ``(src, dst)`` pair may repeat (a split plan's
    pieces).  :func:`event_order` gives their permutation into
    ``(start, src, dst)`` order when a reader first needs it; makespan
    queries run vectorized on the columns, and :class:`CommEvent`
    objects exist only if somebody inspects the schedule event by event.

    Caller contract (checked only by the golden-equivalence tests, not
    here): indices lie in ``[0, num_procs)``, starts/durations are
    non-negative, and nobody mutates the arrays afterwards.  Anything
    else produces a schedule that violates the class invariants.
    """
    schedule = object.__new__(Schedule)
    d = schedule.__dict__
    d["num_procs"] = num_procs
    d[_RAW_KEY] = (starts, srcs, dsts, durations, sizes)
    return schedule


def event_columns(
    schedule: Schedule,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(starts, srcs, dsts, durations)`` as parallel numpy arrays.

    Reads a column-built schedule's columns directly, in construction
    order for its whole life (:func:`event_order` gives the permutation
    into event order), so callers may memoise indices into them.
    Columns of a schedule built from event objects
    are in event order and memoised on the (frozen, hence immutable)
    schedule: a plan that is re-timed on every serving tick is re-read
    each time, and rebuilding a million-event column set from Python
    objects costs more than the re-time itself.  Callers must not
    mutate the arrays.
    """
    d = schedule.__dict__
    raw = d.get(_RAW_KEY)
    if raw is not None:
        starts, srcs, dsts, durations, _ = raw
        return (
            np.asarray(starts, dtype=float),
            np.asarray(srcs, dtype=np.intp),
            np.asarray(dsts, dtype=np.intp),
            np.asarray(durations, dtype=float),
        )
    cached = d.get("_column_cache")
    if cached is not None:
        return cached
    events = schedule.events
    starts = np.fromiter(
        (e.start for e in events), dtype=float, count=len(events)
    )
    srcs = np.fromiter(
        (e.src for e in events), dtype=np.intp, count=len(events)
    )
    dsts = np.fromiter(
        (e.dst for e in events), dtype=np.intp, count=len(events)
    )
    durations = np.fromiter(
        (e.duration for e in events), dtype=float, count=len(events)
    )
    columns = (starts, srcs, dsts, durations)
    d["_column_cache"] = columns
    return columns


def merge_schedules(
    num_procs: int, schedules: Sequence[Schedule]
) -> Schedule:
    """Union the events of several schedules over the same processor set."""
    events: List[CommEvent] = []
    for schedule in schedules:
        if schedule.num_procs != num_procs:
            raise ValueError(
                f"schedule over {schedule.num_procs} processors cannot be "
                f"merged into a {num_procs}-processor schedule"
            )
        events.extend(schedule.events)
    return Schedule.from_events(num_procs, events)
