"""Schedule validity checking.

A valid communication schedule (paper Section 3.4) satisfies:

* **sender serialisation** — a node sends at most one message at a time, so
  no two events in the same timing-diagram column overlap;
* **receiver serialisation** — a node receives at most one message at a
  time, so no two events with the same destination overlap.

Every event must also name processors in ``[0, num_procs)`` and carry a
finite start and duration.  Optionally, a schedule can also be checked
for *coverage* against a problem: exactly one event per off-diagonal
(src, dst) pair, with the duration implied by the communication matrix.

The check works on the schedule's event columns with sorts, bincounts
and masks — never event by event — so a P = 4096 schedule (~16.7M
events) checks in seconds, and reporting a failure costs no more than
detecting it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.timing.events import Schedule, event_columns

#: Violations listed per kind; the rest of a kind is one ``+N more`` entry.
_LISTED = 5


class ScheduleError(ValueError):
    """Raised when a schedule violates a validity condition."""

    def __init__(self, message: str, violations: Optional[List[str]] = None):
        super().__init__(message)
        #: Violation descriptions: up to five per kind, then one
        #: ``<kind>: +N more`` entry for the rest of that kind.
        self.violations: List[str] = violations or []


def _first(flagged: np.ndarray, keys: np.ndarray) -> List[int]:
    """The (at most ``_LISTED``) ``flagged`` indices with the smallest
    ``keys``, in key order."""
    if flagged.size > _LISTED:
        flagged = flagged[
            np.argpartition(keys[flagged], _LISTED - 1)[:_LISTED]
        ]
    return flagged[np.argsort(keys[flagged], kind="stable")].tolist()


def _port_conflicts(
    starts: np.ndarray,
    srcs: np.ndarray,
    dsts: np.ndarray,
    durations: np.ndarray,
    role: str,
    *,
    presorted: bool = False,
) -> Optional[Tuple[int, List[str]]]:
    """``(count, listed messages)`` of overlaps on each ``role`` port.

    An event conflicts when it starts before the latest finish among the
    earlier events on its port (sender ``srcs`` or receiver ``dsts``).
    Events are grouped by port with a stable integer sort (numpy radix),
    which keeps each group in the caller's order.  For the schedules on
    the serving hot path — materialised plans (globally start-sorted)
    and flat delta repairs (per-port time-monotone by construction) —
    that order is already nondecreasing in time, which the sweep
    *verifies* rather than assumes.  When some group is genuinely out
    of order the function returns ``None`` instead: the caller sorts
    everything by start once (shared between the sender and receiver
    passes, and cheaper than a per-role float lexsort) and retries with
    ``presorted=True``.

    Within a time-ordered group it suffices to compare each event with
    its predecessor to decide whether the port is clean: if every
    adjacent pair is disjoint, finishes are monotone and the whole group
    is.  An event nested inside an earlier, longer one clashes with that
    one rather than its neighbour, so only the ports with an adjacent
    clash are swept against the running latest finish, to count every
    conflicting event exactly once.
    """
    procs = srcs if role == "sender" else dsts
    order = np.argsort(procs, kind="stable")
    starts = starts[order]
    procs = procs[order]
    same = procs[1:] == procs[:-1]
    if not presorted and np.any(same & (starts[1:] < starts[:-1])):
        return None
    finishes = starts + durations[order]
    clash = same & (starts[1:] < finishes[:-1] - 1e-12)
    if not clash.any():
        return 0, []
    ports = np.unique(procs[1:][clash])
    count = 0
    listed: List[str] = []
    for low, high in zip(
        np.searchsorted(procs, ports, "left").tolist(),
        np.searchsorted(procs, ports, "right").tolist(),
    ):
        latest = np.maximum.accumulate(finishes[low:high - 1])
        hits = low + 1 + np.nonzero(starts[low + 1:high] < latest - 1e-12)[0]
        count += hits.size
        for hit in hits[:_LISTED - len(listed)].tolist():
            # the earliest event holding the latest finish before ``hit``
            held = low + int(np.argmax(finishes[low:hit]))
            a, b = order[held], order[hit]
            listed.append(
                f"{role} conflict: {srcs[a]}->{dsts[a]} "
                f"[{starts[held]:.6g}, {finishes[held]:.6g}) overlaps "
                f"{srcs[b]}->{dsts[b]} [{starts[hit]:.6g}, {finishes[hit]:.6g})"
            )
    return count, listed


def check_schedule(
    schedule: Schedule,
    cost: Optional[np.ndarray] = None,
    *,
    require_coverage: bool = True,
    atol: float = 1e-9,
) -> None:
    """Raise :class:`ScheduleError` if ``schedule`` is invalid.

    An event naming a processor outside ``[0, num_procs)``, or a ``cost``
    of the wrong shape, raises at once with just that message.  Any other
    set of violations raises a *single* :class:`ScheduleError` whose
    message leads with the exact count of each violated kind, in a fixed
    order — non-finite times, sender conflicts, receiver conflicts,
    duplicate pairs, wrong durations, missing pairs — and previews the
    first few.  ``violations`` lists at most five violations per kind —
    the lowest ports (conflicts, in time order within a port) or pairs
    (the other kinds) — and sums up the rest of a kind as one ``+N more``
    entry.

    Parameters
    ----------
    cost:
        Optional ``[src, dst]`` duration matrix.  When given, every event's
        duration must match ``cost[src, dst]`` within ``atol`` and (with
        ``require_coverage``) every off-diagonal pair with positive cost
        must appear exactly once.
    """
    starts, srcs, dsts, durations = event_columns(schedule)
    n = schedule.num_procs
    if srcs.size and (
        srcs.min() < 0 or dsts.min() < 0
        or srcs.max() >= n or dsts.max() >= n
    ):
        raise ScheduleError(
            f"event references a processor outside [0, {n})"
        )
    if cost is not None:
        cost = np.asarray(cost, dtype=float)
        if cost.shape != (n, n):
            raise ScheduleError(
                f"cost matrix shape {cost.shape} does not match "
                f"{n} processors"
            )
    pairs = srcs * n + dsts
    # (kind, exact count, listed violations) in report order
    kinds: List[Tuple[str, int, List[str]]] = []

    finite = np.isfinite(starts) & np.isfinite(durations)
    bad = np.nonzero(~finite)[0]
    kinds.append((
        "non-finite time",
        bad.size,
        [
            f"event {srcs[i]}->{dsts[i]} has a non-finite time: start "
            f"{starts[i]:.6g}, duration {durations[i]:.6g}"
            for i in _first(bad, pairs)
        ],
    ))

    # zero-duration events never overlap anything; non-finite ones are
    # reported above and would only confuse the time order
    live = finite & (durations > 0)
    columns = (starts, srcs, dsts, durations)
    if not live.all():
        columns = tuple(column[live] for column in columns)
    sender = _port_conflicts(*columns, "sender")
    receiver = (
        _port_conflicts(*columns, "receiver") if sender is not None else None
    )
    if sender is None or receiver is None:
        # some port's events are out of construction order: establish
        # global start order once and share it between the two roles
        by_start = np.argsort(columns[0])
        columns = tuple(column[by_start] for column in columns)
        if sender is None:
            sender = _port_conflicts(*columns, "sender", presorted=True)
        if receiver is None:
            receiver = _port_conflicts(*columns, "receiver", presorted=True)
    kinds.append(("sender conflict", *sender))
    kinds.append(("receiver conflict", *receiver))

    if cost is not None:
        counts = np.bincount(pairs, minlength=n * n)
        duplicated = np.nonzero(counts > 1)[0][:_LISTED]
        # every event of a pair after its first is one duplicate
        kinds.append((
            "duplicate pair",
            pairs.size - np.count_nonzero(counts),
            [
                f"duplicate event for pair ({pair // n}, {pair % n})"
                for pair in np.repeat(
                    duplicated, counts[duplicated] - 1
                )[:_LISTED].tolist()
            ],
        ))
        expected = cost[srcs, dsts]
        wrong = np.nonzero(np.abs(durations - expected) > atol)[0]
        kinds.append((
            "wrong duration",
            wrong.size,
            [
                f"event {srcs[i]}->{dsts[i]} has duration "
                f"{durations[i]:.6g}, expected {expected[i]:.6g}"
                for i in _first(wrong, pairs)
            ],
        ))
        if require_coverage:
            required = cost > 0
            np.fill_diagonal(required, False)
            missing = np.nonzero(required.reshape(-1) & (counts == 0))[0]
            kinds.append((
                "missing pair",
                missing.size,
                [
                    f"missing event for pair ({pair // n}, {pair % n})"
                    for pair in missing[:_LISTED].tolist()
                ],
            ))

    violations: List[str] = []
    for kind, count, listed in kinds:
        violations += listed
        if count > len(listed):
            violations.append(f"{kind}: +{count - len(listed)} more")
    if violations:
        header = ", ".join(
            f"{count} {kind}{'s' if count != 1 else ''}"
            for kind, count, _ in kinds
            if count
        )
        preview = "; ".join(violations[:5])
        more = f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""
        raise ScheduleError(
            f"invalid schedule ({header}): {preview}{more}",
            violations=violations,
        )


# The serving benchmark (``servebench``) imports this name and times the
# inline repair check by replacing
# ``repro.adaptive.delta.check_schedule_fast``, so the alias, and delta's
# call through it, stay until the benchmark moves to ``check_schedule``.
check_schedule_fast = check_schedule


def is_valid_schedule(
    schedule: Schedule,
    cost: Optional[np.ndarray] = None,
    *,
    require_coverage: bool = True,
    atol: float = 1e-9,
) -> bool:
    """Boolean form of :func:`check_schedule`."""
    try:
        check_schedule(
            schedule, cost, require_coverage=require_coverage, atol=atol
        )
    except ScheduleError:
        return False
    return True
