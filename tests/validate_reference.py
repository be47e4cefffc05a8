"""The event-by-event schedule validator, frozen as a test reference.

:func:`repro.timing.validate.check_schedule` used to have a scalar twin
that swept each port's events in Python and listed every violation.
The columnar validator replaced it; the scalar version moved here,
verbatim apart from the processor-range check it shared with the
columnar code (now a scalar loop with the same message), so that
``tests/test_validate_differential.py`` can hold the columnar validator
to it: same verdict, same per-kind counts, same flagged ports and pairs.

Do not "fix" or optimize this module: its value is fidelity to the
semantics the columnar validator must reproduce.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.timing.events import CommEvent, Schedule
from repro.timing.validate import ScheduleError


def _overlap_violations(
    events: Sequence[CommEvent], role: str
) -> List[str]:
    """Find overlapping pairs among events sharing a sender or receiver.

    ``events`` must all share the same src (role='sender') or dst
    (role='receiver').  Sweep in start order: with sorted events, each event
    only needs comparing against the latest finish seen so far.
    """
    violations: List[str] = []
    ordered = sorted(
        (e for e in events if e.duration > 0), key=lambda e: (e.start, e.finish)
    )
    prev: Optional[CommEvent] = None
    for event in ordered:
        if prev is not None and event.start < prev.finish - 1e-12:
            violations.append(
                f"{role} conflict: {prev.src}->{prev.dst} "
                f"[{prev.start:.6g}, {prev.finish:.6g}) overlaps "
                f"{event.src}->{event.dst} [{event.start:.6g}, {event.finish:.6g})"
            )
        if prev is None or event.finish > prev.finish:
            prev = event
    return violations


def check_schedule_reference(
    schedule: Schedule,
    cost: Optional[np.ndarray] = None,
    *,
    require_coverage: bool = True,
    atol: float = 1e-9,
) -> None:
    """Raise :class:`ScheduleError` if ``schedule`` is invalid.

    A schedule violating several conditions at once raises a *single*
    :class:`ScheduleError` carrying every violation: the ``violations``
    list groups the kinds in a fixed order — sender conflicts, receiver
    conflicts, duplicate pairs, wrong durations, missing pairs — with
    each group internally sorted, so the batch is deterministic
    regardless of event construction order.  The message leads with the
    per-kind counts and previews the first few violations.
    """
    for event in schedule:
        if not (
            0 <= event.src < schedule.num_procs
            and 0 <= event.dst < schedule.num_procs
        ):
            raise ScheduleError(
                "event references a processor outside "
                f"[0, {schedule.num_procs})"
            )
    sender: List[str] = []
    receiver: List[str] = []
    duplicates: List[str] = []
    durations: List[str] = []
    missing: List[str] = []
    for proc in range(schedule.num_procs):
        sender += _overlap_violations(schedule.sender_events(proc), "sender")
        receiver += _overlap_violations(schedule.receiver_events(proc), "receiver")

    if cost is not None:
        cost = np.asarray(cost, dtype=float)
        if cost.shape != (schedule.num_procs, schedule.num_procs):
            raise ScheduleError(
                f"cost matrix shape {cost.shape} does not match "
                f"{schedule.num_procs} processors"
            )
        seen = set()
        for event in schedule:
            key = (event.src, event.dst)
            if key in seen:
                duplicates.append(f"duplicate event for pair {key}")
            seen.add(key)
            expected = cost[event.src, event.dst]
            if abs(event.duration - expected) > atol:
                durations.append(
                    f"event {event.src}->{event.dst} has duration "
                    f"{event.duration:.6g}, expected {expected:.6g}"
                )
        if require_coverage:
            for src in range(schedule.num_procs):
                for dst in range(schedule.num_procs):
                    if src == dst or cost[src, dst] == 0:
                        continue
                    if (src, dst) not in seen:
                        missing.append(f"missing event for pair ({src}, {dst})")

    groups = [
        ("sender conflict", sender),
        ("receiver conflict", receiver),
        ("duplicate pair", duplicates),
        ("wrong duration", durations),
        ("missing pair", missing),
    ]
    violations: List[str] = []
    for _, group in groups:
        violations += sorted(group)
    if violations:
        counts = ", ".join(
            f"{len(group)} {label}{'s' if len(group) != 1 else ''}"
            for label, group in groups
            if group
        )
        preview = "; ".join(violations[:5])
        more = f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""
        raise ScheduleError(
            f"invalid schedule ({counts}): {preview}{more}",
            violations=violations,
        )
