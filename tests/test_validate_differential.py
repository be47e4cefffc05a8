"""Differential test: the columnar validator against the frozen scalar one.

Schedules from four schedulers at small P, clean and with injected
corruptions, must get the same answer from
:func:`repro.timing.validate.check_schedule` and the frozen
event-by-event reference (``tests/validate_reference.py``): the same
verdict, the same violated kinds with the same counts, and the same
flagged ports (sender and receiver conflicts) and pairs (duplicates,
wrong durations, missing pairs).  The columnar validator lists at most
five violations per kind, so for a larger kind its listed entries must
be the reference's first five by port or pair.
"""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest

from repro.core.baseline import schedule_baseline
from repro.core.greedy import schedule_greedy
from repro.core.hierarchical import schedule_hierarchical
from repro.core.openshop import schedule_openshop
from repro.timing.events import (
    CommEvent,
    Schedule,
    schedule_from_unsorted_columns,
)
from repro.timing.validate import ScheduleError, check_schedule
from tests.conftest import random_problem
from tests.test_hierarchical import planted_problem
from tests.validate_reference import check_schedule_reference

#: Listed-violation patterns; the groups name the flagged port or pair.
KINDS = {
    "sender conflict": re.compile(r"sender conflict: (\d+)->\d+ "),
    "receiver conflict": re.compile(r"receiver conflict: \d+->(\d+) "),
    "duplicate pair": re.compile(r"duplicate event for pair \((\d+), (\d+)\)"),
    "wrong duration": re.compile(r"event (\d+)->(\d+) has duration"),
    "missing pair": re.compile(r"missing event for pair \((\d+), (\d+)\)"),
}


def _error(check, schedule, cost, **kwargs):
    try:
        check(schedule, cost, **kwargs)
    except ScheduleError as exc:
        return exc
    return None


def _flagged(violations):
    """Kind -> sorted flagged ports or pairs of the listed violations."""
    flagged = {}
    for message in violations:
        for kind, pattern in KINDS.items():
            match = pattern.match(message)
            if match:
                key = tuple(int(group) for group in match.groups())
                flagged.setdefault(kind, []).append(key)
                break
        else:
            assert re.fullmatch(r"[a-z -]+: \+\d+ more", message), message
    return {kind: sorted(keys) for kind, keys in flagged.items()}


def assert_agrees(schedule, cost=None, **kwargs):
    expected = _error(check_schedule_reference, schedule, cost, **kwargs)
    actual = _error(check_schedule, schedule, cost, **kwargs)
    assert (actual is None) == (expected is None), (actual, expected)
    if expected is None:
        return
    # the header names every violated kind with its exact count
    assert str(actual).split(": ", 1)[0] == str(expected).split(": ", 1)[0]
    listed = _flagged(actual.violations)
    every = _flagged(expected.violations)
    assert listed.keys() == every.keys()
    for kind, keys in every.items():
        assert listed[kind] == keys[:5], kind
        if len(keys) > 5:
            assert f"{kind}: +{len(keys) - 5} more" in actual.violations


# -- injected corruptions ---------------------------------------------------


def _pick(rng, events):
    """Index of a random positive-duration event."""
    return int(rng.choice([i for i, e in enumerate(events) if e.duration > 0]))


def _shift_onto(port):
    """Start an event halfway through another positive-duration event on
    the same ``port`` (sender or receiver)."""

    def corrupt(events, rng):
        busy = [
            (i, j)
            for i, a in enumerate(events)
            for j, b in enumerate(events)
            if i != j and a.duration > 0 and b.duration > 0
            and port(a) == port(b)
        ]
        i, j = busy[rng.integers(len(busy))]
        middle = events[j].start + events[j].duration / 2
        events[i] = replace(events[i], start=middle)

    return corrupt


def _duplicate(events, rng):
    event = events[_pick(rng, events)]
    # in place (clashing with the original) or after the makespan
    if rng.random() < 0.5:
        event = replace(event, start=max(e.finish for e in events))
    events.append(event)


def _scale_duration(events, rng):
    i = _pick(rng, events)
    events[i] = replace(
        events[i], duration=events[i].duration * rng.uniform(1.5, 3.0)
    )


def _drop(events, rng):
    del events[_pick(rng, events)]


CORRUPTIONS = {
    "busy_sender": _shift_onto(lambda e: e.src),
    "busy_receiver": _shift_onto(lambda e: e.dst),
    "duplicate": _duplicate,
    "scaled_duration": _scale_duration,
    "dropped": _drop,
}


def _combined(events, rng):
    for name in rng.choice(sorted(CORRUPTIONS), size=3):
        CORRUPTIONS[name](events, rng)


SCHEDULERS = {
    "openshop": schedule_openshop,
    "hierarchical": schedule_hierarchical,
    "greedy": schedule_greedy,
    "baseline": schedule_baseline,
}


def _problem(scheduler, seed):
    num_procs = (6, 8, 9)[seed]
    if scheduler == "hierarchical":
        # planted clusters, so the two-level splice runs rather than
        # the flat fallback
        return planted_problem(num_procs, 3 + seed % 2, seed=seed)
    return random_problem(num_procs, seed=seed, zero_fraction=0.2)


def _constructions(num_procs, events, rng):
    """The same events as an event-built and a shuffled column-built
    schedule (whose ports are out of time order)."""
    yield Schedule.from_events(num_procs, events)
    shuffled = [events[i] for i in rng.permutation(len(events))]
    columns = [
        np.array([getattr(e, name) for e in shuffled], dtype=dtype)
        for name, dtype in (
            ("start", float), ("src", np.intp), ("dst", np.intp),
            ("duration", float), ("size", float),
        )
    ]
    yield schedule_from_unsorted_columns(num_procs, *columns)


@pytest.mark.parametrize(
    "corruption", ["clean", *CORRUPTIONS, "combined"]
)
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("scheduler", list(SCHEDULERS))
def test_scheduler_schedules_agree(scheduler, seed, corruption):
    problem = _problem(scheduler, seed)
    events = list(SCHEDULERS[scheduler](problem).events)
    rng = np.random.default_rng(seed)
    if corruption == "combined":
        _combined(events, rng)
    elif corruption != "clean":
        CORRUPTIONS[corruption](events, rng)
    for schedule in _constructions(problem.num_procs, events, rng):
        assert_agrees(schedule, problem.cost)
        assert_agrees(schedule)
        if corruption == "clean":
            check_schedule(schedule, problem.cost)


def ev(start, src, dst, duration):
    return CommEvent(start=start, src=src, dst=dst, duration=duration)


#: name -> (schedule, cost, the kinds it violates)
HAND_BUILT = {
    "sender_overlap": (
        Schedule.from_events(3, [ev(0.0, 0, 1, 2.0), ev(1.0, 0, 2, 2.0)]),
        None,
        {"sender conflict"},
    ),
    "receiver_overlap": (
        Schedule.from_events(3, [ev(0.0, 0, 2, 2.0), ev(1.0, 1, 2, 2.0)]),
        None,
        {"receiver conflict"},
    ),
    "duplicate_wrong_duration_missing": (
        Schedule.from_events(
            3, [ev(0.0, 0, 1, 1.0), ev(2.0, 0, 1, 1.0), ev(0.0, 1, 0, 5.0)]
        ),
        np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        {"duplicate pair", "wrong duration", "missing pair"},
    ),
    # the second and third sends sit inside the first: both conflict,
    # though the third is disjoint from its neighbour
    "nested_intervals": (
        Schedule.from_events(
            4, [ev(0.0, 0, 1, 10.0), ev(1.0, 0, 2, 1.0), ev(3.0, 0, 3, 1.0)]
        ),
        None,
        {"sender conflict"},
    ),
    # more than five of every kind, so only the first five are listed
    "crowded": (
        Schedule.from_events(
            8,
            [ev(t, 0, d, 1.0) for t in (0.0, 10.0) for d in range(1, 8)]
            + [ev(20.0, s, 0, 1.0) for s in range(1, 8)]
            + [ev(30.0, 0, 1, 1.0)],
        ),
        np.full((8, 8), 2.0) - 2.0 * np.eye(8),
        set(KINDS),
    ),
    "empty": (Schedule(num_procs=2), None, set()),
}


@pytest.mark.parametrize("case", list(HAND_BUILT))
def test_hand_built_cases_agree(case):
    schedule, cost, kinds = HAND_BUILT[case]
    assert_agrees(schedule, cost)
    error = _error(check_schedule, schedule, cost)
    assert set(_flagged(error.violations) if error else ()) == kinds
