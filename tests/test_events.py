"""CommEvent and Schedule tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.openshop import schedule_openshop
from repro.core.problem import TotalExchangeProblem
from repro.perf.memo import schedule_digest
from repro.sim.engine import (
    execute_orders_on_cost,
    execute_steps_barrier,
    execute_steps_strict,
)
from repro.timing.events import (
    CommEvent,
    Schedule,
    event_columns,
    event_order,
    merge_schedules,
    schedule_from_unsorted_columns,
)
from repro.timing.validate import check_schedule


def ev(start, src, dst, duration, size=0.0):
    return CommEvent(start=start, src=src, dst=dst, duration=duration, size=size)


class TestCommEvent:
    def test_finish(self):
        assert ev(1.0, 0, 1, 2.5).finish == pytest.approx(3.5)

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            ev(0.0, 0, 1, -1.0)

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            ev(-0.1, 0, 1, 1.0)

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            CommEvent(start=0.0, src=-1, dst=0, duration=1.0)

    def test_shifted(self):
        shifted = ev(1.0, 0, 1, 2.0).shifted(3.0)
        assert shifted.start == pytest.approx(4.0)
        assert shifted.duration == pytest.approx(2.0)

    def test_overlaps_true(self):
        assert ev(0.0, 0, 1, 2.0).overlaps(ev(1.0, 0, 2, 2.0))

    def test_overlaps_false_adjacent(self):
        # Half-open intervals: touching endpoints do not overlap.
        assert not ev(0.0, 0, 1, 1.0).overlaps(ev(1.0, 0, 2, 1.0))

    def test_zero_duration_never_overlaps(self):
        assert not ev(0.5, 0, 1, 0.0).overlaps(ev(0.0, 0, 2, 2.0))

    def test_ordering_by_start(self):
        events = sorted([ev(2.0, 0, 1, 1.0), ev(0.0, 1, 2, 1.0)])
        assert events[0].start == 0.0


class TestSchedule:
    def test_completion_time(self):
        s = Schedule.from_events(3, [ev(0, 0, 1, 2), ev(1, 1, 2, 5)])
        assert s.completion_time == pytest.approx(6.0)

    def test_empty_completion(self):
        assert Schedule(num_procs=2).completion_time == 0.0

    def test_rejects_bad_proc_count(self):
        with pytest.raises(ValueError):
            Schedule(num_procs=0)

    def test_rejects_out_of_range_event(self):
        with pytest.raises(ValueError):
            Schedule.from_events(2, [ev(0, 0, 5, 1)])

    def test_events_sorted(self):
        s = Schedule.from_events(3, [ev(5, 0, 1, 1), ev(0, 1, 2, 1)])
        assert [e.start for e in s] == [0.0, 5.0]

    def test_sender_receiver_events(self):
        s = Schedule.from_events(3, [ev(0, 0, 1, 2), ev(2, 0, 2, 1), ev(0, 1, 2, 1)])
        assert len(s.sender_events(0)) == 2
        assert len(s.receiver_events(2)) == 2

    def test_send_orders(self):
        s = Schedule.from_events(3, [ev(3, 0, 2, 1), ev(0, 0, 1, 2)])
        assert s.send_orders()[0] == [1, 2]

    def test_busy_time(self):
        s = Schedule.from_events(2, [ev(0, 0, 1, 2), ev(2, 1, 0, 3)])
        send, recv = s.busy_time(0)
        assert send == pytest.approx(2.0)
        assert recv == pytest.approx(3.0)

    def test_idle_time(self):
        s = Schedule.from_events(3, [ev(0, 0, 1, 1), ev(5, 0, 2, 1)])
        assert s.idle_time(0) == pytest.approx(4.0)

    def test_idle_time_no_events(self):
        assert Schedule(num_procs=2).idle_time(0) == 0.0

    def test_finish_time_of(self):
        s = Schedule.from_events(3, [ev(0, 0, 1, 2), ev(4, 2, 0, 3)])
        assert s.finish_time_of(0) == pytest.approx(7.0)
        assert s.finish_time_of(1) == pytest.approx(2.0)

    def test_event_map_rejects_duplicates(self):
        s = Schedule.from_events(2, [ev(0, 0, 1, 1), ev(2, 0, 1, 1)])
        with pytest.raises(ValueError):
            s.event_map()

    def test_duration_matrix(self):
        s = Schedule.from_events(2, [ev(0, 0, 1, 2.5)])
        m = s.duration_matrix()
        assert m[0, 1] == pytest.approx(2.5)
        assert m[1, 0] == 0.0

    def test_utilisation_perfect(self):
        s = Schedule.from_events(2, [ev(0, 0, 1, 2), ev(0, 1, 0, 2)])
        assert s.utilisation() == pytest.approx(1.0)

    def test_without_trivial_events(self):
        s = Schedule.from_events(2, [ev(0, 0, 1, 0.0), ev(0, 1, 0, 1.0)])
        assert len(s.without_trivial_events()) == 1

    def test_len_and_iter(self):
        s = Schedule.from_events(2, [ev(0, 0, 1, 1)])
        assert len(s) == 1
        assert [e.src for e in s] == [0]


class TestMergeSchedules:
    def test_merge(self):
        a = Schedule.from_events(3, [ev(0, 0, 1, 1)])
        b = Schedule.from_events(3, [ev(1, 1, 2, 1)])
        merged = merge_schedules(3, [a, b])
        assert len(merged) == 2

    def test_merge_mismatched_procs_raises(self):
        a = Schedule.from_events(2, [ev(0, 0, 1, 1)])
        with pytest.raises(ValueError):
            merge_schedules(3, [a])


# (start, src, dst, duration, size) rows of one 4-processor plan with
# start ties, zero-cost markers sharing a clock with positive events,
# and a sender with nothing to send.
_ROWS = [
    (0.0, 0, 1, 2.0, 10.0),
    (0.0, 0, 0, 0.0, 0.0),
    (0.0, 1, 0, 1.0, 20.0),
    (0.0, 2, 3, 0.0, 0.0),
    (1.0, 1, 3, 2.0, 30.0),
    (1.0, 2, 0, 1.0, 40.0),
    (2.0, 0, 3, 0.0, 0.0),
    (2.0, 0, 2, 1.5, 50.0),
    (3.0, 1, 2, 0.0, 0.0),
    (3.0, 2, 1, 1.0, 60.0),
]


def _shuffled_rows(seed):
    order = np.random.default_rng(seed).permutation(len(_ROWS))
    return [_ROWS[k] for k in order]


def _columns(rows):
    starts, srcs, dsts, durations, sizes = zip(*rows)
    return (
        np.array(starts),
        np.array(srcs, dtype=np.intp),
        np.array(dsts, dtype=np.intp),
        np.array(durations),
        np.array(sizes),
    )


def _matrices():
    """``_ROWS``' durations and sizes as ``[src, dst]`` matrices."""
    cost = np.zeros((4, 4))
    sizes = np.zeros((4, 4))
    for _, src, dst, duration, size in _ROWS:
        cost[src, dst] = duration
        sizes[src, dst] = size
    return cost, sizes


def _executed():
    orders = [[0, 3, 1, 2], [2, 3, 0], [3, 1, 0], []]
    cost, sizes = _matrices()
    return execute_orders_on_cost(cost, orders, sizes=sizes)


def _openshop():
    cost, sizes = _matrices()
    return schedule_openshop(TotalExchangeProblem(cost=cost, sizes=sizes))


#: ``_ROWS``' pairs as steps: no sender or receiver repeats in a step.
_STEPS = [
    [(0, 1), (1, 0), (2, 3)],
    [(0, 0), (1, 3), (2, 1)],
    [(0, 3), (2, 0), (1, 2)],
    [(0, 2)],
]


def _stepped(execute):
    def build():
        cost, sizes = _matrices()
        return execute(cost, _STEPS, sizes=sizes)
    return build


#: The column-built kinds, all through the one constructor: columns in
#: canonical order, shuffled columns, the FIFO executor's output
#: (sender by sender), the step executors' (step by step) and open
#: shop's (in pick order).
LAZY_BUILDERS = {
    "columns": lambda: schedule_from_unsorted_columns(
        4, *_columns(sorted(_ROWS))
    ),
    "unsorted_columns": lambda: schedule_from_unsorted_columns(
        4, *_columns(_shuffled_rows(2))
    ),
    "executor": _executed,
    "strict": _stepped(execute_steps_strict),
    "barrier": _stepped(execute_steps_barrier),
    "openshop": _openshop,
}


def _answers(schedule):
    """What the serving-path readers report, with the columns also put
    in canonical order by ``event_order``: column-built schedules report
    construction order for their whole life."""
    columns = event_columns(schedule)
    order = event_order(schedule)
    if order is not None:
        columns = tuple(column[order] for column in columns)
    return {
        "completion_time": schedule.completion_time,
        "len": len(schedule),
        "send_orders": schedule.send_orders(),
        "canonical_columns": [c.tolist() for c in columns],
    }


class TestLazyScheduleEdgeCases:
    """Degenerate inputs to the trusted lazy constructors."""

    def test_empty_fields(self):
        # open shop's raw form with nothing to pick: a one-processor
        # problem writes empty unsorted columns
        s = schedule_openshop(TotalExchangeProblem(cost=np.zeros((1, 1))))
        assert len(s) == 0
        assert s.completion_time == 0.0
        assert s.send_orders() == [[]]
        assert [c.size for c in event_columns(s)] == [0, 0, 0, 0]
        assert s.events == ()
        # Still consistent after materialization.
        assert len(s) == 0
        assert s.completion_time == 0.0
        assert s.send_orders() == [[]]
        check_schedule(s)

    def test_empty_columns(self):
        empty = np.array([])
        s = schedule_from_unsorted_columns(
            3,
            empty,
            empty.astype(np.intp),
            empty.astype(np.intp),
            empty,
            empty,
        )
        assert len(s) == 0
        assert s.completion_time == 0.0
        assert s.send_orders() == [[], [], []]
        assert s.events == ()
        # Still consistent after materialization.
        assert len(s) == 0
        assert s.completion_time == 0.0
        assert s.send_orders() == [[], [], []]

    def test_zero_duration_markers_only(self):
        rows = [(0.0, 1, 0, 0.0, 0.0), (0.0, 0, 1, 0.0, 0.0)]
        s = schedule_from_unsorted_columns(2, *_columns(rows))
        assert s.completion_time == 0.0
        assert len(s) == 2
        assert all(e.duration == 0.0 for e in s)
        check_schedule(s)  # markers never conflict

    def test_materialization_is_idempotent_and_cached(self):
        rows = [(1.0, 0, 1, 2.0, 0.0), (0.0, 1, 0, 0.5, 0.0)]
        s = schedule_from_unsorted_columns(2, *_columns(rows))
        assert len(s) == 2  # pre-materialization, straight off the columns
        first = s.events
        assert s.events is first  # cached tuple, not rebuilt
        assert [e.start for e in first] == [0.0, 1.0]  # sorted on access
        assert len(s) == 2
        assert s.completion_time == pytest.approx(3.0)

    def test_lazy_equals_eager(self):
        rows = [(3.0, 0, 1, 1.0, 0.0), (0.0, 1, 0, 2.0, 0.0)]
        lazy = schedule_from_unsorted_columns(2, *_columns(rows))
        eager = Schedule.from_events(
            2,
            [
                ev(start, src, dst, duration, size)
                for start, src, dst, duration, size in rows
            ],
        )
        assert lazy == eager
        assert hash(lazy) == hash(eager)
        assert lazy.completion_time == eager.completion_time

    @pytest.mark.parametrize("kind", sorted(LAZY_BUILDERS))
    def test_readers_agree_before_and_after_materialisation(self, kind):
        build = LAZY_BUILDERS[kind]
        lazy = build()
        before = _answers(lazy)
        assert "events" not in lazy.__dict__  # the readers built no CommEvent
        events = lazy.events
        eager = Schedule.from_events(4, events)
        fresh = build()
        fresh.events  # materialised before any reader ran
        for other in (_answers(lazy), _answers(eager), _answers(fresh)):
            assert other == before
        assert before["send_orders"] == [
            [e.dst for e in events if e.src == src] for src in range(4)
        ]

    def test_event_order_is_memoised_for_the_schedules_life(self):
        lazy = LAZY_BUILDERS["unsorted_columns"]()
        columns = event_columns(lazy)
        order = event_order(lazy)
        assert event_order(lazy) is order
        lazy.events
        # reading the events keeps the columns and their permutation
        assert event_order(lazy) is order
        for ours, theirs in zip(event_columns(lazy), columns):
            assert ours is theirs
        for kind, build in LAZY_BUILDERS.items():
            schedule = build()
            starts, srcs, dsts, _ = event_columns(schedule)
            np.testing.assert_array_equal(
                event_order(schedule),
                np.lexsort((dsts, srcs, starts)),
                err_msg=kind,
            )
        assert event_order(Schedule.from_events(4, lazy.events)) is None

    def test_an_execution_is_scored_without_an_event_order(self):
        executed = _executed()
        starts, srcs, dsts, durations = event_columns(executed)
        assert len(executed) == len(_ROWS)
        assert executed.completion_time == (starts + durations).max()
        # the executor's columns stay sender by sender: not yet sorted
        assert srcs.tolist() == sorted(srcs.tolist())
        assert "_event_order" not in executed.__dict__
        order = np.lexsort((dsts, srcs, starts))
        sizes = _matrices()[1][srcs, dsts]
        in_order = schedule_from_unsorted_columns(
            4, *(column[order] for column in (
                starts, srcs, dsts, durations, sizes
            ))
        )
        assert executed.send_orders() == in_order.send_orders()
        assert executed.events == in_order.events
        assert schedule_digest(executed) == schedule_digest(in_order)


#: Start values with ties, both zeros, an infinity and NaN.
_STARTS = st.sampled_from([0.0, -0.0, 1.0, 2.5, float("inf"), float("nan")])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    _STARTS, st.integers(0, n - 1), st.integers(0, n - 1)
                ),
                max_size=40,
            ),
        )
    )
)
def test_event_order_is_lexsort(case):
    """The two stable sorts of ``event_order`` give ``np.lexsort``'s
    permutation bit for bit: ties, repeated pairs (a split plan's
    pieces), ``-0.0`` against ``+0.0`` and runs of NaN starts."""
    n, rows = case
    starts = np.array([row[0] for row in rows], dtype=float)
    srcs = np.array([row[1] for row in rows], dtype=np.intp)
    dsts = np.array([row[2] for row in rows], dtype=np.intp)
    zeros = np.zeros(len(rows))
    schedule = schedule_from_unsorted_columns(
        n, starts, srcs, dsts, zeros, zeros
    )
    order = event_order(schedule)
    np.testing.assert_array_equal(order, np.lexsort((dsts, srcs, starts)))
    assert order.dtype == np.intp
