"""Schedule validity checking tests."""

import numpy as np
import pytest

from repro.timing.events import CommEvent, Schedule, schedule_from_columns
from repro.timing.validate import (
    ScheduleError,
    check_schedule,
    check_schedule_fast,
    is_valid_schedule,
)


def ev(start, src, dst, duration):
    return CommEvent(start=start, src=src, dst=dst, duration=duration)


def test_valid_schedule_passes():
    s = Schedule.from_events(3, [ev(0, 0, 1, 2), ev(0, 1, 2, 2), ev(2, 0, 2, 1)])
    check_schedule(s)


def test_sender_overlap_detected():
    s = Schedule.from_events(3, [ev(0, 0, 1, 2), ev(1, 0, 2, 2)])
    with pytest.raises(ScheduleError, match="sender conflict"):
        check_schedule(s)


def test_receiver_overlap_detected():
    s = Schedule.from_events(3, [ev(0, 0, 2, 2), ev(1, 1, 2, 2)])
    with pytest.raises(ScheduleError, match="receiver conflict"):
        check_schedule(s)


def test_zero_duration_overlap_allowed():
    s = Schedule.from_events(3, [ev(0, 0, 1, 2), ev(1, 0, 2, 0.0)])
    check_schedule(s)


def test_touching_intervals_allowed():
    s = Schedule.from_events(3, [ev(0, 0, 1, 2), ev(2, 0, 2, 2)])
    check_schedule(s)


def test_violations_collected():
    s = Schedule.from_events(
        4, [ev(0, 0, 1, 5), ev(1, 0, 2, 5), ev(2, 0, 3, 5)]
    )
    try:
        check_schedule(s)
    except ScheduleError as exc:
        assert len(exc.violations) >= 2
    else:
        pytest.fail("expected ScheduleError")


class TestCoverage:
    def setup_method(self):
        self.cost = np.array([[0.0, 1.0], [2.0, 0.0]])

    def test_full_coverage_passes(self):
        s = Schedule.from_events(2, [ev(0, 0, 1, 1), ev(1, 1, 0, 2)])
        check_schedule(s, self.cost)

    def test_missing_event_detected(self):
        s = Schedule.from_events(2, [ev(0, 0, 1, 1)])
        with pytest.raises(ScheduleError, match="missing event"):
            check_schedule(s, self.cost)

    def test_coverage_optional(self):
        s = Schedule.from_events(2, [ev(0, 0, 1, 1)])
        check_schedule(s, self.cost, require_coverage=False)

    def test_wrong_duration_detected(self):
        s = Schedule.from_events(2, [ev(0, 0, 1, 9), ev(9, 1, 0, 2)])
        with pytest.raises(ScheduleError, match="duration"):
            check_schedule(s, self.cost)

    def test_duplicate_pair_detected(self):
        s = Schedule.from_events(
            2, [ev(0, 0, 1, 1), ev(5, 0, 1, 1), ev(1, 1, 0, 2)]
        )
        with pytest.raises(ScheduleError, match="duplicate"):
            check_schedule(s, self.cost)

    def test_shape_mismatch_raises(self):
        s = Schedule.from_events(3, [ev(0, 0, 1, 1)])
        with pytest.raises(ScheduleError, match="shape"):
            check_schedule(s, self.cost)


class TestMixedKindBatch:
    """A schedule violating several conditions raises ONE ScheduleError
    carrying every violation in a deterministic kind-grouped order."""

    def setup_method(self):
        self.cost = np.array(
            [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
        )
        # src 0 overlaps itself (sender conflict), 1->0 has the wrong
        # duration, and the three pairs of senders 1/2 never appear.
        self.schedule = Schedule.from_events(
            3, [ev(0, 0, 1, 1), ev(0.5, 0, 2, 2), ev(0, 1, 0, 5)]
        )

    def _error(self):
        with pytest.raises(ScheduleError) as excinfo:
            check_schedule(self.schedule, self.cost)
        return excinfo.value

    def test_all_kinds_collected_in_one_error(self):
        exc = self._error()
        assert len(exc.violations) == 5
        assert sum("sender conflict" in v for v in exc.violations) == 1
        assert sum("has duration" in v for v in exc.violations) == 1
        assert sum("missing event" in v for v in exc.violations) == 3

    def test_deterministic_kind_order(self):
        exc = self._error()
        assert "sender conflict" in exc.violations[0]
        assert "has duration 5" in exc.violations[1]
        assert exc.violations[2:] == [
            "missing event for pair (1, 2)",
            "missing event for pair (2, 0)",
            "missing event for pair (2, 1)",
        ]

    def test_message_leads_with_per_kind_counts(self):
        exc = self._error()
        message = str(exc)
        assert message.startswith(
            "invalid schedule "
            "(1 sender conflict, 1 wrong duration, 3 missing pairs): "
        )

    def test_message_previews_and_truncates(self):
        exc = self._error()
        message = str(exc)
        # 5 violations: all previewed, no "+N more" suffix.
        assert "more)" not in message
        # Add receiver-side noise to push past the preview window.
        crowded = Schedule.from_events(
            3,
            [ev(0, 0, 1, 1), ev(0.5, 0, 2, 2), ev(0, 1, 0, 5),
             ev(0.2, 2, 0, 1), ev(0.4, 2, 1, 1)],
        )
        with pytest.raises(ScheduleError) as excinfo:
            check_schedule(crowded, self.cost)
        longer = excinfo.value
        assert len(longer.violations) > 5
        assert f"(+{len(longer.violations) - 5} more)" in str(longer)

    def test_batch_identical_across_runs(self):
        assert self._error().violations == self._error().violations


def test_is_valid_schedule_bool():
    good = Schedule.from_events(2, [ev(0, 0, 1, 1)])
    bad = Schedule.from_events(2, [ev(0, 0, 1, 2), ev(1, 0, 1, 2)])
    assert is_valid_schedule(good)
    assert not is_valid_schedule(bad)


class TestProcessorRange:
    """An event naming processor P on a P-processor schedule is invalid."""

    @staticmethod
    def src_is_p(num_procs=3):
        return schedule_from_columns(
            num_procs, np.array([0.0]), np.array([num_procs]),
            np.array([0]), np.array([1.0]), np.array([1.0]),
        )

    def test_fast_checker_rejects(self):
        with pytest.raises(ScheduleError, match="outside"):
            check_schedule_fast(self.src_is_p())

    def test_scalar_checker_rejects_without_cost(self):
        with pytest.raises(ScheduleError, match="outside"):
            check_schedule(self.src_is_p())

    def test_scalar_checker_rejects_with_cost(self):
        with pytest.raises(ScheduleError, match="outside"):
            check_schedule(self.src_is_p(), np.ones((3, 3)))

    def test_oracle_reports_it_as_a_violation(self):
        from repro.check.oracle import oracle_violations
        from repro.core.problem import TotalExchangeProblem

        cost = np.ones((3, 3))
        problem = TotalExchangeProblem(cost=cost, sizes=cost)
        violations = oracle_violations(problem, self.src_is_p())
        assert any("outside [0, 3)" in v for v in violations)
