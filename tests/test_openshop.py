"""Open shop heuristic tests (paper Section 4.5, Theorem 3)."""

import numpy as np
import pytest

from repro.core.openshop import openshop_bound, schedule_openshop
from repro.core.problem import TotalExchangeProblem, example_problem
from repro.timing.validate import check_schedule
from tests.conftest import random_problem


def test_valid_and_covering():
    problem = random_problem(8, seed=0)
    schedule = schedule_openshop(problem)
    check_schedule(schedule, problem.cost)


def test_theorem3_two_times_lower_bound():
    for seed in range(20):
        problem = random_problem(9, seed=seed, low=0.01, high=50.0)
        t = schedule_openshop(problem).completion_time
        assert t <= openshop_bound(problem) + 1e-9


def test_theorem3_on_sparse_instances():
    for seed in range(10):
        problem = random_problem(7, seed=seed, zero_fraction=0.6)
        t = schedule_openshop(problem).completion_time
        assert t <= 2.0 * problem.lower_bound() + 1e-9


def test_example_problem_meets_lower_bound():
    problem = example_problem()
    assert schedule_openshop(problem).completion_time == pytest.approx(16.0)


def test_deterministic():
    problem = random_problem(10, seed=1)
    a = schedule_openshop(problem)
    b = schedule_openshop(problem)
    assert a == b


def test_idle_only_while_committed_receiver_busy():
    # The invariant behind Theorem 3's proof: a gap in a sender's
    # timeline only ever waits for the receiver it committed to — the
    # next event starts exactly when the sender or that receiver frees.
    problem = random_problem(5, seed=2)
    schedule = schedule_openshop(problem)
    real = [e for e in schedule if e.duration > 0]
    finishes_at_recv = {}
    for event in real:
        finishes_at_recv.setdefault(event.dst, set()).add(round(event.finish, 9))
    for src in range(5):
        sends = sorted((e for e in real if e.src == src), key=lambda e: e.start)
        prev_finish = 0.0
        for event in sends:
            if event.start > prev_finish + 1e-9:
                # the wait must end exactly when an event at the chosen
                # receiver completes
                assert round(event.start, 9) in finishes_at_recv[event.dst]
            prev_finish = event.finish


def test_earliest_available_receiver_selected():
    # Sender 0's first pick is the lowest-index receiver (all avail 0).
    problem = random_problem(4, seed=3)
    schedule = schedule_openshop(problem)
    first = min(
        (e for e in schedule if e.src == 0 and e.duration > 0),
        key=lambda e: e.start,
    )
    assert first.dst == 1  # receivers all free at t=0, ties break low


def test_handles_self_messages():
    cost = np.array([[1.0, 2.0], [2.0, 0.0]])
    problem = TotalExchangeProblem(cost=cost)
    schedule = schedule_openshop(problem)
    check_schedule(schedule, problem.cost)
    self_events = [e for e in schedule if e.src == e.dst == 0]
    assert len(self_events) == 1


def test_zero_cost_pairs_present_as_markers():
    problem = random_problem(5, seed=4, zero_fraction=0.4)
    schedule = schedule_openshop(problem)
    pairs = {(e.src, e.dst) for e in schedule}
    expected = {(i, j) for i in range(5) for j in range(5) if i != j}
    assert pairs >= expected


def test_negative_zero_cost_gives_a_positive_zero_marker():
    cost = np.array([[0.0, -0.0, 1.0], [2.0, 0.0, -0.0], [0.0, 3.0, 0.0]])
    schedule = schedule_openshop(TotalExchangeProblem(cost=cost))
    markers = [e for e in schedule if e.duration == 0.0]
    assert {(e.src, e.dst) for e in markers} == {(0, 1), (1, 2), (2, 0)}
    # +0.0, not -0.0: the sign bit would change the schedule's digest
    assert all(np.copysign(1.0, e.duration) == 1.0 for e in markers)
    check_schedule(schedule, cost)


def test_single_processor():
    problem = TotalExchangeProblem(cost=np.zeros((1, 1)))
    assert schedule_openshop(problem).completion_time == 0.0


def test_uniform_instance_within_theorem_bound():
    # On a uniform instance the greedy receiver choices collide in later
    # rounds, so the heuristic does NOT meet the lower bound — but it
    # stays comfortably inside Theorem 3's 2x guarantee.
    cost = np.full((6, 6), 3.0)
    np.fill_diagonal(cost, 0.0)
    problem = TotalExchangeProblem(cost=cost)
    t = schedule_openshop(problem).completion_time
    assert problem.lower_bound() <= t <= 2.0 * problem.lower_bound()


class TestWarmStartDegenerate:
    """openshop_events warm-start entry point at P in {1, 2}."""

    def test_p1_no_pairs_leaves_availabilities_untouched(self):
        from repro.core.openshop import openshop_events

        send, recv = [2.5], [1.0]
        events = openshop_events(np.zeros((1, 1)), [], send, recv)
        assert events == []
        assert send == [2.5]
        assert recv == [1.0]

    def test_p1_self_message_waits_for_both_ports(self):
        from repro.core.openshop import openshop_events

        send, recv = [1.0], [3.0]
        events = openshop_events(np.array([[2.0]]), [(0, 0)], send, recv)
        assert len(events) == 1
        event = events[0]
        assert (event.src, event.dst) == (0, 0)
        assert event.start == pytest.approx(3.0)
        assert event.finish == pytest.approx(5.0)
        assert send == [5.0]
        assert recv == [5.0]

    def test_p2_warm_start_matches_reference(self):
        from repro.core.openshop import openshop_events
        from repro.perf.reference import openshop_events_reference

        cost = np.array([[0.0, 3.0], [2.0, 0.0]])
        pairs = [(0, 1), (1, 0)]
        for seed in range(5):
            rng = np.random.default_rng(seed)
            send0 = rng.uniform(0.0, 4.0, size=2).tolist()
            recv0 = rng.uniform(0.0, 4.0, size=2).tolist()
            live_send, live_recv = list(send0), list(recv0)
            ref_send, ref_recv = list(send0), list(recv0)
            live = openshop_events(cost, pairs, live_send, live_recv)
            ref = openshop_events_reference(cost, pairs, ref_send, ref_recv)
            key = lambda e: (e.start, e.src, e.dst, e.duration)
            assert [key(e) for e in live] == [key(e) for e in ref]
            # The mutated availability lists are part of the contract.
            assert live_send == ref_send
            assert live_recv == ref_recv

    def test_p2_cold_schedule_hits_lower_bound(self):
        problem = TotalExchangeProblem(
            cost=np.array([[0.0, 3.0], [2.0, 0.0]])
        )
        schedule = schedule_openshop(problem)
        check_schedule(schedule, problem.cost)
        assert schedule.completion_time == pytest.approx(
            problem.lower_bound()
        )
