"""The strict re-timer and the serving rule built on it.

* Whenever :func:`repair_schedule_delta` reports FIFO's answer, its
  schedule is the FIFO executor's, bit for bit, and its sequential and
  level passes agree bit for bit.
* :func:`replay_schedule` re-times through it, pinned to the frozen
  per-event replay (``tests/replay_reference.py``).
* The session serves the better of strict and FIFO: never worse than
  FIFO, ``predicted == executed`` on noise-free directories, continuous
  under tiny noise, and a fresh open-shop plan needs no executor run.
* A splitting scheduler's pieces are served at their own cost.
* Reading a plan's ``events`` changes none of its later re-timings.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adaptive import delta
from repro.adaptive.delta import repair_schedule_delta
from repro.adaptive.incremental import refine_orders
from repro.check.drift import _ladder_trace
from repro.core.greedy import schedule_greedy
from repro.core.openshop import schedule_openshop
from repro.core.problem import TotalExchangeProblem
from repro.core.registry import make_scheduler
from repro.directory.factory import make_directory
from repro.directory.service import DirectorySnapshot
from repro.network.generators import clustered_pairwise_parameters
from repro.runtime import session as session_mod
from repro.runtime.session import AdaptiveSession, serve_plan
from repro.serve.state import session_state
from repro.serve.tenants import TenantProfile, TenantState
from repro.sim.engine import execute_orders, execute_orders_on_cost
from repro.sim.replay import (
    DriftTrace,
    TraceDirectory,
    drift_storm_trace,
    replay_schedule,
)
from repro.timing.events import event_columns, schedule_from_unsorted_columns
from repro.timing.validate import check_schedule
from tests.replay_reference import replay_schedule_reference

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _sorted_columns(schedule):
    starts, srcs, dsts, durations = event_columns(schedule)
    order = np.lexsort((dsts, srcs, starts))
    return [column[order] for column in (starts, srcs, dsts, durations)]


def _shuffled(schedule, seed=0):
    """The same plan as unsorted columns in a random storage order."""
    columns = event_columns(schedule)
    perm = np.random.default_rng(seed).permutation(len(schedule))
    return schedule_from_unsorted_columns(
        schedule.num_procs,
        *(column[perm] for column in columns),
        np.zeros(len(schedule)),
    )


@st.composite
def drifted_plans(draw):
    """``(plan, orders, basis, new)``: a plan with integer-cost ties and
    markers, from the executor, open shop or ``refine_orders``, and a
    drifted integer cost matrix (pairs may grow, shrink, vanish or
    appear)."""
    n = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    basis = rng.integers(0, 4, size=(n, n)).astype(float)
    if draw(st.booleans()):
        np.fill_diagonal(basis, 0.0)
    orders = [
        [int(d) for d in rng.permutation(n) if d != src or basis[d, d] > 0]
        for src in range(n)
    ]
    kind = draw(st.sampled_from(["executor", "openshop", "refine"]))
    if kind == "executor":
        plan = execute_orders_on_cost(basis, orders)
    elif kind == "openshop":
        plan = schedule_openshop(TotalExchangeProblem(cost=basis))
        orders = plan.send_orders()
    else:
        refined = refine_orders(
            orders,
            TotalExchangeProblem(cost=basis),
            old_problem=TotalExchangeProblem(cost=basis * 2.0),
            evaluation="delta",
        )
        plan, orders = refined.schedule, refined.orders
    step = rng.integers(-1, 3, size=(n, n)) * (rng.random((n, n)) < 0.4)
    new = np.maximum(basis + step, 0.0)
    if draw(st.booleans()):  # keep the zero pattern: the memoised path
        new = np.where(basis > 0, np.maximum(new, 1.0), 0.0)
    return plan, orders, basis, new


class TestFifoAnswer:
    @SETTINGS
    @given(drifted_plans())
    def test_a_claimed_fifo_answer_is_the_executors_schedule(self, case):
        plan, orders, basis, new = case
        result = repair_schedule_delta(
            plan, basis, TotalExchangeProblem(cost=new), validate=False
        )
        check_schedule(result.schedule, new)
        if not result.fifo:
            return
        executed = execute_orders_on_cost(new, orders)
        for ours, theirs in zip(
            _sorted_columns(result.schedule), _sorted_columns(executed)
        ):
            assert np.array_equal(ours, theirs)
        assert result.completion_time == executed.completion_time
        assert result.schedule.send_orders() == executed.send_orders()

    @SETTINGS
    @given(drifted_plans())
    def test_sequential_and_level_passes_agree_bit_for_bit(self, case):
        plan, _, basis, new = case
        problem = TotalExchangeProblem(cost=new)
        sequential = repair_schedule_delta(plan, basis, problem)
        crossover = delta.SEQUENTIAL_MAX_EVENTS
        delta.SEQUENTIAL_MAX_EVENTS = 0
        try:
            fresh = _shuffled(plan)
            # the first re-time is sequential, the second finds the
            # levels, and both later ones run the level pass
            runs = [
                repair_schedule_delta(fresh, basis, problem)
                for _ in range(3)
            ]
        finally:
            delta.SEQUENTIAL_MAX_EVENTS = crossover
        for result in runs:
            assert result.fifo == sequential.fifo
            assert result.reinserted == sequential.reinserted
            for ours, theirs in zip(
                _sorted_columns(result.schedule),
                _sorted_columns(sequential.schedule),
            ):
                assert np.array_equal(ours, theirs)

    def test_fresh_open_shop_plans_are_fifos_answer(self):
        problem = TotalExchangeProblem(
            cost=np.random.default_rng(3).uniform(0.5, 5.0, (24, 24))
        )
        plan = schedule_openshop(problem)
        result = repair_schedule_delta(plan, problem.cost, problem)
        assert result.identical and result.fifo
        assert result.schedule is plan


@st.composite
def replay_cases(draw):
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = rng.integers(0, 5, size=(n, n)).astype(float)
    np.fill_diagonal(basis, 0.0)
    problem = TotalExchangeProblem(cost=basis)
    kind = draw(st.sampled_from(["openshop", "greedy", "hierarchical"]))
    if kind == "openshop":
        plan = schedule_openshop(problem)
    elif kind == "greedy":
        plan = schedule_greedy(problem)
    else:
        plan = make_scheduler("hierarchical")(problem)
    actual = np.where(basis > 0, basis + rng.integers(-1, 3, (n, n)), 0.0)
    actual = TotalExchangeProblem(cost=np.maximum(actual, 0.0))
    if draw(st.booleans()):
        plan = _shuffled(plan, seed=n)
    return plan, actual


def _positive(schedule):
    return [e for e in schedule if e.duration > 0]


class TestReplay:
    @SETTINGS
    @given(replay_cases())
    def test_replay_matches_the_per_event_reference(self, case):
        plan, actual = case
        ours = replay_schedule(plan, actual)
        reference = replay_schedule_reference(plan, actual)
        assert _positive(ours) == _positive(reference)
        assert ours.completion_time == reference.completion_time
        check_schedule(ours, actual.cost)

    def test_markers_sit_at_their_senders_clock(self):
        basis = np.array([[0.0, 2.0, 0.0], [1.0, 0.0, 3.0], [2.0, 2.0, 0.0]])
        plan = execute_orders_on_cost(basis, [[1, 2], [0, 2], [0, 1]])
        actual = TotalExchangeProblem(cost=basis * 2.0)
        replayed = replay_schedule(plan, actual)
        marker = next(e for e in replayed if e.src == 0 and e.dst == 2)
        sent = next(e for e in replayed if e.src == 0 and e.dst == 1)
        assert marker.duration == 0.0
        assert marker.start == sent.finish


def _storm_session(ticks):
    """The serving benchmark's ``storm`` workload at seed 0: P=256 over a
    clustered platform, 13-node row storms every 4 ticks."""
    platform_seed, trace_seed = (
        int(v) for v in np.random.SeedSequence(0).generate_state(2)
    )
    latency, bandwidth = clustered_pairwise_parameters(
        256, cluster_size=64, rng=platform_seed
    )
    trace = drift_storm_trace(
        DirectorySnapshot(latency=latency, bandwidth=bandwidth),
        ticks=ticks,
        storm_every=4,
        storm_nodes=13,
        storm_sigma=0.8,
        calm_sigma=0.004,
        seed=trace_seed,
    )
    sizes = np.full((256, 256), 1e6)
    np.fill_diagonal(sizes, 0.0)
    return AdaptiveSession(TraceDirectory(trace), sizes, scheduler="openshop")


def _never_worse_than_fifo(session, ticks):
    decisions = Counter()
    for k in range(ticks):
        event = session.tick(dt=1.0 if k else 0.0).event
        decisions[event.decision] += 1
        actual = session._planning_problem(
            session._directory.snapshot(), session._sizes
        )
        fifo = execute_orders(actual, session._plan.orders)
        assert event.executed_makespan <= fifo.completion_time
        assert event.predicted_makespan == event.executed_makespan
    return decisions


class TestServingRule:
    def test_storm_is_never_worse_than_fifo(self):
        decisions = _never_worse_than_fifo(_storm_session(31), 31)
        # the decisions of FIFO-only serving, unchanged
        assert decisions == {"repair": 23, "reuse": 6, "reschedule": 2}

    def test_drift_tenant_is_never_worse_than_fifo(self):
        tenant = TenantState(
            TenantProfile(
                tenant="t", procs=8,
                directory="drift:sigma=0.02,ticks=101,seed=5", seed=5,
            )
        )
        decisions = _never_worse_than_fifo(tenant.session, 101)
        assert decisions == {"reuse": 88, "refine": 8, "reschedule": 5}

    def test_noise_free_directories_serve_their_prediction(self):
        sizes = np.full((8, 8), 64.0 * 1024)
        np.fill_diagonal(sizes, 0.0)
        latency, bandwidth = clustered_pairwise_parameters(
            8, cluster_size=4, rng=2
        )
        directories = [
            make_directory("static", num_procs=8, rng=1),
            make_directory("drift:sigma=0.05,ticks=40", num_procs=8, rng=1),
            TraceDirectory(drift_storm_trace(
                DirectorySnapshot(latency=latency, bandwidth=bandwidth),
                ticks=40, storm_nodes=1, seed=4,
            )),
            TraceDirectory(_ladder_trace(8, 7)),
        ]
        decisions = set()
        for directory in directories:
            session = AdaptiveSession(directory, sizes)
            for k in range(40):
                event = session.tick(dt=1.0 if k else 0.0).event
                decisions.add(event.decision)
                assert event.predicted_makespan == event.executed_makespan
                assert event.regret == 0.0
        assert decisions == {"reuse", "refine", "repair", "reschedule"}

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(2, 24),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 1e-9),
    )
    def test_tiny_noise_cannot_blow_up_a_tight_plan(self, n, seed, eps):
        rng = np.random.default_rng(seed)
        cost = rng.uniform(0.5, 5.0, (n, n))
        np.fill_diagonal(cost, 0.0)
        plan = schedule_openshop(TotalExchangeProblem(cost=cost))
        noisy = cost * (1.0 + rng.uniform(-eps, eps, (n, n)))
        served = serve_plan(
            plan, plan.send_orders(), cost, TotalExchangeProblem(cost=noisy)
        )
        assert served.schedule.completion_time <= (
            plan.completion_time * (1.0 + 1e-6)
        )

    def test_fresh_open_shop_plans_need_no_executor(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the FIFO executor ran")

        monkeypatch.setattr(session_mod, "execute_orders", refuse)
        rng = np.random.default_rng(0)
        costs = [rng.uniform(0.5, 5.0, (12, 12)) * 3.0**k for k in range(5)]
        trace = DriftTrace(
            times=tuple(float(k) for k in range(5)),
            snapshots=tuple(
                DirectorySnapshot(
                    latency=c, bandwidth=np.full((12, 12), np.inf),
                    time=float(k),
                )
                for k, c in enumerate(costs)
            ),
        )
        sizes = np.ones((12, 12))
        session = AdaptiveSession(TraceDirectory(trace), sizes)
        for k in range(5):
            event = session.tick(dt=1.0 if k else 0.0).event
            assert event.decision == "reschedule"
            assert event.predicted_makespan == event.executed_makespan


def _columns_digest(schedule):
    """The schedule's columns in event order, read without building its
    ``events``."""
    return b"".join(c.tobytes() for c in _sorted_columns(schedule))


class TestReadingEventsKeepsTheMemo:
    """The re-timer memoises indices into a plan's columns, so reading
    the plan's ``events`` must leave the columns and their order as
    they were."""

    @pytest.mark.parametrize("n", [8, 100])  # 100: the level pass
    def test_a_retime_after_reading_events_is_unchanged(self, n):
        rng = np.random.default_rng(n)
        cost = rng.uniform(0.5, 5.0, (n, n))
        np.fill_diagonal(cost, 0.0)
        problem = TotalExchangeProblem(cost=cost)
        drifts = [
            TotalExchangeProblem(cost=cost * rng.uniform(0.5, 1.5, (n, n)))
            for _ in range(3)
        ]
        read, unread = (
            _shuffled(schedule_openshop(problem), seed=n) for _ in range(2)
        )
        for plan in (read, unread):
            for drift in drifts[:2]:
                repair_schedule_delta(plan, cost, drift, validate=False)
        read.events
        ours, theirs = (
            repair_schedule_delta(plan, cost, drifts[2], validate=False)
            for plan in (read, unread)
        )
        check_schedule(ours.schedule, drifts[2].cost)
        assert _columns_digest(ours.schedule) == (
            _columns_digest(theirs.schedule)
        )
        assert (ours.fifo, ours.reinserted) == (theirs.fifo, theirs.reinserted)
        same = repair_schedule_delta(read, cost, problem, validate=False)
        assert same.identical and same.fifo

    def test_a_mid_run_snapshot_changes_no_later_tick(self):
        ticks = 10
        control, snapped = _storm_session(ticks), _storm_session(ticks)
        for k in range(ticks):
            dt = 1.0 if k else 0.0
            ours, theirs = snapped.tick(dt=dt), control.tick(dt=dt)
            assert ours.decision == theirs.decision
            assert _columns_digest(ours.schedule) == (
                _columns_digest(theirs.schedule)
            )
            if k == 6:
                session_state(snapped)  # reads the plan's events


class TestSplittingSchedulers:
    @pytest.mark.parametrize(
        "scheduler", ["preemptive", "openshop_partitioned"]
    )
    @pytest.mark.parametrize("spec", ["static", "drift:sigma=0.02,ticks=12"])
    def test_pieces_are_served_at_their_own_cost(self, scheduler, spec):
        directory = make_directory(spec, num_procs=6, rng=0)
        sizes = np.full((6, 6), 1000.0)
        np.fill_diagonal(sizes, 0.0)
        session = AdaptiveSession(directory, sizes, scheduler=scheduler)
        own = None
        for k in range(12):
            result = session.tick(dt=1.0 if k else 0.0)
            event = result.event
            assert event.predicted_makespan == event.executed_makespan
            check_schedule(result.schedule)  # no port overlaps
            actual = session._planning_problem(
                directory.snapshot(), session._sizes
            )
            _, srcs, dsts, durations = event_columns(result.schedule)
            sent = np.bincount(
                srcs * 6 + dsts, weights=durations, minlength=36
            ).reshape(6, 6)
            np.testing.assert_allclose(sent, actual.cost, rtol=1e-12)
            if own is None:
                own = make_scheduler(scheduler)(actual).completion_time
            if spec == "static":
                assert event.executed_makespan <= own
