"""Property-based tests (hypothesis) for core invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.baseline import schedule_baseline, schedule_baseline_nosync
from repro.core.exact import branch_and_bound
from repro.core.greedy import schedule_greedy
from repro.core.matching import matching_rounds, schedule_matching_max
from repro.core.matching import schedule_matching_min
from repro.core.openshop import schedule_openshop
from repro.core.problem import TotalExchangeProblem
from repro.network.sharing import equal_share_rates, max_min_fair_rates
from repro.perf import reference
from repro.sim.engine import execute_orders, execute_orders_on_cost
from repro.timing.validate import check_schedule

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def problems(draw, min_procs=2, max_procs=7, allow_zeros=True):
    """Random total-exchange instances with a zero diagonal."""
    n = draw(st.integers(min_procs, max_procs))
    cells = draw(
        st.lists(
            st.one_of(
                st.floats(0.01, 100.0, allow_nan=False),
                *([st.just(0.0)] if allow_zeros else []),
            ),
            min_size=n * n,
            max_size=n * n,
        )
    )
    cost = np.array(cells).reshape(n, n)
    np.fill_diagonal(cost, 0.0)
    return TotalExchangeProblem(cost=cost)


ALL = [
    ("baseline", schedule_baseline),
    ("baseline_nosync", schedule_baseline_nosync),
    ("max_matching", schedule_matching_max),
    ("min_matching", schedule_matching_min),
    ("greedy", schedule_greedy),
    ("openshop", schedule_openshop),
]


@SETTINGS
@given(problem=problems())
def test_every_scheduler_emits_valid_covering_schedules(problem):
    for _, scheduler in ALL:
        schedule = scheduler(problem)
        check_schedule(schedule, problem.cost)


@SETTINGS
@given(problem=problems())
def test_completion_at_least_lower_bound(problem):
    lb = problem.lower_bound()
    for _, scheduler in ALL:
        assert scheduler(problem).completion_time >= lb - 1e-9


@SETTINGS
@given(problem=problems())
def test_openshop_within_twice_lower_bound(problem):
    t = schedule_openshop(problem).completion_time
    assert t <= 2.0 * problem.lower_bound() + 1e-9


@SETTINGS
@given(problem=problems())
def test_baseline_nosync_within_half_p_lower_bound(problem):
    t = schedule_baseline_nosync(problem).completion_time
    bound = (problem.num_procs / 2.0) * problem.lower_bound()
    assert t <= bound + 1e-9


@SETTINGS
@given(problem=problems(allow_zeros=False))
def test_matching_rounds_partition(problem):
    n = problem.num_procs
    seen = set()
    for perm in matching_rounds(problem.cost):
        assert sorted(perm.tolist()) == list(range(n))
        for src, dst in enumerate(perm):
            assert (src, int(dst)) not in seen
            seen.add((src, int(dst)))
    assert len(seen) == n * n


@SETTINGS
@given(problem=problems(max_procs=4))
def test_exact_optimal_dominates_heuristics(problem):
    optimal = branch_and_bound(problem).completion_time
    assert optimal >= problem.lower_bound() - 1e-9
    for _, scheduler in ALL:
        assert optimal <= scheduler(problem).completion_time + 1e-9


@SETTINGS
@given(problem=problems(), data=st.data())
def test_engine_respects_any_order_permutation(problem, data):
    n = problem.num_procs
    orders = []
    for src in range(n):
        dsts = [d for d in range(n) if d != src]
        orders.append(data.draw(st.permutations(dsts)))
    schedule = execute_orders(problem, orders)
    check_schedule(schedule, problem.cost)
    assert schedule.completion_time >= problem.lower_bound() - 1e-9


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fifo_executor_matches_seed_with_ties_and_markers(data):
    # Integer costs in {0..3}: simultaneous requests at a receiver are
    # common, and zero-cost markers land at the start, middle and end
    # of chains; senders may be empty or all-markers.
    n = data.draw(st.integers(1, 9), label="P")
    cost = np.array(
        data.draw(
            st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n),
            label="cost",
        ),
        dtype=float,
    ).reshape(n, n)
    orders = [
        data.draw(
            st.lists(st.integers(0, n - 1), unique=True, max_size=n),
            label=f"order {src}",
        )
        for src in range(n)
    ]
    sizes = None
    if data.draw(st.booleans(), label="sizes"):
        sizes = np.arange(1.0, n * n + 1.0).reshape(n, n)
    expected = reference.execute_orders_on_cost_reference(
        cost, orders, sizes=sizes
    )
    for validate in (True, False):
        got = execute_orders_on_cost(
            cost, orders, sizes=sizes, validate=validate
        )
        assert got.completion_time == expected.completion_time
        assert len(got) == len(expected)
        assert got.send_orders() == expected.send_orders()
        assert got == expected


@SETTINGS
@given(
    n_flows=st.integers(1, 6),
    n_edges=st.integers(1, 4),
    data=st.data(),
)
def test_max_min_dominates_equal_share(n_flows, n_edges, data):
    edges = [("n%d" % i, "n%d" % (i + 1)) for i in range(n_edges)]
    capacities = {
        e: data.draw(st.floats(0.5, 100.0), label=f"cap{e}") for e in edges
    }
    paths = []
    for _ in range(n_flows):
        subset = data.draw(st.sets(st.sampled_from(edges), min_size=1))
        paths.append(sorted(subset))
    eq = equal_share_rates(paths, capacities)
    mm = max_min_fair_rates(paths, capacities)
    for a, b in zip(mm, eq):
        assert a >= b - 1e-6
    # capacities respected
    for edge, cap in capacities.items():
        used = sum(r for r, path in zip(mm, paths) if edge in path)
        assert used <= cap + 1e-6


@SETTINGS
@given(problem=problems())
def test_schedulers_deterministic(problem):
    for _, scheduler in ALL:
        assert scheduler(problem) == scheduler(problem)
