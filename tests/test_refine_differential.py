"""Differential test: the delta screen of ``refine_orders`` against the
frozen numpy screen.

``refine_orders(..., evaluation="delta")`` rejects every sender whose
candidates cannot pass the screen without pricing them, and prices the
rest in plain floats.  Both are exact rewrites, so on any input it must
make the decisions of the frozen reference (``tests/refine_reference.py``):
the same refined orders, the same schedule, and the same
``evaluations``, ``screened`` and ``initial_time``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.adaptive.incremental import refine_orders
from repro.core.openshop import schedule_openshop
from repro.core.problem import TotalExchangeProblem
from repro.serve.tenants import TenantProfile, TenantState
from tests.refine_reference import refine_orders_reference

#: Small integers give ties and zero-cost markers; the float alphabet
#: gives sums that round (0.1 + 0.2 != 0.3) and near-ties around the
#: screen's 1e-12 tolerance and margin.
INT_COSTS = st.integers(0, 3).map(float)
FLOAT_COSTS = st.sampled_from(
    [
        0.0, 1e-12, 0.1, 0.2, 0.3, 1.0 / 3.0, 2.0 / 3.0, 0.7,
        1.0, 1.0 + 1e-12, 1.0 + 1e-10,
    ]
)


@st.composite
def refine_cases(draw):
    n = draw(st.integers(1, 10))
    values = draw(st.sampled_from([INT_COSTS, FLOAT_COSTS]))
    cost = np.array(
        draw(st.lists(values, min_size=n * n, max_size=n * n))
    ).reshape(n, n)
    orders = []
    for src in range(n):
        # Every positive pair, plus any subset of zero-cost markers.
        row = [
            dst for dst in range(n)
            if cost[src, dst] > 0 or draw(st.booleans())
        ]
        orders.append(draw(st.permutations(row)))
    old_problem = None
    if draw(st.booleans()):
        drifted = np.array(
            draw(st.lists(values, min_size=n * n, max_size=n * n))
        ).reshape(n, n)
        moved = np.array(
            draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        ).reshape(n, n)
        old_problem = TotalExchangeProblem(
            cost=np.where(moved, drifted, cost)
        )
    max_passes = draw(st.integers(0, 2))
    return orders, TotalExchangeProblem(cost=cost), old_problem, max_passes


def assert_matches_reference(orders, new_problem, old_problem, max_passes):
    expected = refine_orders_reference(
        orders, new_problem, old_problem=old_problem, max_passes=max_passes
    )
    actual = refine_orders(
        orders,
        new_problem,
        old_problem=old_problem,
        max_passes=max_passes,
        evaluation="delta",
    )
    assert actual.orders == expected.orders
    assert actual.schedule == expected.schedule
    assert actual.evaluations == expected.evaluations
    assert actual.screened == expected.screened
    assert actual.initial_time == expected.initial_time


#: Once the first move is accepted, the makespan owner's runner-up
#: finishes 2e-12 before the makespan: the owner's moves must still be
#: priced, and one of them reaches a full run.
NEAR_TIE = (
    [[2, 1, 3], [0, 3, 2], [1, 0], [2, 1, 0]],
    TotalExchangeProblem(
        cost=np.array([
            [0.0, 1.0, 0.2, 1.0 / 3.0],
            [1.0 + 1e-12, 0.0, 2.0 / 3.0, 0.2],
            [1.0, 1.0 + 1e-12, 0.0, 0.0],
            [1e-12, 1e-12, 0.7, 0.0],
        ])
    ),
    None,
    1,
)


@settings(max_examples=300, deadline=None)
@given(refine_cases())
@example(NEAR_TIE)
def test_delta_screen_matches_reference(case):
    assert_matches_reference(*case)


@pytest.mark.parametrize("procs", [32, 64])
def test_drift_step_matches_reference(procs):
    """One drift step of a ``drift:sigma=0.02`` tenant, refined the way
    the serving runtime refines it (one swap pass)."""
    tenant = TenantState(
        TenantProfile(
            tenant="t",
            procs=procs,
            directory="drift:sigma=0.02,ticks=4,seed=7",
            seed=7,
        )
    )
    planned = tenant.planning_problem()
    orders = schedule_openshop(planned).send_orders()
    tenant.directory.advance(1.0)
    assert_matches_reference(orders, tenant.planning_problem(), planned, 1)
