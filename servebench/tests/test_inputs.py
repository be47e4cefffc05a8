"""Inputs derive from the seed alone, and the lower-bound replay agrees
with the program's own planning problems."""

from repro.serve.tenants import TenantState
from servebench.checks import control_run, lower_bounds, profile_of
from servebench.specs import FLEET_COHORTS, FLEET_TENANTS, plan_for


def test_same_seed_same_inputs():
    assert plan_for("mixed", 5, 3) == plan_for("mixed", 5, 3)
    assert plan_for("mixed", 5, 3).tenants != plan_for("mixed", 6, 3).tenants


def test_fleet_shape():
    plan = plan_for("fleet", 3, 2)
    assert len(plan.tenants) == FLEET_TENANTS
    assert len(plan.cohorts) == FLEET_COHORTS
    assert plan.heavy is None
    for members in plan.cohorts:
        assert len({(t.directory, t.seed) for t in members}) == 1
    # every tenant's drift trace covers the cold tick and every timed tick
    assert all(f"ticks={plan.rounds + 1}," in t.directory for t in plan.tenants)


def test_lower_bound_replay_matches_planning_problems():
    tenant = plan_for("fleet", 9, 1).tenants[0]
    ticks = 12
    state = TenantState(profile_of(tenant))
    expected = []
    for k in range(ticks):
        if k:
            state.directory.advance(1.0)
        expected.append(state.planning_problem().lower_bound())
    assert lower_bounds(tenant, ticks) == expected


def test_makespans_never_beat_the_replayed_bound():
    tenant = plan_for("fleet", 2, 1).tenants[0]
    bounds = lower_bounds(tenant, 10)
    for (decision, makespan), bound in zip(control_run(tenant, 10), bounds):
        assert makespan >= bound * (1 - 1e-12), decision
