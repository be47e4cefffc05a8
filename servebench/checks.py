"""Output checks and the lower-bound replay, run outside the timed phase."""

from __future__ import annotations

from typing import Dict, List, Tuple

from servebench.specs import Tenant


def profile_of(tenant: Tenant):
    from repro.serve.tenants import TenantProfile

    return TenantProfile(**tenant.open_fields())


def lower_bounds(tenant: Tenant, ticks: int) -> List[float]:
    """The lower bound of every tick ``0..ticks-1`` the tenant serves,
    re-derived from its spec and seed: a fresh tenant's directory is
    advanced one unit per tick, exactly as its schedule requests do."""
    from repro.core.problem import TotalExchangeProblem
    from repro.serve.tenants import TenantState

    state = TenantState(profile_of(tenant))
    bounds = []
    for k in range(ticks):
        if k:
            state.directory.advance(1.0)
        problem = TotalExchangeProblem.from_snapshot(
            state.directory.snapshot(), state.sizes
        )
        bounds.append(problem.lower_bound())
    return bounds


def control_run(tenant: Tenant, ticks: int) -> List[Tuple[str, float]]:
    """``(decision, executed makespan)`` per tick from an in-process
    session built from the same profile: a cold tick, then unit steps."""
    from repro.serve.tenants import TenantState

    session = TenantState(profile_of(tenant)).session
    out = []
    for k in range(ticks):
        event = session.tick(dt=1.0 if k else 0.0).event
        out.append((event.decision, event.executed_makespan))
    return out


def compare_control(
    tenant: Tenant,
    served: Dict[int, Tuple[str, float]],
    ticks: int,
) -> List[Tuple[int, str]]:
    """``(tick, message)`` for every tick where the daemon's answer for
    ``tenant`` (tick -> (decision, executed_s)) differs from the control
    session's, bit for bit."""
    problems = []
    for k, expected in enumerate(control_run(tenant, ticks)):
        got = served.get(k)
        if got != expected:
            problems.append(
                (k, f"{tenant.name} tick {k}: daemon {got}, control {expected}")
            )
    return problems
