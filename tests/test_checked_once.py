"""Serving inputs are checked once, where they enter, and built once per
cohort.

The serving path trusts arrays that were already checked: a directory
re-stamps its checked snapshot instead of rebuilding it, the session
checks its sizes at construction, and its problems come from one
internal constructor that keeps only the finite-cost check.  These
tests pin each shortcut to the fully checked public path.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import TotalExchangeProblem
from repro.directory import factory
from repro.directory.factory import make_directory
from repro.directory.service import DirectorySnapshot
from repro.faults.directory import FaultyDirectory
from repro.faults.models import FaultProfile
from repro.model.cost import unchecked_cost_matrix
from repro.runtime import AdaptiveSession
from repro.serve.tenants import TenantProfile, TenantState
from repro.sim import replay

#: Non-negative values with zeros and subnormals among them.
_NONNEGATIVE = st.one_of(
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 5e-324, 1e-310, 1e-300]),
)
#: Positive bandwidths; subnormal ones make ``size / bandwidth``
#: overflow, so the cost can be infinite with every input finite.
_BANDWIDTH = st.one_of(
    st.floats(1e-3, 1e12, allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, 1e-310, 1e-300]),
)


@st.composite
def snapshot_inputs(draw):
    """``(latency, bandwidth, sizes, infinite_latency)`` for P in 1..10."""
    n = draw(st.integers(1, 10))

    def matrix(values):
        cells = draw(st.lists(values, min_size=n * n, max_size=n * n))
        return np.array(cells, dtype=float).reshape(n, n)

    latency = matrix(_NONNEGATIVE)
    bandwidth = matrix(_BANDWIDTH)
    sizes = matrix(_NONNEGATIVE)
    if draw(st.booleans()):
        np.fill_diagonal(bandwidth, np.inf)
    infinite_latency = n > 1 and draw(st.booleans())
    if infinite_latency:
        src = draw(st.integers(0, n - 1))
        dst = (src + draw(st.integers(1, n - 1))) % n
        latency[src, dst] = np.inf
        sizes[src, dst] = max(sizes[src, dst], 1.0)
    return latency, bandwidth, sizes, infinite_latency


def _built(constructor):
    """The problem ``constructor()`` builds, or the ValueError it raises."""
    try:
        return constructor()
    except ValueError as exc:
        return exc


@settings(max_examples=100, deadline=None)
@given(snapshot_inputs())
def test_internal_problem_constructor_matches_from_snapshot(inputs):
    latency, bandwidth, sizes, infinite_latency = inputs
    snapshot = DirectorySnapshot(latency=latency, bandwidth=bandwidth)
    frozen = sizes.copy()
    frozen.flags.writeable = False
    with np.errstate(over="ignore"):
        public = _built(
            lambda: TotalExchangeProblem.from_snapshot(snapshot, sizes)
        )
        internal = _built(
            lambda: TotalExchangeProblem._from_checked(
                unchecked_cost_matrix(snapshot, frozen), frozen
            )
        )
    assert type(public) is type(internal)
    if infinite_latency:
        assert isinstance(public, ValueError)
    if not isinstance(public, ValueError):
        assert public.cost.tobytes() == internal.cost.tobytes()
        assert np.array_equal(public.sizes, internal.sizes)
        assert internal.sizes is frozen
        assert not internal.cost.flags.writeable

    stamped = snapshot.restamped(3.5)
    fresh = DirectorySnapshot(
        latency=snapshot.latency, bandwidth=snapshot.bandwidth, time=3.5
    )
    assert stamped.time == fresh.time
    for name in ("latency", "bandwidth"):
        shared, checked = getattr(stamped, name), getattr(fresh, name)
        assert shared is getattr(snapshot, name)
        assert shared.tobytes() == checked.tobytes()
        assert not shared.flags.writeable


def test_directories_restamp_their_checked_snapshot():
    directory = make_directory(
        "drift:sigma=0.05,ticks=4", num_procs=4, rng=1
    )
    directory.advance(2.5)
    snapshot = directory.snapshot()
    in_force = directory.trace.at(2.5)
    assert snapshot.time == 2.5
    assert snapshot.latency is in_force.latency
    assert snapshot.bandwidth is in_force.bandwidth
    static = make_directory("static", num_procs=4, rng=1)
    static.advance(1.0)
    assert static.snapshot().time == 1.0
    assert static.snapshot().latency is static.snapshot().latency


def _session_sizes(n=4):
    sizes = np.full((n, n), 1000.0)
    np.fill_diagonal(sizes, 0.0)
    return sizes


@pytest.mark.parametrize(
    "sizes",
    [
        _session_sizes(3),
        np.ones((4, 5)),
        -_session_sizes(),
        np.where(np.eye(4, dtype=bool), np.nan, 1000.0),
    ],
    ids=["wrong-procs", "not-square", "negative", "nan"],
)
def test_session_rejects_bad_sizes_at_construction(sizes):
    directory = make_directory("static", num_procs=4, rng=0)
    with pytest.raises(ValueError, match="sizes"):
        AdaptiveSession(directory, sizes)


def test_session_keeps_a_private_read_only_copy_of_its_sizes():
    sizes = _session_sizes()
    directory = make_directory("static", num_procs=4, rng=0)
    session = AdaptiveSession(directory, sizes)
    before = session.tick().event
    sizes *= 10.0  # the caller's array, not the session's
    after = session.tick().event
    assert after.executed_makespan == before.executed_makespan
    assert not session._sizes.flags.writeable


def test_an_empty_fault_profile_serves_what_the_bare_trace_serves():
    """A directory with a fault view takes the mask path every tick;
    without one the tick skips it.  With no fault, both serve the same."""

    def events(wrap):
        directory = make_directory(
            "drift:sigma=0.05,ticks=40", num_procs=6, rng=3
        )
        session = AdaptiveSession(
            wrap(directory), _session_sizes(6), clock=lambda: 0.0
        )
        return [
            dataclasses.astuple(session.tick(dt=1.0 if k else 0.0).event)
            for k in range(30)
        ]

    bare = events(lambda directory: directory)
    faulty = events(
        lambda directory: FaultyDirectory(directory, FaultProfile())
    )
    assert faulty == bare
    decisions = {event[2] for event in bare}
    assert {"reschedule", "refine", "reuse"} <= decisions


def test_a_cohort_shares_one_drift_trace(monkeypatch):
    monkeypatch.setattr(
        factory, "_DRIFT_TRACES", weakref.WeakValueDictionary()
    )
    builds = []
    build = replay.synthetic_drift_trace

    def counted(*args, **kwargs):
        builds.append(kwargs)
        return build(*args, **kwargs)

    monkeypatch.setattr(replay, "synthetic_drift_trace", counted)

    def tenant(**fields):
        fields = {"tenant": "t", "procs": 6, "seed": 3, **fields}
        return TenantState(TenantProfile(**fields))

    leader, follower = tenant(tenant="a"), tenant(tenant="b")
    shared = leader.directory.trace
    assert follower.directory.trace is shared
    assert len(builds) == 1
    others = [
        tenant(seed=4),
        tenant(procs=5),
        tenant(directory="drift:sigma=0.03"),
    ]
    assert all(other.directory.trace is not shared for other in others)
    # A generator seeds the same base, but only an integer seed is a key.
    private = make_directory(
        "drift:sigma=0.02", num_procs=6, rng=np.random.default_rng(3)
    )
    assert private.trace is not shared
    assert all(
        np.array_equal(a.bandwidth, b.bandwidth)
        for a, b in zip(private.trace, shared)
    )
    assert len(builds) == 5
    assert len(factory._DRIFT_TRACES) == 4
    # Each directory keeps its own clock over the shared trace.
    follower.session.tick(dt=2.0)
    assert (leader.directory.time, follower.directory.time) == (0.0, 2.0)

    del leader, follower, others, private, shared
    gc.collect()
    assert len(factory._DRIFT_TRACES) == 0
