"""Adaptive serving runtime tests: policy, session, metrics, traces."""

import numpy as np
import pytest

from repro.directory.service import DirectorySnapshot
from repro.perf.memo import ScheduleCache
from repro.runtime import (
    AdaptiveSession,
    PolicyConfig,
    REFINE,
    REPAIR,
    RESCHEDULE,
    REUSE,
    RuntimeMetrics,
    TickEvent,
    decide,
    drift_magnitude,
)
from repro.sim.replay import DriftTrace, TraceDirectory, synthetic_drift_trace


def _base_snapshot(num_procs=6, seed=0):
    import repro

    rng = np.random.default_rng(seed)
    latency, bandwidth = repro.random_pairwise_parameters(num_procs, rng=rng)
    return DirectorySnapshot(latency=latency, bandwidth=bandwidth)


def _sizes(num_procs=6, value=1000.0):
    sizes = np.full((num_procs, num_procs), value)
    np.fill_diagonal(sizes, 0.0)
    return sizes


def _scaled_trace(factors, num_procs=4):
    """A trace whose tick-k costs are exactly ``factors[k]`` times the
    base costs: zero latency, bandwidth divided by the factor."""
    bandwidth = np.full((num_procs, num_procs), 1e6)
    np.fill_diagonal(bandwidth, np.inf)
    latency = np.zeros((num_procs, num_procs))
    snapshots = tuple(
        DirectorySnapshot(
            latency=latency, bandwidth=bandwidth / f, time=float(k)
        )
        for k, f in enumerate(factors)
    )
    times = tuple(float(k) for k in range(len(factors)))
    return DriftTrace(times=times, snapshots=snapshots)


# -- policy unit behaviour ---------------------------------------------------


def test_decide_thresholds():
    config = PolicyConfig(reuse_threshold=0.05, refine_threshold=0.25)
    common = dict(config=config, reuse_streak=0, ticks_since_reschedule=1)
    assert decide(0.01, **common)[0] == REUSE
    assert decide(0.10, **common)[0] == REFINE
    assert decide(0.30, **common)[0] == RESCHEDULE


def test_decide_staleness_caps():
    config = PolicyConfig(max_reuse_ticks=2, max_plan_age_ticks=5)
    decision, reason = decide(
        0.0, config=config, reuse_streak=2, ticks_since_reschedule=3
    )
    assert decision == REFINE and "staleness" in reason
    decision, reason = decide(
        0.0, config=config, reuse_streak=0, ticks_since_reschedule=5
    )
    assert decision == RESCHEDULE and "staleness" in reason


def test_decide_budget_demotes_reschedule():
    config = PolicyConfig(min_ticks_between_reschedules=4)
    decision, reason = decide(
        0.9, config=config, reuse_streak=0, ticks_since_reschedule=2
    )
    assert decision == REFINE and "budget" in reason
    decision, _ = decide(
        0.9, config=config, reuse_streak=0, ticks_since_reschedule=4
    )
    assert decision == RESCHEDULE


def test_decide_repair_tier():
    config = PolicyConfig(
        reuse_threshold=0.05,
        refine_threshold=0.25,
        repair_threshold=0.75,
        repair_max_dirty_fraction=0.25,
    )
    common = dict(config=config, reuse_streak=0, ticks_since_reschedule=1)
    # localised drift repairs in both middle bands...
    assert decide(0.10, dirty_fraction=0.02, **common)[0] == REPAIR
    assert decide(0.40, dirty_fraction=0.25, **common)[0] == REPAIR
    # ...but widespread repricing keeps the classic ladder...
    assert decide(0.10, dirty_fraction=0.9, **common)[0] == REFINE
    assert decide(0.40, dirty_fraction=0.9, **common)[0] == RESCHEDULE
    # ...extreme drift always rebuilds, and no signal means no repair.
    assert decide(0.80, dirty_fraction=0.02, **common)[0] == RESCHEDULE
    assert decide(0.40, dirty_fraction=None, **common)[0] == RESCHEDULE
    assert decide(0.40, **common)[0] == RESCHEDULE
    # below the reuse threshold the plan is fine as-is: no repair.
    assert decide(0.01, dirty_fraction=0.02, **common)[0] == REUSE


def test_policy_config_validation():
    with pytest.raises(ValueError):
        PolicyConfig(reuse_threshold=0.5, refine_threshold=0.1)
    with pytest.raises(ValueError):
        PolicyConfig(max_reuse_ticks=0)
    with pytest.raises(ValueError):
        PolicyConfig(scheduler_deadline_s=0.0)
    with pytest.raises(ValueError):
        PolicyConfig(refine_threshold=0.5, repair_threshold=0.25)
    with pytest.raises(ValueError):
        PolicyConfig(repair_max_dirty_fraction=1.5)


def test_drift_magnitude():
    basis = np.array([[0.0, 2.0], [4.0, 0.0]])
    assert drift_magnitude(basis, basis * 1.5) == pytest.approx(0.5)
    appeared = np.array([[0.0, 2.0], [4.0, 0.0]])
    basis_zero = np.array([[0.0, 0.0], [4.0, 0.0]])
    # one unchanged pair (0 drift... actually 2.0 appeared from zero)
    assert drift_magnitude(basis_zero, appeared) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        drift_magnitude(basis, np.zeros((3, 3)))


# -- scripted serving decisions ---------------------------------------------


def test_session_reuse_refine_reschedule_on_scripted_drift():
    # factors: 1.0 (cold start), 1.0 (reuse), 1.1 (refine: drift 0.1),
    # 2.2 (reschedule: drift vs the refined basis ~ 1.0)
    trace = _scaled_trace([1.0, 1.0, 1.1, 2.2])
    session = AdaptiveSession(
        TraceDirectory(trace), _sizes(4), scheduler="openshop"
    )
    results = [session.tick(dt=0.0)]
    results += [session.tick(dt=1.0) for _ in range(3)]
    assert [r.decision for r in results] == [
        RESCHEDULE, REUSE, REFINE, RESCHEDULE,
    ]
    # drift is measured against the basis the active plan was (re)built on
    assert results[1].event.drift == pytest.approx(0.0)
    assert results[2].event.drift == pytest.approx(0.1, rel=1e-6)
    assert results[3].event.drift == pytest.approx(2.2 / 1.1 - 1, rel=1e-6)
    # perfectly predicted: executed == predicted on the replan ticks
    assert results[3].event.regret == pytest.approx(0.0, abs=1e-9)


def test_session_summary_counts_match_events():
    trace = _scaled_trace([1.0, 1.0, 1.1, 2.2])
    session = AdaptiveSession(
        TraceDirectory(trace), _sizes(4), scheduler="greedy"
    )
    session.tick(dt=0.0)
    for _ in range(3):
        session.tick(dt=1.0)
    summary = session.summary()
    assert summary["ticks"] == 4
    assert summary["decisions"] == {
        "reuse": 1, "refine": 1, "repair": 0, "reschedule": 2,
    }
    assert summary["reschedule_rate"] == pytest.approx(0.5)
    assert summary["refine_evaluations"] > 0


# -- deadline / exception fallback ------------------------------------------


class _SteppingClock:
    """A fake monotonic clock advancing a fixed step per reading."""

    def __init__(self, step):
        self.step = step
        self.now = 0.0

    def __call__(self):
        self.now += self.step
        return self.now


def test_deadline_fallback_with_fake_clock():
    trace = _scaled_trace([1.0])
    session = AdaptiveSession(
        TraceDirectory(trace),
        _sizes(4),
        scheduler="openshop",
        policy=PolicyConfig(scheduler_deadline_s=1.0),
        clock=_SteppingClock(10.0),  # every invocation "takes" 10s
    )
    result = session.tick()
    assert result.event.fallback
    assert "deadline" in result.event.reason
    assert session.summary()["fallback_activations"] == 1
    # the fallback is the baseline caterpillar: its plan still executes
    assert result.schedule.completion_time > 0


def test_exception_fallback_keeps_serving():
    def exploding(problem):
        raise RuntimeError("boom")

    trace = _scaled_trace([1.0, 1.0])
    session = AdaptiveSession(
        TraceDirectory(trace), _sizes(4), scheduler=exploding
    )
    first = session.tick()
    assert first.event.fallback and "RuntimeError" in first.event.reason
    second = session.tick(dt=1.0)  # plan exists now; low drift reuses it
    assert second.decision == REUSE
    assert session.summary()["ticks"] == 2


def test_injected_timeout_forces_fallback_reschedule():
    trace = _scaled_trace([1.0, 1.0, 1.0])
    session = AdaptiveSession(
        TraceDirectory(trace),
        _sizes(4),
        scheduler="openshop",
        force_timeout_ticks=[1],
    )
    session.tick()
    forced = session.tick(dt=1.0)
    assert forced.decision == RESCHEDULE
    assert forced.event.fallback
    assert "chaos" in forced.event.reason
    # fallback results must not poison the cache for the real scheduler
    after = session.tick(dt=1.0)
    assert not after.event.fallback


# -- cache behaviour ---------------------------------------------------------


def test_cache_hit_on_revisited_conditions():
    trace = _scaled_trace([1.0] * 4)
    cache = ScheduleCache()
    session = AdaptiveSession(
        TraceDirectory(trace),
        _sizes(4),
        scheduler="openshop",
        # zero thresholds: every tick demands a full reschedule
        policy=PolicyConfig(
            reuse_threshold=0.0,
            refine_threshold=0.0,
            repair_threshold=0.0,
        ),
        cache=cache,
    )
    session.tick(dt=0.0)
    for _ in range(3):
        session.tick(dt=1.0)
    summary = session.summary()
    assert summary["decisions"]["reschedule"] == 4
    assert summary["cache_hit_rate"] == pytest.approx(3 / 4)
    assert [e.cache_hit for e in session.metrics.events] == [
        False, True, True, True,
    ]


def test_fallback_results_never_cached():
    trace = _scaled_trace([1.0, 1.0])
    cache = ScheduleCache()
    session = AdaptiveSession(
        TraceDirectory(trace),
        _sizes(4),
        scheduler="openshop",
        policy=PolicyConfig(
            reuse_threshold=0.0,
            refine_threshold=0.0,
            repair_threshold=0.0,
        ),
        cache=cache,
        force_timeout_ticks=[0],
    )
    session.tick()  # fallback; must not populate the cache
    second = session.tick(dt=1.0)  # same costs, forced reschedule
    assert not second.event.cache_hit  # a hit would mean the fallback leaked


# -- the serving path stays columnar ----------------------------------------


def _costs(num_procs, cluster_size, seed):
    """Random costs with contiguous clusters of ``cluster_size`` nodes
    25-50x apart (the hierarchical scheduler's target shape; one
    cluster is a flat instance)."""
    rng = np.random.default_rng(seed)
    labels = np.arange(num_procs) // cluster_size
    k = int(labels[-1]) + 1
    cost = rng.uniform(0.5, 10.0, (num_procs, num_procs))
    level = rng.uniform(25.0, 50.0, (k, k))
    same = labels[:, None] == labels[None, :]
    cost = np.where(same, cost, cost * level[np.ix_(labels, labels)])
    np.fill_diagonal(cost, 0.0)
    return cost


@pytest.mark.parametrize("scheduler", ["openshop", "hierarchical"])
def test_serving_path_builds_no_comm_events(scheduler):
    if scheduler == "openshop":
        base = _costs(8, 8, seed=6)
    else:
        base = _costs(24, 6, seed=1)
    # reschedule, reuse, repair (one sender repriced), refine (mild
    # whole-fabric drift), reschedule (heavy drift), reuse
    repriced = base.copy()
    repriced[0] *= 4.0
    costs = [base, base, repriced, base * 1.1, base * 3.0, base * 3.0]
    bandwidth = np.full(base.shape, np.inf)
    trace = DriftTrace(
        times=tuple(float(k) for k in range(len(costs))),
        snapshots=tuple(
            DirectorySnapshot(latency=c, bandwidth=bandwidth, time=float(k))
            for k, c in enumerate(costs)
        ),
    )
    num_procs = base.shape[0]
    session = AdaptiveSession(
        TraceDirectory(trace), _sizes(num_procs), scheduler=scheduler
    )
    for k in range(len(costs)):
        session.tick(dt=1.0 if k else 0.0)
        assert "events" not in session.last_schedule.__dict__
        assert "events" not in session._plan.schedule.__dict__
    assert session.summary()["decisions"] == {
        RESCHEDULE: 2, REUSE: 2, REPAIR: 1, REFINE: 1,
    }


# -- determinism -------------------------------------------------------------


def test_session_deterministic_under_fixed_seed():
    def run_once():
        base = _base_snapshot(num_procs=6, seed=3)
        trace = synthetic_drift_trace(
            base, ticks=8, base_sigma=0.05, burst_sigma=0.5, burst_every=3,
            seed=7,
        )
        session = AdaptiveSession(
            TraceDirectory(trace), _sizes(6), scheduler="openshop"
        )
        session.tick(dt=0.0)
        for _ in range(7):
            session.tick(dt=1.0)
        return [
            (e.decision, round(e.executed_makespan, 9), round(e.drift, 9))
            for e in session.metrics.events
        ]

    assert run_once() == run_once()


def test_noisy_directory_produces_regret():
    from repro.directory.noisy import NoisyDirectory
    from repro.directory.static import StaticDirectory

    base = _base_snapshot(num_procs=5, seed=1)
    inner = StaticDirectory(base.latency, base.bandwidth)
    noisy = NoisyDirectory(inner, bandwidth_sigma=0.4, rng=5)
    session = AdaptiveSession(noisy, _sizes(5), scheduler="openshop")
    result = session.tick()
    # planned on noisy readings, executed on the truth: regret is real
    assert result.event.regret != pytest.approx(0.0)


# -- trace plumbing ----------------------------------------------------------


def test_synthetic_trace_prefix_stable():
    base = _base_snapshot(num_procs=4, seed=2)
    short = synthetic_drift_trace(base, ticks=4, seed=9)
    long = synthetic_drift_trace(base, ticks=7, seed=9)
    for a, b in zip(short.snapshots, long.snapshots):
        np.testing.assert_allclose(a.bandwidth, b.bandwidth)


def test_drift_trace_at_clamps():
    trace = _scaled_trace([1.0, 2.0, 3.0])
    assert trace.at(-5.0) is trace.snapshots[0]
    assert trace.at(1.5) is trace.snapshots[1]
    assert trace.at(99.0) is trace.snapshots[-1]
    assert trace.duration == pytest.approx(2.0)


def test_trace_directory_advances():
    trace = _scaled_trace([1.0, 2.0])
    directory = TraceDirectory(trace)
    before = directory.snapshot().bandwidth.copy()
    directory.advance(1.0)
    after = directory.snapshot().bandwidth
    finite = np.isfinite(before)
    assert np.all(after[finite] < before[finite])
    with pytest.raises(ValueError):
        directory.advance(-1.0)


def test_drift_trace_validation():
    snap = _scaled_trace([1.0]).snapshots[0]
    with pytest.raises(ValueError):
        DriftTrace(times=(0.0, 0.0), snapshots=(snap, snap))
    with pytest.raises(ValueError):
        DriftTrace(times=(), snapshots=())


# -- metrics -----------------------------------------------------------------


def _event(**overrides):
    payload = dict(
        tick=0, time=0.0, decision="reuse", reason="r", drift=0.0,
        predicted_makespan=1.0, executed_makespan=1.5, regret=0.5,
    )
    payload.update(overrides)
    return TickEvent(**payload)


def test_metrics_rejects_unknown_decision():
    metrics = RuntimeMetrics()
    with pytest.raises(ValueError, match="unknown decision"):
        metrics.record_tick(_event(decision="panic"))


def test_metrics_rates_and_json():
    metrics = RuntimeMetrics()
    metrics.record_tick(_event(tick=0, decision="reschedule"))
    metrics.record_tick(_event(tick=1, decision="reuse"))
    metrics.record_tick(
        _event(tick=2, decision="reschedule", cache_hit=True, fallback=True)
    )
    assert metrics.reschedule_rate == pytest.approx(2 / 3)
    assert metrics.cache_hit_rate == pytest.approx(1 / 2)
    dump = metrics.to_json()
    assert dump["summary"]["fallback_activations"] == 1
    assert len(dump["events"]) == 3
    assert dump["counters"]["decision.reschedule"] == 2
    assert dump["histograms"]["regret_s"]["count"] == 3


def test_metrics_chrome_trace_shape():
    metrics = RuntimeMetrics()
    metrics.record_tick(_event(tick=0, time=2.0, decision="refine"))
    trace = metrics.to_chrome_trace()
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert len(spans) == 1
    assert spans[0]["ts"] == pytest.approx(2.0 * 1e6)
    assert spans[0]["args"]["decision"] == "refine"
    names = {
        e["args"]["name"]
        for e in trace["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert names == {"reuse", "refine", "reschedule"}


def test_metrics_save_roundtrip(tmp_path):
    import json

    metrics = RuntimeMetrics()
    metrics.record_tick(_event())
    json_path = tmp_path / "metrics.json"
    trace_path = tmp_path / "trace.json"
    metrics.save_json(json_path)
    metrics.save_chrome_trace(trace_path)
    assert json.loads(json_path.read_text())["summary"]["ticks"] == 1
    assert json.loads(trace_path.read_text())["traceEvents"]


def test_run_helper_and_validation():
    trace = _scaled_trace([1.0, 1.0, 1.0])
    session = AdaptiveSession(
        TraceDirectory(trace), _sizes(4), scheduler="openshop"
    )
    results = session.run(3, dt=1.0)
    assert len(results) == 3
    assert session.tick_index == 3
    with pytest.raises(ValueError):
        session.run(0)


# -- the sweep ----------------------------------------------------------------


def test_runtime_sweep_smoke():
    from repro.experiments import run_runtime_sweep

    result = run_runtime_sweep(
        sigmas=(0.0, 0.3), num_procs=5, ticks=5, trials=1
    )
    assert set(result.executed) == {"never", "adaptive", "always"}
    # with zero drift everything is equal; effort still differs
    assert result.executed["never"][0] == pytest.approx(
        result.executed["always"][0]
    )
    assert result.effort["never"][0] == 1.0
    assert result.effort["always"][0] == 5.0
    # under drift the stale plan is no better than the adaptive one
    assert result.executed["adaptive"][1] <= result.executed["never"][1] + 1e-9
    gains = result.gain()
    assert len(gains) == 2
