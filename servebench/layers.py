"""Which calls the traced run wraps, and how their spans become the
per-layer metrics.

Every wrapper is installed where the caller looks the callable up: a
module attribute the serving code reads at call time, or a class
attribute.  Nothing in the program changes; only the process that runs
the traced pass has the wrappers.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from servebench.stats import percentile
from servebench.tracer import Spans, Tracer

DECISIONS = ("reuse", "refine", "repair", "reschedule")

#: Per-layer metric -> unit, in report order.
PER_LAYER_UNITS: Dict[str, str] = {
    "serve.protocol.decode_us": "us",
    "serve.protocol.encode_us": "us",
    "serve.protocol.bytes_per_req": "B",
    "serve.daemon.queue_wait_p50_ms": "ms",
    "serve.daemon.queue_wait_p99_ms": "ms",
    "serve.daemon.batched_share": "ratio",
    "serve.daemon.rejected": "count",
    "serve.tenants.probe_us": "us",
    "perf.memo.lookup_us": "us",
    "perf.memo.put_us": "us",
    "perf.memo.hit_ratio": "ratio",
    "runtime.policy.drift_us": "us",
    **{f"runtime.session.decisions.{d}": "count" for d in DECISIONS},
    "runtime.session.decisions.fallback": "count",
    "adaptive.refine.ms": "ms",
    "adaptive.refine.evaluations": "count",
    "adaptive.repair.ms": "ms",
    "adaptive.repair.reinserted_events": "count",
    "adaptive.repair.refused": "count",
    "timing.validate.ms": "ms",
    "timing.validate.events": "count",
    "core.plan.ms": "ms",
    "core.plan.calls": "count",
    "core.plan.events": "count",
    "sim.engine.execute_ms": "ms",
    "sim.engine.events_per_tick": "count",
    "timing.events.completion_us": "us",
    "timing.events.completion_calls_per_tick": "count",
    "directory.snapshot_us": "us",
    "sim.replay.trace_build_s": "s",
    "runtime.metrics.emit_us": "us",
    "runtime.session.tick_self_ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "noise.calib_ms": "ms",
    "noise.steal_ticks": "count",
}


class _TracedScheduler:
    """A scheduler callable wrapped in a span; other attributes (the
    duck-typed hooks the session probes for) pass through."""

    def __init__(self, tracer: Tracer, scheduler: Callable):
        self._inner = scheduler
        self._call = tracer.wrap(
            "core.plan", scheduler, lambda result, args: len(result)
        )

    def __call__(self, problem):
        return self._call(problem)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


def _events(result, args) -> int:
    return len(result)


def install(
    tracer: Tracer, *, tenant_of: Callable[[Any], str] = lambda s: "storm"
) -> None:
    """Wrap every traced entry point.  ``tenant_of(session)`` names the
    tenant a tick serves (the daemon maps sessions to tenant ids)."""
    from repro.adaptive import delta
    from repro.perf.memo import ScheduleCache
    from repro.runtime import session as session_mod
    from repro.runtime.metrics import RuntimeMetrics
    from repro.runtime.session import AdaptiveSession
    from repro.serve import daemon as daemon_mod
    from repro.serve import protocol
    from repro.serve.protocol import ScheduleRequest
    from repro.serve.tenants import TenantState
    from repro.sim import replay
    from repro.sim.replay import TraceDirectory
    from repro.timing.events import Schedule

    wrap = tracer.wrap
    s = session_mod
    s.execute_orders = wrap("sim.engine.execute", s.execute_orders, _events)
    s.repair_plan = wrap(
        "adaptive.repair",
        s.repair_plan,
        lambda result, args: None if result is None else int(result.reinserted),
    )
    s.refine_orders = wrap(
        "adaptive.refine",
        s.refine_orders,
        lambda result, args: int(result.evaluations),
    )
    s.dirty_fraction = wrap("runtime.policy.dirty_fraction", s.dirty_fraction)
    s.drift_magnitude = wrap(
        "runtime.policy.drift_magnitude", s.drift_magnitude
    )
    s.decide = wrap("runtime.policy.decide", s.decide)
    s.schedule_baseline = wrap("core.baseline", s.schedule_baseline, _events)
    make_scheduler = s.make_scheduler
    s.make_scheduler = lambda *a, **k: _TracedScheduler(
        tracer, make_scheduler(*a, **k)
    )
    delta.check_schedule_fast = wrap(
        "timing.validate",
        delta.check_schedule_fast,
        lambda result, args: len(args[0]),
    )
    protocol.decode_request = wrap(
        "serve.protocol.decode",
        protocol.decode_request,
        lambda result, args: [
            len(args[0]),
            result.tenant if isinstance(result, ScheduleRequest) else None,
        ],
    )
    daemon_mod.encode_message = wrap(
        "serve.protocol.encode",
        daemon_mod.encode_message,
        lambda result, args: len(result),
    )
    ScheduleCache.lookup = wrap(
        "perf.memo.lookup",
        ScheduleCache.lookup,
        lambda result, args: result is not None,
    )
    ScheduleCache.put = wrap("perf.memo.put", ScheduleCache.put)
    TenantState.planning_problem = wrap(
        "serve.tenants.planning_problem", TenantState.planning_problem
    )
    TenantState.planning_digest = wrap(
        "serve.tenants.planning_digest", TenantState.planning_digest
    )
    Schedule.completion_time = property(
        wrap("timing.events.completion", Schedule.completion_time.fget)
    )
    RuntimeMetrics.emit = wrap("runtime.metrics.emit", RuntimeMetrics.emit)
    AdaptiveSession.tick = wrap(
        "runtime.session.tick",
        AdaptiveSession.tick,
        lambda result, args: [
            tenant_of(args[0]),
            result.event.decision,
            bool(result.event.fallback),
        ],
    )
    TraceDirectory.snapshot = wrap("directory.snapshot", TraceDirectory.snapshot)
    replay.synthetic_drift_trace = wrap(
        "sim.replay.trace_build", replay.synthetic_drift_trace
    )
    replay.drift_storm_trace = wrap(
        "sim.replay.trace_build", replay.drift_storm_trace
    )


def _mean(values) -> float:
    values = np.asarray(values, dtype=float)
    return float(values.mean()) if values.size else 0.0


def queue_waits(spans: Spans, mask: np.ndarray) -> List[float]:
    """Per request: tick start minus the end of its schedule request's
    decode, paired per tenant in arrival order."""
    arrivals: Dict[str, List[float]] = {}
    for index in spans.select("serve.protocol.decode", mask):
        value = spans.values.get(int(index))
        if value and value[1] is not None:
            arrivals.setdefault(value[1], []).append(spans.end[index])
    waits: List[float] = []
    served: Dict[str, int] = {}
    for index in spans.select("runtime.session.tick", mask):
        tenant = spans.values[int(index)][0]
        k = served.get(tenant, 0)
        served[tenant] = k + 1
        pending = arrivals.get(tenant, [])
        if k < len(pending):
            waits.append(spans.start[index] - pending[k])
    return waits


def summarize(
    spans: Spans,
    windows: Sequence[Tuple[float, float]],
    *,
    busy_s: float,
    setup_window: Tuple[float, float],
    daemon_stats: Optional[Dict[str, float]] = None,
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Per-layer metrics over the spans inside ``windows``.

    ``busy_s`` is the serving process's CPU time over the windows and
    ``setup_window`` the set-up that built the drift traces;
    ``daemon_stats`` carries the stats-response deltas (served, batched,
    rejected, cache hits/misses) of the daemon workloads.  Returns the
    metrics and the time accounting behind ``trace.coverage``.
    """
    mask = spans.in_windows(windows)
    self_time = spans.self_time

    def calls(name: str) -> np.ndarray:
        return spans.select(name, mask)

    def self_sum(*names: str) -> float:
        return float(sum(self_time[calls(n)].sum() for n in names))

    def per_call(name: str, scale: float) -> float:
        idx = calls(name)
        return float(self_time[idx].mean() * scale) if idx.size else 0.0

    def value_mean(name: str) -> float:
        return _mean([v for v in spans.value_list(calls(name)) if v is not None])

    ticks = calls("runtime.session.tick")
    tick_values = spans.value_list(ticks)
    n_ticks = max(len(tick_values), 1)
    decisions = {d: 0 for d in DECISIONS}
    fallbacks = 0
    for _tenant, decision, fallback in tick_values:
        decisions[decision] += 1
        fallbacks += int(fallback)

    decode_values = spans.value_list(calls("serve.protocol.decode"))
    encode_values = spans.value_list(calls("serve.protocol.encode"))
    wire_bytes = sum(v[0] for v in decode_values) + sum(encode_values)
    waits = queue_waits(spans, mask)
    probes = calls("serve.tenants.planning_problem").size
    repairs = spans.value_list(calls("adaptive.repair"))
    builds = spans.select(
        "sim.replay.trace_build",
        (spans.start >= setup_window[0]) & (spans.end <= setup_window[1]),
    )
    stats = daemon_stats or {}
    served = stats.get("served", 0)
    if daemon_stats is not None:
        hits, lookups = stats["hits"], stats["hits"] + stats["misses"]
    else:
        found = spans.value_list(calls("perf.memo.lookup"))
        hits, lookups = sum(found), len(found)

    metrics = {
        "serve.protocol.decode_us": per_call("serve.protocol.decode", 1e6),
        "serve.protocol.encode_us": per_call("serve.protocol.encode", 1e6),
        "serve.protocol.bytes_per_req": (
            wire_bytes / len(ticks) if decode_values else 0.0
        ),
        "serve.daemon.queue_wait_p50_ms": (
            percentile(waits, 50.0) * 1e3 if waits else 0.0
        ),
        "serve.daemon.queue_wait_p99_ms": (
            percentile(waits, 99.0) * 1e3 if waits else 0.0
        ),
        "serve.daemon.batched_share": (
            stats.get("batched", 0) / served if served else 0.0
        ),
        "serve.daemon.rejected": float(stats.get("rejected", 0)),
        "serve.tenants.probe_us": (
            self_sum(
                "serve.tenants.planning_problem",
                "serve.tenants.planning_digest",
            ) / probes * 1e6
            if probes else 0.0
        ),
        "perf.memo.lookup_us": per_call("perf.memo.lookup", 1e6),
        "perf.memo.put_us": per_call("perf.memo.put", 1e6),
        "perf.memo.hit_ratio": hits / lookups if lookups else 0.0,
        "runtime.policy.drift_us": self_sum(
            "runtime.policy.drift_magnitude",
            "runtime.policy.dirty_fraction",
            "runtime.policy.decide",
        ) / n_ticks * 1e6,
        **{
            f"runtime.session.decisions.{d}": float(decisions[d])
            for d in DECISIONS
        },
        "runtime.session.decisions.fallback": float(fallbacks),
        "adaptive.refine.ms": per_call("adaptive.refine", 1e3),
        "adaptive.refine.evaluations": value_mean("adaptive.refine"),
        "adaptive.repair.ms": per_call("adaptive.repair", 1e3),
        "adaptive.repair.reinserted_events": _mean(
            [v for v in repairs if v is not None]
        ),
        "adaptive.repair.refused": float(sum(v is None for v in repairs)),
        "timing.validate.ms": per_call("timing.validate", 1e3),
        "timing.validate.events": value_mean("timing.validate"),
        "core.plan.ms": per_call("core.plan", 1e3),
        "core.plan.calls": float(calls("core.plan").size),
        "core.plan.events": value_mean("core.plan"),
        "sim.engine.execute_ms": per_call("sim.engine.execute", 1e3),
        "sim.engine.events_per_tick": value_mean("sim.engine.execute"),
        "timing.events.completion_us": per_call(
            "timing.events.completion", 1e6
        ),
        "timing.events.completion_calls_per_tick": (
            calls("timing.events.completion").size / n_ticks
        ),
        "directory.snapshot_us": per_call("directory.snapshot", 1e6),
        "sim.replay.trace_build_s": float(
            (spans.end[builds] - spans.start[builds]).sum()
        ),
        "runtime.metrics.emit_us": per_call("runtime.metrics.emit", 1e6),
        "runtime.session.tick_self_ms": per_call("runtime.session.tick", 1e3),
    }
    roots = mask & (spans.parent < 0)
    covered = float((spans.end[roots] - spans.start[roots]).sum())
    metrics["trace.coverage"] = covered / busy_s if busy_s > 0 else 0.0
    by_layer = {
        name: self_sum(name) for name in spans.names if calls(name).size
    }
    detail = {
        "busy_s": busy_s,
        "uncovered_s": busy_s - covered,
        "self_s": dict(sorted(by_layer.items(), key=lambda kv: -kv[1])),
    }
    return metrics, detail

