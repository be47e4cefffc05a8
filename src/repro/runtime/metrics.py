"""Lightweight observability for the adaptive runtime.

The serving loop (:class:`repro.runtime.session.AdaptiveSession`) emits
one structured :class:`TickEvent` per total exchange plus named counters
and histograms into a :class:`RuntimeMetrics` registry.  Everything is
plain data: exportable as JSON (machine-readable summaries for CI and
experiments) and as Chrome trace-event spans (one track per decision
kind) through the same Trace Event Format conventions as
:mod:`repro.io.trace`, so a session's policy behaviour can be inspected
in ``chrome://tracing`` / Perfetto next to the schedules it produced.
"""

from __future__ import annotations

import json
import pathlib
from collections import deque
from dataclasses import asdict, dataclass
from typing import Any, Deque, Dict, List, Mapping, Optional, Union

from repro.ops.sink import Counter, MetricsSink
from repro.util.stats import percentile

#: Trace timestamps are microseconds (matches :mod:`repro.io.trace`).
_US = 1e6

#: Recent samples a histogram keeps by default, and recent tick events
#: a :class:`RuntimeMetrics` registry keeps.
RECENT_WINDOW = 256


class Histogram:
    """Streaming summary of a numeric series.

    Keeps O(1) state (count / sum / min / max) plus a small reservoir of
    the most recent samples for percentile estimates — a serving loop
    runs for unboundedly many ticks, so the full series is not retained.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_recent", "_keep")

    def __init__(self, name: str, keep: int = RECENT_WINDOW):
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._recent: List[float] = []
        self._keep = keep

    def record(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self._recent.append(value)
        if len(self._recent) > self._keep:
            del self._recent[: len(self._recent) - self._keep]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate percentile over the retained recent samples."""
        if not (0.0 <= q <= 100.0):
            raise ValueError(f"q must be in [0, 100], got {q}")
        return percentile(self._recent, q)

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
        }


@dataclass(frozen=True)
class TickEvent:
    """One serving tick's structured record.

    Attributes
    ----------
    tick:
        0-based tick index.
    time:
        Directory clock at the tick, in simulated seconds.
    decision:
        ``"reuse"``, ``"refine"``, ``"repair"`` (delta-repair of the
        active plan) or ``"reschedule"``.
    reason:
        Why the policy picked the decision (threshold comparison,
        staleness cap, budget, forced fallback...).
    drift:
        Mean relative cost change against the active plan's basis.
    predicted_makespan:
        The served schedule's completion time under the tick's planning
        costs (the directory snapshot the tick decided on): the better
        of the plan's strict re-timing and its FIFO execution.
    executed_makespan:
        The served schedule's completion time re-executed under the
        tick's actual costs.
    regret:
        ``executed - predicted`` seconds (positive: reality was worse
        than the plan promised).
    scheduler_elapsed:
        Wall-clock seconds spent inside scheduler/refinement calls this
        tick (0 for pure reuse).
    refine_evaluations:
        Candidate evaluations spent by incremental refinement (0 unless
        the decision was ``refine``).
    cache_hit:
        Whether a full reschedule was answered from the digest-keyed
        schedule cache.
    fallback:
        Whether the baseline fallback replaced the scheduler's answer
        (timeout or exception).
    degraded:
        Whether any active fault constrained this tick (dead/blacked-out
        links or dropped nodes among the demanded pairs).
    faults_seen:
        Faults newly observed this tick (each injected fault counts
        once, on the tick the session first sees it).
    repair:
        Recovery action taken after a mid-schedule fault: ``""`` (none),
        ``"retry"`` (transient outwaited by backoff), ``"repair"``
        (salvage + residual reschedule) or ``"full"`` (reschedule over
        survivors from scratch).
    retries / backoff_wait_s:
        Backoff attempts against a transient fault this tick and the
        simulated seconds they waited (paid even when the link is then
        declared dead).
    salvaged_events / resent_events:
        Completed events kept and messages re-sent by a repair episode.
    repair_latency_s:
        Wall-clock seconds spent computing the repair schedule.
    undeliverable:
        Demanded messages no surviving route can carry (partitioned
        pair or dead endpoint) at this tick.
    dirty_fraction:
        Fraction of relevant cost pairs repriced against the plan's
        basis (the localisation signal the repair tier gates on).
    repaired_events:
        Events re-inserted by a delta repair this tick (0 unless the
        decision was ``repair``).
    """

    tick: int
    time: float
    decision: str
    reason: str
    drift: float
    predicted_makespan: float
    executed_makespan: float
    regret: float
    scheduler_elapsed: float = 0.0
    refine_evaluations: int = 0
    cache_hit: bool = False
    fallback: bool = False
    degraded: bool = False
    faults_seen: int = 0
    repair: str = ""
    retries: int = 0
    backoff_wait_s: float = 0.0
    salvaged_events: int = 0
    resent_events: int = 0
    repair_latency_s: float = 0.0
    undeliverable: int = 0
    dirty_fraction: float = 0.0
    repaired_events: int = 0


#: Decision names in stable display order.
DECISIONS = ("reuse", "refine", "repair", "reschedule")

#: Valid ``TickEvent.repair`` values ("" = no recovery this tick).
REPAIR_ACTIONS = ("", "retry", "repair", "full")


class RuntimeMetrics(MetricsSink):
    """In-memory :class:`repro.ops.sink.MetricsSink`: counters,
    reservoir histograms, and the most recent :data:`RECENT_WINDOW`
    tick events (counters, histograms and :meth:`summary` count every
    tick; a serving loop runs unboundedly many).

    ``emit`` accepts the session's :class:`TickEvent` (or a mapping with
    the same fields) and folds it into the aggregates; ``observe``
    records into a named histogram.  This is the default sink an
    :class:`repro.runtime.session.AdaptiveSession` publishes into — wire
    additional consumers (the ops store, SLO monitors) next to it with a
    :class:`repro.ops.sink.MultiSink`.
    """

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self.events: Deque[TickEvent] = deque(maxlen=RECENT_WINDOW)

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(self, name: str, keep: Optional[int] = None) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(
                name, keep=keep if keep is not None else RECENT_WINDOW
            )
        return histogram

    # -- MetricsSink --------------------------------------------------------

    def emit(self, event: Union[TickEvent, Mapping[str, Any]]) -> None:
        """Publish one tick event (the sink-protocol spelling of
        :meth:`record_tick`)."""
        if isinstance(event, Mapping):
            event = TickEvent(**event)
        self.record_tick(event)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).record(value)

    def record_tick(self, event: TickEvent) -> None:
        """Fold one tick into the counters/histograms and keep the event
        (the oldest kept event drops once the window is full)."""
        if event.decision not in DECISIONS:
            raise ValueError(
                f"unknown decision {event.decision!r}; "
                f"expected one of {DECISIONS}"
            )
        self.events.append(event)
        self.counter("ticks").inc()
        self.counter(f"decision.{event.decision}").inc()
        if event.cache_hit:
            self.counter("cache.hits").inc()
        elif event.decision == "reschedule":
            self.counter("cache.misses").inc()
        if event.fallback:
            self.counter("fallback.activations").inc()
        if event.refine_evaluations:
            self.counter("refine.evaluations").inc(event.refine_evaluations)
        if event.decision == "repair":
            self.counter("delta_repair.events").inc(event.repaired_events)
            self.histogram("delta_repair_dirty_fraction").record(
                event.dirty_fraction
            )
            self.histogram("delta_repair_latency_s").record(
                event.scheduler_elapsed
            )
        self.histogram("regret_s").record(event.regret)
        self.histogram("executed_makespan_s").record(event.executed_makespan)
        self.histogram("scheduler_elapsed_s").record(event.scheduler_elapsed)
        self.histogram("drift").record(event.drift)
        self._record_fault_facets(event)

    def _record_fault_facets(self, event: TickEvent) -> None:
        if event.repair not in REPAIR_ACTIONS:
            raise ValueError(
                f"unknown repair action {event.repair!r}; "
                f"expected one of {REPAIR_ACTIONS}"
            )
        if event.degraded:
            self.counter("ticks.degraded").inc()
        if event.faults_seen:
            self.counter("faults.seen").inc(event.faults_seen)
        if event.retries:
            self.counter("retry.attempts").inc(event.retries)
            self.histogram("backoff_wait_s").record(event.backoff_wait_s)
        if event.repair == "retry":
            self.counter("retry.successes").inc()
        elif event.repair in ("repair", "full"):
            self.counter("repair.episodes").inc()
            self.counter(f"repair.{event.repair}").inc()
            self.counter("repair.salvaged_events").inc(event.salvaged_events)
            self.counter("repair.resent_events").inc(event.resent_events)
            self.histogram("salvaged_events").record(event.salvaged_events)
            self.histogram("resent_events").record(event.resent_events)
            self.histogram("repair_latency_s").record(event.repair_latency_s)
            if event.undeliverable:
                self.counter("messages.undeliverable").inc(
                    event.undeliverable
                )

    # -- derived rates ------------------------------------------------------

    def _count(self, name: str) -> int:
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0

    @property
    def ticks(self) -> int:
        return self._count("ticks")

    @property
    def reschedule_rate(self) -> float:
        """Fraction of ticks that fully rescheduled."""
        ticks = self.ticks
        return self._count("decision.reschedule") / ticks if ticks else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Cache hits over reschedule decisions."""
        lookups = self._count("cache.hits") + self._count("cache.misses")
        return self._count("cache.hits") / lookups if lookups else 0.0

    @property
    def degraded_tick_ratio(self) -> float:
        """Fraction of ticks served under an active fault."""
        ticks = self.ticks
        return self._count("ticks.degraded") / ticks if ticks else 0.0

    # -- export -------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """The headline serving numbers as one flat dict."""
        ticks = self.ticks
        return {
            "ticks": ticks,
            "decisions": {
                name: self._count(f"decision.{name}") for name in DECISIONS
            },
            "reschedule_rate": self.reschedule_rate,
            "cache_hit_rate": self.cache_hit_rate,
            "fallback_activations": self._count("fallback.activations"),
            "refine_evaluations": self._count("refine.evaluations"),
            "mean_regret_s": self.histogram("regret_s").mean,
            "mean_executed_makespan_s": (
                self.histogram("executed_makespan_s").mean
            ),
            "degraded_tick_ratio": self.degraded_tick_ratio,
            "faults_seen": self._count("faults.seen"),
            "retry_successes": self._count("retry.successes"),
            "repair_episodes": self._count("repair.episodes"),
            "messages_salvaged": self._count("repair.salvaged_events"),
            "messages_resent": self._count("repair.resent_events"),
        }

    def to_json(self) -> Dict[str, Any]:
        """Full JSON-serialisable dump: summary, counters, histograms,
        and the recent per-tick structured events."""
        return {
            "summary": self.summary(),
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "histograms": {
                name: histogram.summary()
                for name, histogram in sorted(self._histograms.items())
            },
            "events": [asdict(event) for event in self.events],
        }

    def to_chrome_trace(self) -> Dict[str, Any]:
        """Per-tick spans in the Trace Event Format.

        One track per decision kind; each tick is a complete ("X") span
        from its directory time over the executed makespan, annotated
        with the tick's structured record — loadable in
        ``chrome://tracing`` / Perfetto alongside
        :func:`repro.io.trace.schedule_to_trace` output.
        """
        trace_events: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": "adaptive-session"},
            }
        ]
        # The repair decision track (like the fault-repair track below)
        # exists only when the session actually repaired something, so
        # repair-free traces look exactly as they always did.
        repaired = any(event.decision == "repair" for event in self.events)
        for tid, decision in enumerate(DECISIONS):
            if decision == "repair" and not repaired:
                continue
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": decision},
                }
            )
        repair_tid = len(DECISIONS)
        if any(event.repair for event in self.events):
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": repair_tid,
                    "args": {"name": "fault-repair"},
                }
            )
        for event in self.events:
            trace_events.append(
                {
                    "name": f"tick {event.tick}: {event.decision}",
                    "cat": "tick",
                    "ph": "X",
                    "pid": 1,
                    "tid": DECISIONS.index(event.decision),
                    "ts": event.time * _US,
                    "dur": max(event.executed_makespan, 1e-9) * _US,
                    "args": asdict(event),
                }
            )
            if event.repair:
                trace_events.append(
                    {
                        "name": (
                            f"tick {event.tick}: {event.repair} "
                            f"(salvaged {event.salvaged_events}, "
                            f"resent {event.resent_events})"
                        ),
                        "cat": "repair",
                        "ph": "X",
                        "pid": 1,
                        "tid": repair_tid,
                        "ts": event.time * _US,
                        "dur": max(event.executed_makespan, 1e-9) * _US,
                        "args": asdict(event),
                    }
                )
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def save_json(self, path: Union[str, pathlib.Path]) -> None:
        pathlib.Path(path).write_text(json.dumps(self.to_json(), indent=2))

    def save_chrome_trace(self, path: Union[str, pathlib.Path]) -> None:
        pathlib.Path(path).write_text(json.dumps(self.to_chrome_trace()))
