"""Declarative SLOs over the metrics stream, with alert notifiers.

An SLO is named with the same ``name[:key=value,...]`` grammar every
other registry uses (:mod:`repro.util.spec`)::

    fallback_rate:threshold=0.2,window=8
    p99_decision_latency:threshold=0.05,window=30,min_samples=20

The name picks an evaluator from :data:`SLO_KINDS` — it decides which
records contribute a sample and how samples aggregate (mean rate or a
percentile).  Each :class:`SloTracker` keeps a sliding window of
``(time, sample)`` pairs; once the window holds ``min_samples`` the
aggregate is compared against the threshold and the tracker walks a
two-state machine (``ok`` ↔ ``firing``), emitting an :class:`Alert` on
every transition.  :class:`SloMonitor` is the plural form — it is itself
a :class:`repro.ops.sink.MetricsSink`, so sessions and the daemon can
publish straight into SLO evaluation via a
:class:`repro.ops.sink.MultiSink`.

Window time comes from the record (``time``, falling back to ``ts``),
not the wall clock, so replayed or simulated streams evaluate
deterministically.
"""

from __future__ import annotations

import json
import logging
import pathlib
from collections import deque
from dataclasses import asdict, dataclass
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    TextIO,
    Tuple,
    Union,
)

from repro.ops.sink import MetricsSink, event_record
from repro.util.spec import format_spec, parse_spec
from repro.util.stats import percentile

logger = logging.getLogger("repro.ops.slo")


def _mean(samples: Sequence[float]) -> float:
    return sum(samples) / len(samples)


def _latency_sample(record: Mapping[str, Any]) -> Optional[float]:
    for key in ("decision_latency_s", "scheduler_elapsed"):
        if key in record:
            return float(record[key])
    return None


def _fallback_sample(record: Mapping[str, Any]) -> Optional[float]:
    if "fallback" in record:
        return 1.0 if record["fallback"] else 0.0
    return None


def _repair_sample(record: Mapping[str, Any]) -> Optional[float]:
    if "decision" not in record and "repair" not in record:
        return None
    repaired = record.get("decision") == "repair" or bool(
        record.get("repair")
    )
    return 1.0 if repaired else 0.0


def _saturation_sample(record: Mapping[str, Any]) -> Optional[float]:
    kind = record.get("kind", "")
    if kind == "daemon.reject":
        return 1.0 if record.get("code") == "saturated" else 0.0
    if kind == "daemon.response":
        return 0.0
    return None


@dataclass(frozen=True)
class SloKind:
    """How one SLO family turns records into a windowed value."""

    name: str
    select: Callable[[Mapping[str, Any]], Optional[float]]
    aggregate: Callable[[Sequence[float]], float]
    description: str


#: The SLO families the grammar accepts.
SLO_KINDS: Dict[str, SloKind] = {
    kind.name: kind
    for kind in (
        SloKind(
            "p99_decision_latency",
            _latency_sample,
            lambda samples: percentile(samples, 99),
            "p99 of per-decision wall-clock latency (s)",
        ),
        SloKind(
            "fallback_rate",
            _fallback_sample,
            _mean,
            "fraction of decisions answered by the baseline fallback",
        ),
        SloKind(
            "repair_rate",
            _repair_sample,
            _mean,
            "fraction of ticks that took a repair action",
        ),
        SloKind(
            "queue_saturation_rate",
            _saturation_sample,
            _mean,
            "fraction of admissions rejected as saturated",
        ),
    )
}


@dataclass(frozen=True)
class SloSpec:
    """One declarative SLO: fire when ``aggregate(window) > threshold``."""

    name: str
    threshold: float
    window_s: float = 30.0
    min_samples: int = 5

    def __post_init__(self) -> None:
        if self.name not in SLO_KINDS:
            raise KeyError(
                f"unknown SLO {self.name!r}; known: "
                f"{', '.join(sorted(SLO_KINDS))}"
            )
        if self.window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {self.window_s}")
        if self.min_samples < 1:
            raise ValueError(
                f"min_samples must be >= 1, got {self.min_samples}"
            )

    @property
    def kind(self) -> SloKind:
        return SLO_KINDS[self.name]


def parse_slo_spec(spec: Union[str, SloSpec]) -> SloSpec:
    """``"fallback_rate:threshold=0.2,window=8" -> SloSpec(...)``."""
    if isinstance(spec, SloSpec):
        return spec
    name, options = parse_spec(
        spec, known=sorted(SLO_KINDS), kind="SLO", name_kind="SLO"
    )
    if "threshold" not in options:
        raise ValueError(f"SLO spec {spec!r} must set threshold=<value>")
    kwargs: Dict[str, Any] = {
        "name": name,
        "threshold": float(options.pop("threshold")),
    }
    if "window" in options:
        kwargs["window_s"] = float(options.pop("window"))
    if "min_samples" in options:
        kwargs["min_samples"] = int(options.pop("min_samples"))
    if options:
        raise ValueError(
            f"unknown SLO option(s) {sorted(options)} in spec {spec!r}; "
            f"expected threshold/window/min_samples"
        )
    return SloSpec(**kwargs)


def format_slo_spec(spec: SloSpec) -> str:
    """Canonical spec string; round-trips through :func:`parse_slo_spec`."""
    return format_spec(
        spec.name,
        {
            "threshold": spec.threshold,
            "window": spec.window_s,
            "min_samples": spec.min_samples,
        },
    )


#: Serving-oriented defaults, tuned for the adaptive session's tick stream.
DEFAULT_SLOS: Tuple[SloSpec, ...] = (
    SloSpec("p99_decision_latency", threshold=0.25, window_s=30.0),
    SloSpec("fallback_rate", threshold=0.2, window_s=8.0),
    SloSpec("repair_rate", threshold=0.5, window_s=8.0),
    SloSpec("queue_saturation_rate", threshold=0.5, window_s=8.0),
)


@dataclass(frozen=True)
class Alert:
    """One firing/resolved transition of one SLO."""

    slo: str
    state: str  # "firing" | "resolved"
    time: float
    value: float
    threshold: float
    window_s: float
    samples: int

    def to_json(self) -> Dict[str, Any]:
        return asdict(self)

    def render(self) -> str:
        arrow = ">" if self.state == "firing" else "<="
        return (
            f"[{self.state.upper()}] {self.slo} value={self.value:.4g} "
            f"{arrow} threshold={self.threshold:.4g} "
            f"(window={self.window_s:g}s, samples={self.samples}, "
            f"t={self.time:.3f})"
        )


class Notifier:
    """Where alert transitions go; subclasses deliver them somewhere."""

    def notify(self, alert: Alert) -> None:
        raise NotImplementedError


class LogNotifier(Notifier):
    """Log alerts (warning on firing, info on resolved).

    With ``stream`` set the rendered line goes there instead of through
    :mod:`logging` — the CLI passes stdout so both transitions show
    without double-printing through the last-resort stderr handler.
    """

    def __init__(self, stream: Optional[TextIO] = None):
        self.stream = stream

    def notify(self, alert: Alert) -> None:
        line = alert.render()
        if self.stream is not None:
            print(line, file=self.stream)
        elif alert.state == "firing":
            logger.warning("%s", line)
        else:
            logger.info("%s", line)


class FileNotifier(Notifier):
    """Append one JSON line per alert transition."""

    def __init__(self, path: Union[str, pathlib.Path]):
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def notify(self, alert: Alert) -> None:
        with open(self.path, "a", encoding="utf-8") as stream:
            stream.write(
                json.dumps(alert.to_json(), sort_keys=True) + "\n"
            )


class WebhookNotifier(Notifier):
    """Webhook delivery stub.

    Builds the JSON payload a real endpoint would receive and hands it to
    ``transport(url, payload)``.  The default transport only spools
    deliveries into :attr:`sent` — this repo makes no network calls — so
    tests and the soak harness can assert on what *would* have been
    POSTed; production wires a real HTTP transport in.
    """

    def __init__(
        self,
        url: str = "",
        transport: Optional[Callable[[str, Dict[str, Any]], None]] = None,
    ):
        self.url = url
        self.sent: List[Dict[str, Any]] = []
        self._transport = transport

    def notify(self, alert: Alert) -> None:
        payload = {"url": self.url, "alert": alert.to_json()}
        if self._transport is not None:
            self._transport(self.url, payload)
        else:
            self.sent.append(payload)


def make_notifier(spec: str, *, stream: Optional[TextIO] = None) -> Notifier:
    """Notifier factory on the spec grammar: ``log``, ``file:path=...``,
    ``webhook`` (stub; real URLs are wired programmatically because the
    grammar reserves ``:``)."""
    name, options = parse_spec(
        spec, known=("log", "file", "webhook"), kind="notifier"
    )
    if name == "log":
        return LogNotifier(stream=stream)
    if name == "file":
        path = options.get("path", "alerts.jsonl")
        return FileNotifier(path)
    return WebhookNotifier(url=str(options.get("url", "")))


class SloTracker:
    """One SLO's sliding window and ok/firing state machine."""

    def __init__(self, spec: Union[str, SloSpec]):
        self.spec = parse_slo_spec(spec)
        self.window: Deque[Tuple[float, float]] = deque()
        self.firing = False
        self.last_value: Optional[float] = None
        self.last_time: Optional[float] = None
        self.transitions: List[Alert] = []

    @property
    def label(self) -> str:
        return format_slo_spec(self.spec)

    def observe(self, record: Mapping[str, Any]) -> Optional[Alert]:
        """Fold one record in; return the transition it caused, if any.

        Every record with a time advances the window (so a firing SLO can
        resolve as samples age out) even when it contributes no sample.
        """
        when = record.get("time", record.get("ts"))
        if when is None:
            return None
        when = float(when)
        sample = self.spec.kind.select(record)
        if sample is not None:
            self.window.append((when, sample))
        return self._evaluate(when)

    def _evaluate(self, now: float) -> Optional[Alert]:
        horizon = now - self.spec.window_s
        while self.window and self.window[0][0] <= horizon:
            self.window.popleft()
        if len(self.window) < self.spec.min_samples:
            return None
        samples = [sample for _, sample in self.window]
        value = self.spec.kind.aggregate(samples)
        self.last_value = value
        self.last_time = now
        transition: Optional[str] = None
        if not self.firing and value > self.spec.threshold:
            self.firing, transition = True, "firing"
        elif self.firing and value <= self.spec.threshold:
            self.firing, transition = False, "resolved"
        if transition is None:
            return None
        alert = Alert(
            slo=self.label,
            state=transition,
            time=now,
            value=value,
            threshold=self.spec.threshold,
            window_s=self.spec.window_s,
            samples=len(samples),
        )
        self.transitions.append(alert)
        return alert

    def status(self) -> Dict[str, Any]:
        return {
            "slo": self.label,
            "description": self.spec.kind.description,
            "state": "firing" if self.firing else "ok",
            "value": self.last_value,
            "samples": len(self.window),
            "fired": sum(
                1 for a in self.transitions if a.state == "firing"
            ),
            "resolved": sum(
                1 for a in self.transitions if a.state == "resolved"
            ),
        }


class SloMonitor(MetricsSink):
    """Evaluate many SLOs over one publish stream; dispatch transitions.

    A :class:`repro.ops.sink.MetricsSink`: wire it into a ``MultiSink``
    next to the store sink and every published event is both persisted
    and SLO-checked.
    """

    def __init__(
        self,
        slos: Sequence[Union[str, SloSpec]] = DEFAULT_SLOS,
        notifiers: Sequence[Notifier] = (),
    ):
        self.trackers = [SloTracker(spec) for spec in slos]
        self.notifiers = list(notifiers)
        self.alerts: List[Alert] = []

    def emit(self, event: Any) -> None:
        self.ingest(event_record(event))

    def ingest(self, record: Mapping[str, Any]) -> List[Alert]:
        """Fold one record into every tracker; dispatch fresh transitions.

        (Named apart from :meth:`MetricsSink.observe`, which keeps its
        ``(name, value)`` scalar-series signature — this consumes whole
        records.)
        """
        fresh: List[Alert] = []
        for tracker in self.trackers:
            alert = tracker.observe(record)
            if alert is not None:
                fresh.append(alert)
        for alert in fresh:
            self.alerts.append(alert)
            for notifier in self.notifiers:
                notifier.notify(alert)
        return fresh

    @property
    def fired(self) -> int:
        return sum(1 for a in self.alerts if a.state == "firing")

    @property
    def resolved(self) -> int:
        return sum(1 for a in self.alerts if a.state == "resolved")

    def report(self) -> Dict[str, Any]:
        """The SLO report: per-SLO status plus the full transition log."""
        return {
            "slos": [tracker.status() for tracker in self.trackers],
            "alerts_fired": self.fired,
            "alerts_resolved": self.resolved,
            "alerts": [alert.to_json() for alert in self.alerts],
        }
