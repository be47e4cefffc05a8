"""Bench regression guard: fresh measurements vs. the committed record.

``BENCH_core.json`` is committed so the repo carries its own
performance claims — schedule quality (``ratio_to_lb``,
``makespan_ratio_max``) and wall-clock latency per tier.  Each tier in
:data:`repro.perf.bench.TIERS` declares the metrics it is held to; this
module is the one comparator that applies them, so "did it regress?" is
an explicit, table-driven comparison instead of ad-hoc asserts.

Each metric kind gets its own tolerance:

* **quality** — deterministic given the seed, so it is compared
  tightly (:data:`QUALITY_RTOL`).  A quality regression means an
  algorithm change, never machine noise.
* **seconds** — CI machines are slower and noisier than the machine
  that wrote the committed record, so wall clock is compared loosely
  (:data:`SECONDS_FACTOR`).
* **ratio** — a ratio of two latencies on the *same* machine (the drift
  bench's repair-vs-full speedup), where machine speed mostly cancels,
  gets the intermediate :data:`RATIO_FACTOR`.
* **guarantee** — an absolute bound on the fresh run alone (zero oracle
  violations, ratio-to-LB caps, every kernel family present), whatever
  the record says.

:func:`repro.perf.bench.run_tier` loads the record before it overwrites
a section and calls :func:`tier_regressions`; :func:`bench_regressions`
compares two whole ``extra`` payloads section by section.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.perf.bench import GUARANTEE, QUALITY, RATIO, TIERS, Metric, tier_of

__all__ = [
    "MISSING",
    "QUALITY_RTOL",
    "RATIO_FACTOR",
    "SECONDS_FACTOR",
    "bench_regressions",
    "load_bench",
    "resolve_path",
    "tier_regressions",
]

#: Relative slack on quality metrics.
QUALITY_RTOL = 0.05
#: Slack factor on same-machine latency ratios.
RATIO_FACTOR = 3.0
#: Slack factor on wall-clock seconds.
SECONDS_FACTOR = 10.0

#: Stands in for a value a metric path does not reach.
MISSING = object()


def load_bench(path) -> Dict[str, Any]:
    """Load a bench JSON record (the committed baseline, typically)."""
    with open(path) as handle:
        return json.load(handle)


def resolve_path(payload: Any, path: str) -> List[Tuple[str, Any]]:
    """Every ``(concrete path, value)`` a metric path reaches in ``payload``.

    A ``*`` segment expands over the dict-valued children other than
    ``meta``; a segment that is not there yields :data:`MISSING`.
    """
    nodes: List[Tuple[str, Any]] = [("", payload)]
    for key in path.split("."):
        expanded: List[Tuple[str, Any]] = []
        for prefix, node in nodes:
            if key == "*" and isinstance(node, dict):
                children = [
                    (child, value) for child, value in node.items()
                    if child != "meta" and isinstance(value, dict)
                ]
            elif isinstance(node, dict) and key in node:
                children = [(key, node[key])]
            else:
                children = [(key, MISSING)]
            expanded += [
                (f"{prefix}.{child}" if prefix else child, value)
                for child, value in children
            ]
        nodes = expanded
    return nodes


def _value(payload: Any, path: str) -> Any:
    (_, value), = resolve_path(payload, path)
    return value


def _guarantee_problem(section: str, path: str, value: Any, metric: Metric):
    if value is MISSING:
        return f"{section}: {path} is missing"
    if metric.bound is None:
        return None
    if metric.higher:
        held, rule = value >= metric.bound, f">= {metric.bound!r}"
    else:
        held, rule = value <= metric.bound, f"<= {metric.bound!r}"
    if held:
        return None
    return f"{section}: {path} = {value!r} breaks its guarantee ({rule})"


def _relative_problem(section: str, path: str, old, new, metric: Metric):
    if new is MISSING:
        return f"{section}: {path} disappeared"
    if metric.kind == QUALITY:
        scale = 1.0 - QUALITY_RTOL if metric.higher else 1.0 + QUALITY_RTOL
        limit, allowed = old * scale, f"rtol {QUALITY_RTOL:.0%}"
    else:
        factor = RATIO_FACTOR if metric.kind == RATIO else SECONDS_FACTOR
        limit = old / factor if metric.higher else old * factor
        allowed = f"{factor:g}x"
    if (new < limit) if metric.higher else (new > limit):
        return (
            f"{section}: {path} regressed {old:.4g} -> {new:.4g} "
            f"(allowed {allowed})"
        )
    return None


def tier_regressions(
    section: str,
    committed: Optional[Dict[str, Any]],
    fresh: Dict[str, Any],
    metrics: Sequence[Metric],
) -> List[str]:
    """Violations of ``metrics`` by one fresh section — empty is a pass.

    Guarantees are checked on ``fresh`` alone.  Every other metric is
    held against each value the ``committed`` section records for it
    (no committed section, nothing to compare); a recorded value the
    fresh run no longer produces is reported as disappeared.
    """
    problems: List[str] = []
    for metric in metrics:
        if metric.kind == GUARANTEE:
            found = [
                _guarantee_problem(section, path, value, metric)
                for path, value in resolve_path(fresh, metric.path)
            ]
        elif committed:
            found = [
                _relative_problem(
                    section, path, old, _value(fresh, path), metric
                )
                for path, old in resolve_path(committed, metric.path)
                if old is not MISSING
            ]
        else:
            found = []
        problems += [problem for problem in found if problem]
    return problems


def bench_regressions(
    committed_extra: Optional[Dict[str, Any]],
    fresh_extra: Optional[Dict[str, Any]],
) -> List[str]:
    """Violations across every ``extra`` section present in *both* records.

    Sections only one side has are skipped: the committed record holds
    more tiers than any single run re-measures, and a brand-new section
    has no baseline yet.  Each section is judged by the metrics of the
    tier that owns it (:func:`repro.perf.bench.tier_of`).
    """
    problems: List[str] = []
    if not committed_extra or not fresh_extra:
        return problems
    for section in sorted(set(committed_extra) & set(fresh_extra)):
        name = tier_of(section)
        if name is None:
            continue
        problems += tier_regressions(
            section, committed_extra[section], fresh_extra[section],
            TIERS[name].metrics,
        )
    return problems
