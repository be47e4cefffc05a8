#!/usr/bin/env python3
"""Serving benchmark: one workload per run, end-to-end or traced.

    python3 servebench/run.py --workload fleet|storm|mixed --seed N \\
        --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` serves the same sequence twice, untraced and then with
every layer's entry points wrapped in spans, and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Run it
from the repository root; it needs ``src/repro`` beside this directory.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import signal
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUPS = 3

E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_rps": "req/s",
    "cpu_ms_per_req": "ms",
    "makespan_vs_lb": "ratio",
    "served_share": "ratio",
}


class Outcome:
    """One pass of a workload: metrics, checks and what to print."""

    def __init__(self, attempted: int):
        self.attempted = attempted
        self.failed_keys: set = set()
        self.problems: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.decisions: Dict[str, int] = {}
        #: (decision, executed makespan) per served tick
        self.answers: Dict = {}
        self.tail_pct = 0.0
        self.samples = 0
        self.steal_ticks = 0

    @property
    def failed(self) -> int:
        return min(len(self.failed_keys), self.attempted)

    def fail(self, key, problem: str) -> None:
        self.failed_keys.add(key)
        self.problems.append(problem)


def _latency_metrics(out: Outcome, latencies: List[float]) -> None:
    from servebench.stats import percentile, tail_percentile

    out.samples = len(latencies)
    out.tail_pct = tail_percentile(out.samples)
    out.metrics["latency_p50_ms"] = percentile(latencies, 50.0) * 1e3
    out.metrics["latency_tail_ms"] = percentile(latencies, out.tail_pct) * 1e3


# -- daemon workloads -------------------------------------------------------


def _verify_daemon(plan, session, served, control: bool) -> Outcome:
    """Output checks of one daemon pass, and its end-to-end metrics.

    ``control`` replays one tenant per cohort, and the heavy tenant, in
    an in-process session and compares every answer bit for bit."""
    from servebench.checks import compare_control, lower_bounds

    out = Outcome(plan.requests)
    for error in served.errors:
        out.fail(("error", error), f"error response: {error}")
    counts = served.counts
    if not (counts["accepted"] == counts["served"] == plan.requests):
        out.fail("accounting", f"accepted/served/requests: {counts}")
    if counts["errors"] or counts["rejected"]:
        out.fail("accounting", f"daemon errors or rejections: {counts}")
    ticks = plan.rounds + 1
    answers = {**session.cold, **served.answers}
    reps = [members[0] for members in plan.cohorts]
    if plan.heavy is not None:
        reps.append(plan.heavy)
    ratios: List[float] = []
    for rep in reps:
        members = (
            [plan.heavy] if rep is plan.heavy else plan.cohorts[rep.cohort]
        )
        series = {k: answers.get((rep.name, k)) for k in range(ticks)}
        for member in members:
            for k in range(ticks):
                got = answers.get((member.name, k))
                if got is None:
                    out.fail((member.name, k), f"{member.name} tick {k}: no reply")
                elif got != series[k]:
                    out.fail(
                        (member.name, k),
                        f"{member.name} tick {k}: {got} differs from its "
                        f"cohort's {rep.name}: {series[k]}",
                    )
        if control:
            for k, problem in compare_control(rep, series, ticks):
                out.fail((rep.name, k), problem)
        bounds = lower_bounds(rep, ticks)
        for member in members:
            for k in range(1, ticks):
                got = answers.get((member.name, k))
                if got is not None:
                    ratios.append(got[1] / bounds[k])
                    out.decisions[got[0]] = out.decisions.get(got[0], 0) + 1
    out.answers = served.answers
    elapsed = served.window[1] - served.window[0]
    done = len(served.answers)
    _latency_metrics(out, served.latencies_s)
    out.metrics["throughput_rps"] = done / elapsed
    out.metrics["cpu_ms_per_req"] = served.cpu_s * 1e3 / max(done, 1)
    out.metrics["makespan_vs_lb"] = statistics.fmean(ratios) if ratios else 0.0
    out.steal_ticks = served.steal_ticks
    return out


def run_daemon(plan, run_dir: Path, trace: bool) -> Tuple[Outcome, dict]:
    from servebench import daemon_load

    def one_pass(trace_out=None, setups=1, control=True):
        setup_times = []
        for index in range(setups):
            session = daemon_load.set_up(plan, run_dir, trace_out)
            setup_times.append(session.setup_s)
            if index < setups - 1:
                session.close()
        try:
            served = daemon_load.serve(plan, session)
        finally:
            session.close()
        out = _verify_daemon(plan, session, served, control)
        out.metrics["setup_s"] = statistics.median(setup_times)
        return out, session, served

    if not trace:
        out, _, _ = one_pass(setups=SETUPS)
        return out, {}
    from servebench.layers import summarize
    from servebench.tracer import Spans

    plain, _, _ = one_pass(control=False)
    trace_out = run_dir / "spans.json"
    traced, session, served = one_pass(trace_out)
    layer_metrics, detail = summarize(
        Spans.load(str(trace_out)),
        [served.window],
        busy_s=served.cpu_s,
        setup_window=session.window,
        daemon_stats=served.counts,
    )
    detail["uncovered"] = (
        "daemon event loop: select, recv/send, line framing, batch "
        "grouping, response construction"
    )
    _merge_traced(traced, plain, layer_metrics)
    return traced, {"layers": layer_metrics, "detail": detail}


# -- storm ------------------------------------------------------------------


def _storm_pass(plan, setups: int, check: bool = True):
    """One storm pass: ``(outcome, last set-up, timed results)``."""
    from servebench import storm

    setup_times = []
    setup = None
    for _ in range(setups):
        del setup  # release the previous trace before building another
        setup = storm.set_up(plan)
        setup_times.append(setup.setup_s)
    served = storm.serve(plan, setup, check)
    out = Outcome(plan.ticks)
    out.answers = dict(enumerate(served.answers, start=1))
    for tick, problem in served.problems:
        out.fail(tick, problem)
    _latency_metrics(out, served.latencies_s)
    out.metrics["setup_s"] = statistics.median(setup_times)
    out.metrics["throughput_rps"] = plan.ticks / sum(served.latencies_s)
    out.metrics["cpu_ms_per_req"] = served.cpu_s * 1e3 / plan.ticks
    out.metrics["makespan_vs_lb"] = statistics.fmean(served.ratios)
    out.decisions = served.decisions
    out.steal_ticks = served.steal_ticks
    return out, setup, served


def run_storm(plan, trace: bool) -> Tuple[Outcome, dict]:
    if not trace:
        out, _, _ = _storm_pass(plan, SETUPS)
        return out, {}
    from servebench.layers import install, summarize
    from servebench.tracer import Spans, Tracer

    plain, _, _ = _storm_pass(plan, 1, check=False)
    tracer = Tracer()
    install(tracer)
    traced, setup, served = _storm_pass(plan, 1)
    layer_metrics, detail = summarize(
        Spans(tracer.to_dict()),
        served.windows,
        busy_s=served.cpu_s,
        setup_window=setup.window,
    )
    detail["uncovered"] = "tick timing loop of the benchmark"
    _merge_traced(traced, plain, layer_metrics)
    return traced, {"layers": layer_metrics, "detail": detail}


def _merge_traced(traced: Outcome, plain: Outcome, layers: dict) -> None:
    """Fold the untraced pass into the fully checked traced one: its
    own checks count, every answer must equal the traced pass's bit for
    bit, and its CPU cost is the overhead base."""
    traced.failed_keys |= set(plain.failed_keys)
    traced.problems += [f"untraced pass: {p}" for p in plain.problems]
    for key in traced.answers.keys() | plain.answers.keys():
        if traced.answers.get(key) != plain.answers.get(key):
            traced.fail(
                key,
                f"{key}: traced {traced.answers.get(key)} != untraced "
                f"{plain.answers.get(key)}",
            )
    layers["trace.overhead"] = (
        traced.metrics["cpu_ms_per_req"] / plain.metrics["cpu_ms_per_req"]
    )


# -- entry point ------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fleet", "storm", "mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its daemon (the finally blocks run).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"servebench: no program to measure: {ROOT / 'src' / 'repro'} "
            f"is missing",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    os.chdir(ROOT)

    from servebench.layers import PER_LAYER_UNITS
    from servebench.noise import calibrate
    from servebench.specs import plan_for

    calib_ms = calibrate()
    plan = plan_for(args.workload, args.seed, args.seconds)
    run_dir = Path(".servebench") / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "storm":
            out, traced = run_storm(plan, bool(args.trace))
        else:
            out, traced = run_daemon(plan, run_dir, bool(args.trace))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass

    out.metrics["served_share"] = (
        (out.attempted - out.failed) / out.attempted
    )
    decisions = " ".join(f"{k}={v}" for k, v in sorted(out.decisions.items()))
    print(f"workload {args.workload} seed {args.seed}: {plan.requests} "
          f"timed requests"
          + (" (end-to-end figures of the traced pass)" if args.trace else ""))
    print(f"  noise: calib_ms={calib_ms:.3f} steal_ticks={out.steal_ticks}")
    for name, unit in E2E_UNITS.items():
        print(f"  {name:<16} {out.metrics[name]:12.6g} {unit}")
    print(f"  latency_tail_ms is p{out.tail_pct:g} of {out.samples} samples")
    print(f"  makespan_vs_lb {out.metrics['makespan_vs_lb']:.9f} "
          f"decisions: {decisions}")
    print(f"  failed_share {out.failed / out.attempted:.6g} "
          f"({out.failed} of {out.attempted})")
    for problem in out.problems[:20]:
        print(f"  CHECK FAILED: {problem}")

    correct = out.failed == 0
    if args.trace:
        layers = traced["layers"]
        layers["noise.calib_ms"] = calib_ms
        layers["noise.steal_ticks"] = float(out.steal_ticks)
        detail = traced["detail"]
        print(f"  trace.coverage {layers['trace.coverage']:.4f} of "
              f"{detail['busy_s']:.3f} s busy; uncovered "
              f"{detail['uncovered_s']:.3f} s: {detail['uncovered']}")
        for name, seconds in detail["self_s"].items():
            print(f"    self {name:<34} {seconds * 1e3:10.2f} ms")
        metrics = {
            name: {"value": float(layers[name]), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }
    else:
        metrics = {
            name: {"value": float(out.metrics[name]), "unit": unit}
            for name, unit in E2E_UNITS.items()
        }
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
