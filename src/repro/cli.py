"""Command-line interface: ``repro-hetcomm`` / ``python -m repro``.

Subcommands
-----------
``example``
    Run every scheduler on the 5-processor running example and print the
    timing diagrams (paper Figures 3-8 style).
``gusto``
    Print the GUSTO directory tables (paper Tables 1-2) and schedule a
    1 MB total exchange over the five sites.
``figure {9,10,11,12}``
    Regenerate one of the paper's evaluation figures as printed series.
``quality``
    Pool all four figures and print the Section 5 ratio-to-lower-bound
    quality summary.
``zoo``
    Compare registered schedulers (``--scheduler`` to pick; default:
    the paper set, the non-paper comparators, and the preemptive
    optimum) on one random instance.
``adaptive``
    Run the Section 6.3 drift sweep: adaptivity gain vs drift magnitude.
``broadcast``
    Compare binomial-tree and fastest-node-first broadcast on a random
    heterogeneous network.
``export``
    Schedule the running example with a chosen scheduler and write the
    schedule as JSON, SVG, and a Chrome trace.
``claims``
    Check the paper's headline claims mechanically (quick versions) and
    print PASS/FAIL per claim.
``bench``
    Run one ``BENCH_core.json`` tier (``--tier``, default the kernel
    timings against the frozen seed implementations; ``smoke`` for the
    seconds-long CI variant), hold it against the record it replaces,
    and merge it in.
``check``
    Differential fuzzing and invariant oracle: randomized adversarial
    instances through every registered scheduler (or just ``--scheduler``
    picks), cross-checked against the frozen seed kernels and the exact
    solver; failing instances are minimized and dumped to
    ``benchmarks/results/check_failures/`` (``--smoke`` for CI).
``serve``
    Drive the online adaptive runtime (:mod:`repro.runtime`) over a
    synthetic drift trace: per-tick reuse/refine/reschedule decisions,
    deadline fallback, and a metrics JSON dump (``--smoke`` for the
    deterministic CI preset, which also injects a scheduler timeout).
    ``--fault-profile`` injects failures (named preset ``smoke`` or a
    ``kind:key=val,...;...`` spec) and turns on the degraded-mode
    machinery: transient retries with backoff, salvage + repair, and
    relay routing around dead links.
``collective``
    Run registered collective operations (broadcast, scatter/gather,
    reduce, allreduce, barrier, exchange patterns) on one snapshot and
    compare completion times (``--collective`` to pick).

Selection flags are uniform: every subcommand that takes a scheduler
uses the same repeatable ``--scheduler NAME`` flag (resolved through
:func:`repro.core.registry.make_scheduler`, parameterized variants like
``matching_min:auction`` included); collectives use ``--collective``
(:func:`repro.collectives.make_collective`); network sources use
``--directory SPEC`` (:func:`repro.directory.make_directory`, e.g.
``noisy:sigma=0.1`` or ``dynamics:process=diurnal``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional

import numpy as np

from repro.core.problem import TotalExchangeProblem, example_problem
from repro.core.registry import Scheduler, iter_specs, make_scheduler
from repro.directory.static import gusto_directory
from repro.experiments.figures import FIGURE_DRIVERS
from repro.experiments.quality import quality_stats
from repro.experiments.report import (
    render_improvement,
    render_quality,
    render_sweep,
)
from repro.model.messages import UniformSizes
from repro.network.generators import random_pairwise_parameters
from repro.network.gusto import (
    GUSTO_BANDWIDTH_KBIT_S,
    GUSTO_LATENCY_MS,
    GUSTO_SITES,
)
from repro.timing.diagram import render_timing_diagram
from repro.util.tables import format_table
from repro.util.units import MEGABYTE


def _resolve_schedulers(
    names: List[str], parser_hint: str = "--scheduler"
) -> Dict[str, Scheduler]:
    """Resolve registry names to callables, exiting with a friendly
    message (and the full name list) on an unknown name."""
    resolved: Dict[str, Scheduler] = {}
    for name in names:
        try:
            resolved[name] = make_scheduler(name)
        except KeyError:
            known = ", ".join(spec.name for spec in iter_specs())
            print(
                f"error: unknown scheduler {name!r} for {parser_hint}; "
                f"known: {known}",
                file=sys.stderr,
            )
            raise SystemExit(2)
    return resolved


def _cmd_example(args: argparse.Namespace) -> int:
    problem = example_problem()
    print("Running example (5 processors); lower bound =", problem.lower_bound())
    print()
    rows = []
    for spec in iter_specs(tier="paper"):
        schedule = spec.fn(problem)
        rows.append([spec.name, schedule.completion_time,
                     schedule.completion_time / problem.lower_bound()])
        if args.diagrams:
            print(f"--- {spec.name} ---")
            print(render_timing_diagram(schedule, rows=20))
            print()
    print(format_table(["algorithm", "completion", "ratio to LB"], rows))
    return 0


def _cmd_gusto(args: argparse.Namespace) -> int:
    header = ["", *GUSTO_SITES]
    lat_rows = [
        [site, *GUSTO_LATENCY_MS[i].tolist()] for i, site in enumerate(GUSTO_SITES)
    ]
    bw_rows = [
        [site, *GUSTO_BANDWIDTH_KBIT_S[i].tolist()]
        for i, site in enumerate(GUSTO_SITES)
    ]
    print(format_table(header, lat_rows, precision=1,
                       title="Table 1: latency (ms) between 5 GUSTO sites"))
    print()
    print(format_table(header, bw_rows, precision=0,
                       title="Table 2: bandwidth (kbit/s) between 5 GUSTO sites"))
    print()
    directory = gusto_directory()
    problem = TotalExchangeProblem.from_snapshot(
        directory.snapshot(), UniformSizes(MEGABYTE)
    )
    print(f"1 MB total exchange over GUSTO; lower bound = "
          f"{problem.lower_bound():.1f}s")
    rows = [
        [spec.name, spec.fn(problem).completion_time]
        for spec in iter_specs(tier="paper")
    ]
    print(format_table(["algorithm", "completion (s)"], rows, precision=1))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    driver = FIGURE_DRIVERS[args.id]
    result = driver(trials=args.trials, seed=args.seed)
    print(render_sweep(result))
    print()
    print(render_improvement(result))
    print()
    print(render_quality(quality_stats([result])))
    return 0


def _cmd_quality(args: argparse.Namespace) -> int:
    results = [
        driver(trials=args.trials, seed=args.seed)
        for driver in FIGURE_DRIVERS.values()
    ]
    print(render_quality(quality_stats(results)))
    return 0


def _cmd_zoo(args: argparse.Namespace) -> int:
    from repro.directory.service import DirectorySnapshot
    from repro.model.messages import MixedSizes

    rng = np.random.default_rng(args.seed)
    latency, bandwidth = random_pairwise_parameters(args.procs, rng=rng)
    snapshot = DirectorySnapshot(latency=latency, bandwidth=bandwidth)
    problem = TotalExchangeProblem.from_snapshot(
        snapshot, MixedSizes(), rng=rng
    )
    lb = problem.lower_bound()
    print(f"P={args.procs} mixed-workload instance; lower bound {lb:.2f}s")
    if args.scheduler:
        names = list(args.scheduler)
    else:
        names = [spec.name for spec in iter_specs(tier="paper")]
        names += ["baseline_nosync", "lpt", "local_search", "preemptive"]
    schedulers = _resolve_schedulers(names)
    rows = []
    for name, scheduler in schedulers.items():
        label = "preemptive optimum" if name == "preemptive" else name
        t = scheduler(problem).completion_time
        rows.append([label, t, t / lb])
    rows.sort(key=lambda row: row[1])
    print(format_table(["scheduler", "completion (s)", "ratio"], rows))
    return 0


def _cmd_adaptive(args: argparse.Namespace) -> int:
    from repro.experiments.adaptive_sweep import run_adaptive_sweep
    from repro.util.tables import format_series

    result = run_adaptive_sweep(
        sigmas=(0.0, 0.6, 1.2), num_procs=args.procs, trials=args.trials,
        seed=args.seed,
    )
    series = dict(result.completion)
    series["post_drift_lb"] = result.post_drift_lb
    print(format_series(
        "sigma", result.sigmas, series, precision=1,
        title="completion (s) vs drift magnitude",
    ))
    gains = result.gain("halving")
    print("\nhalving-policy gain vs stale plan:",
          ", ".join(f"sigma {s:g}: {g * 100:.1f}%"
                    for s, g in zip(result.sigmas, gains)))
    return 0


def _cmd_broadcast(args: argparse.Namespace) -> int:
    from repro.collectives import (
        broadcast_lower_bound,
        schedule_broadcast_binomial,
        schedule_broadcast_fnf,
    )
    from repro.directory.service import DirectorySnapshot
    from repro.model.cost import cost_matrix

    rng = np.random.default_rng(args.seed)
    latency, bandwidth = random_pairwise_parameters(args.procs, rng=rng)
    snapshot = DirectorySnapshot(latency=latency, bandwidth=bandwidth)
    sizes = np.full((args.procs, args.procs), float(MEGABYTE))
    np.fill_diagonal(sizes, 0.0)
    cost = cost_matrix(snapshot, sizes)
    lb = broadcast_lower_bound(cost)
    binomial = schedule_broadcast_binomial(cost).completion_time
    fnf = schedule_broadcast_fnf(cost).completion_time
    print(f"1 MB broadcast over {args.procs} nodes; lower bound {lb:.2f}s")
    print(format_table(
        ["algorithm", "completion (s)", "ratio"],
        [["binomial tree", binomial, binomial / lb],
         ["fastest-node-first", fnf, fnf / lb]],
    ))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    import pathlib

    from repro.io import save_json, save_svg, save_trace, schedule_to_dict

    name = args.scheduler[-1] if args.scheduler else "openshop"
    scheduler = _resolve_schedulers([name])[name]
    problem = example_problem()
    schedule = scheduler(problem)
    out = pathlib.Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    # Parameterized names like "matching_min:auction" are path-safe-ified.
    base = out / f"example_{name.replace(':', '-')}"
    save_json(base.with_suffix(".json"), schedule_to_dict(schedule))
    save_svg(schedule, base.with_suffix(".svg"),
             title=f"{name} on the running example")
    save_trace(schedule, base.with_suffix(".trace.json"))
    print(f"wrote {base}.json, {base}.svg, {base}.trace.json "
          f"(completion {schedule.completion_time:g}s)")
    return 0


def _cmd_claims(args: argparse.Namespace) -> int:
    from repro.core.baseline import schedule_baseline_nosync
    from repro.core.problem import tight_baseline_instance
    from repro.experiments.figures import FIGURE_DRIVERS
    from repro.experiments.quality import quality_stats

    results = [
        driver(proc_counts=(10, 30, 50), trials=args.trials, seed=args.seed)
        for driver in FIGURE_DRIVERS.values()
    ]
    stats = quality_stats(results)
    tight = tight_baseline_instance(1e-6)
    tight_ratio = (
        schedule_baseline_nosync(tight).completion_time
        / tight.lower_bound()
    )
    fig11 = next(r for r in results if r.workload == "fig11-mixed")
    best_speedup = max(fig11.improvement_over_baseline("openshop"))

    checks = [
        (
            "Theorem 2 tightness: nosync baseline hits P/2 on the "
            "epsilon instance",
            abs(tight_ratio - 2.0) < 1e-3,
            f"ratio {tight_ratio:.6f}",
        ),
        (
            "Theorem 3: open shop always within 2x the lower bound",
            stats["openshop"].max_ratio <= 2.0,
            f"worst {stats['openshop'].max_ratio:.3f}",
        ),
        (
            "open shop close to LB on average (paper: often within 2%)",
            stats["openshop"].mean_ratio < 1.05,
            f"mean {stats['openshop'].mean_ratio:.3f}",
        ),
        (
            "max and min matching comparable (paper Section 5)",
            abs(
                stats["max_matching"].mean_ratio
                - stats["min_matching"].mean_ratio
            )
            < 0.08,
            f"means {stats['max_matching'].mean_ratio:.3f} vs "
            f"{stats['min_matching'].mean_ratio:.3f}",
        ),
        (
            "algorithm ordering: openshop <= matching <= greedy <= baseline",
            stats["openshop"].mean_ratio
            <= stats["max_matching"].mean_ratio + 0.02
            and stats["max_matching"].mean_ratio
            <= stats["greedy"].mean_ratio + 0.02
            and stats["greedy"].mean_ratio <= stats["baseline"].mean_ratio,
            "mean ratios "
            + ", ".join(
                f"{name}={stats[name].mean_ratio:.2f}"
                for name in (
                    "openshop", "max_matching", "greedy", "baseline",
                )
            ),
        ),
        (
            "multi-x improvement over the baseline at scale "
            "(paper: factors of 2-5)",
            best_speedup > 2.0,
            f"best openshop speedup on the mixed workload: "
            f"{best_speedup:.2f}x",
        ),
        (
            "baseline degrades to multiple-x above LB (paper: up to 6x)",
            2.0 < stats["baseline"].max_ratio < 8.0,
            f"worst {stats['baseline'].max_ratio:.2f}",
        ),
    ]
    failures = 0
    for title, passed, detail in checks:
        mark = "PASS" if passed else "FAIL"
        failures += 0 if passed else 1
        print(f"[{mark}] {title}  ({detail})")
    print(
        f"\n{len(checks) - failures}/{len(checks)} claims reproduced "
        f"(trials={args.trials}, seed={args.seed})"
    )
    return 1 if failures else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf.bench import TIERS, run_tier

    if args.scheduler:
        _resolve_schedulers(args.scheduler)
    output = _resolve_output(args, "metrics_out", "BENCH_core.json")
    try:
        result = run_tier(
            args.tier, args.sizes, output=output or None,
            **{key: getattr(args, key) for key in TIERS[args.tier].inputs},
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.text)
    for problem in result.problems:
        print(f"REGRESSION: {problem}")
    if output:
        print(f"\nwrote {output}")
    return 1 if result.problems else 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check import render_check, run_check

    # --smoke presets a seconds-long run; explicit flags still win.
    seeds = args.seeds if args.seeds is not None else (25 if args.smoke else 100)
    p_max = args.p_max if args.p_max is not None else (8 if args.smoke else 12)
    time_budget = args.time_budget
    if time_budget is None and args.smoke:
        time_budget = 60.0
    schedulers = (
        _resolve_schedulers(args.scheduler) if args.scheduler else None
    )
    report = run_check(
        seeds=seeds,
        p_max=p_max,
        time_budget=time_budget,
        base_seed=args.base_seed,
        schedulers=schedulers,
        out_dir=args.out_dir or None,
    )
    print(render_check(report))
    ok = report.ok
    if args.faults:
        from repro.check import render_fault_check, run_fault_check

        name = args.scheduler[-1] if args.scheduler else "openshop"
        fault_report = run_fault_check(scheduler=name)
        print()
        print(render_fault_check(fault_report))
        ok = ok and fault_report.ok
    if args.drift:
        from repro.check import render_drift_check, run_drift_check

        name = args.scheduler[-1] if args.scheduler else "openshop"
        drift_report = run_drift_check(scheduler=name)
        print()
        print(render_drift_check(drift_report))
        ok = ok and drift_report.ok
    if args.collectives:
        from repro.check import (
            render_collectives_check,
            run_collectives_check,
        )

        collectives_report = run_collectives_check()
        print()
        print(render_collectives_check(collectives_report))
        ok = ok and collectives_report.ok
    return 0 if ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.directory.factory import make_directory
    from repro.directory.service import DirectorySnapshot
    from repro.faults import FaultyDirectory, parse_fault_profile
    from repro.model.messages import MixedSizes
    from repro.runtime import AdaptiveSession, PolicyConfig
    from repro.sim.replay import TraceDirectory, synthetic_drift_trace

    # --smoke is the deterministic CI preset: small instance, a burst
    # cadence that exercises reuse AND refine AND reschedule, plus one
    # injected scheduler timeout so the baseline fallback path runs.
    # Explicit flags still win over the preset.
    def pick(value, smoke_default, default):
        if value is not None:
            return value
        return smoke_default if args.smoke else default

    procs = pick(args.procs, 8, 12)
    ticks = pick(args.ticks, 12, 32)
    sigma = pick(args.sigma, 0.01, 0.02)
    burst_sigma = pick(args.burst_sigma, 0.6, 0.5)
    burst_every = pick(args.burst_every, 4, 8)
    max_reuse = pick(args.max_reuse_ticks, 2, 8)
    inject = list(args.inject_timeout or ([6] if args.smoke else []))

    name = args.scheduler[-1] if args.scheduler else "openshop"
    _resolve_schedulers([name])  # fail fast with the friendly message

    if args.directory:
        try:
            directory = make_directory(
                args.directory, num_procs=procs, rng=args.seed
            )
        except (KeyError, ValueError, TypeError) as exc:
            print(f"error: bad --directory spec: {exc}", file=sys.stderr)
            raise SystemExit(2)
        procs = directory.num_procs
    else:
        rng = np.random.default_rng(args.seed)
        latency, bandwidth = random_pairwise_parameters(procs, rng=rng)
        base = DirectorySnapshot(latency=latency, bandwidth=bandwidth)
        trace = synthetic_drift_trace(
            base,
            ticks=ticks,
            dt=args.dt,
            base_sigma=sigma,
            burst_sigma=burst_sigma,
            burst_every=burst_every,
            seed=args.seed,
        )
        directory = TraceDirectory(trace)

    try:
        profile = parse_fault_profile(args.fault_profile)
    except (KeyError, ValueError) as exc:
        print(f"error: bad --fault-profile spec: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if profile:
        if profile.max_index() >= procs:
            print(
                f"error: --fault-profile references processor "
                f"{profile.max_index()} but the directory has {procs}",
                file=sys.stderr,
            )
            raise SystemExit(2)
        directory = FaultyDirectory(directory, profile)

    ops_store = None
    sink = None
    if args.ops_dir:
        from repro.ops import MetricsStore, StoreSink

        ops_store = MetricsStore(os.path.join(args.ops_dir, "store"))
        sink = StoreSink(ops_store, source="serve", kind="tick")

    session = AdaptiveSession(
        directory,
        MixedSizes(),
        scheduler=name,
        policy=PolicyConfig(
            reuse_threshold=args.reuse_threshold,
            refine_threshold=args.refine_threshold,
            max_reuse_ticks=max_reuse,
            scheduler_deadline_s=args.deadline,
        ),
        sink=sink,
        force_timeout_ticks=inject,
        rng=np.random.default_rng(args.seed),
    )

    source = args.directory or "drift trace"
    print(
        f"serving {ticks} total exchanges over a P={procs} {source} "
        f"(scheduler={name}, sigma={sigma:g}, bursts every "
        f"{burst_every or 'never'} ticks"
        + (f", faults={len(profile)}" if profile else "")
        + ")"
    )
    rows = []
    results = [session.tick(dt=0.0)]
    results += [session.tick(dt=args.dt) for _ in range(ticks - 1)]
    for result in results:
        e = result.event
        flags = "".join(
            mark for mark, on in (
                ("C", e.cache_hit), ("F", e.fallback), ("D", e.degraded),
            ) if on
        )
        row = [
            e.tick, e.time, e.decision, max(e.drift, 0.0),
            e.predicted_makespan, e.executed_makespan, e.regret,
            flags or "-",
        ]
        if profile:
            fault = e.repair or "-"
            if e.retries:
                fault += f" x{e.retries}"
            if e.salvaged_events:
                fault += f" ({e.salvaged_events} salvaged)"
            row.append(fault)
        rows.append(row)
    headers = ["tick", "t", "decision", "drift", "predicted (s)",
               "executed (s)", "regret (s)", "flags"]
    if profile:
        headers.append("fault")
    print(format_table(
        headers, rows, precision=3,
        title="per-tick serving log "
              "(C = cache hit, F = fallback, D = degraded)",
    ))
    summary = session.summary()
    fault_rows = []
    if profile:
        fault_rows = [
            ["degraded_tick_ratio", round(summary["degraded_tick_ratio"], 4)],
            ["faults_seen", summary["faults_seen"]],
            ["retry_successes", summary["retry_successes"]],
            ["repair_episodes", summary["repair_episodes"]],
            ["messages_salvaged", summary["messages_salvaged"]],
            ["messages_resent", summary["messages_resent"]],
        ]
    print()
    print(format_table(
        ["metric", "value"],
        [
            ["ticks", summary["ticks"]],
            *[[f"decision.{k}", v] for k, v in summary["decisions"].items()],
            ["reschedule_rate", round(summary["reschedule_rate"], 4)],
            ["cache_hit_rate", round(summary["cache_hit_rate"], 4)],
            ["fallback_activations", summary["fallback_activations"]],
            ["refine_evaluations", summary["refine_evaluations"]],
            ["mean_regret_s", round(summary["mean_regret_s"], 4)],
            [
                "mean_executed_makespan_s",
                round(summary["mean_executed_makespan_s"], 4),
            ],
            *fault_rows,
        ],
        title="serving summary",
    ))
    metrics_out = _resolve_output(args, "metrics_out", "serve_metrics.json")
    trace_out = _resolve_output(args, "trace_out", "")
    if metrics_out:
        session.metrics.save_json(metrics_out)
        print(f"\nwrote metrics JSON to {metrics_out}")
    if trace_out:
        session.metrics.save_chrome_trace(trace_out)
        print(f"wrote Chrome trace to {trace_out}")
    if ops_store is not None:
        sink.flush()
        print(
            f"persisted {ops_store.records_written} tick records to "
            f"{ops_store.root}"
        )
        ops_store.close()
    return 0


def _cmd_daemon(args: argparse.Namespace) -> int:
    import tempfile

    from repro.serve import DaemonConfig, SchedulerDaemon

    if args.smoke:
        return _daemon_smoke(args)

    if not args.socket and not args.tcp:
        args.socket = os.path.join(
            tempfile.gettempdir(), "repro-daemon.sock"
        )
    config = _daemon_config(args)
    daemon = SchedulerDaemon(config)
    address = daemon.bind()
    restored = daemon.counters["restored"]
    print(
        f"scheduler daemon listening on {address}"
        + (f" ({restored} tenants restored)" if restored else "")
    )
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        print("interrupted; shutting down")
    return 0


def _daemon_config(args: argparse.Namespace):
    from repro.serve import DaemonConfig

    host, port = "127.0.0.1", 0
    if args.tcp:
        host, _, raw_port = args.tcp.rpartition(":")
        host = host or "127.0.0.1"
        port = int(raw_port)
    return DaemonConfig(
        socket_path=args.socket,
        host=host,
        port=port,
        max_queue=args.max_queue,
        batch_max=args.batch_max,
        state_file=args.state_file,
        resume_from=args.resume,
        ops_dir=args.ops_dir or "",
    )


def _daemon_smoke(args: argparse.Namespace) -> int:
    """Self-contained daemon acceptance run.

    Starts a daemon, drives the multi-tenant load generator against it,
    drains (snapshot) *mid-load*, kills the daemon, restarts it from the
    snapshot, drives more load, then verifies zero accepted-request loss
    (daemon counters: accepted == served) and bit-identical resume on
    sample tenants against uninterrupted control sessions, with the
    invariant oracle checking every control schedule.
    """
    import json as _json
    import tempfile
    import threading

    from repro.serve import (
        DaemonClient,
        DaemonConfig,
        LoadGenerator,
        SchedulerDaemon,
    )
    from repro.serve.tenants import TenantProfile, TenantState
    from repro.timing.validate import check_schedule

    sock = args.socket or os.path.join(
        tempfile.mkdtemp(prefix="repro-daemon-"), "daemon.sock"
    )
    state_file = args.state_file or sock + ".state.json"

    def start(resume_from: str = ""):
        daemon = SchedulerDaemon(
            DaemonConfig(
                socket_path=sock,
                max_queue=args.max_queue,
                batch_max=args.batch_max,
                state_file=state_file,
                resume_from=resume_from,
                ops_dir=args.ops_dir or "",
            )
        )
        daemon.bind()
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        return daemon, thread

    generator = LoadGenerator(
        sock,
        tenants=args.tenants,
        cohorts=args.cohorts,
        procs=args.procs,
        connections=args.connections,
    )
    phase_s = max(args.duration / 2.0, 1.0)

    daemon1, thread1 = start()
    print(
        f"daemon up on {sock}: {args.tenants} tenants over "
        f"{args.cohorts} cohorts, P={args.procs}"
    )
    report1 = generator.run(phase_s)
    print(
        f"phase 1: {report1.accepted} served at "
        f"{report1.requests_per_s:.0f} req/s "
        f"(p99 decision {report1.decision_p99_s * 1e3:.2f} ms, "
        f"batched {report1.batched}, retried {report1.retried}, "
        f"dropped {report1.dropped})"
    )

    # Drain mid-load: snapshot every tenant, then kill the daemon.
    with DaemonClient(sock) as client:
        drained = client.drain(state_file)
        stats1 = client.stats()
        client.shutdown()
    thread1.join(timeout=10)
    counters1 = stats1["counters"]
    if counters1["accepted"] != counters1["served"]:
        print(
            f"FAIL: {counters1['accepted'] - counters1['served']} accepted "
            f"requests lost at drain",
            file=sys.stderr,
        )
        return 1
    print(
        f"drained {drained.tenants} tenants to {state_file} "
        f"(accepted == served == {counters1['served']}); daemon killed"
    )

    daemon2, thread2 = start(resume_from=state_file)
    report2 = generator.run(phase_s)
    print(
        f"phase 2 (restarted): {report2.accepted} served at "
        f"{report2.requests_per_s:.0f} req/s "
        f"(p99 decision {report2.decision_p99_s * 1e3:.2f} ms, "
        f"dropped {report2.dropped})"
    )

    # Bit-identical resume: replay an uninterrupted control session for
    # one tenant per sampled cohort and compare the next decision.
    mismatches = 0
    checked = 0
    with DaemonClient(sock) as client:
        for cohort in range(min(args.cohorts, 4)):
            tenant = f"t-{cohort:04d}"  # tenant index == cohort for i < cohorts
            opened = client.open(
                tenant, procs=args.procs, seed=cohort
            )
            control = TenantState(
                TenantProfile(
                    tenant=tenant, procs=args.procs, seed=cohort
                )
            )
            for _ in range(opened.tick):
                control.session.tick(dt=generator.dt)
            response = client.schedule(tenant, dt=generator.dt)
            result = control.session.tick(dt=generator.dt)
            check_schedule(result.schedule, require_coverage=False)
            checked += 1
            if (
                response.decision != result.event.decision
                or response.predicted_s != result.event.predicted_makespan
                or response.executed_s != result.event.executed_makespan
            ):
                mismatches += 1
                print(
                    f"FAIL: tenant {tenant} diverged after restart: "
                    f"daemon ({response.decision}, {response.predicted_s}, "
                    f"{response.executed_s}) vs control "
                    f"({result.event.decision}, "
                    f"{result.event.predicted_makespan}, "
                    f"{result.event.executed_makespan})",
                    file=sys.stderr,
                )
        stats2 = client.stats()
        client.shutdown()
    thread2.join(timeout=10)

    total_accepted = report1.accepted + report2.accepted
    total_rps = (
        total_accepted / max(report1.duration_s + report2.duration_s, 1e-9)
    )
    latency = stats2["decision_latency"]
    print(
        f"resume check: {checked} tenants bit-identical "
        f"({mismatches} mismatches); overall {total_rps:.0f} req/s, "
        f"daemon p99 decision {latency['p99_s'] * 1e3:.2f} ms"
    )

    failures = []
    if mismatches:
        failures.append(f"{mismatches} tenants diverged after restart")
    if report1.dropped or report2.dropped:
        failures.append(
            f"{report1.dropped + report2.dropped} responses dropped "
            f"without retry_after"
        )
    if not latency["count"]:
        failures.append("empty decision-latency metrics")
    if args.min_rps and total_rps < args.min_rps:
        failures.append(
            f"throughput {total_rps:.0f} req/s below --min-rps "
            f"{args.min_rps:.0f}"
        )
    metrics_out = _resolve_output(args, "metrics_out", "daemon_metrics.json")
    if metrics_out:
        payload = {
            "phase1": report1.to_dict(),
            "phase2": report2.to_dict(),
            "drain": {"tenants": drained.tenants, "path": state_file},
            "resume_checked": checked,
            "resume_mismatches": mismatches,
            "daemon_stats": stats2,
        }
        with open(metrics_out, "w", encoding="utf-8") as handle:
            _json.dump(payload, handle, indent=2)
        print(f"wrote metrics JSON to {metrics_out}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("daemon smoke OK")
    return 0


def _cmd_collective(args: argparse.Namespace) -> int:
    from repro.collectives import (
        get_collective_spec,
        iter_collective_specs,
        make_collective,
    )
    from repro.directory.factory import make_directory

    try:
        directory = make_directory(
            args.directory or "static", num_procs=args.procs, rng=args.seed
        )
    except (KeyError, ValueError, TypeError) as exc:
        print(f"error: bad --directory spec: {exc}", file=sys.stderr)
        raise SystemExit(2)
    snapshot = directory.snapshot()
    if args.collective:
        names = list(args.collective)
    else:
        names = [
            spec.name for spec in iter_collective_specs(family=args.family)
        ]
    print(
        f"{args.size / 1024:g} KiB collectives over P={snapshot.num_procs} "
        f"({args.directory or 'static'})"
    )
    rows = []
    for name in names:
        try:
            fn = make_collective(name)
        except KeyError:
            known = ", ".join(
                spec.name for spec in iter_collective_specs()
            )
            print(
                f"error: unknown collective {name!r} for --collective; "
                f"known: {known}",
                file=sys.stderr,
            )
            raise SystemExit(2)
        result = fn(snapshot, float(args.size))
        events = sum(1 for e in result.schedule if e.duration > 0)
        rows.append([
            name, get_collective_spec(name).family, events,
            result.completion_time,
        ])
    rows.sort(key=lambda row: (row[1], row[3]))
    print(format_table(
        ["collective", "family", "events", "completion (s)"],
        rows, precision=4,
    ))
    return 0


def _cmd_ops(args: argparse.Namespace) -> int:
    import dataclasses
    import json as _json
    import pathlib

    ops_dir = args.ops_dir or "ops"

    if args.ops_command == "soak":
        from repro.ops.slo import LogNotifier, make_notifier
        from repro.ops.soak import SoakConfig, run_soak

        if args.hours:
            config = SoakConfig.hours(args.hours, seed=args.seed)
        else:
            config = SoakConfig.smoke(args.seed)
        overrides = {}
        for name in ("tenants", "procs", "ticks"):
            value = getattr(args, name)
            if value is not None:
                overrides[name] = value
        if args.slo:
            from repro.ops.slo import parse_slo_spec

            try:
                overrides["slos"] = tuple(
                    parse_slo_spec(spec) for spec in args.slo
                )
            except (KeyError, ValueError) as exc:
                print(f"error: bad --slo spec: {exc}", file=sys.stderr)
                raise SystemExit(2)
        if args.no_daemon_phase:
            overrides["daemon_phase"] = False
        if overrides:
            config = dataclasses.replace(config, **overrides)
        notifiers = [LogNotifier(stream=sys.stdout)]
        for spec in args.notify or []:
            try:
                notifiers.append(make_notifier(spec, stream=sys.stdout))
            except (KeyError, ValueError) as exc:
                print(f"error: bad --notify spec: {exc}", file=sys.stderr)
                raise SystemExit(2)
        print(
            f"soaking {config.tenants} tenants x {config.ticks} ticks "
            f"({config.sim_seconds:g} simulated seconds) into {ops_dir}"
        )
        report = run_soak(
            config, ops_dir, notifiers=notifiers, progress=print
        )
        print()
        print(report.render())
        print(f"report: {pathlib.Path(ops_dir) / 'slo_report.json'}")
        return 0 if report.ok else 1

    # ops report: summarise what an ops directory holds.
    from repro.ops import BackupManager, MetricsStore

    root = pathlib.Path(ops_dir)
    if not root.exists():
        print(f"error: no ops directory at {root}", file=sys.stderr)
        return 1
    store_dir = root / "store"
    if store_dir.exists():
        store = MetricsStore(store_dir)
        stats = store.stats()
        rows = [
            ["segments", stats["segments"]],
            ["sealed segments", stats["sealed_segments"]],
            ["total bytes", stats["total_bytes"]],
        ]
        if args.kind:
            count = sum(1 for _ in store.iter_records(kind=args.kind))
            rows.append([f"records kind={args.kind}", count])
        store.close()
        print(format_table(["store", "value"], rows))
    report_path = root / "slo_report.json"
    if report_path.exists():
        payload = _json.loads(report_path.read_text())
        print(
            f"\nlast soak: ok={payload.get('ok')} "
            f"({payload.get('oracle_checks', 0)} oracle checks, "
            f"{payload.get('oracle_violations', 0)} violations; "
            f"{payload.get('alerts_fired', 0)} alerts fired, "
            f"{payload.get('alerts_resolved', 0)} resolved)"
        )
        slo_rows = [
            [s["state"], s["slo"], s.get("value"), s["fired"], s["resolved"]]
            for s in payload.get("slo", {}).get("slos", [])
        ]
        if slo_rows:
            print(format_table(
                ["state", "slo", "value", "fired", "resolved"],
                slo_rows, precision=4,
            ))
    alerts_path = root / "alerts.jsonl"
    if alerts_path.exists():
        lines = alerts_path.read_text().strip().splitlines()
        print(f"\nalerts ({len(lines)} transitions, newest last):")
        for line in lines[-10:]:
            alert = _json.loads(line)
            print(
                f"  [{alert['state']:>8}] t={alert['time']:.3f} "
                f"{alert['slo']} value={alert['value']:.4g}"
            )
    backups_dir = root / "backups"
    if backups_dir.exists():
        manager = BackupManager(backups_dir)
        paths = manager.paths()
        print(f"\nbackups ({len(paths)} retained):")
        for path in paths:
            print(f"  {path.name} ({path.stat().st_size} bytes)")
    return 0


def _scheduler_parent() -> argparse.ArgumentParser:
    """The shared ``--scheduler`` flag every scheduler-taking subcommand
    inherits (repeatable; resolved via ``make_scheduler``)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--scheduler", action="append", default=None, metavar="NAME",
        help=(
            "registry scheduler name (repeat to select several where a "
            "set is compared; parameterized variants like "
            "'matching_min:auction' included)"
        ),
    )
    return parent


def _directory_parent() -> argparse.ArgumentParser:
    """The shared ``--directory SPEC`` flag for subcommands that take a
    network source (resolved via ``make_directory``)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--directory", default=None, metavar="SPEC",
        help=(
            "directory spec 'name[:key=val,...]' (static, gusto, "
            "noisy:sigma=0.1, perturb, dynamics:process=diurnal, "
            "forecast:mode=linear, drift); default depends on the "
            "subcommand"
        ),
    )
    return parent


def _ops_parent() -> argparse.ArgumentParser:
    """The shared output-flag family every producing subcommand inherits.

    ``--ops-dir`` names one directory for everything a run persists
    (metrics store, alerts, backups, reports); ``--metrics-out`` /
    ``--trace-out`` name individual artifacts, resolved *under*
    ``--ops-dir`` when both are given (see :func:`_resolve_output`).
    Declared once here so ``serve``, ``daemon``, ``bench``, and ``ops``
    stay flag-compatible.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--ops-dir", default=None, metavar="DIR",
        help="ops directory: rotating metrics store, SLO alerts, "
             "backups, and reports all live under this one path",
    )
    parent.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="metrics JSON output path ('' to skip; bare filenames land "
             "under --ops-dir when set)",
    )
    parent.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="Chrome trace output path ('' to skip; bare filenames land "
             "under --ops-dir when set)",
    )
    return parent


def _resolve_output(args: argparse.Namespace, attr: str, default: str) -> str:
    """Resolve one output path through the shared flag family: an
    explicit flag wins over ``default``; bare filenames are placed under
    ``--ops-dir`` when one was given; '' disables the artifact."""
    value = getattr(args, attr, None)
    name = value if value is not None else default
    if not name:
        return ""
    ops_dir = getattr(args, "ops_dir", None)
    if ops_dir and os.sep not in name and not os.path.isabs(name):
        os.makedirs(ops_dir, exist_ok=True)
        return os.path.join(ops_dir, name)
    return name


def build_parser() -> argparse.ArgumentParser:
    from repro.perf.bench import TIERS

    parser = argparse.ArgumentParser(
        prog="repro-hetcomm",
        description=(
            "Adaptive communication scheduling for distributed "
            "heterogeneous systems (HPDC'98 reproduction)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    scheduler_parent = _scheduler_parent()
    directory_parent = _directory_parent()
    ops_parent = _ops_parent()

    p_example = sub.add_parser("example", help="run the 5-processor example")
    p_example.add_argument(
        "--diagrams", action="store_true", help="print ASCII timing diagrams"
    )
    p_example.set_defaults(func=_cmd_example)

    p_gusto = sub.add_parser("gusto", help="GUSTO tables and schedules")
    p_gusto.set_defaults(func=_cmd_gusto)

    p_figure = sub.add_parser("figure", help="regenerate a paper figure")
    p_figure.add_argument("id", choices=sorted(FIGURE_DRIVERS))
    p_figure.add_argument("--trials", type=int, default=3)
    p_figure.add_argument("--seed", type=int, default=0)
    p_figure.set_defaults(func=_cmd_figure)

    p_quality = sub.add_parser("quality", help="Section 5 quality summary")
    p_quality.add_argument("--trials", type=int, default=3)
    p_quality.add_argument("--seed", type=int, default=0)
    p_quality.set_defaults(func=_cmd_quality)

    p_zoo = sub.add_parser(
        "zoo", parents=[scheduler_parent], help="compare schedulers"
    )
    p_zoo.add_argument("--procs", type=int, default=12)
    p_zoo.add_argument("--seed", type=int, default=0)
    p_zoo.set_defaults(func=_cmd_zoo)

    p_adaptive = sub.add_parser("adaptive", help="Section 6.3 drift sweep")
    p_adaptive.add_argument("--procs", type=int, default=12)
    p_adaptive.add_argument("--trials", type=int, default=3)
    p_adaptive.add_argument("--seed", type=int, default=0)
    p_adaptive.set_defaults(func=_cmd_adaptive)

    p_broadcast = sub.add_parser(
        "broadcast", help="heterogeneous broadcast comparison"
    )
    p_broadcast.add_argument("--procs", type=int, default=16)
    p_broadcast.add_argument("--seed", type=int, default=0)
    p_broadcast.set_defaults(func=_cmd_broadcast)

    p_export = sub.add_parser(
        "export", parents=[scheduler_parent],
        help="export an example schedule (JSON/SVG/trace)",
    )
    p_export.add_argument("--output-dir", default="exported")
    p_export.set_defaults(func=_cmd_export)

    p_claims = sub.add_parser(
        "claims", help="check the paper's headline claims"
    )
    p_claims.add_argument("--trials", type=int, default=3)
    p_claims.add_argument("--seed", type=int, default=0)
    p_claims.set_defaults(func=_cmd_claims)

    p_bench = sub.add_parser(
        "bench", parents=[scheduler_parent, directory_parent, ops_parent],
        help="run one BENCH_core.json tier and guard it against the record",
    )
    p_bench.add_argument(
        "--tier", choices=sorted(TIERS), default="kernels", metavar="NAME",
        help=(
            f"the tier to run, one of {', '.join(sorted(TIERS))} "
            "(default: kernels; 'smoke' is the seconds-long CI kernel "
            "run); writes BENCH_core.json unless --metrics-out says "
            "otherwise, and exits 1 on a regression"
        ),
    )
    p_bench.add_argument(
        "--sizes", type=int, nargs="+", default=None, metavar="P",
        help="processor counts to run (default: the tier's ladder)",
    )
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.set_defaults(func=_cmd_bench)

    p_check = sub.add_parser(
        "check", parents=[scheduler_parent],
        help="differential fuzzing & invariant oracle",
    )
    p_check.add_argument(
        "--seeds", type=int, default=None, metavar="N",
        help="number of fuzzed instances (default: 100; 25 with --smoke)",
    )
    p_check.add_argument(
        "--p-max", type=int, default=None, metavar="P",
        help="largest processor count drawn (default: 12; 8 with --smoke)",
    )
    p_check.add_argument(
        "--time-budget", type=float, default=None, metavar="S",
        help="wall-clock cap in seconds (default: none; 60 with --smoke)",
    )
    p_check.add_argument("--base-seed", type=int, default=0)
    p_check.add_argument(
        "--smoke", action="store_true",
        help="quick CI preset: 25 seeds, P <= 8, 60s budget",
    )
    p_check.add_argument(
        "--out-dir", default="benchmarks/results/check_failures",
        help="minimized-failure artifact directory ('' to disable)",
    )
    p_check.add_argument(
        "--faults", action="store_true",
        help="also run the fault-recovery family: repaired schedules "
             "must pass the oracle and deliver all surviving demand",
    )
    p_check.add_argument(
        "--drift", action="store_true",
        help="also run the drift family: storm-driven sessions must "
             "walk the reuse/refine/repair/reschedule ladder and every "
             "delta-repaired tick must pass the oracle",
    )
    p_check.add_argument(
        "--collectives", action="store_true",
        help="also run the collectives family: every registered "
             "collective audited for delivery, round/volume guarantee "
             "caps and bit-exact agreement with scalar references",
    )
    p_check.set_defaults(func=_cmd_check)

    p_serve = sub.add_parser(
        "serve", parents=[scheduler_parent, directory_parent, ops_parent],
        help="drive the online adaptive runtime over a drift trace",
    )
    p_serve.add_argument(
        "--procs", type=int, default=None,
        help="processors in the drift trace (default: 12; 8 with --smoke)",
    )
    p_serve.add_argument(
        "--ticks", type=int, default=None,
        help="total exchanges to serve (default: 32; 12 with --smoke)",
    )
    p_serve.add_argument("--dt", type=float, default=1.0,
                         help="directory seconds between ticks")
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument(
        "--sigma", type=float, default=None,
        help="per-tick drift magnitude (default: 0.02; 0.01 with --smoke)",
    )
    p_serve.add_argument(
        "--burst-sigma", type=float, default=None,
        help="burst drift magnitude (default: 0.5; 0.6 with --smoke)",
    )
    p_serve.add_argument(
        "--burst-every", type=int, default=None,
        help="burst cadence in ticks, 0 = never "
             "(default: 8; 4 with --smoke)",
    )
    p_serve.add_argument(
        "--reuse-threshold", type=float, default=0.05,
        help="drift below this reuses the plan untouched",
    )
    p_serve.add_argument(
        "--refine-threshold", type=float, default=0.25,
        help="drift at or above this repairs the plan when the drift is "
             "localised and reschedules it otherwise",
    )
    p_serve.add_argument(
        "--max-reuse-ticks", type=int, default=None,
        help="staleness cap on consecutive reuses "
             "(default: 8; 2 with --smoke)",
    )
    p_serve.add_argument(
        "--deadline", type=float, default=5.0,
        help="scheduler wall-clock deadline in seconds before the "
             "baseline fallback takes over",
    )
    p_serve.add_argument(
        "--inject-timeout", type=int, action="append", default=None,
        metavar="TICK",
        help="chaos hook: treat the scheduler as timed out at this tick "
             "(repeatable; --smoke injects tick 6)",
    )
    p_serve.add_argument(
        "--smoke", action="store_true",
        help="deterministic CI preset exercising reuse, refine, "
             "reschedule, and the injected-timeout fallback",
    )
    p_serve.add_argument(
        "--fault-profile", default="", metavar="SPEC",
        help="inject failures: a named preset ('smoke', 'none') or "
             "';'-separated 'kind:key=val,...' entries with kind in "
             "link_dead, blackout, bw_collapse, node_drop (e.g. "
             "'link_dead:src=0,dst=1,at=3,at_event=5')",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_daemon = sub.add_parser(
        "daemon", parents=[ops_parent],
        help="run the multi-tenant scheduler daemon (or its smoke test)",
    )
    p_daemon.add_argument(
        "--socket", default="",
        help="unix socket path (default: a temp path; ignored with --tcp)",
    )
    p_daemon.add_argument(
        "--tcp", default="", metavar="[HOST:]PORT",
        help="listen on TCP instead of a unix socket",
    )
    p_daemon.add_argument(
        "--max-queue", type=int, default=256,
        help="bounded request-queue capacity (admission control beyond)",
    )
    p_daemon.add_argument(
        "--batch-max", type=int, default=64,
        help="max schedule requests drained per batching round",
    )
    p_daemon.add_argument(
        "--state-file", default="",
        help="drain/snapshot target (default: <socket>.state.json)",
    )
    p_daemon.add_argument(
        "--resume", default="", metavar="STATE_FILE",
        help="restore tenants from a state file written by drain",
    )
    p_daemon.add_argument(
        "--smoke", action="store_true",
        help="self-contained acceptance run: load generator, mid-load "
             "drain + kill + restart, bit-identical resume verification",
    )
    p_daemon.add_argument(
        "--tenants", type=int, default=100,
        help="simulated tenants for --smoke (default: 100)",
    )
    p_daemon.add_argument(
        "--cohorts", type=int, default=16,
        help="distinct tenant profiles for --smoke (default: 16)",
    )
    p_daemon.add_argument(
        "--procs", type=int, default=6,
        help="processors per tenant for --smoke (default: 6)",
    )
    p_daemon.add_argument(
        "--connections", type=int, default=4,
        help="load-generator connections for --smoke (default: 4)",
    )
    p_daemon.add_argument(
        "--duration", type=float, default=10.0,
        help="total --smoke load seconds across both phases (default: 10)",
    )
    p_daemon.add_argument(
        "--min-rps", type=float, default=0.0,
        help="fail --smoke below this accepted-requests/sec (default: off)",
    )
    p_daemon.set_defaults(func=_cmd_daemon)

    p_ops = sub.add_parser(
        "ops",
        help="production ops: metrics store reports and the chaos soak",
    )
    ops_sub = p_ops.add_subparsers(dest="ops_command", required=True)
    p_soak = ops_sub.add_parser(
        "soak", parents=[ops_parent],
        help="chaos soak: faults + drift storms + timeouts, "
             "oracle-checked, with SLO alerting and verified backups",
    )
    p_soak.add_argument(
        "--smoke", action="store_true",
        help="the seeded CI-sized soak (seconds of wall clock)",
    )
    p_soak.add_argument(
        "--hours", type=float, default=None, metavar="H",
        help="simulated hours to soak (5-minute ticks); overrides the "
             "tick/dt defaults",
    )
    p_soak.add_argument(
        "--tenants", type=int, default=None,
        help="concurrent adaptive sessions (default: 6)",
    )
    p_soak.add_argument(
        "--procs", type=int, default=None,
        help="processors per tenant (default: 8)",
    )
    p_soak.add_argument(
        "--ticks", type=int, default=None,
        help="ticks to serve per tenant (default: 40)",
    )
    p_soak.add_argument("--seed", type=int, default=0)
    p_soak.add_argument(
        "--slo", action="append", default=None, metavar="SPEC",
        help="SLO spec 'name:threshold=...[,window=...,min_samples=...]' "
             "(repeatable; replaces the default soak SLO set)",
    )
    p_soak.add_argument(
        "--notify", action="append", default=None, metavar="SPEC",
        help="extra notifier spec: 'log', 'file:path=...', 'webhook' "
             "(repeatable; alerts always also land in "
             "<ops-dir>/alerts.jsonl)",
    )
    p_soak.add_argument(
        "--no-daemon-phase", action="store_true",
        help="skip the daemon load/drain/backup/restart phase",
    )
    p_soak.set_defaults(func=_cmd_ops)
    p_report = ops_sub.add_parser(
        "report", parents=[ops_parent],
        help="summarise an ops directory: store shape, SLO report, "
             "alerts, backups",
    )
    p_report.add_argument(
        "--kind", default=None, metavar="KIND",
        help="also count stored records of this kind (e.g. 'tick', "
             "'daemon.response')",
    )
    p_report.set_defaults(func=_cmd_ops)

    p_collective = sub.add_parser(
        "collective", parents=[directory_parent],
        help="compare registered collective operations on one snapshot",
    )
    p_collective.add_argument(
        "--collective", action="append", default=None, metavar="NAME",
        help="registry collective name (repeatable; default: all, or "
             "one --family)",
    )
    p_collective.add_argument(
        "--family", default=None,
        choices=("rooted", "allreduce", "barrier", "exchange"),
        help="restrict the default selection to one family",
    )
    p_collective.add_argument("--procs", type=int, default=8)
    p_collective.add_argument("--seed", type=int, default=0)
    p_collective.add_argument(
        "--size", type=float, default=float(MEGABYTE),
        help="payload bytes per block/message (default: 1 MB)",
    )
    p_collective.set_defaults(func=_cmd_collective)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
