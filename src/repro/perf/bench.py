"""Benchmark tiers behind ``BENCH_core.json``.

Every measurement the repo commits to ``BENCH_core.json`` is one *tier*
in :data:`TIERS`: the section it lands in, the producer that measures
it, the parameters it runs with (fixed here, at the values the committed
record was made with), its default processor-count ladder, and the
metrics the regression guard (:mod:`repro.perf.regression`) holds it to.
:func:`run_tier` is the single runner: it produces a tier, compares it
with the record it is about to overwrite, merges it, and renders it.

Invoke as ``python -m repro.cli bench --tier NAME [--sizes P ...]``
(``--tier smoke`` is the seconds-long CI kernel run).  The kernel tiers
time the optimized greedy/executor/matching kernels against the frozen
seed implementations (:mod:`repro.perf.reference`).  Matching is
excluded above ``matching_max_p`` — its ``O(P^4)`` round extraction is
not a P=1024 kernel — and the seed kernels stop at ``reference_max_p``:
the seed open shop scan alone needs tens of seconds per repeat at
``P = 512``, so above the cap only the optimized kernels are timed and
the speedup column goes blank rather than the bench budget exploding.
"""

from __future__ import annotations

import json
import pathlib
import platform
import time
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.greedy import greedy_orders, greedy_steps, schedule_greedy
from repro.core.matching import matching_rounds
from repro.core.openshop import schedule_openshop
from repro.core.problem import TotalExchangeProblem
from repro.directory.service import DirectorySnapshot
from repro.model.messages import MixedSizes
from repro.network.generators import random_pairwise_parameters
from repro.perf import reference
from repro.perf.timer import KernelTimer
from repro.sim.engine import execute_orders_on_cost, execute_steps_strict
from repro.util.rng import stable_seed, to_rng

#: Kernel name -> its seed-reference counterpart in the timing tables.
REFERENCE_OF: Dict[str, str] = {
    "greedy_steps": "greedy_steps_reference",
    "greedy_end_to_end": "greedy_end_to_end_reference",
    "execute_orders": "execute_orders_reference",
    "execute_steps_strict": "execute_steps_strict_reference",
    "openshop": "openshop_reference",
}

PathLike = Union[str, pathlib.Path]


def bench_instance(num_procs: int, *, seed: int = 0) -> TotalExchangeProblem:
    """The deterministic mixed-workload instance benched at ``num_procs``."""
    rng = to_rng(stable_seed("bench", seed, num_procs))
    latency, bandwidth = random_pairwise_parameters(num_procs, rng=rng)
    snapshot = DirectorySnapshot(latency=latency, bandwidth=bandwidth)
    return TotalExchangeProblem.from_snapshot(snapshot, MixedSizes(), rng=rng)


def clustered_instance(
    num_procs: int, *, cluster_size: int = 64, seed: int = 0
) -> TotalExchangeProblem:
    """The deterministic cluster-structured instance for the scale ladder.

    A :func:`~repro.network.generators.clustered_pairwise_parameters`
    platform carrying uniform 1 MB messages — the workload the
    hierarchical scheduler targets at ``P > 1024``.
    """
    from repro.model.messages import UniformSizes
    from repro.network.generators import clustered_pairwise_parameters

    rng = to_rng(stable_seed("bench.hier", seed, num_procs, cluster_size))
    latency, bandwidth = clustered_pairwise_parameters(
        num_procs, cluster_size=cluster_size, rng=rng
    )
    snapshot = DirectorySnapshot(latency=latency, bandwidth=bandwidth)
    return TotalExchangeProblem.from_snapshot(
        snapshot, UniformSizes(1e6), rng=rng
    )


def _flat_scale(num_procs: int, *, seed: int = 0) -> Dict[str, Any]:
    """The flat schedulers a run-time system would use at scale.

    Greedy and open shop, plus the baseline for the quality comparison,
    on the mixed-workload :func:`bench_instance`; matching is excluded —
    its ``O(P^4)`` round extraction is not a kernel at these sizes.
    Seconds cover scheduling plus the makespan query; every schedule is
    validated outside the clock.
    """
    from repro.core.registry import get_scheduler
    from repro.timing.validate import check_schedule

    problem = bench_instance(num_procs, seed=seed)
    lower_bound = problem.lower_bound()
    tier: Dict[str, Any] = {}
    for name in ("baseline", "greedy", "openshop"):
        t0 = time.perf_counter()
        schedule = get_scheduler(name)(problem)
        ratio = schedule.completion_time / lower_bound
        tier[name] = {
            "ratio_to_lb": ratio, "seconds": time.perf_counter() - t0,
        }
        check_schedule(schedule, problem.cost)
    return tier


def _hier_scale(
    num_procs: int, *, seed: int = 0, cluster_size: int, flat_max_p: int
) -> Dict[str, Any]:
    """The hierarchical scheduler on the clustered scale ladder.

    The deterministic :func:`clustered_instance` is scheduled by the
    hierarchical scheduler — and, up to ``flat_max_p``, by the flat open
    shop for comparison — recording wall-clock seconds and the makespan
    ratio to the lower bound.
    """
    from repro.core.hierarchical import schedule_hierarchical

    problem = clustered_instance(
        num_procs, cluster_size=cluster_size, seed=seed
    )
    lower_bound = problem.lower_bound()
    tier: Dict[str, Any] = {
        "meta": {
            "cluster_size": cluster_size,
            "seed": seed,
            "workload": "uniform 1 MB, clustered platform",
            "lower_bound_s": lower_bound,
        }
    }
    contenders = [("hierarchical", schedule_hierarchical)]
    if num_procs <= flat_max_p:
        contenders.append(("openshop", schedule_openshop))
    for name, scheduler in contenders:
        t0 = time.perf_counter()
        schedule = scheduler(problem)
        makespan = schedule.completion_time
        elapsed = time.perf_counter() - t0
        tier[name] = {
            "seconds": elapsed,
            "ratio_to_lb": makespan / lower_bound if lower_bound else 1.0,
            "events": len(schedule),
        }
    return tier


def _drift_response(
    num_procs: int,
    *,
    seed: int = 0,
    ticks: int,
    dirty_node_fraction: float,
    cluster_size: int,
    hier_min_p: int,
) -> Dict[str, Any]:
    """Drift-tick latency: delta repair vs. a full reschedule.

    The deterministic :func:`clustered_instance` is planned once; each
    subsequent tick congests a different contiguous ~5% window of nodes
    (every outgoing link of an affected node repriced by its own factor
    in [0.9, 1.15] — a moving congestion spot relative to the plan's
    basis, the moderate-drift regime the policy routes to the repair
    tier) and the plan is updated both ways under a wall clock:

    * **repair** — :mod:`repro.adaptive.delta` event-level repair below
      ``hier_min_p`` (the flat open shop tiers), block-level
      :meth:`HierarchicalScheduler.delta_repair` at and above it; both
      validated inline with the full :func:`check_schedule` (the
      serving hot path checks its re-times in O(E) instead);
    * **full** — the matching from-scratch scheduler on the same costs.

    Every repair re-times the *anchored* plan — exactly what the session
    does on its repair tier — so the first two ticks pay the re-timer's
    one-time structure and level builds and later ticks show the warm
    steady state the p50 reports.  Records p50/p99 latencies for both paths, the p50
    speedup, and the worst repaired/from-scratch makespan ratio.
    """
    from repro.adaptive.delta import repair_schedule_delta
    from repro.core.hierarchical import HierarchicalScheduler
    from repro.timing.validate import check_schedule

    if ticks < 2:
        raise ValueError(f"ticks must be >= 2, got {ticks}")

    hierarchical = num_procs >= hier_min_p
    problem = clustered_instance(
        num_procs, cluster_size=cluster_size, seed=seed
    )
    dirty_nodes = max(1, round(dirty_node_fraction * num_procs))
    rng = to_rng(stable_seed("bench.drift", seed, num_procs))

    if hierarchical:
        scheduler = HierarchicalScheduler()
        incumbent = scheduler(problem)
    else:
        incumbent = schedule_openshop(problem)
    basis = problem.cost

    repair_s, full_s, ratios = [], [], []
    dirty_fracs, repaired_events = [], []
    for _ in range(ticks - 1):
        start = int(rng.integers(0, num_procs - dirty_nodes + 1))
        factors = rng.uniform(0.9, 1.15, size=(dirty_nodes, num_procs))
        cost = basis.copy()
        cost[start:start + dirty_nodes, :] *= factors
        np.fill_diagonal(cost, basis.diagonal())
        current = TotalExchangeProblem(cost=cost, sizes=problem.sizes)

        t0 = time.perf_counter()
        if hierarchical:
            result = scheduler.delta_repair(current, validate=True)
        else:
            result = repair_schedule_delta(
                incumbent, basis, current, validate=True
            )
        repair_s.append(time.perf_counter() - t0)
        assert result is not None, "repair refused a moderate storm"

        t0 = time.perf_counter()
        if hierarchical:
            scratch = HierarchicalScheduler()(current)
        else:
            scratch = schedule_openshop(current)
        full_s.append(time.perf_counter() - t0)
        check_schedule(scratch, current.cost)

        ratios.append(result.completion_time / scratch.completion_time)
        relevant = (basis > 0) | (cost > 0)
        dirty_fracs.append(
            float(((basis != cost) & relevant).sum() / relevant.sum())
        )
        repaired_events.append(result.reinserted)

    repair_stats = _latency_stats(repair_s)
    full_stats = _latency_stats(full_s)
    return {
        "meta": {
            "ticks": ticks,
            "dirty_nodes": dirty_nodes,
            "cluster_size": cluster_size,
            "seed": seed,
            "scheduler": "hierarchical" if hierarchical else "openshop",
            "workload": "uniform 1 MB, clustered platform",
        },
        "repair": repair_stats,
        "full": full_stats,
        "speedup_p50": full_stats["p50_s"] / repair_stats["p50_s"],
        "makespan_ratio_max": float(max(ratios)),
        "dirty_fraction_mean": float(np.mean(dirty_fracs)),
        "repaired_events_mean": float(np.mean(repaired_events)),
    }


def _latency_stats(samples: Sequence[float]) -> Dict[str, float]:
    values = np.asarray(samples, dtype=float)
    return {
        "p50_s": float(np.quantile(values, 0.50)),
        "p99_s": float(np.quantile(values, 0.99)),
        "mean_s": float(values.mean()),
    }


def collectives_instance(num_procs: int, *, seed: int = 0) -> DirectorySnapshot:
    """The deterministic clustered snapshot the collectives are benched on."""
    from repro.network.generators import clustered_pairwise_parameters

    rng = to_rng(stable_seed("bench.collectives", seed, num_procs))
    cluster_size = min(64, max(2, num_procs // 4))
    latency, bandwidth = clustered_pairwise_parameters(
        num_procs, cluster_size=cluster_size, rng=rng
    )
    return DirectorySnapshot(latency=latency, bandwidth=bandwidth)


def _collectives(
    num_procs: int, *, seed: int = 0, size_bytes: float
) -> Dict[str, Any]:
    """The collective planners on a clustered heterogeneous platform.

    Every planner schedules a ``size_bytes`` payload on the deterministic
    :func:`collectives_instance`, recording planning wall-clock,
    modelled completion time and event count.  The tier also pins the
    headline quality ratios — the log-round broadcast vs the binomial
    tree and the pipelined straggler-aware ring vs the lockstep
    rank-order ring.
    """
    from repro.collectives import (
        allreduce_log_tree,
        allreduce_rs_ag,
        alltoall_direct_plan,
        broadcast_log_plan,
        make_collective,
    )

    snapshot = collectives_instance(num_procs, seed=seed)
    tier: Dict[str, Any] = {
        "meta": {
            "size_bytes": size_bytes, "seed": seed, "platform": "clustered",
        }
    }

    def timed(name: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        plan = fn(snapshot, size_bytes, *args, **kwargs)
        elapsed = time.perf_counter() - t0
        tier[name] = {
            "seconds": elapsed,
            "completion_s": float(plan.completion_time),
            "events": len(plan.schedule),
        }
        return float(plan.completion_time)

    binomial = timed(
        "broadcast_binomial", make_collective("broadcast_binomial")
    )
    log_bcast = timed("broadcast_log", broadcast_log_plan)
    lockstep = timed("allreduce_lockstep", make_collective("allreduce_ring"))
    ring_auto = timed("allreduce_ring_auto", allreduce_rs_ag)
    timed("allreduce_ring_rank_order", allreduce_rs_ag, ring=range(num_procs))
    timed("allreduce_tree", allreduce_log_tree)
    timed("alltoall_direct_ring", alltoall_direct_plan, topology="ring")
    timed("alltoall_direct_torus", alltoall_direct_plan, topology="torus")
    if num_procs & (num_procs - 1) == 0:
        timed(
            "alltoall_direct_hypercube", alltoall_direct_plan,
            topology="hypercube",
        )
    tier["broadcast_log_vs_binomial"] = binomial / log_bcast
    tier["allreduce_pipelined_vs_lockstep"] = lockstep / ring_auto
    return tier


def _allreduce_straggler(
    num_procs: int,
    *,
    seed: int = 0,
    ticks: int,
    block_bytes: float,
    straggler_factor: float,
    straggler_tick: int,
    straggler_ticks: int,
    scheduler: str,
) -> Dict[str, Any]:
    """Serve ring all-reduce traffic through a straggler episode.

    The gradient-synchronisation demand matrix
    (:func:`repro.workloads.mltraining.allreduce_ring_sizes`) is served
    by an :class:`~repro.runtime.AdaptiveSession` over a hand-built
    drift trace: calm ticks, then ``straggler_ticks`` ticks during which
    one node's links collapse by ``straggler_factor``, then recovery.
    Records per-tick planning latency, the session's decision mix (the
    straggler must push the policy off the pure-reuse path) and the
    worst executed-makespan degradation.
    """
    from repro.runtime import AdaptiveSession, PolicyConfig
    from repro.sim.replay import DriftTrace, TraceDirectory
    from repro.workloads.mltraining import allreduce_ring_sizes

    if ticks < straggler_tick + straggler_ticks + 1:
        raise ValueError(
            f"need ticks > {straggler_tick + straggler_ticks}, got {ticks}"
        )
    base = collectives_instance(num_procs, seed=seed)
    # The straggler is the node on the critical ring edge: the ring
    # makespan is the slowest edge's time, so slowing anyone else by
    # straggler_factor can vanish below it and the episode would be
    # invisible at large P.
    per_edge = 2.0 * (num_procs - 1) / num_procs * block_bytes
    ring_edge_times = np.array([
        base.latency[i, (i + 1) % num_procs]
        + per_edge / base.bandwidth[i, (i + 1) % num_procs]
        for i in range(num_procs)
    ])
    straggler = int(ring_edge_times.argmax())
    slow_bandwidth = base.bandwidth.copy()
    slow_bandwidth[straggler, :] /= straggler_factor
    slow_bandwidth[:, straggler] /= straggler_factor
    np.fill_diagonal(slow_bandwidth, base.bandwidth.diagonal())
    window = range(straggler_tick, straggler_tick + straggler_ticks)
    trace = DriftTrace(
        times=tuple(float(t) for t in range(ticks)),
        snapshots=tuple(
            DirectorySnapshot(
                latency=base.latency,
                bandwidth=slow_bandwidth if tick in window else base.bandwidth,
                time=float(tick),
            )
            for tick in range(ticks)
        ),
    )
    sizes = allreduce_ring_sizes(num_procs, block_bytes)
    # The policy's drift measure is a *mean* over demand pairs, so a
    # single straggler (2 of P ring edges) dilutes below the default
    # reuse threshold once P is large.  Ring gradient sync is governed
    # by its slowest edge, so scale the thresholds with P: one edge
    # drifting by ~straggler_factor must register.
    policy = PolicyConfig(
        reuse_threshold=min(0.05, 2.0 / num_procs),
        refine_threshold=min(0.25, 8.0 / num_procs),
    )
    session = AdaptiveSession(
        TraceDirectory(trace), sizes, scheduler=scheduler, policy=policy
    )
    tick_s, makespans, decisions_seq = [], [], []
    for tick in range(ticks):
        t0 = time.perf_counter()
        result = session.tick(dt=1.0 if tick else 0.0)
        tick_s.append(time.perf_counter() - t0)
        makespans.append(result.event.executed_makespan)
        decisions_seq.append(result.event.decision)
    latencies = np.asarray(tick_s)
    baseline = makespans[0]
    return {
        "meta": {
            "num_procs": num_procs,
            "ticks": ticks,
            "block_bytes": block_bytes,
            "straggler_node": straggler,
            "straggler_factor": straggler_factor,
            "straggler_window": [
                straggler_tick, straggler_tick + straggler_ticks
            ],
            "scheduler": scheduler,
            "seed": seed,
            "workload": "ring all-reduce gradient sync",
        },
        "tick_latency": {
            "p50_s": float(np.quantile(latencies, 0.50)),
            "p99_s": float(np.quantile(latencies, 0.99)),
            "max_s": float(latencies.max()),
        },
        "decisions": {
            name: decisions_seq.count(name)
            for name in ("reuse", "refine", "repair", "reschedule")
        },
        "decision_sequence": decisions_seq,
        "makespan": {
            "baseline_s": float(baseline),
            "straggler_worst_s": float(max(makespans)),
            "degradation_max": (
                float(max(makespans) / baseline) if baseline else 1.0
            ),
        },
    }


def _refine_ticks(
    num_procs: int,
    *,
    seed: int = 0,
    refines: int,
    sigma: float,
    ticks: int,
) -> Dict[str, Any]:
    """Refine-tick latency of one drifting serving tenant.

    A seeded daemon tenant (open shop, ``mixed`` sizes, a
    ``drift:sigma=...`` directory) is served tick by tick until
    ``refines`` of its ticks refine the active plan.  Records the p50
    and worst refine time (each tick's ``scheduler_elapsed``: the
    ``refine_orders`` call), the summed executor runs the refines made,
    and the summed predicted makespans of the refined plans.
    """
    from repro.serve.tenants import TenantProfile, TenantState

    directory = f"drift:sigma={sigma:g},ticks={ticks},seed={seed}"
    tenant = TenantState(
        TenantProfile(
            tenant="bench", procs=num_procs, directory=directory, seed=seed
        )
    )
    events = []
    for tick in range(ticks):
        event = tenant.session.tick(dt=1.0 if tick else 0.0).event
        if event.decision == "refine":
            events.append(event)
            if len(events) == refines:
                break
    else:
        raise ValueError(
            f"{len(events)} of {refines} refine ticks in {ticks} ticks"
        )
    elapsed = np.asarray([event.scheduler_elapsed for event in events])
    return {
        "meta": {
            "num_procs": num_procs,
            "directory": directory,
            "workload": tenant.profile.workload,
            "scheduler": tenant.profile.scheduler,
            "seed": seed,
            "refine_ticks": [event.tick for event in events],
        },
        "refine": {
            "p50_s": float(np.quantile(elapsed, 0.50)),
            "max_s": float(elapsed.max()),
        },
        "evaluations": int(sum(event.refine_evaluations for event in events)),
        "predicted_makespan_s": float(
            sum(event.predicted_makespan for event in events)
        ),
    }


def _robustness(
    num_procs: int,
    *,
    seed: int = 0,
    noise: Sequence[float],
    schedulers: Sequence[str],
) -> Dict[str, Any]:
    """A tight plan served one tick later under relative cost noise.

    Each scheduler plans :func:`bench_instance`; the plan is then served
    through the session's serving rule
    (:func:`repro.runtime.session.serve_plan`) under the instance's
    costs, each pair scaled by its own ``1 + u`` with ``u`` uniform in
    ``[-eps, eps]``.  Records, per scheduler and ``eps``, the served
    makespan and the FIFO execution of the plan's send orders (the only
    schedule the session served before it compared disciplines), each
    as a ratio to that tick's lower bound, and the worst served/planned
    makespan over ``eps <= 1e-9``: a plan must not come apart under
    noise far below any measurement's resolution.
    """
    from repro.core.registry import make_scheduler
    from repro.runtime.session import serve_plan
    from repro.sim.engine import execute_orders

    problem = bench_instance(num_procs, seed=seed)
    out: Dict[str, Any] = {
        "meta": {
            "seed": seed,
            "noise": list(noise),
            "workload": "bench_instance (mixed sizes)",
        },
    }
    worst = 0.0
    for name in schedulers:
        plan = make_scheduler(name)(problem)
        orders = plan.send_orders()
        entry: Dict[str, Any] = {
            "planned_ratio_to_lb": plan.completion_time
            / problem.lower_bound(),
        }
        for k, eps in enumerate(noise):
            rng = to_rng(stable_seed("bench.robustness", seed, num_procs, k))
            cost = problem.cost * (
                1.0 + rng.uniform(-eps, eps, problem.cost.shape)
            )
            noisy = TotalExchangeProblem(cost=cost, sizes=problem.sizes)
            served = serve_plan(plan, orders, problem.cost, noisy).schedule
            fifo = execute_orders(noisy, orders, validate=False)
            bound = noisy.lower_bound()
            entry[f"eps_{eps:.0e}"] = {
                "served_ratio_to_lb": served.completion_time / bound,
                "fifo_ratio_to_lb": fifo.completion_time / bound,
            }
            if eps <= 1e-9:
                worst = max(
                    worst, served.completion_time / plan.completion_time
                )
        out[name] = entry
    out["served_vs_planned_max"] = worst
    return out


def _drive_daemon(
    meta: Dict[str, Any], workloads: Optional[Sequence[str]] = None
) -> Dict[str, Any]:
    """Start a daemon on a temp unix socket, drive load, tear down.

    ``meta`` carries the load shape (tenants, cohorts, num_procs,
    connections, duration_s, scheduler, directory, workload) and is
    recorded as the tier's ``meta``.  Returns the tier payload:
    end-to-end req/s, decision-latency percentiles, decision mix,
    batching and cache effectiveness, and the daemon's final
    ``stats()``.
    """
    import os
    import tempfile
    import threading

    from repro.serve import (
        DaemonClient,
        DaemonConfig,
        LoadGenerator,
        SchedulerDaemon,
    )

    sock = os.path.join(
        tempfile.mkdtemp(prefix="repro-bench-daemon-"), "daemon.sock"
    )
    daemon = SchedulerDaemon(
        DaemonConfig(socket_path=sock, max_queue=512, batch_max=64)
    )
    daemon.bind()
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    try:
        generator = LoadGenerator(
            sock,
            tenants=meta["tenants"],
            cohorts=meta["cohorts"],
            procs=meta["num_procs"],
            scheduler=meta["scheduler"],
            directory=meta["directory"],
            workload=workloads[0] if workloads else meta["workload"],
            workloads=workloads,
            connections=meta["connections"],
        )
        report = generator.run(meta["duration_s"])
        with DaemonClient(sock) as client:
            stats = client.stats()
            client.shutdown()
    finally:
        thread.join(timeout=10)
    return {
        "meta": meta,
        "throughput": {
            "requests_per_s": report.requests_per_s,
            "requests": report.requests,
            "accepted": report.accepted,
            "retried": report.retried,
            "dropped": report.dropped,
            "errors": report.errors,
            "backpressured": report.backpressured,
        },
        "decision_latency": {
            "p50_s": report.decision_p50_s,
            "p99_s": report.decision_p99_s,
        },
        "client_latency": {
            "p50_s": report.latency_p50_s,
            "p99_s": report.latency_p99_s,
        },
        "decisions": dict(report.decisions),
        "batching": {
            "batched": report.batched,
            "cache_hits": report.cache_hits,
            "daemon_batched": stats["counters"]["batched"],
        },
        "daemon": {
            "counters": dict(stats["counters"]),
            "cache": dict(stats["cache"]),
            "decision_latency": dict(stats["decision_latency"]),
        },
    }


def _daemon_load(
    *,
    tenants: int,
    cohorts: int,
    procs: int,
    connections: int,
    duration_s: float,
    scheduler: str,
    directory: str,
    workload: str,
) -> Dict[str, Any]:
    """Multi-tenant daemon load: throughput and decision latency.

    A :class:`~repro.serve.SchedulerDaemon` driven by the closed-loop
    pipelined load generator (``tenants`` sessions over ``cohorts``
    shared profiles, so same-cohort requests exercise cross-tenant
    batching).
    """
    return _drive_daemon({
        "tenants": tenants,
        "cohorts": cohorts,
        "num_procs": procs,
        "connections": connections,
        "duration_s": duration_s,
        "scheduler": scheduler,
        "directory": directory,
        "workload": workload,
    })


def _daemon_ps_fanin(
    *,
    seed: int = 0,
    tenants: int,
    cohorts: int,
    procs: int,
    connections: int,
    duration_s: float,
    servers: int,
    block_scale: float,
    pareto_alpha: float,
    scheduler: str,
    directory: str,
) -> Dict[str, Any]:
    """Parameter-server fan-in through the daemon with a heavy-tail mix.

    Each cohort serves the parameter-server demand matrix
    (:func:`repro.workloads.mltraining.parameter_server_sizes`) with its
    own gradient size drawn from a Pareto(``pareto_alpha``) distribution
    scaled by ``block_scale`` — a heavy-tail tenant mix where a few
    cohorts push order-of-magnitude larger pushes/pulls through the same
    daemon.  Fan-in concentrates all demand on the server rows, the
    worst case for the per-tenant planning problems.
    """
    rng = np.random.default_rng(seed)
    block_sizes = [
        float(block_scale * (1.0 + draw))
        for draw in rng.pareto(pareto_alpha, size=cohorts)
    ]
    return _drive_daemon({
        "tenants": tenants,
        "cohorts": cohorts,
        "num_procs": procs,
        "connections": connections,
        "duration_s": duration_s,
        "scheduler": scheduler,
        "directory": directory,
        "servers": servers,
        "block_scale": block_scale,
        "pareto_alpha": pareto_alpha,
        "seed": seed,
        "workload": "parameter-server fan-in, heavy-tail cohort mix",
        "cohort_block_bytes": block_sizes,
    }, [
        f"ps:block_bytes={block:.0f},servers={servers}"
        for block in block_sizes
    ])


def _soak_smoke(*, seed: int = 0) -> Dict[str, Any]:
    """The seeded chaos soak as a guarded benchmark.

    Runs :func:`repro.ops.soak.run_soak` with the smoke configuration
    (6 tenants x 40 ticks of drift storms, faults, and forced scheduler
    timeouts, plus the daemon restart/backup phase) and records the
    outcome the guard cares about: oracle violations, dropped requests,
    the deterministic ``fallback_rate`` alert firing *and* resolving,
    backup/restart bit-identity, store rotation, and the wall time.
    """
    import shutil
    import tempfile

    from repro.ops.soak import SoakConfig, run_soak

    config = SoakConfig.smoke(seed)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="repro-soak-"))
    try:
        report = run_soak(config, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "meta": {
            "tenants": config.tenants,
            "num_procs": config.procs,
            "ticks": config.ticks,
            "sim_seconds": config.sim_seconds,
            "seed": seed,
            "scheduler": config.scheduler,
        },
        "ok": report.ok,
        "oracle_checks": report.oracle_checks,
        "oracle_violations": report.oracle_violations,
        "decisions": report.decisions,
        "fallback_activations": report.fallback_activations,
        "alerts_fired": report.alerts_fired,
        "alerts_resolved": report.alerts_resolved,
        "daemon": {
            "accepted": report.daemon.get("accepted", 0),
            "served": report.daemon.get("served", 0),
            "dropped": report.daemon.get("dropped", 0),
            "zero_loss": report.daemon.get("zero_loss", False),
            "restart_bit_identical": report.daemon.get(
                "restart_bit_identical", False
            ),
        },
        "backup_bit_identical": bool(
            report.backup.get("bit_identical", False)
        ),
        "store": {
            "segments": report.store.get("segments", 0),
            "sealed_segments": report.store.get("sealed_segments", 0),
            "records_written": report.store.get("records_written", 0),
        },
        "wall_s": report.wall_s,
    }


def _scheduler_timings(
    proc_counts: Sequence[int],
    *,
    seed: int = 0,
    repeats: int,
    scheduler: Optional[Sequence[str]] = None,
    directory: Optional[str] = None,
) -> Dict[str, Any]:
    """Best-of-``repeats`` end-to-end timings of registry schedulers.

    Each named scheduler (factory options included) plans the mixed
    workload at every ``P`` — on a random pairwise network, or on a
    snapshot of ``directory`` when a directory spec is given.
    """
    from repro.core.registry import make_scheduler
    from repro.directory.factory import make_directory

    if not scheduler:
        raise ValueError("the schedulers tier needs at least one --scheduler")
    schedulers = {name: make_scheduler(name) for name in scheduler}
    payload: Dict[str, Any] = {}
    for num_procs in proc_counts:
        rng = np.random.default_rng(seed)
        if directory:
            snapshot = make_directory(
                directory, num_procs=num_procs, rng=seed
            ).snapshot()
        else:
            latency, bandwidth = random_pairwise_parameters(num_procs, rng=rng)
            snapshot = DirectorySnapshot(latency=latency, bandwidth=bandwidth)
        problem = TotalExchangeProblem.from_snapshot(
            snapshot, MixedSizes(), rng=rng,
        )
        for name, fn in schedulers.items():
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                fn(problem)
                best = min(best, time.perf_counter() - t0)
            payload.setdefault(str(num_procs), {})[name] = best
    return payload


def _bench_one_size(
    num_procs: int,
    *,
    repeats: int,
    matching_max_p: int,
    reference_max_p: int,
    seed: int,
) -> KernelTimer:
    problem = bench_instance(num_procs, seed=seed)
    cost = problem.cost
    timer = KernelTimer(repeats=repeats)

    steps = timer.time("greedy_steps", greedy_steps, cost)
    orders = greedy_orders(problem)
    timer.time(
        "execute_orders", execute_orders_on_cost, cost, orders,
        sizes=problem.sizes,
    )
    timer.time(
        "execute_steps_strict", execute_steps_strict, cost, steps,
        sizes=problem.sizes,
    )
    timer.time("greedy_end_to_end", schedule_greedy, problem)
    timer.time("openshop", schedule_openshop, problem)
    if num_procs <= matching_max_p:
        # One extraction takes tens of seconds per backend at P=512;
        # a single repeat keeps the tier inside the bench budget.
        matching_repeats = repeats if num_procs <= 256 else 1
        timer.time(
            "matching_rounds_scipy", matching_rounds, cost,
            repeats=matching_repeats,
        )
        timer.time(
            "matching_rounds_auction", matching_rounds, cost,
            backend="auction", repeats=matching_repeats,
        )

    if num_procs <= reference_max_p:
        timer.time(
            "greedy_steps_reference", reference.greedy_steps_reference, cost
        )
        timer.time(
            "execute_orders_reference",
            reference.execute_orders_on_cost_reference,
            cost,
            orders,
            sizes=problem.sizes,
        )
        timer.time(
            "execute_steps_strict_reference",
            reference.execute_steps_strict_reference,
            cost,
            steps,
            sizes=problem.sizes,
        )
        timer.time(
            "greedy_end_to_end_reference",
            reference.schedule_greedy_reference,
            problem,
        )
        timer.time(
            "openshop_reference", reference.schedule_openshop_reference,
            problem,
        )
    return timer


def run_bench(
    proc_counts: Sequence[int],
    *,
    repeats: int,
    matching_max_p: int,
    reference_max_p: int,
    smoke: bool,
    seed: int = 0,
) -> Dict[str, Any]:
    """Time the scheduling kernels against the frozen seed kernels.

    Returns the top-level ``BENCH_core.json`` record: ``meta``,
    ``kernels`` (best/mean seconds per kernel per ``P``) and
    ``speedups_vs_reference``.  ``smoke`` only labels the record.
    """
    kernels: Dict[str, Dict[str, Any]] = {}
    speedups: Dict[str, Dict[str, float]] = {}
    for num_procs in proc_counts:
        timer = _bench_one_size(
            int(num_procs),
            repeats=repeats,
            matching_max_p=matching_max_p,
            reference_max_p=reference_max_p,
            seed=seed,
        )
        kernels[str(num_procs)] = timer.summary()
        per_p = {}
        for name, ref_name in REFERENCE_OF.items():
            if name in timer.timings and ref_name in timer.timings:
                per_p[name] = timer.speedup(ref_name, name)
        if per_p:
            speedups[str(num_procs)] = per_p

    return {
        "meta": {
            "generated_by": "repro.perf.bench",
            "timestamp": time.time(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "proc_counts": [int(p) for p in proc_counts],
            "repeats": repeats,
            "matching_max_p": matching_max_p,
            "reference_max_p": reference_max_p,
            "smoke": smoke,
            "seed": seed,
            "workload": "mixed (1 kB / 1 MB)",
        },
        "kernels": kernels,
        "speedups_vs_reference": speedups,
    }


def write_bench_json(result: Dict[str, Any], path: PathLike) -> pathlib.Path:
    """Write a bench result as pretty-printed JSON."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return path


def _read_record(path: PathLike) -> Dict[str, Any]:
    """The bench record at ``path``; a missing or unreadable file is empty."""
    path = pathlib.Path(path)
    if not path.exists():
        return {}
    try:
        loaded = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}
    return loaded if isinstance(loaded, dict) else {}


def update_bench_json(
    section: str, payload: Dict[str, Any], path: PathLike
) -> pathlib.Path:
    """Merge ``payload`` under ``extra[section]`` of an existing bench file.

    ``section`` :data:`TOP_LEVEL` merges the payload's keys into the top
    level instead (the kernel record), keeping every ``extra`` tier.  A
    missing or unreadable file starts fresh rather than failing.
    """
    data = _read_record(path)
    if section == TOP_LEVEL:
        data.update(payload)
    else:
        data.setdefault("extra", {})[section] = payload
    return write_bench_json(data, path)


def render_bench(result: Dict[str, Any]) -> str:
    """Human-readable table of a :func:`run_bench` result."""
    from repro.util.tables import format_table

    rows = []
    for p_label, timings in result["kernels"].items():
        per_p_speedups = result.get("speedups_vs_reference", {}).get(
            p_label, {}
        )
        for name, timing in timings.items():
            speedup = per_p_speedups.get(name)
            rows.append([
                int(p_label),
                name,
                timing["best_s"],
                timing["mean_s"],
                f"{speedup:.1f}x" if speedup is not None else "-",
            ])
    return format_table(
        ["P", "kernel", "best (s)", "mean (s)", "speedup vs seed"],
        rows,
        precision=4,
        title="repro.perf kernel benchmarks",
    )


def _render_sections(sections: Dict[str, Dict[str, Any]]) -> str:
    """Every recorded value of every produced section, one row each."""
    from repro.util.tables import format_table

    def leaves(node: Any, prefix: str):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else key
            if isinstance(value, dict):
                yield from leaves(value, path)
            elif isinstance(value, list):
                yield path, " ".join(str(item) for item in value)
            elif isinstance(value, float):
                yield path, f"{value:.4g}"
            else:
                yield path, value

    rows = [
        [section, path, value]
        for section, payload in sections.items()
        for path, value in leaves(
            {k: v for k, v in payload.items() if k != "meta"}, ""
        )
    ]
    return format_table(["section", "metric", "value"], rows)


# -- the tier table -----------------------------------------------------------

#: Section name of the kernel record, which lives at the top level of
#: ``BENCH_core.json`` rather than under ``extra``.
TOP_LEVEL = ""

#: Metric kinds.  ``quality`` numbers are deterministic given the seed
#: and held tightly; ``seconds`` are wall clock and held loosely;
#: ``ratio`` is a ratio of two wall clocks on the same machine (machine
#: speed mostly cancels) and gets an intermediate slack; ``guarantee``
#: is an absolute bound every fresh run must meet, whatever the record.
QUALITY, SECONDS, RATIO, GUARANTEE = "quality", "seconds", "ratio", "guarantee"


class Metric(NamedTuple):
    """One guarded number of a tier.

    ``path`` is dotted into the section payload; a ``*`` segment spans
    every dict-valued child except ``meta`` (per scheduler, per
    planner, per ``P``).  ``higher`` marks metrics where higher is
    better.  A guarantee holds when the value is ``>= bound``
    (``higher``) or ``<= bound``; with ``bound`` None the value only
    has to be present.
    """

    path: str
    kind: str
    higher: bool = False
    bound: Any = None


class Tier(NamedTuple):
    """One ``BENCH_core.json`` tier: where it lands, how it is made, what
    is guarded.

    ``section`` is a format string over ``P`` and ``params`` (a ``{P}``
    tier is produced once per size, as ``produce(P, ...)``; otherwise
    ``produce(sizes, ...)`` when the tier has sizes, ``produce(...)``
    when not).  ``inputs`` name the per-run values the CLI passes on
    (its ``--seed``, ``--scheduler``, ``--directory``).  ``max_p`` bounds
    the ``P`` a shared section pattern claims for this tier.
    """

    section: str
    produce: Callable[..., Dict[str, Any]]
    params: Mapping[str, Any]
    sizes: Tuple[int, ...] = ()
    metrics: Tuple[Metric, ...] = ()
    inputs: Tuple[str, ...] = ("seed",)
    render: Optional[Callable[[Dict[str, Dict[str, Any]]], str]] = None
    max_p: Optional[int] = None


def _render_kernel_record(sections: Dict[str, Dict[str, Any]]) -> str:
    return render_bench(sections[TOP_LEVEL])


_KERNEL_PARAMS = {"matching_max_p": 512, "reference_max_p": 256}
_SCALE_METRICS = (
    Metric("*.ratio_to_lb", QUALITY), Metric("*.seconds", SECONDS),
)
_HIER_METRICS = _SCALE_METRICS + (
    Metric("hierarchical.ratio_to_lb", GUARANTEE, bound=1.25),
)
_HIER_PARAMS = {"cluster_size": 64, "flat_max_p": 1024}
_DAEMON_PARAMS = {
    "tenants": 100,
    "cohorts": 16,
    "procs": 6,
    "connections": 4,
    "duration_s": 5.0,
    "scheduler": "openshop",
    "directory": "drift:sigma=0.02",
}
_DEFAULT_LADDER = (50, 100, 256, 512, 1024)

TIERS: Dict[str, Tier] = {
    "kernels": Tier(
        TOP_LEVEL, run_bench,
        {"repeats": 3, "smoke": False, **_KERNEL_PARAMS},
        sizes=_DEFAULT_LADDER,
        render=_render_kernel_record,
    ),
    "smoke": Tier(
        TOP_LEVEL, run_bench,
        {"repeats": 1, "smoke": True, **_KERNEL_PARAMS},
        sizes=(16, 32),
        metrics=tuple(
            Metric(f"kernels.*.{kernel}", GUARANTEE)
            for kernel in (
                "greedy_steps", "openshop", "openshop_reference",
                "matching_rounds_scipy", "matching_rounds_auction",
            )
        ),
        render=_render_kernel_record,
    ),
    "schedulers": Tier(
        "cli_scheduler_timings", _scheduler_timings, {"repeats": 3},
        sizes=_DEFAULT_LADDER, inputs=("seed", "scheduler", "directory"),
    ),
    # scale_p{P} up to P=1024 is the flat ladder; beyond, the hierarchical
    # one (the P=1024 head-to-head lives in scale_hier_p1024).
    "scale_flat": Tier(
        "scale_p{P}", _flat_scale, {}, sizes=(256, 1024),
        metrics=_SCALE_METRICS, max_p=1024,
    ),
    "scale_hier": Tier(
        "scale_hier_p{P}", _hier_scale, _HIER_PARAMS, sizes=(1024,),
        metrics=_HIER_METRICS,
    ),
    "scale": Tier(
        "scale_p{P}", _hier_scale, _HIER_PARAMS, sizes=(2048, 4096, 8192),
        metrics=_HIER_METRICS,
    ),
    "drift": Tier(
        "drift_response_p{P}", _drift_response,
        {
            "ticks": 8,
            "dirty_node_fraction": 0.05,
            "cluster_size": 64,
            "hier_min_p": 2048,
        },
        sizes=(256, 1024, 4096),
        metrics=(
            Metric("makespan_ratio_max", QUALITY),
            Metric("makespan_ratio_max", GUARANTEE, bound=1.10),
            Metric("speedup_p50", RATIO, higher=True),
            Metric("repair.p50_s", SECONDS),
        ),
    ),
    "collectives": Tier(
        "collectives_p{P}", _collectives, {"size_bytes": float(1 << 20)},
        sizes=(64, 256),
        metrics=(
            Metric("*.completion_s", QUALITY),
            Metric("*.seconds", SECONDS),
            Metric("broadcast_log_vs_binomial", QUALITY, higher=True),
            Metric(
                "broadcast_log_vs_binomial", GUARANTEE, higher=True, bound=1.0
            ),
            Metric("allreduce_pipelined_vs_lockstep", QUALITY, higher=True),
            Metric(
                "allreduce_pipelined_vs_lockstep", GUARANTEE,
                higher=True, bound=1.0,
            ),
        ),
    ),
    "straggler": Tier(
        "collectives_allreduce_straggler_p{P}", _allreduce_straggler,
        {
            "ticks": 8,
            "block_bytes": float(1 << 26),
            "straggler_factor": 8.0,
            "straggler_tick": 3,
            "straggler_ticks": 2,
            "scheduler": "greedy",
        },
        sizes=(512,),
        metrics=(
            Metric("makespan.degradation_max", QUALITY),
            Metric(
                "makespan.degradation_max", GUARANTEE, higher=True, bound=2.0
            ),
            Metric("tick_latency.p50_s", SECONDS),
        ),
    ),
    "refine": Tier(
        "refine_p{P}", _refine_ticks,
        {"refines": 4, "sigma": 0.02, "ticks": 64},
        sizes=(8, 32, 64),
        metrics=(
            Metric("refine.p50_s", SECONDS),
            Metric("refine.max_s", SECONDS),
            Metric("evaluations", QUALITY),
            Metric("predicted_makespan_s", QUALITY),
        ),
    ),
    "robustness": Tier(
        "robustness_p{P}", _robustness,
        {
            "noise": (0.0, 1e-9, 1e-3, 1e-1),
            "schedulers": ("openshop", "greedy", "hierarchical"),
        },
        sizes=(64, 256),
        metrics=(
            Metric("*.*.served_ratio_to_lb", QUALITY),
            Metric("served_vs_planned_max", GUARANTEE, bound=1.0 + 1e-6),
        ),
    ),
    "daemon_load": Tier(
        "daemon_load_t{tenants}", _daemon_load,
        {**_DAEMON_PARAMS, "workload": "mixed"}, inputs=(),
    ),
    "daemon_ps_fanin": Tier(
        "daemon_ps_fanin_t{tenants}", _daemon_ps_fanin,
        {
            **_DAEMON_PARAMS,
            "servers": 1,
            "block_scale": float(1 << 20),
            "pareto_alpha": 1.2,
        },
    ),
    "soak_smoke": Tier(
        "soak_smoke", _soak_smoke, {},
        metrics=(
            Metric("ok", GUARANTEE, higher=True, bound=True),
            Metric("oracle_violations", GUARANTEE, bound=0),
            Metric("daemon.dropped", GUARANTEE, bound=0),
            Metric("daemon.zero_loss", GUARANTEE, higher=True, bound=True),
            Metric(
                "daemon.restart_bit_identical", GUARANTEE,
                higher=True, bound=True,
            ),
            Metric("backup_bit_identical", GUARANTEE, higher=True, bound=True),
            Metric("alerts_fired", GUARANTEE, higher=True, bound=1),
            Metric("alerts_resolved", GUARANTEE, higher=True, bound=1),
            Metric("store.sealed_segments", GUARANTEE, higher=True, bound=1),
            Metric("wall_s", SECONDS),
        ),
    ),
}


def tier_of(section: str) -> Optional[str]:
    """Name of the tier that owns ``extra[section]`` (None if no tier does)."""
    import re

    for name, tier in TIERS.items():
        if tier.section == TOP_LEVEL:
            continue
        pattern = re.escape(
            tier.section.format(P="{P}", **tier.params)
        ).replace(r"\{P\}", r"(\d+)")
        match = re.fullmatch(pattern, section)
        if match and (tier.max_p is None or int(match.group(1)) <= tier.max_p):
            return name
    return None


class TierRun(NamedTuple):
    """What :func:`run_tier` produced: section -> payload, the guard's
    violations (empty is a pass), and the rendered table."""

    sections: Dict[str, Dict[str, Any]]
    problems: List[str]
    text: str


def run_tier(
    name: str,
    sizes: Optional[Sequence[int]] = None,
    *,
    output: Optional[PathLike] = None,
    **inputs: Any,
) -> TierRun:
    """Produce tier ``name``, guard it, merge it into ``output``, render it.

    ``sizes`` replaces the tier's default ``P`` ladder; ``inputs`` are the
    values the tier lists in :attr:`Tier.inputs` (e.g. ``seed``).  Each
    section is held against the one it is about to replace in the record
    at ``output`` (:func:`repro.perf.regression.tier_regressions`);
    without a record only the absolute guarantees apply.
    """
    from repro.perf.regression import tier_regressions

    tier = TIERS[name]
    if sizes and not tier.sizes:
        raise ValueError(f"tier {name!r} takes no sizes")
    sizes = tuple(int(p) for p in (sizes or tier.sizes))
    if "{P}" in tier.section:
        runs = [
            (tier.section.format(P=p, **tier.params), (p,)) for p in sizes
        ]
    else:
        section = tier.section.format(**tier.params)
        runs = [(section, (sizes,) if sizes else ())]
    for section, _ in runs:
        owner = tier_of(section) if section != TOP_LEVEL else name
        if owner != name:
            raise ValueError(
                f"section {section!r} belongs to tier {owner!r}, not {name!r}"
            )
    record = _read_record(output) if output else {}
    sections: Dict[str, Dict[str, Any]] = {}
    problems: List[str] = []
    for section, args in runs:
        payload = tier.produce(*args, **tier.params, **inputs)
        committed = (
            record if section == TOP_LEVEL
            else record.get("extra", {}).get(section)
        )
        problems += tier_regressions(
            section or name, committed, payload, tier.metrics
        )
        if output:
            update_bench_json(section, payload, output)
        sections[section] = payload
    render = tier.render or _render_sections
    return TierRun(sections, problems, render(sections))
