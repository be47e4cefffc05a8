"""The online adaptive scheduling runtime.

:class:`AdaptiveSession` is the long-lived component the paper's run-time
story implies but a one-shot scheduler cannot provide: it owns a
directory subscription (any :class:`~repro.directory.service.DirectoryService`
— static, noisy, trace-driven), keeps the active plan in order-based
form, and on every serving tick (one total exchange) measures directory
drift and picks the cheapest adequate response — reuse the plan, repair
it incrementally, or recompute it — under the policy in
:mod:`repro.runtime.policy`.

Robustness guarantees:

* full reschedules answer from a digest-keyed
  :class:`~repro.perf.memo.ScheduleCache` when the cost matrix was seen
  before (sensor-style workloads revisit conditions);
* every scheduler invocation runs under a wall-clock deadline; on
  timeout or exception the session falls back to the ``O(P^2)`` baseline
  caterpillar and keeps serving (fallback results are never cached);
* staleness caps bound how long noisy, low-drift readings can pin the
  session to an old plan.

Every tick serves the active plan in the better of two disciplines
(:func:`serve_plan`): its strict re-timing (each event starts once both
of its ports are free, in the plan's per-port orders) or its FIFO
execution (the executor's first-come first-served receivers).  Every
tick emits a structured :class:`~repro.runtime.metrics.TickEvent` into
a :class:`~repro.runtime.metrics.RuntimeMetrics` registry, including the
predicted-vs-executed makespan regret (the served candidate under the
planning costs versus its re-execution under the costs that actually
materialised — measurement error, the adaptivity gap of
:mod:`repro.sim.replay`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Union

import numpy as np

from repro.adaptive.delta import DeltaRepairResult, repair_plan
from repro.adaptive.incremental import dirty_fraction, refine_orders
from repro.core.baseline import schedule_baseline
from repro.core.problem import TotalExchangeProblem
from repro.core.registry import Scheduler, make_scheduler
from repro.directory.service import DirectoryService, DirectorySnapshot
from repro.faults.executor import cut_execution, merge_with_salvaged
from repro.faults.models import (
    Fault,
    apply_fault_to_snapshot,
    apply_fault_to_state,
)
from repro.faults.repair import repair_schedule, split_routes
from repro.model.cost import unchecked_cost_matrix
from repro.model.messages import SizeSpec
from repro.perf.memo import ScheduleCache
from repro.ops.sink import MetricsSink, MultiSink
from repro.runtime.metrics import RuntimeMetrics, TickEvent
from repro.runtime.policy import (
    PolicyConfig,
    REPAIR,
    RESCHEDULE,
    RETRY,
    REFINE,
    REUSE,
    decide,
    decide_repair,
    drift_magnitude,
    retry_outcome,
)
from repro.sim.engine import SendOrders, execute_orders, execute_orders_on_cost
from repro.timing.events import Schedule
from repro.util.rng import RngLike
from repro.util.validation import check_square_matrix


@dataclass
class _Plan:
    """The active plan in order-based form."""

    orders: SendOrders
    basis_cost: np.ndarray  # the costs the orders were computed/refined for
    #: The plan as an event schedule under the basis costs: every tick
    #: re-times it, and the repair tier patches it.
    schedule: Schedule


@dataclass(frozen=True)
class Served:
    """The schedule one tick serves, and the prediction behind it."""

    #: The served discipline, executed under the actual costs.
    schedule: Schedule
    #: The served candidate's makespan under the planning costs.
    predicted: float


def serve_plan(
    schedule: Schedule,
    orders: SendOrders,
    basis_cost: np.ndarray,
    planning: TotalExchangeProblem,
    actual: Optional[TotalExchangeProblem] = None,
    *,
    scheduler=None,
    retimed: Optional[DeltaRepairResult] = None,
) -> Served:
    """Serve a plan in the better of its two disciplines.

    The candidates are the strict re-timing of ``schedule`` (planned for
    ``basis_cost``) under the planning costs, through :func:`repair_plan`
    unless ``retimed`` already holds it, and the FIFO execution of
    ``orders``.  The executor runs only when the re-timing is not
    already its answer, and never for a plan that repeats a pair (the
    executor would price every piece at its pair's whole cost).  The
    smaller predicted makespan is served; a tie serves FIFO.  With a
    separate ``actual`` problem, the chosen discipline runs again under
    its costs.
    """
    if retimed is None:
        retimed = repair_plan(
            schedule, basis_cost, planning, scheduler=scheduler,
            validate=False,
        )
    planned = strict = None
    if retimed is not None:
        planned, strict = retimed.schedule, not retimed.fifo
    if retimed is None or not (retimed.fifo or retimed.split):
        fifo = execute_orders(planning, orders, validate=False)
        if planned is None or fifo.completion_time <= planned.completion_time:
            planned, strict = fifo, False
    executed = planned
    if (
        actual is not None
        and actual is not planning
        and not np.array_equal(actual.cost, planning.cost)
    ):
        again = None
        if strict:
            again = repair_plan(
                planned, planning.cost, actual, validate=False
            )
        executed = (
            again.schedule if again is not None
            else execute_orders(actual, orders, validate=False)
        )
    return Served(executed, planned.completion_time)


@dataclass
class _ServeState:
    """What one serving path produced, before strike recovery."""

    decision: str
    reason: str
    drift: float
    predicted: float
    executed: Schedule
    actual: TotalExchangeProblem
    elapsed: float = 0.0
    evaluations: int = 0
    cache_hit: bool = False
    fallback: bool = False
    undeliverable: int = 0
    relay_tick: bool = False
    dirty: float = 0.0
    repaired_events: int = 0


@dataclass(frozen=True)
class _StrikeOutcome:
    """Recovery from one mid-schedule strike."""

    executed: Schedule
    action: str
    retries: int
    waited: float
    salvaged: int
    resent: int
    latency: float
    undeliverable: int
    detail: str


@dataclass(frozen=True)
class TickResult:
    """One serving tick's outcome: the structured event plus the
    executed schedule (under the tick's actual costs)."""

    event: TickEvent
    schedule: Schedule

    @property
    def decision(self) -> str:
        return self.event.decision


class AdaptiveSession:
    """Serve repeated total exchanges against a drifting directory.

    Parameters
    ----------
    directory:
        The drift feed.  A :class:`~repro.directory.noisy.NoisyDirectory`
        is planned against its noisy snapshots but *executed* against its
        wrapped truth, so measurement error shows up as regret.
    sizes:
        Message sizes: a matrix, or a
        :class:`~repro.model.messages.SizeSpec` materialised once at
        construction (``rng`` seeds it).
    scheduler:
        Registry name (resolved via
        :func:`~repro.core.registry.make_scheduler`) or a bare
        ``problem -> Schedule`` callable.
    policy:
        Tunables; defaults to :class:`~repro.runtime.policy.PolicyConfig`.
    cache:
        Digest-keyed schedule cache; a private one is created when not
        shared explicitly.
    metrics:
        Observability registry; a private one is created by default.
    clock:
        Monotonic-seconds callable used for the scheduler deadline
        (injectable for deterministic tests).
    force_timeout_ticks:
        Chaos hook: tick indices at which the scheduler invocation is
        treated as having blown its deadline, exercising the baseline
        fallback path deterministically (used by ``serve --smoke`` and
        the tests; harmless in production use).
    """

    def __init__(
        self,
        directory: DirectoryService,
        sizes: Union[np.ndarray, SizeSpec],
        *,
        scheduler: Union[str, Scheduler] = "openshop",
        policy: Optional[PolicyConfig] = None,
        cache: Optional[ScheduleCache] = None,
        metrics: Optional[RuntimeMetrics] = None,
        sink: Optional[MetricsSink] = None,
        clock: Callable[[], float] = time.perf_counter,
        force_timeout_ticks: Iterable[int] = (),
        rng: RngLike = None,
    ):
        self._directory = directory
        n = directory.num_procs
        if isinstance(sizes, SizeSpec):
            sizes = sizes.sizes(n, rng=rng)
        # Checked once here; every tick then trusts this private copy.
        sizes = check_square_matrix("sizes", sizes, nonnegative=True)
        if sizes.shape != (n, n):
            raise ValueError(f"sizes must be {n}x{n}, got {sizes.shape}")
        self._sizes = sizes.copy()
        self._sizes.flags.writeable = False
        if isinstance(scheduler, str):
            self._scheduler_name = scheduler
            self._scheduler = make_scheduler(scheduler)
        else:
            self._scheduler_name = getattr(
                scheduler, "__qualname__", repr(scheduler)
            )
            self._scheduler = scheduler
        self.policy = policy if policy is not None else PolicyConfig()
        self.cache = cache if cache is not None else ScheduleCache()
        self.metrics = metrics if metrics is not None else RuntimeMetrics()
        # Every tick event goes through one MetricsSink publish; extra
        # consumers (ops store, SLO monitor) fan out next to the
        # in-memory aggregates.
        self._sink: MetricsSink = (
            MultiSink([self.metrics, sink]) if sink is not None
            else self.metrics
        )
        self._clock = clock
        self._force_timeout_ticks = frozenset(
            int(t) for t in force_timeout_ticks
        )

        self._plan: Optional[_Plan] = None
        self._tick_index = 0
        self._reuse_streak = 0
        self._ticks_since_reschedule = 0
        self.last_schedule: Optional[Schedule] = None

        # Degraded mode: directories that inject faults expose
        # availability masks (fault_view) and mid-schedule strikes
        # (striking_between) — detected by duck-typing so any
        # DirectoryService composes.
        self._fault_view_fn = getattr(directory, "fault_view", None)
        self._striking_fn = getattr(directory, "striking_between", None)
        # Links the session gave up on after exhausting transient
        # retries; overrides profile recovery (a declared-dead link
        # stays routed-around even if it silently comes back).
        self._declared_dead = np.zeros((n, n), dtype=bool)
        self._last_fault_scan = float("-inf")
        self._seen_faults: set = set()

        # Schedulers that maintain auxiliary state (the hierarchical
        # scheduler's cluster assignments) share it through this
        # session's cache — detected by duck-typing, like the fault
        # hooks above.
        bind = getattr(self._scheduler, "bind_cluster_cache", None)
        if bind is not None:
            bind(self.cache)

    # -- directory views ----------------------------------------------------

    @property
    def scheduler_name(self) -> str:
        return self._scheduler_name

    @property
    def tick_index(self) -> int:
        """Index the *next* tick will carry."""
        return self._tick_index

    def _planning_problem(
        self, snapshot: DirectorySnapshot, sizes: np.ndarray
    ) -> TotalExchangeProblem:
        return TotalExchangeProblem._from_checked(
            unchecked_cost_matrix(snapshot, sizes), sizes
        )

    def _true_snapshot(
        self, planning_snapshot: DirectorySnapshot
    ) -> DirectorySnapshot:
        """The directory's noise-free view when it exposes one
        (``true_snapshot``), else the planning view."""
        true_snapshot = getattr(self._directory, "true_snapshot", None)
        if true_snapshot is None:
            return planning_snapshot
        return true_snapshot()

    def _true_problem(
        self,
        planning: TotalExchangeProblem,
        planning_snapshot: DirectorySnapshot,
        sizes: np.ndarray,
    ) -> TotalExchangeProblem:
        """The execution-time instance under the true costs."""
        true_snapshot = getattr(self._directory, "true_snapshot", None)
        if true_snapshot is None:
            return planning
        return self._planning_problem(true_snapshot(), sizes)

    # -- scheduling with deadline + fallback --------------------------------

    def _invoke_scheduler(self, problem: TotalExchangeProblem):
        """``(schedule, elapsed_s, fallback, detail)`` for one guarded
        scheduler invocation (never raises; falls back to baseline)."""
        deadline = self.policy.scheduler_deadline_s
        injected = self._tick_index in self._force_timeout_ticks
        elapsed = 0.0
        schedule: Optional[Schedule] = None
        detail = ""
        if not injected:
            started = self._clock()
            try:
                schedule = self._scheduler(problem)
            except Exception as exc:  # noqa: BLE001 — serving must not die
                detail = f"scheduler raised {type(exc).__name__}: {exc}"
                schedule = None
            elapsed = self._clock() - started
            if schedule is not None and deadline is not None:
                if elapsed > deadline:
                    detail = (
                        f"deadline: {elapsed:.3f}s > {deadline:g}s budget"
                    )
                    schedule = None
        else:
            detail = "injected timeout (chaos hook)"
        if schedule is not None:
            return schedule, elapsed, False, ""
        started = self._clock()
        fallback_schedule = schedule_baseline(problem)
        elapsed += self._clock() - started
        return fallback_schedule, elapsed, True, detail

    # -- the serving loop ---------------------------------------------------

    def _serve_planned(
        self,
        snapshot: DirectorySnapshot,
        sizes: np.ndarray,
        mask: Optional[np.ndarray],
    ) -> "_ServeState":
        """The reuse/refine/reschedule path (all demanded links usable).

        ``mask`` is the availability matrix under degradation (dead
        nodes): it keys the schedule cache so a repaired-world lookup
        can never answer with a pre-failure plan.
        """
        planning = self._planning_problem(snapshot, sizes)
        cache_hit = False
        fallback = False
        elapsed = 0.0
        evaluations = 0
        dirty = 0.0
        repaired_events = 0

        if self._plan is None:
            decision, reason = RESCHEDULE, "cold start: no active plan"
            drift = float("inf")
        else:
            drift = drift_magnitude(self._plan.basis_cost, planning.cost)
            dirty = dirty_fraction(
                self._plan.basis_cost,
                planning.cost,
                rtol=self.policy.pair_change_rtol,
            )
            decision, reason = decide(
                drift,
                config=self.policy,
                reuse_streak=self._reuse_streak,
                ticks_since_reschedule=self._ticks_since_reschedule,
                dirty_fraction=dirty,
            )
        if self._tick_index in self._force_timeout_ticks:
            decision = RESCHEDULE
            reason = "chaos hook: forced reschedule with injected timeout"

        retimed = None
        if decision == REPAIR:
            started = self._clock()
            retimed = repair_plan(
                self._plan.schedule,
                self._plan.basis_cost,
                planning,
                scheduler=self._scheduler,
                validate=False,
            )
            elapsed = self._clock() - started
            if retimed is None:
                decision = RESCHEDULE
                reason += "; delta repair failed: full reschedule"
            else:
                repaired_events = retimed.reinserted
                # The re-time preserves the plan's per-port orders, so
                # the plan stays anchored at its last reschedule or
                # refine: same orders, same basis, same re-timable
                # schedule.  Drift therefore keeps accumulating against
                # the true planning basis and the ladder escalates to
                # refine/reschedule once repairs alone would go stale —
                # rebasing here instead would let every repair restart
                # the drift clock and compound its own quality loss
                # tick over tick.  A repair tick differs from a reuse
                # tick only in its counters and its moved-event count.
                self._ticks_since_reschedule += 1
                self._reuse_streak = 0

        if decision == REFINE and any(
            len(set(dsts)) < len(dsts) for dsts in self._plan.orders
        ):
            # refine prices its moves with the FIFO executor, which
            # charges every piece of a split pair the pair's whole cost
            decision = RESCHEDULE
            reason += "; a split plan cannot be refined: full reschedule"

        if decision == RESCHEDULE:
            schedule = None
            if self._tick_index not in self._force_timeout_ticks:
                schedule = self.cache.lookup(
                    planning,
                    self._scheduler,
                    name=self._scheduler_name,
                    mask=mask,
                )
            if schedule is not None:
                cache_hit = True
            else:
                schedule, elapsed, fallback, detail = self._invoke_scheduler(
                    planning
                )
                if fallback:
                    reason += f"; fallback to baseline ({detail})"
                else:
                    self.cache.put(
                        planning,
                        self._scheduler,
                        schedule,
                        name=self._scheduler_name,
                        mask=mask,
                    )
            self._plan = _Plan(
                orders=schedule.send_orders(),
                basis_cost=planning.cost,
                schedule=schedule,
            )
            self._ticks_since_reschedule = 0
            self._reuse_streak = 0
        elif decision == REFINE:
            started = self._clock()
            result = refine_orders(
                self._plan.orders,
                planning,
                old_problem=TotalExchangeProblem._from_checked(
                    self._plan.basis_cost
                ),
                max_passes=self.policy.refine_passes,
                evaluation="delta",
            )
            elapsed = self._clock() - started
            evaluations = result.evaluations
            self._plan = _Plan(
                orders=result.orders,
                basis_cost=planning.cost,
                schedule=result.schedule,
            )
            # The refine's own execution is FIFO's answer for its orders
            # under the planning costs, and its own strict re-timing.
            retimed = DeltaRepairResult(
                schedule=result.schedule,
                dirty_pairs=0,
                reinserted=0,
                frozen=len(result.schedule),
                identical=True,
                fifo=True,
            )
            self._ticks_since_reschedule += 1
            self._reuse_streak = 0
        elif decision == REUSE:
            self._ticks_since_reschedule += 1
            self._reuse_streak += 1

        # Serve the active plan in the better discipline, executed under
        # the costs that actually materialised (the directory's truth
        # when it exposes one).
        actual = self._true_problem(planning, snapshot, sizes)
        plan = self._plan
        served = serve_plan(
            plan.schedule,
            plan.orders,
            plan.basis_cost,
            planning,
            actual,
            scheduler=self._scheduler,
            retimed=retimed,
        )
        return _ServeState(
            decision=decision,
            reason=reason,
            drift=drift,
            predicted=served.predicted,
            executed=served.schedule,
            actual=actual,
            elapsed=elapsed,
            evaluations=evaluations,
            cache_hit=cache_hit,
            fallback=fallback,
            dirty=dirty,
            repaired_events=repaired_events,
        )

    def _serve_degraded_relay(
        self,
        snapshot: DirectorySnapshot,
        sizes: np.ndarray,
        alive: np.ndarray,
        link_ok: np.ndarray,
    ) -> "_ServeState":
        """Serve a tick on which demanded links are down.

        The plan comes from the repair layer: direct pairs over
        surviving links, 2-hop relays for cut pairs, the session's own
        scheduler for the relay-free residual.  Relay plans are not
        order-reusable (a relay leg's cost depends on its payload, not
        the pair's demand), so relay ticks always reschedule — answered
        from the mask-keyed cache when conditions repeat.
        """
        routes = split_routes(snapshot, sizes, alive=alive, link_ok=link_ok)
        planning = self._planning_problem(snapshot, sizes)
        decision = RESCHEDULE
        reason = (
            f"degraded: {len(routes.relayed)} pair(s) relayed, "
            f"{len(routes.unreachable)} unreachable, "
            f"{len(routes.lost)} lost to dead nodes"
        )
        drift = (
            drift_magnitude(self._plan.basis_cost, planning.cost)
            if self._plan is not None
            else float("inf")
        )
        cache_hit = False
        fallback = False
        elapsed = 0.0
        planned_schedule = self.cache.lookup(
            planning, self._scheduler, name=self._scheduler_name, mask=link_ok
        )
        if planned_schedule is not None:
            cache_hit = True
        else:
            started = self._clock()
            try:
                planned_schedule = repair_schedule(
                    snapshot, sizes,
                    alive=alive, link_ok=link_ok,
                    scheduler=self._scheduler, routes=routes,
                ).schedule
            except Exception as exc:  # noqa: BLE001 — serving must not die
                fallback = True
                reason += (
                    f"; scheduler raised {type(exc).__name__}: "
                    "baseline routing"
                )
                planned_schedule = repair_schedule(
                    snapshot, sizes,
                    alive=alive, link_ok=link_ok,
                    scheduler=schedule_baseline, routes=routes,
                ).schedule
            elapsed = self._clock() - started
            if not fallback:
                self.cache.put(
                    planning,
                    self._scheduler,
                    planned_schedule,
                    name=self._scheduler_name,
                    mask=link_ok,
                )

        # Re-execute the same routes under the true costs.  The relay
        # engine re-derives dispatch order deterministically, so with a
        # noise-free directory executed == planned exactly.
        true_snap = self._true_snapshot(snapshot)
        executed = repair_schedule(
            true_snap, sizes,
            alive=alive, link_ok=link_ok,
            scheduler=schedule_baseline if fallback else self._scheduler,
            routes=routes,
        ).schedule
        actual = self._true_problem(planning, snapshot, sizes)

        if routes.needs_relays:
            self._plan = None
        else:
            self._plan = _Plan(
                orders=planned_schedule.send_orders(),
                basis_cost=planning.cost,
                schedule=planned_schedule,
            )
        self._ticks_since_reschedule = 0
        self._reuse_streak = 0
        return _ServeState(
            decision=decision,
            reason=reason,
            drift=drift,
            predicted=planned_schedule.completion_time,
            executed=executed,
            actual=actual,
            elapsed=elapsed,
            cache_hit=cache_hit,
            fallback=fallback,
            undeliverable=len(routes.unreachable) + len(routes.lost),
            relay_tick=routes.needs_relays,
        )

    def _recover_from_strike(
        self,
        strike: Fault,
        state: "_ServeState",
        snapshot: DirectorySnapshot,
        sizes: np.ndarray,
        alive: np.ndarray,
        link_ok: np.ndarray,
    ) -> Optional["_StrikeOutcome"]:
        """Salvage + retry/repair after a mid-schedule fault.

        Returns ``None`` when the fault landed after the exchange had
        already completed (it becomes standing directory state next
        tick, nothing to recover now).
        """
        partial = cut_execution(state.executed, strike.at_event)
        if not partial.interrupted:
            return None
        total = partial.salvaged_events + partial.cancelled_events
        alive_after, link_after = apply_fault_to_state(
            alive, link_ok, strike
        )
        retries = 0
        waited = 0.0
        declared_dead = False
        if strike.transient and not state.relay_tick:
            recovered, retries, waited = retry_outcome(
                strike.duration, config=self.policy
            )
            if recovered:
                # The outage was outwaited: resume the interrupted
                # dispatch orders under the same actual costs.
                resumed = execute_orders_on_cost(
                    state.actual.cost,
                    partial.residual_orders,
                    sizes=state.actual.sizes,
                    validate=False,
                )
                executed = merge_with_salvaged(
                    partial.salvaged, resumed,
                    offset=partial.strike_time + waited,
                )
                return _StrikeOutcome(
                    executed=executed,
                    action=RETRY,
                    retries=retries,
                    waited=waited,
                    salvaged=partial.salvaged_events,
                    resent=partial.cancelled_events,
                    latency=0.0,
                    undeliverable=0,
                    detail=(
                        f"{strike.describe()} struck mid-schedule; retry "
                        f"{retries} succeeded after {waited:g}s backoff"
                    ),
                )
            declared_dead = True
            self._declared_dead[strike.src, strike.dst] = True
            if strike.symmetric:
                self._declared_dead[strike.dst, strike.src] = True

        action, why = decide_repair(
            partial.salvaged_events, total, config=self.policy
        )
        delivered = partial.delivered if action == REPAIR else None
        true_after = apply_fault_to_snapshot(
            self._true_snapshot(snapshot), strike
        )
        started = self._clock()
        try:
            result = repair_schedule(
                true_after, sizes,
                delivered=delivered, alive=alive_after, link_ok=link_after,
                scheduler=self._scheduler,
            )
        except Exception:  # noqa: BLE001 — serving must not die
            result = repair_schedule(
                true_after, sizes,
                delivered=delivered, alive=alive_after, link_ok=link_after,
                scheduler=schedule_baseline,
            )
        latency = self._clock() - started
        executed = merge_with_salvaged(
            partial.salvaged, result.schedule,
            offset=partial.strike_time + waited,
        )
        prefix = f"{strike.describe()} struck mid-schedule"
        if declared_dead:
            prefix += (
                f"; {retries} retries ({waited:g}s) exhausted, "
                "link declared dead"
            )
        return _StrikeOutcome(
            executed=executed,
            action=action,
            retries=retries,
            waited=waited,
            salvaged=partial.salvaged_events if action == REPAIR else 0,
            resent=result.resent,
            latency=latency,
            undeliverable=result.undeliverable,
            detail=f"{prefix}; {why}",
        )

    def _count_new_faults(self, now: float, strikes) -> int:
        """Faults first observed this tick (each counts exactly once)."""
        profile = getattr(self._directory, "profile", None)
        if profile is None:
            return 0
        new = 0
        striking = set(strikes)
        for fault in getattr(profile, "faults", ()):
            if fault in self._seen_faults:
                continue
            if fault.visible_at(now) or fault in striking:
                self._seen_faults.add(fault)
                new += 1
        return new

    def tick(self, dt: float = 0.0) -> TickResult:
        """Serve one total exchange; advance the directory by ``dt`` first."""
        if dt:
            self._directory.advance(dt)
        now = self._directory.time
        snapshot = self._directory.snapshot()

        view = (
            self._fault_view_fn() if self._fault_view_fn is not None else None
        )
        strikes = ()
        if self._striking_fn is not None:
            strikes = self._striking_fn(self._last_fault_scan, now)
        self._last_fault_scan = now
        faults_seen = self._count_new_faults(now, strikes)

        sizes = self._sizes
        mask = None
        degraded = relay = False
        if view is not None:  # without a fault view every link is up
            alive = view.alive
            link_ok = view.link_ok & ~self._declared_dead
            demand = sizes > 0
            np.fill_diagonal(demand, False)
            blocked = demand & ~link_ok
            relay = bool((blocked & np.outer(alive, alive)).any())
            degraded = bool(blocked.any() or not alive.all())
            if degraded:
                mask = link_ok
                if not alive.all():
                    # Dead endpoints leave the demand matrix entirely.
                    sizes = np.where(np.outer(alive, alive), sizes, 0.0)
                    sizes.flags.writeable = False

        if relay:
            state = self._serve_degraded_relay(snapshot, sizes, alive, link_ok)
        else:
            state = self._serve_planned(snapshot, sizes, mask)

        repair_action = ""
        retries = 0
        waited = 0.0
        salvaged = 0
        resent = 0
        repair_latency = 0.0
        undeliverable = state.undeliverable
        executed = state.executed
        reason = state.reason
        if strikes:
            if view is None:  # the masks the fault-free path skipped
                n = sizes.shape[0]
                alive, link_ok = np.ones(n, bool), np.ones((n, n), bool)
            outcome = self._recover_from_strike(
                strikes[0], state, snapshot, sizes, alive, link_ok
            )
            if outcome is not None:
                degraded = True
                executed = outcome.executed
                repair_action = outcome.action
                retries = outcome.retries
                waited = outcome.waited
                salvaged = outcome.salvaged
                resent = outcome.resent
                repair_latency = outcome.latency
                undeliverable = max(undeliverable, outcome.undeliverable)
                reason += f"; {outcome.detail}"
                # The world changed mid-exchange: whatever plan was
                # active no longer matches it.
                self._plan = None
                self._reuse_streak = 0

        event = TickEvent(
            tick=self._tick_index,
            time=float(now),
            decision=state.decision,
            reason=reason,
            drift=state.drift if np.isfinite(state.drift) else -1.0,
            predicted_makespan=state.predicted,
            executed_makespan=executed.completion_time,
            regret=executed.completion_time - state.predicted,
            scheduler_elapsed=state.elapsed,
            refine_evaluations=state.evaluations,
            cache_hit=state.cache_hit,
            fallback=state.fallback,
            degraded=degraded,
            faults_seen=faults_seen,
            repair=repair_action,
            retries=retries,
            backoff_wait_s=waited,
            salvaged_events=salvaged,
            resent_events=resent,
            repair_latency_s=repair_latency,
            undeliverable=undeliverable,
            dirty_fraction=state.dirty,
            repaired_events=state.repaired_events,
        )
        self._sink.emit(event)
        self.last_schedule = executed
        self._tick_index += 1
        return TickResult(event=event, schedule=executed)

    def run(self, ticks: int, *, dt: float = 1.0) -> List[TickResult]:
        """Serve ``ticks`` exchanges, advancing the directory ``dt`` each."""
        if ticks < 1:
            raise ValueError(f"ticks must be >= 1, got {ticks}")
        return [self.tick(dt=dt) for _ in range(ticks)]

    def summary(self) -> dict:
        """The metrics registry's headline numbers."""
        return self.metrics.summary()
