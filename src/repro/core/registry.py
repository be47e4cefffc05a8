"""Uniform scheduler registry.

Every scheduler shares the signature
``scheduler(problem: TotalExchangeProblem) -> Schedule``.  Experiments,
benches, the fuzzer, and the runtime look algorithms up here by the
names used throughout the paper's figures.

The registry is spec-based: each algorithm is described by a
:class:`SchedulerSpec` carrying the callable plus the metadata consumers
need (tier, asymptotic complexity, proven guarantee bound, paper
section).  :func:`iter_specs` enumerates them, :func:`get_scheduler`
resolves a name to its default-configured callable, and
:func:`make_scheduler` builds parameterized variants (matching backend
choice, relayed/partitioned open shop, preemptive optimum, local-search
budgets) from stable string names with keyword-only options.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    Mapping,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro.core.baseline import schedule_baseline, schedule_baseline_nosync
from repro.core.exact import schedule_optimal
from repro.core.listsched import (
    schedule_local_search,
    schedule_lpt,
    schedule_random_order,
)
from repro.core.greedy import schedule_greedy
from repro.core.matching import (
    BACKEND_MODULES,
    schedule_matching,
    schedule_matching_max,
    schedule_matching_min,
)
from repro.core.openshop import schedule_openshop
from repro.core.preemptive import schedule_preemptive
from repro.core.problem import TotalExchangeProblem
from repro.directory.service import DirectorySnapshot
from repro.timing.events import Schedule
from repro.util.spec import format_spec, parse_spec

Scheduler = Callable[[TotalExchangeProblem], Schedule]

#: A proven worst-case completion-time factor over the lower bound, as a
#: function of the processor count.
GuaranteeBound = Callable[[int], float]


def _bound_theorem3(num_procs: int) -> float:
    """Theorem 3: open shop list scheduling is within twice the bound."""
    return 2.0


def _bound_theorem2(num_procs: int) -> float:
    """Theorem 2 (tight): the unsynchronised caterpillar can reach, but
    never exceed, ``P/2`` times the lower bound."""
    return max(1.0, num_procs / 2.0)


def _bound_preemptive(num_procs: int) -> float:
    """The preemptive relaxation meets the lower bound exactly."""
    return 1.0


@dataclass(frozen=True)
class SchedulerSpec:
    """Registry entry: one scheduler plus the metadata consumers need.

    Attributes
    ----------
    name:
        Stable public string name (``make_scheduler(name)``).
    fn:
        The scheduler with default options, signature
        ``problem -> Schedule``.
    tier:
        ``"paper"`` (the Section 5 figure algorithms, in report order),
        ``"extra"`` (non-figure comparators with the same uniform
        semantics), or ``"variant"`` (parameterized entry points whose
        schedules may not be one-event-per-message — relayed legs,
        chunks, preemptive pieces — and are therefore excluded from the
        differential fuzzer's universal-coverage oracle).
    complexity:
        Asymptotic scheduling cost in ``P``.
    guarantee:
        Proven worst-case makespan factor over the lower bound
        (``P -> factor``), or None when no bound is proven.  The
        invariant oracle (:mod:`repro.check.oracle`) enforces these.
    paper_section:
        Where the paper introduces or evaluates the algorithm.
    options:
        Allowed ``make_scheduler`` keyword options mapped to their
        defaults (empty for schedulers without tunables).
    factory:
        Builds a configured callable from the options; None means the
        scheduler takes no options and ``fn`` is the only form.
    summary:
        One-line description for ``--list-schedulers`` style output.
    imports:
        The modules the scheduler imports when it first runs (scipy's
        solvers, networkx), or a function of the merged options that
        names them.  :meth:`build` imports them, so that no first call
        pays an import inside a tick's deadline or a bench clock.
    """

    name: str
    fn: Scheduler
    tier: str
    complexity: str
    guarantee: Optional[GuaranteeBound] = None
    paper_section: str = ""
    options: Mapping[str, Any] = field(default_factory=dict)
    factory: Optional[Callable[..., Scheduler]] = None
    summary: str = ""
    imports: Union[Tuple[str, ...], Callable[..., Tuple[str, ...]]] = ()

    def build(self, **options: Any) -> Scheduler:
        """A configured scheduler, its :attr:`imports` loaded; no
        options returns :attr:`fn`."""
        if not options:
            self._load(self.options)
            return self.fn
        if self.factory is None:
            raise TypeError(
                f"scheduler {self.name!r} takes no options, "
                f"got {sorted(options)}"
            )
        unknown = sorted(set(options) - set(self.options))
        if unknown:
            raise TypeError(
                f"unknown option(s) {unknown} for scheduler "
                f"{self.name!r}; allowed: {sorted(self.options)}"
            )
        merged = {**self.options, **options}
        self._load(merged)
        scheduler = self.factory(**merged)
        label = ", ".join(f"{k}={merged[k]!r}" for k in sorted(merged))
        scheduler.__name__ = f"{self.name}({label})"
        scheduler.__qualname__ = scheduler.__name__
        return scheduler

    def _load(self, options: Mapping[str, Any]) -> None:
        modules = (
            self.imports(**options) if callable(self.imports)
            else self.imports
        )
        for module in modules:
            importlib.import_module(module)


# ---------------------------------------------------------------------------
# Adapters for the parameterized entry points.
# ---------------------------------------------------------------------------


def snapshot_for_problem(
    problem: TotalExchangeProblem,
) -> Tuple[DirectorySnapshot, np.ndarray]:
    """Derive a ``(snapshot, sizes)`` pair pricing exactly like ``problem``.

    The relayed and partitioned open-shop variants price legs from a
    directory snapshot rather than a cost matrix.  When the problem
    carries a size matrix (positive wherever cost is), the snapshot uses
    zero latency and ``bandwidth = sizes / cost`` so every direct
    transfer costs exactly ``problem.cost`` while relays and chunks
    re-price faithfully.  Without usable sizes, the costs themselves act
    as sizes over unit bandwidth (direct costs again exact; relaying
    then never pays, by construction).
    """
    cost = problem.cost
    positive = cost > 0
    sizes = problem.sizes
    if sizes is None or not np.all(sizes[positive] > 0):
        sizes = np.where(positive, cost, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        bandwidth = np.where(positive, sizes / np.where(positive, cost, 1.0),
                             np.inf)
    snapshot = DirectorySnapshot(
        latency=np.zeros_like(cost), bandwidth=bandwidth
    )
    return snapshot, np.asarray(sizes, dtype=float)


def _matching_imports(*, backend: str = "scipy") -> Tuple[str, ...]:
    # an unknown backend still fails where it always did: at the call
    return BACKEND_MODULES.get(backend, ())


def _matching_factory(objective: str) -> Callable[..., Scheduler]:
    def factory(*, backend: str = "scipy") -> Scheduler:
        def scheduler(problem: TotalExchangeProblem) -> Schedule:
            return schedule_matching(
                problem, objective=objective, backend=backend
            )

        return scheduler

    return factory


def _indirect_factory(*, advantage: float = 2.0) -> Scheduler:
    from repro.core.indirect import schedule_openshop_indirect

    def scheduler(problem: TotalExchangeProblem) -> Schedule:
        snapshot, sizes = snapshot_for_problem(problem)
        return schedule_openshop_indirect(
            snapshot, sizes, advantage=advantage
        )

    return scheduler


def _partitioned_factory(*, chunks: int = 2) -> Scheduler:
    from repro.core.partition import schedule_openshop_partitioned

    def scheduler(problem: TotalExchangeProblem) -> Schedule:
        snapshot, sizes = snapshot_for_problem(problem)
        return schedule_openshop_partitioned(snapshot, sizes, chunks=chunks)

    return scheduler


def _local_search_factory(*, max_passes: int = 3) -> Scheduler:
    def scheduler(problem: TotalExchangeProblem) -> Schedule:
        return schedule_local_search(problem, max_passes=max_passes)

    return scheduler


def _hierarchical_factory(
    *,
    threshold: Optional[float] = None,
    gap_factor: float = 4.0,
    intra: str = "rounds",
    drift_tolerance: float = 0.25,
) -> Scheduler:
    from repro.core.hierarchical import HierarchicalScheduler

    return HierarchicalScheduler(
        threshold=threshold,
        gap_factor=gap_factor,
        intra=intra,
        drift_tolerance=drift_tolerance,
    )


def _random_order_factory(*, seed: int = 0) -> Scheduler:
    def scheduler(problem: TotalExchangeProblem) -> Schedule:
        return schedule_random_order(
            problem, rng=np.random.default_rng(seed)
        )

    return scheduler


# ---------------------------------------------------------------------------
# The specs, in report order within each tier.
# ---------------------------------------------------------------------------

_MATCHING_COMPLEXITY = "O(P^4)"

_SPEC_LIST = [
    # -- tier "paper": the Section 5 figure algorithms ---------------------
    SchedulerSpec(
        name="baseline",
        fn=schedule_baseline,
        tier="paper",
        complexity="O(P^2)",
        paper_section="4.2",
        summary="synchronised caterpillar: P-1 barriered permutation steps",
    ),
    SchedulerSpec(
        name="max_matching",
        fn=schedule_matching_max,
        tier="paper",
        complexity=_MATCHING_COMPLEXITY,
        paper_section="4.3",
        options={"backend": "scipy"},
        factory=_matching_factory("max"),
        summary="series of maximum-weight complete matchings",
        imports=_matching_imports,
    ),
    SchedulerSpec(
        name="min_matching",
        fn=schedule_matching_min,
        tier="paper",
        complexity=_MATCHING_COMPLEXITY,
        paper_section="4.3",
        options={"backend": "scipy"},
        factory=_matching_factory("min"),
        summary="series of minimum-weight complete matchings",
        imports=_matching_imports,
    ),
    SchedulerSpec(
        name="greedy",
        fn=schedule_greedy,
        tier="paper",
        complexity="O(P^3)",
        paper_section="4.3",
        summary="greedy step composition, longest events first",
    ),
    SchedulerSpec(
        name="openshop",
        fn=schedule_openshop,
        tier="paper",
        complexity="O(P^2 log P)",
        guarantee=_bound_theorem3,
        paper_section="4.4",
        summary="open shop list scheduling (Theorem 3: within 2x the bound)",
    ),
    # -- tier "extra": non-figure comparators ------------------------------
    SchedulerSpec(
        name="optimal",
        fn=schedule_optimal,
        tier="extra",
        complexity="exponential",
        paper_section="4.1",
        summary="branch-and-bound exact solver (small P only)",
    ),
    SchedulerSpec(
        name="baseline_nosync",
        fn=schedule_baseline_nosync,
        tier="extra",
        complexity="O(P^2)",
        guarantee=_bound_theorem2,
        paper_section="4.2",
        summary="unsynchronised caterpillar (Theorem 2: at most P/2 x)",
    ),
    SchedulerSpec(
        name="lpt",
        fn=schedule_lpt,
        tier="extra",
        complexity="O(P^2 log P)",
        paper_section="-",
        summary="longest-event-first list schedule",
    ),
    SchedulerSpec(
        name="random_order",
        fn=schedule_random_order,
        tier="extra",
        complexity="O(P^2 log P)",
        paper_section="-",
        options={"seed": 0},
        factory=_random_order_factory,
        summary="uniformly random dispatch order (control)",
    ),
    SchedulerSpec(
        name="local_search",
        fn=schedule_local_search,
        tier="extra",
        complexity="O(passes * P^3 log P)",
        paper_section="6.2",
        options={"max_passes": 3},
        factory=_local_search_factory,
        summary="hill-climb over dispatch orders, openshop-seeded",
    ),
    SchedulerSpec(
        name="hierarchical",
        fn=_hierarchical_factory(),
        tier="extra",
        complexity="O(P^2 + K^2 log K)",
        paper_section="6.3",
        options={
            "threshold": None,
            "gap_factor": 4.0,
            "intra": "rounds",
            "drift_tolerance": 0.25,
        },
        factory=_hierarchical_factory,
        summary=(
            "two-level scheduler: cluster-level open shop over "
            "caterpillar block rounds (scales past P=1024)"
        ),
        # clustering runs on csgraph; P singleton clusters delegate to
        # the scipy matching
        imports=("scipy.sparse.csgraph", "scipy.optimize"),
    ),
    # -- tier "variant": parameterized entry points ------------------------
    SchedulerSpec(
        name="openshop_indirect",
        fn=_indirect_factory(),
        tier="variant",
        complexity="O(P^3)",
        paper_section="3.4",
        options={"advantage": 2.0},
        factory=_indirect_factory,
        summary="open shop with optional single-hop relaying (ablation)",
    ),
    SchedulerSpec(
        name="openshop_partitioned",
        fn=_partitioned_factory(),
        tier="variant",
        complexity="O(chunks * P^2 log P)",
        paper_section="3.4",
        options={"chunks": 2},
        factory=_partitioned_factory,
        summary="open shop over a message-partitioned instance",
    ),
    SchedulerSpec(
        name="preemptive",
        fn=schedule_preemptive,
        tier="variant",
        complexity="O(P^4)",
        guarantee=_bound_preemptive,
        paper_section="4.1",
        summary="Birkhoff-von-Neumann preemptive optimum (meets t_lb)",
        imports=("scipy.optimize",),
    ),
]

# Explicit matching backend variants: stable "matching_<obj>:<backend>"
# names, e.g. "matching_min:auction".
for _objective in ("max", "min"):
    for _backend in ("scipy", "networkx", "auction"):
        _SPEC_LIST.append(
            SchedulerSpec(
                name=f"matching_{_objective}:{_backend}",
                fn=_matching_factory(_objective)(backend=_backend),
                tier="variant",
                complexity=_MATCHING_COMPLEXITY,
                paper_section="4.3",
                summary=(
                    f"{_objective}-weight matching via the "
                    f"{_backend} LAP backend"
                ),
                imports=BACKEND_MODULES[_backend],
            )
        )

_SPECS: Dict[str, SchedulerSpec] = {spec.name: spec for spec in _SPEC_LIST}


def iter_specs(tier: Optional[str] = None) -> Iterator[SchedulerSpec]:
    """Iterate registered specs, optionally restricted to one tier.

    Order is stable: the paper's figure algorithms in report order, then
    the extras, then the parameterized variants.
    """
    if tier is not None and tier not in ("paper", "extra", "variant"):
        raise ValueError(
            f"unknown tier {tier!r}; expected 'paper', 'extra' or 'variant'"
        )
    for spec in _SPECS.values():
        if tier is None or spec.tier == tier:
            yield spec


def get_spec(name: str) -> SchedulerSpec:
    """The spec registered under ``name`` (KeyError with the known list)."""
    spec = _SPECS.get(name)
    if spec is None:
        known = ", ".join(_SPECS)
        raise KeyError(f"unknown scheduler {name!r}; known: {known}")
    return spec


def scheduler_names() -> Tuple[str, ...]:
    """Names of the paper's evaluated schedulers, in report order."""
    return tuple(spec.name for spec in iter_specs(tier="paper"))


def get_scheduler(name: str) -> Scheduler:
    """Look up a scheduler by name (figure schedulers plus extras), its
    backend imported."""
    return get_spec(name).build()


def parse_scheduler_spec(spec: str) -> Tuple[str, Dict[str, Any]]:
    """Split a scheduler spec string into ``(name, options)``.

    The grammar is the shared ``name[:key=value,...]`` spec grammar
    (:func:`repro.util.spec.parse_spec`) with one registry-specific
    rule: a string that *is* a registered name is returned verbatim,
    so the explicit matching variants (``"matching_min:auction"``),
    whose names contain a ``:``, stay addressable.
    """
    if spec in _SPECS:
        return spec, {}
    name, options = parse_spec(spec, kind="scheduler spec")
    if name not in _SPECS:
        known = ", ".join(_SPECS)
        raise KeyError(f"unknown scheduler {name!r}; known: {known}")
    return name, options


def format_scheduler_spec(name: str, options: Mapping[str, Any]) -> str:
    """Inverse of :func:`parse_scheduler_spec` (canonical key order)."""
    get_spec(name)  # validate the name, with the friendly message
    if ":" in name and options:
        raise ValueError(
            f"scheduler {name!r} already encodes its variant; it takes "
            f"no spec options"
        )
    return format_spec(name, options)


def make_scheduler(name: str, **options: Any) -> Scheduler:
    """Build a scheduler from its stable name and keyword-only options.

    Every registered algorithm — including the parameterized variants —
    is reachable: ``make_scheduler("openshop")``,
    ``make_scheduler("min_matching", backend="auction")``,
    ``make_scheduler("matching_min:auction")``,
    ``make_scheduler("openshop_partitioned", chunks=4)``, ...

    ``name`` may also be a full spec string in the shared
    ``name[:key=value,...]`` grammar —
    ``make_scheduler("openshop_partitioned:chunks=4")`` — with explicit
    keyword options layered on top of (and overriding) the spec's.

    The scheduler's backend (scipy, networkx) is imported here, at
    build time, so its first call is timed as the algorithm alone.

    Raises ``KeyError`` for unknown names (listing the known ones) and
    ``TypeError`` for options the scheduler does not accept.
    """
    name, spec_options = parse_scheduler_spec(name)
    spec_options.update(options)
    return get_spec(name).build(**spec_options)
