"""Uniform collective registry (the scheduler registry's sibling).

Every registered collective shares the signature
``collective(snapshot: DirectorySnapshot, size_bytes: float)
-> CollectiveResult`` regardless of the underlying entry point's shape
(cost-matrix broadcasts, block-sequence scatters, ``(Schedule, float)``
reductions).  The registry mirrors :mod:`repro.core.registry` exactly:
each algorithm is a :class:`CollectiveSpec` carrying the callable plus
metadata, :func:`iter_collective_specs` enumerates them,
:func:`get_collective` resolves a name to its default-configured
callable, and :func:`make_collective` builds parameterized variants
(root choice, combine rates, ring orders, exchange scheduler) from
stable string names with keyword-only options.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    Mapping,
    Optional,
    Tuple,
)

import numpy as np

from repro.collectives.allreduce import (
    allreduce_log_tree,
    allreduce_rs_ag,
)
from repro.collectives.barrier import (
    dissemination_barrier,
    tournament_barrier,
)
from repro.collectives.broadcast import (
    binomial_tree,
    schedule_broadcast_binomial,
    schedule_broadcast_fnf,
)
from repro.collectives.direct import (
    DIRECT_TOPOLOGIES,
    alltoall_direct_plan,
)
from repro.collectives.logrounds import (
    allbroadcast_plan,
    broadcast_log_plan,
    reduction_log_plan,
)
from repro.collectives.gather import gather_direct, gather_via_tree
from repro.collectives.patterns import allgather_problem, alltoall_problem
from repro.collectives.reduce import (
    allreduce_ring,
    allreduce_tree,
    reduce_direct,
    reduce_via_tree,
)
from repro.collectives.scatter import scatter_direct, scatter_via_tree
from repro.core.registry import make_scheduler
from repro.directory.service import DirectorySnapshot
from repro.model.cost import cost_matrix
from repro.timing.events import Schedule
from repro.util.spec import format_spec, parse_spec
from repro.util.validation import check_positive


@dataclass(frozen=True)
class CollectiveResult:
    """One collective execution under the paper's communication model.

    ``completion_time`` can exceed ``schedule.completion_time`` when the
    collective performs local work the communication timeline does not
    show (reduction combines).
    """

    schedule: Schedule
    completion_time: float


#: The uniform calling convention every registered collective shares.
Collective = Callable[[DirectorySnapshot, float], CollectiveResult]


def _uniform_sizes(snapshot: DirectorySnapshot, size_bytes: float) -> np.ndarray:
    sizes = np.full(
        (snapshot.num_procs, snapshot.num_procs), float(size_bytes)
    )
    np.fill_diagonal(sizes, 0.0)
    return sizes


def _result(schedule: Schedule, completion: Optional[float] = None) -> CollectiveResult:
    if completion is None:
        completion = schedule.completion_time
    return CollectiveResult(schedule=schedule, completion_time=float(completion))


@dataclass(frozen=True)
class CollectiveSpec:
    """Registry entry: one collective plus the metadata consumers need.

    Attributes
    ----------
    name:
        Stable public string name (``make_collective(name)``).
    fn:
        The collective with default options, signature
        ``(snapshot, size_bytes) -> CollectiveResult``.
    family:
        ``"rooted"`` (single-root: broadcast/scatter/gather/reduce),
        ``"allreduce"``, ``"barrier"`` (size-free synchronisation) or
        ``"exchange"`` (patterns reduced to total exchange and solved by
        a registry scheduler).
    complexity:
        Asymptotic scheduling cost in ``P``.
    paper_section:
        Where the paper (or this repo's extension docs) motivates it.
    options:
        Allowed ``make_collective`` keyword options mapped to their
        defaults (empty for collectives without tunables).
    factory:
        Builds a configured callable from the options; None means the
        collective takes no options and ``fn`` is the only form.
    summary:
        One-line description for ``--list-collectives`` style output.
    """

    name: str
    fn: Collective
    family: str
    complexity: str
    paper_section: str = ""
    options: Mapping[str, Any] = field(default_factory=dict)
    factory: Optional[Callable[..., Collective]] = None
    summary: str = ""

    def build(self, **options: Any) -> Collective:
        """A configured collective; no options returns :attr:`fn`."""
        if not options:
            return self.fn
        if self.factory is None:
            raise TypeError(
                f"collective {self.name!r} takes no options, "
                f"got {sorted(options)}"
            )
        unknown = sorted(set(options) - set(self.options))
        if unknown:
            raise TypeError(
                f"unknown option(s) {unknown} for collective "
                f"{self.name!r}; allowed: {sorted(self.options)}"
            )
        merged = {**self.options, **options}
        collective = self.factory(**merged)
        label = ", ".join(f"{k}={merged[k]!r}" for k in sorted(merged))
        collective.__name__ = f"{self.name}({label})"
        collective.__qualname__ = collective.__name__
        return collective


# ---------------------------------------------------------------------------
# Adapters: heterogeneous entry points -> the uniform signature.
# ---------------------------------------------------------------------------


def _broadcast_factory(variant: str) -> Callable[..., Collective]:
    entry = {
        "binomial": schedule_broadcast_binomial,
        "fnf": schedule_broadcast_fnf,
    }[variant]

    def factory(*, root: int = 0) -> Collective:
        def collective(
            snapshot: DirectorySnapshot, size_bytes: float
        ) -> CollectiveResult:
            cost = cost_matrix(snapshot, _uniform_sizes(snapshot, size_bytes))
            return _result(entry(cost, root))

        return collective

    return factory


def _scatter_factory(*, root: int = 0, tree: bool = False) -> Collective:
    def collective(
        snapshot: DirectorySnapshot, size_bytes: float
    ) -> CollectiveResult:
        check_positive("size_bytes", size_bytes)
        blocks = np.full(snapshot.num_procs, float(size_bytes))
        blocks[root] = 0.0
        if tree:
            schedule = scatter_via_tree(
                snapshot, blocks, binomial_tree(snapshot.num_procs, root),
                root,
            )
        else:
            schedule = scatter_direct(snapshot, blocks, root)
        return _result(schedule)

    return collective


def _gather_factory(*, root: int = 0, tree: bool = False) -> Collective:
    def collective(
        snapshot: DirectorySnapshot, size_bytes: float
    ) -> CollectiveResult:
        check_positive("size_bytes", size_bytes)
        blocks = np.full(snapshot.num_procs, float(size_bytes))
        blocks[root] = 0.0
        if tree:
            schedule = gather_via_tree(
                snapshot, blocks, binomial_tree(snapshot.num_procs, root),
                root,
            )
        else:
            schedule = gather_direct(snapshot, blocks, root)
        return _result(schedule)

    return collective


def _reduce_factory(
    *, root: int = 0, tree: bool = False, combine_rate: float = 1e9
) -> Collective:
    def collective(
        snapshot: DirectorySnapshot, size_bytes: float
    ) -> CollectiveResult:
        if tree:
            schedule, done = reduce_via_tree(
                snapshot, size_bytes,
                binomial_tree(snapshot.num_procs, root), root,
                combine_rate=combine_rate,
            )
        else:
            schedule, done = reduce_direct(
                snapshot, size_bytes, root, combine_rate=combine_rate
            )
        return _result(schedule, done)

    return collective


def _allreduce_ring_factory(*, combine_rate: float = 1e9) -> Collective:
    def collective(
        snapshot: DirectorySnapshot, size_bytes: float
    ) -> CollectiveResult:
        schedule, done = allreduce_ring(
            snapshot, size_bytes, combine_rate=combine_rate
        )
        return _result(schedule, done)

    return collective


def _allreduce_tree_factory(
    *, root: int = 0, combine_rate: float = 1e9
) -> Collective:
    def collective(
        snapshot: DirectorySnapshot, size_bytes: float
    ) -> CollectiveResult:
        schedule, done = allreduce_tree(
            snapshot, size_bytes,
            binomial_tree(snapshot.num_procs, root), root,
            combine_rate=combine_rate,
        )
        return _result(schedule, done)

    return collective


def _barrier_dissemination(
    snapshot: DirectorySnapshot, size_bytes: float = 0.0
) -> CollectiveResult:
    schedule, done = dissemination_barrier(snapshot)
    return _result(schedule, done)


def _barrier_tournament_factory(*, champion: int = 0) -> Collective:
    def collective(
        snapshot: DirectorySnapshot, size_bytes: float = 0.0
    ) -> CollectiveResult:
        schedule, done = tournament_barrier(snapshot, champion=champion)
        return _result(schedule, done)

    return collective


def _broadcast_log_factory(*, root: int = 0) -> Collective:
    def collective(
        snapshot: DirectorySnapshot, size_bytes: float
    ) -> CollectiveResult:
        plan = broadcast_log_plan(snapshot, size_bytes, root=root)
        return _result(plan.schedule, plan.completion_time)

    return collective


def _allbroadcast(
    snapshot: DirectorySnapshot, size_bytes: float
) -> CollectiveResult:
    plan = allbroadcast_plan(snapshot, size_bytes)
    return _result(plan.schedule, plan.completion_time)


def _reduction_factory(
    *, root: int = 0, combine_rate: float = 1e9
) -> Collective:
    def collective(
        snapshot: DirectorySnapshot, size_bytes: float
    ) -> CollectiveResult:
        plan = reduction_log_plan(
            snapshot, size_bytes, root=root, combine_rate=combine_rate
        )
        return _result(plan.schedule, plan.completion_time)

    return collective


def _allreduce_factory(
    *, variant: str = "ring", root: int = 0, combine_rate: float = 1e9
) -> Collective:
    if variant not in ("ring", "tree"):
        raise ValueError(
            f"unknown allreduce variant {variant!r}; known: ring, tree"
        )

    def collective(
        snapshot: DirectorySnapshot, size_bytes: float
    ) -> CollectiveResult:
        if variant == "tree":
            plan = allreduce_log_tree(
                snapshot, size_bytes, root=root, combine_rate=combine_rate
            )
        else:
            plan = allreduce_rs_ag(
                snapshot, size_bytes, combine_rate=combine_rate
            )
        return _result(plan.schedule, plan.completion_time)

    return collective


def _alltoall_direct_factory(
    *, topology: str = "ring", dims: str = "auto"
) -> Collective:
    if topology not in DIRECT_TOPOLOGIES:
        raise KeyError(
            f"unknown topology {topology!r}; "
            f"known: {', '.join(DIRECT_TOPOLOGIES)}"
        )
    resolved_dims = None if dims in ("", "auto") else dims

    def collective(
        snapshot: DirectorySnapshot, size_bytes: float
    ) -> CollectiveResult:
        plan = alltoall_direct_plan(
            snapshot, size_bytes, topology=topology, dims=resolved_dims
        )
        return _result(plan.schedule, plan.completion_time)

    return collective


def _exchange_factory(pattern: str) -> Callable[..., Collective]:
    builder = {
        "allgather": allgather_problem,
        "alltoall": alltoall_problem,
    }[pattern]

    def factory(*, scheduler: str = "openshop") -> Collective:
        solve = make_scheduler(scheduler)

        def collective(
            snapshot: DirectorySnapshot, size_bytes: float
        ) -> CollectiveResult:
            return _result(solve(builder(snapshot, size_bytes)))

        return collective

    return factory


# ---------------------------------------------------------------------------
# The specs, grouped by family.
# ---------------------------------------------------------------------------

_SPEC_LIST = [
    CollectiveSpec(
        name="broadcast_binomial",
        fn=_broadcast_factory("binomial")(),
        family="rooted",
        complexity="O(P log P)",
        paper_section="3 (general patterns)",
        options={"root": 0},
        factory=_broadcast_factory("binomial"),
        summary="binomial-tree broadcast (homogeneous baseline)",
    ),
    CollectiveSpec(
        name="broadcast_fnf",
        fn=_broadcast_factory("fnf")(),
        family="rooted",
        complexity="O(P^3)",
        paper_section="3 (general patterns)",
        options={"root": 0},
        factory=_broadcast_factory("fnf"),
        summary="earliest-completion-first heterogeneous broadcast",
    ),
    CollectiveSpec(
        name="broadcast_log",
        fn=_broadcast_log_factory(),
        family="rooted",
        complexity="O(P^2 log P)",
        paper_section="Traff 2024 (optimal log-round broadcast)",
        options={"root": 0},
        factory=_broadcast_log_factory,
        summary="ceil(log2 P)-round broadcast, greedy heterogeneous "
        "pairing per round",
    ),
    CollectiveSpec(
        name="scatter_direct",
        fn=_scatter_factory(),
        family="rooted",
        complexity="O(P log P)",
        options={"root": 0},
        factory=lambda *, root=0: _scatter_factory(root=root),
        summary="root-only serial scatter, shortest send first",
    ),
    CollectiveSpec(
        name="scatter_tree",
        fn=_scatter_factory(tree=True),
        family="rooted",
        complexity="O(P log P)",
        options={"root": 0},
        factory=lambda *, root=0: _scatter_factory(root=root, tree=True),
        summary="store-and-forward binomial-tree scatter, bundled payloads",
    ),
    CollectiveSpec(
        name="gather_direct",
        fn=_gather_factory(),
        family="rooted",
        complexity="O(P log P)",
        options={"root": 0},
        factory=lambda *, root=0: _gather_factory(root=root),
        summary="all-to-root gather; the root's receive port serialises",
    ),
    CollectiveSpec(
        name="gather_tree",
        fn=_gather_factory(tree=True),
        family="rooted",
        complexity="O(P log P)",
        options={"root": 0},
        factory=lambda *, root=0: _gather_factory(root=root, tree=True),
        summary="bundled binomial-tree gather",
    ),
    CollectiveSpec(
        name="reduce_direct",
        fn=_reduce_factory(),
        family="rooted",
        complexity="O(P log P)",
        options={"root": 0, "combine_rate": 1e9},
        factory=lambda *, root=0, combine_rate=1e9: _reduce_factory(
            root=root, combine_rate=combine_rate
        ),
        summary="naive all-to-root reduction with serial combines",
    ),
    CollectiveSpec(
        name="reduce_tree",
        fn=_reduce_factory(tree=True),
        family="rooted",
        complexity="O(P log P)",
        options={"root": 0, "combine_rate": 1e9},
        factory=lambda *, root=0, combine_rate=1e9: _reduce_factory(
            root=root, tree=True, combine_rate=combine_rate
        ),
        summary="binomial-tree reduction",
    ),
    CollectiveSpec(
        name="reduction",
        fn=_reduction_factory(),
        family="rooted",
        complexity="O(P^2 log P)",
        paper_section="Traff 2024 (optimal log-round reduction)",
        options={"root": 0, "combine_rate": 1e9},
        factory=_reduction_factory,
        summary="ceil(log2 P)-round reduction: active set halves with "
        "greedy heterogeneous pairing",
    ),
    CollectiveSpec(
        name="allreduce_ring",
        fn=_allreduce_ring_factory(),
        family="allreduce",
        complexity="O(P)",
        options={"combine_rate": 1e9},
        factory=_allreduce_ring_factory,
        summary="ring all-reduce (2(P-1) lockstep chunk rotations)",
    ),
    CollectiveSpec(
        name="allreduce_tree",
        fn=_allreduce_tree_factory(),
        family="allreduce",
        complexity="O(P log P)",
        options={"root": 0, "combine_rate": 1e9},
        factory=_allreduce_tree_factory,
        summary="reduce-to-root + tree broadcast of the result",
    ),
    CollectiveSpec(
        name="allreduce",
        fn=_allreduce_factory(),
        family="allreduce",
        complexity="O(P^2)",
        paper_section="Traff 2024 / bandwidth-optimal ring",
        options={"variant": "ring", "root": 0, "combine_rate": 1e9},
        factory=_allreduce_factory,
        summary="straggler-aware pipelined reduce-scatter + all-gather "
        "ring (variant=tree: log-round reduce + broadcast)",
    ),
    CollectiveSpec(
        name="barrier_dissemination",
        fn=_barrier_dissemination,
        family="barrier",
        complexity="O(P log P)",
        summary="dissemination barrier: ceil(log2 P) shifted signal rounds",
    ),
    CollectiveSpec(
        name="barrier_tournament",
        fn=_barrier_tournament_factory(),
        family="barrier",
        complexity="O(P log P)",
        options={"champion": 0},
        factory=_barrier_tournament_factory,
        summary="tournament barrier: binomial gather-up then release-down",
    ),
    CollectiveSpec(
        name="allgather",
        fn=_exchange_factory("allgather")(),
        family="exchange",
        complexity="scheduler-dependent",
        paper_section="3 (general patterns)",
        options={"scheduler": "openshop"},
        factory=_exchange_factory("allgather"),
        summary="all-gather as total exchange, solved by a registry "
        "scheduler",
    ),
    CollectiveSpec(
        name="alltoall",
        fn=_exchange_factory("alltoall")(),
        family="exchange",
        complexity="scheduler-dependent",
        paper_section="3 (general patterns)",
        options={"scheduler": "openshop"},
        factory=_exchange_factory("alltoall"),
        summary="uniform all-to-all as total exchange, solved by a "
        "registry scheduler",
    ),
    CollectiveSpec(
        name="allbroadcast",
        fn=_allbroadcast,
        family="exchange",
        complexity="O(P log P)",
        paper_section="Traff 2024 (optimal log-round all-broadcast)",
        summary="Bruck-style all-broadcast: ceil(log2 P) doubling "
        "rounds of bundled blocks",
    ),
    CollectiveSpec(
        name="alltoall_direct",
        fn=_alltoall_direct_factory(),
        family="exchange",
        complexity="O(P^2 D)",
        paper_section="Basu 2023 (direct-connect all-to-all)",
        options={"topology": "ring", "dims": "auto"},
        factory=_alltoall_direct_factory,
        summary="fabric-constrained all-to-all: dimension-ordered shift "
        "rounds on ring/torus/hypercube links",
    ),
]

_SPECS: Dict[str, CollectiveSpec] = {spec.name: spec for spec in _SPEC_LIST}

_FAMILIES = ("rooted", "allreduce", "barrier", "exchange")


def iter_collective_specs(
    family: Optional[str] = None,
) -> Iterator[CollectiveSpec]:
    """Iterate registered specs, optionally restricted to one family.

    Order is stable: rooted collectives, all-reduces, barriers,
    exchange patterns.
    """
    if family is not None and family not in _FAMILIES:
        raise ValueError(
            f"unknown family {family!r}; expected one of {_FAMILIES}"
        )
    for spec in _SPECS.values():
        if family is None or spec.family == family:
            yield spec


def get_collective_spec(name: str) -> CollectiveSpec:
    """The spec registered under ``name`` (KeyError with the known list)."""
    spec = _SPECS.get(name)
    if spec is None:
        known = ", ".join(_SPECS)
        raise KeyError(f"unknown collective {name!r}; known: {known}")
    return spec


def collective_names() -> Tuple[str, ...]:
    """All registered collective names, in registry order."""
    return tuple(_SPECS)


def get_collective(name: str) -> Collective:
    """Look up a collective by name, default-configured."""
    return get_collective_spec(name).fn


def parse_collective_spec(spec: str) -> Tuple[str, Dict[str, Any]]:
    """``"allreduce:variant=tree" -> ("allreduce", {"variant": "tree"})``.

    The same ``name[:key=value,...]`` grammar as directory specs, with
    one deterministic error per failure mode: ``ValueError`` naming a
    malformed or duplicated ``key=value`` token, ``KeyError`` for an
    unknown collective (listing the known names).
    """
    return parse_spec(spec, tuple(_SPECS), kind="collective")


def format_collective_spec(
    name: str, options: Optional[Mapping[str, Any]] = None
) -> str:
    """Canonical inverse of :func:`parse_collective_spec`."""
    get_collective_spec(name)  # KeyError with the known list
    return format_spec(name, options)


def make_collective(name: str, **options: Any) -> Collective:
    """Build a collective from its stable name and keyword-only options.

    Mirrors :func:`repro.core.registry.make_scheduler`:
    ``make_collective("broadcast_fnf", root=3)``,
    ``make_collective("alltoall", scheduler="min_matching")``, ...
    The name may also be a full spec string in the directory grammar —
    ``make_collective("allreduce:variant=tree")`` — with explicit
    keyword options overriding the spec string's.  Raises ``KeyError``
    for unknown names (listing the known ones), ``ValueError`` for a
    malformed spec string (naming the bad token) and ``TypeError`` for
    options the collective does not accept.
    """
    if ":" in name:
        name, parsed = parse_collective_spec(name)
        parsed.update(options)
        options = parsed
    return get_collective_spec(name).build(**options)

