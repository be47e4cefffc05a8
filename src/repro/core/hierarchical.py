"""Hierarchical two-level total-exchange scheduling.

The flat open shop heuristic holds ratio ~1.001 to the lower bound but
its list-scheduling loop is interpreted Python per event — ``O(P^2)``
events with an ``O(P)`` argmin each puts P = 1024 at ~6 s and anything
beyond out of reach.  Real wide-area platforms are not flat, though:
they decompose into *logical homogeneous clusters* (Estefanel &
Mounié), groups whose internal links are an order of magnitude faster
— or at least mutually similar — compared to the links between groups.
This scheduler exploits exactly that structure to cut the sequential
part of the problem from ``P`` to the number of clusters ``K``:

1. **cluster detection** — :mod:`repro.core.clustering` partitions the
   nodes by link-cost similarity (largest-gap threshold + single
   linkage), falling back to one cluster when the platform is flat;
2. **block decomposition** — nodes are permuted cluster-by-cluster, so
   the cost matrix becomes a ``K x K`` grid of blocks.  Each block
   ``(A, B)`` (cluster A's senders to cluster B's receivers) is
   scheduled internally by generalized caterpillar rounds: with
   ``L = max(|A|, |B|)``, round ``r`` pairs local sender ``i`` with
   local receiver ``(i + r) mod L`` (kept when it indexes a real node).
   Every round is a partial matching — no sender or receiver appears
   twice — and the ``L`` rounds cover each block pair exactly once.
   Rounds execute back-to-back with a barrier, so a block's internal
   duration is the sum of its round maxima and every event's local
   start offset is the sum of the prior round maxima.  All of it is
   dense numpy gathers — no per-event Python;
3. **cluster-level open shop** — the ``K x K`` matrix of block
   durations is itself a total-exchange instance (cluster = node,
   block = message, diagonal blocks = cluster self-messages occupying
   both cluster ports).  The existing vectorized open shop kernel
   (:func:`repro.core.openshop._openshop_fields`) packs the block
   windows near-optimally in ``O(K^2)`` picks;
4. **splice** — each event's absolute start is its block window start
   (the gateway-aware offset from level 3) plus its local round offset
   (level 2).  Validity is by construction at all three levels: block
   windows never double-book a cluster's send or receive port, and
   rounds never double-book a node's — so no cross-level conflict can
   exist, which the full :mod:`repro.check` oracle confirms on every
   fuzzed instance.

Degenerate shapes collapse to the flat schedulers *bit-identically*:
one cluster delegates to :func:`~repro.core.openshop.schedule_openshop`
wholesale, and ``P`` singleton clusters delegate to the flat matching
path (:func:`~repro.core.matching.schedule_matching_max`).

Complexity: ``O(P^2)`` vectorized work for the blocks plus
``O(K^2 log K)`` interpreted work at the cluster level — at P = 4096
with 64-node clusters that is ~1 s where the flat open shop would need
~7 min.  Quality on genuinely clustered instances stays within a few
percent of the lower bound: the only slack versus the flat open shop is
the per-round barrier (bounded by the intra-block cost spread), and the
cluster level packs with the same near-optimal list scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.clustering import (
    ClusterAssignment,
    DEFAULT_GAP_FACTOR,
    cluster_permutation,
    detect_clusters,
)
from repro.core.openshop import _openshop_fields, schedule_openshop
from repro.core.problem import TotalExchangeProblem
from repro.timing.events import Schedule, schedule_from_unsorted_columns

#: Intra-block kernels accepted by ``intra=``.
INTRA_KERNELS = ("rounds", "greedy")

#: Entry count above which drift comparison subsamples (deterministic).
_DRIFT_SAMPLE_LIMIT = 1_000_000


def _index_grids(L: int, cache: Dict[int, Tuple[np.ndarray, np.ndarray]]):
    """``(shift, rel)`` index grids for block size ``L``, memoized.

    ``shift[r, i] = (i + r) % L`` gathers round ``r``'s receiver per
    sender; ``rel[i, j] = (j - i) % L`` is the round in which pair
    ``(i, j)`` fires.
    """
    grids = cache.get(L)
    if grids is None:
        lane = np.arange(L)
        shift = (lane[None, :] + lane[:, None]) % L
        rel = (lane[None, :] - lane[:, None]) % L
        cache[L] = grids = (shift, rel)
    return grids


def _caterpillar_block(
    sub: np.ndarray,
    cache: Dict[int, Tuple[np.ndarray, np.ndarray]],
    slack: float,
) -> Tuple[float, np.ndarray]:
    """Barrier-round decomposition of one block.

    Returns ``(internal_duration, local_starts)`` where ``local_starts``
    has the block's shape and gives each pair's offset from the block
    window start.  ``slack`` pads every round boundary: splice starts
    are re-associated float sums (``window + offset``), so without a
    strictly positive gap two back-to-back events can land an ulp apart
    in the wrong direction and trip the validity checker's 1e-12
    tolerance.
    """
    m_a, m_b = sub.shape
    L = m_a if m_a >= m_b else m_b
    if m_a == m_b:
        padded = sub
    else:
        padded = np.zeros((L, L))
        padded[:m_a, :m_b] = sub
    shift, rel = _index_grids(L, cache)
    lane = np.arange(L)
    # rounds[r, i] = padded[i, (i + r) % L]; padding contributes 0.
    rounds = padded[lane[None, :], shift]
    durations = rounds.max(axis=1) + slack
    starts = np.empty(L)
    starts[0] = 0.0
    np.cumsum(durations[:-1], out=starts[1:])
    local = starts[rel]
    if m_a != m_b:
        local = local[:m_a, :m_b]
    return float(starts[-1] + durations[-1]), local


def _greedy_block(sub: np.ndarray, slack: float) -> Tuple[float, np.ndarray]:
    """Barrier execution of the greedy step composition on one block.

    An alternative intra-cluster kernel (``intra="greedy"``): steps from
    :func:`repro.core.greedy.greedy_steps` are conflict-free partial
    matchings, executed back-to-back with a barrier exactly like the
    caterpillar rounds.  Zero-cost pairs stay at local offset 0 as
    markers.
    """
    from repro.core.greedy import greedy_steps

    local = np.zeros(sub.shape)
    offset = 0.0
    for step in greedy_steps(sub):
        longest = 0.0
        for src, dst in step:
            local[src, dst] = offset
            duration = sub[src, dst]
            if duration > longest:
                longest = duration
        offset += longest + slack
    return offset, local


@dataclass
class _HierPlanState:
    """Everything needed to delta-repair the last two-level plan.

    ``local`` is the *pristine* per-pair round-offset grid (before block
    windows were added), so a repair can re-splice unchanged blocks
    bit-identically; ``windows`` is the ``K x K`` block window starts
    the cluster-level open shop produced.
    """

    assignment: ClusterAssignment
    perm: np.ndarray
    spans: List[Tuple[int, int]]
    cost_p: np.ndarray  # permuted basis costs
    block_duration: np.ndarray
    local: np.ndarray  # pristine local starts (no windows)
    windows: np.ndarray
    slack: float
    grid_cache: Dict[int, Tuple[np.ndarray, np.ndarray]]
    intra: str
    schedule: Schedule


def _block_internal(
    sub: np.ndarray,
    a: int,
    b: int,
    intra: str,
    grid_cache: Dict[int, Tuple[np.ndarray, np.ndarray]],
    slack: float,
) -> Tuple[float, np.ndarray]:
    """``(duration, local_starts)`` of one block under the intra kernel."""
    if not sub.any():
        # All-free block: zero-duration markers only, any start valid.
        return 0.0, np.zeros(sub.shape)
    if a == b and intra == "greedy":
        return _greedy_block(sub, slack)
    return _caterpillar_block(sub, grid_cache, slack)


def _two_level_schedule(
    problem: TotalExchangeProblem,
    assignment: ClusterAssignment,
    *,
    intra: str = "rounds",
    capture: bool = False,
):
    """Blocks -> cluster-level open shop -> spliced event columns.

    With ``capture`` returns ``(schedule, _HierPlanState)`` instead of
    the bare schedule; the emitted schedule is bit-identical either way.
    """
    cost = problem.cost
    n = problem.num_procs
    k = assignment.num_clusters
    perm, offsets = cluster_permutation(assignment)
    cost_p = cost[np.ix_(perm, perm)]

    # Level 2: per-block internal durations and local start offsets.
    # The boundary slack (relative to the largest cost) keeps every
    # round and window boundary strictly separated despite the splice's
    # re-associated float sums; it inflates the makespan by at most
    # ~P * 1e-9 relative — invisible next to the heuristic gap.
    slack = 1e-9 * float(cost_p.max()) if cost_p.size else 0.0
    block_duration = np.zeros((k, k))
    local_starts = np.zeros((n, n))
    grid_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    spans = [
        (int(offsets[c]), int(offsets[c + 1])) for c in range(k)
    ]
    for a, (a0, a1) in enumerate(spans):
        for b, (b0, b1) in enumerate(spans):
            sub = cost_p[a0:a1, b0:b1]
            if not sub.any():
                continue  # all-free block: zero-duration markers only
            duration, local = _block_internal(
                sub, a, b, intra, grid_cache, slack
            )
            block_duration[a, b] = duration
            local_starts[a0:a1, b0:b1] = local

    pristine = local_starts.copy() if capture else None

    # Level 3: the K x K block-duration matrix is itself a total
    # exchange — cluster send/receive ports, diagonal blocks as cluster
    # self-messages.  The vectorized open shop kernel packs the windows.
    fields = _openshop_fields(
        block_duration.tolist(),
        block_duration > 0,
        [0.0] * k,
        [0.0] * k,
        [[0.0] * k] * k,
    )
    # Splice: every event starts at its block window plus its local
    # round offset (blocks the kernel never scheduled are all-marker
    # blocks whose events carry zero duration — any start is valid).
    windows = np.zeros((k, k))
    for start, a, b, _, _ in fields:
        if start:
            windows[a, b] = start
            a0, a1 = spans[a]
            b0, b1 = spans[b]
            local_starts[a0:a1, b0:b1] += start

    # Emit the full P^2 grid as flat column views: every off-diagonal
    # pair (zero-cost ones as zero-duration markers, matching the flat
    # schedulers' coverage convention), positive-cost self-messages,
    # and zero-duration diagonal markers (harmless, and keeping the
    # grid dense avoids a 16M-element nonzero + five fancy gathers at
    # P = 4096 — reshape views and repeat/tile are ~10x cheaper).
    starts = local_starts.reshape(-1)
    durations = cost_p.reshape(-1)
    srcs = np.repeat(perm, n)
    dsts = np.tile(perm, n)
    if problem.sizes is not None:
        sizes = problem.sizes[np.ix_(perm, perm)].reshape(-1)
    else:
        sizes = np.broadcast_to(np.float64(0.0), (n * n,))
    schedule = schedule_from_unsorted_columns(
        n, starts, srcs, dsts, durations, sizes
    )
    if not capture:
        return schedule
    state = _HierPlanState(
        assignment=assignment,
        perm=perm,
        spans=spans,
        cost_p=cost_p,
        block_duration=block_duration,
        local=pristine,
        windows=windows,
        slack=slack,
        grid_cache=grid_cache,
        intra=intra,
        schedule=schedule,
    )
    return schedule, state


def schedule_hierarchical(
    problem: TotalExchangeProblem,
    *,
    threshold: Optional[float] = None,
    gap_factor: float = DEFAULT_GAP_FACTOR,
    intra: str = "rounds",
    assignment: Optional[ClusterAssignment] = None,
) -> Schedule:
    """Two-level schedule: cluster-level open shop over block rounds.

    Parameters
    ----------
    threshold, gap_factor:
        Forwarded to :func:`repro.core.clustering.detect_clusters` when
        no explicit ``assignment`` is given.
    intra:
        Intra-cluster (diagonal block) kernel: ``"rounds"`` (caterpillar
        barrier rounds, fully vectorized — the default) or ``"greedy"``
        (greedy step composition under the same barrier execution).
    assignment:
        Reuse a previously detected :class:`ClusterAssignment` (what
        :class:`HierarchicalScheduler` does across serving ticks).

    One cluster degenerates to the flat open shop bit-identically; ``P``
    singleton clusters degenerate to the flat matching path.
    """
    if intra not in INTRA_KERNELS:
        raise ValueError(
            f"unknown intra kernel {intra!r}; known: {', '.join(INTRA_KERNELS)}"
        )
    if assignment is None:
        assignment = detect_clusters(
            problem.cost, threshold=threshold, gap_factor=gap_factor
        )
    elif assignment.num_procs != problem.num_procs:
        raise ValueError(
            f"assignment covers {assignment.num_procs} nodes, problem "
            f"has {problem.num_procs}"
        )
    k = assignment.num_clusters
    if k <= 1:
        return schedule_openshop(problem)
    if k == problem.num_procs:
        from repro.core.matching import schedule_matching_max

        return schedule_matching_max(problem)
    return _two_level_schedule(problem, assignment, intra=intra)


def _relative_drift(basis: np.ndarray, cost: np.ndarray) -> float:
    """Max relative entry change between two cost matrices.

    Subsamples deterministically above :data:`_DRIFT_SAMPLE_LIMIT`
    entries so the reuse decision stays cheap at P = 8192.
    """
    a = basis.reshape(-1)
    b = cost.reshape(-1)
    if a.shape[0] > _DRIFT_SAMPLE_LIMIT:
        stride = a.shape[0] // _DRIFT_SAMPLE_LIMIT + 1
        a = a[::stride]
        b = b[::stride]
    scale = np.maximum(np.abs(a), np.abs(b))
    with np.errstate(invalid="ignore"):
        rel = np.abs(b - a) / np.where(scale > 0, scale, 1.0)
    return float(rel.max()) if rel.size else 0.0


class HierarchicalScheduler:
    """The registry's configurable hierarchical scheduler.

    A callable ``problem -> Schedule`` that additionally *remembers its
    clustering*: re-detecting clusters on every serving tick would throw
    away the whole point of the decomposition, so the assignment is
    reused while the cost matrix stays within ``drift_tolerance``
    (max relative entry change) of the basis it was detected on, and is
    published to a bound :class:`~repro.perf.memo.ScheduleCache` keyed
    by the cost digest so exact re-visits of a past world (sensor-style
    workloads) skip detection even after local state moved on.
    :class:`~repro.runtime.session.AdaptiveSession` binds its own cache
    via :meth:`bind_cluster_cache` (duck-typed, like the fault hooks).

    Counters (``clusterings``, ``cluster_reuses``,
    ``cluster_cache_hits``) expose how much re-clustering was avoided.
    """

    def __init__(
        self,
        *,
        threshold: Optional[float] = None,
        gap_factor: float = DEFAULT_GAP_FACTOR,
        intra: str = "rounds",
        drift_tolerance: float = 0.25,
    ):
        if intra not in INTRA_KERNELS:
            raise ValueError(
                f"unknown intra kernel {intra!r}; "
                f"known: {', '.join(INTRA_KERNELS)}"
            )
        if drift_tolerance < 0:
            raise ValueError(
                f"drift_tolerance must be >= 0, got {drift_tolerance}"
            )
        self.threshold = threshold
        self.gap_factor = gap_factor
        self.intra = intra
        self.drift_tolerance = drift_tolerance
        self._cluster_cache = None
        self._basis_cost: Optional[np.ndarray] = None
        self._basis_assignment: Optional[ClusterAssignment] = None
        self._plan_state: Optional[_HierPlanState] = None
        self.clusterings = 0
        self.cluster_reuses = 0
        self.cluster_cache_hits = 0
        self.delta_repairs = 0
        self.__name__ = "hierarchical"
        self.__qualname__ = "hierarchical"

    def bind_cluster_cache(self, cache) -> None:
        """Share cluster assignments through ``cache``'s aux store."""
        self._cluster_cache = cache

    def assignment_for(
        self, problem: TotalExchangeProblem
    ) -> ClusterAssignment:
        """The cluster assignment for ``problem``, reused when possible."""
        cost = problem.cost
        basis = self._basis_cost
        if (
            basis is not None
            and basis.shape == cost.shape
            and _relative_drift(basis, cost) <= self.drift_tolerance
        ):
            self.cluster_reuses += 1
            return self._basis_assignment

        cache = self._cluster_cache
        digest = None
        if cache is not None:
            from repro.perf.memo import cost_digest

            digest = cost_digest(cost)
            hit = cache.aux_lookup("clusters", digest)
            if hit is not None:
                self.cluster_cache_hits += 1
                self._basis_cost = cost
                self._basis_assignment = hit
                return hit

        assignment = detect_clusters(
            cost, threshold=self.threshold, gap_factor=self.gap_factor
        )
        self.clusterings += 1
        self._basis_cost = cost
        self._basis_assignment = assignment
        if cache is not None:
            cache.aux_put("clusters", digest, assignment)
        return assignment

    def __call__(self, problem: TotalExchangeProblem) -> Schedule:
        assignment = self.assignment_for(problem)
        k = assignment.num_clusters
        if k <= 1 or k == problem.num_procs:
            # Degenerate shapes delegate to the flat schedulers; their
            # plans carry no block state, so flat event-level repair
            # (repro.adaptive.delta) takes over via the session.
            self._plan_state = None
            return schedule_hierarchical(
                problem, intra=self.intra, assignment=assignment
            )
        schedule, state = _two_level_schedule(
            problem, assignment, intra=self.intra, capture=True
        )
        self._plan_state = state
        return schedule

    def delta_repair(self, problem: TotalExchangeProblem, *, validate=True):
        """Block-level delta repair of the last two-level plan.

        Recomputes only blocks containing a repriced pair, re-packs the
        cheap ``K x K`` cluster-level open shop only when some block
        duration moved, and re-splices — clean blocks keep their local
        layout bit-identically.  Returns a
        :class:`repro.adaptive.delta.DeltaRepairResult`, or ``None``
        when no plan state exists or the drift exceeds
        ``drift_tolerance`` (the clustering itself is then suspect and
        the caller should fully reschedule, re-detecting clusters).
        """
        from repro.adaptive.delta import DeltaRepairResult

        state = self._plan_state
        if state is None or problem.num_procs != state.perm.shape[0]:
            return None
        perm = state.perm
        cost_p_new = problem.cost[np.ix_(perm, perm)]
        if _relative_drift(state.cost_p, cost_p_new) > self.drift_tolerance:
            return None
        if np.array_equal(state.cost_p, cost_p_new):
            return DeltaRepairResult(
                schedule=state.schedule,
                dirty_pairs=0,
                reinserted=0,
                frozen=len(state.schedule),
                identical=True,
            )

        changed = cost_p_new != state.cost_p
        spans = state.spans
        block_duration = state.block_duration.copy()
        local = state.local.copy()
        reinserted = 0
        for a, (a0, a1) in enumerate(spans):
            for b, (b0, b1) in enumerate(spans):
                if not changed[a0:a1, b0:b1].any():
                    continue
                duration, block_local = _block_internal(
                    cost_p_new[a0:a1, b0:b1],
                    a,
                    b,
                    state.intra,
                    state.grid_cache,
                    state.slack,
                )
                block_duration[a, b] = duration
                local[a0:a1, b0:b1] = block_local
                reinserted += (a1 - a0) * (b1 - b0)

        k = len(spans)
        if np.array_equal(block_duration, state.block_duration):
            windows = state.windows
        else:
            fields = _openshop_fields(
                block_duration.tolist(),
                block_duration > 0,
                [0.0] * k,
                [0.0] * k,
                [[0.0] * k] * k,
            )
            windows = np.zeros((k, k))
            for start, a, b, _, _ in fields:
                if start:
                    windows[a, b] = start

        pristine = local.copy()
        n = problem.num_procs
        for a, (a0, a1) in enumerate(spans):
            for b, (b0, b1) in enumerate(spans):
                w = windows[a, b]
                if w:
                    local[a0:a1, b0:b1] += w
        starts = local.reshape(-1)
        durations = cost_p_new.reshape(-1)
        srcs = np.repeat(perm, n)
        dsts = np.tile(perm, n)
        if problem.sizes is not None:
            sizes = problem.sizes[np.ix_(perm, perm)].reshape(-1)
        else:
            sizes = np.broadcast_to(np.float64(0.0), (n * n,))
        repaired = schedule_from_unsorted_columns(
            n, starts, srcs, dsts, durations, sizes
        )
        if validate:
            from repro.timing.validate import check_schedule

            check_schedule(repaired, problem.cost)

        state.cost_p = cost_p_new
        state.block_duration = block_duration
        state.local = pristine
        state.windows = windows
        state.schedule = repaired
        self.delta_repairs += 1
        return DeltaRepairResult(
            schedule=repaired,
            dirty_pairs=int(np.count_nonzero(changed)),
            reinserted=reinserted,
            frozen=n * n - reinserted,
            identical=False,
        )
