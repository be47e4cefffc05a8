"""Matching-based scheduling (paper Section 4.3).

Build a complete bipartite graph with senders on the left, receivers on
the right, and edge weight equal to the communication time of the
corresponding message.  A complete matching is a permutation — a
contention-free communication step.  The scheduler repeatedly extracts a
maximum-weight (or minimum-weight) complete matching, removes its edges,
and repeats until all ``P`` matchings are found; the sequence of
matchings fixes each sender's dispatch order.  Total complexity is
``O(P^4)`` (``P`` assignment problems at ``O(P^3)`` each).

Maximum-weight matchings group long events into the same step, which
empirically packs the timing diagram tightly; the minimum variant is also
provided because the paper evaluates both and finds them comparable.

As the paper notes, "the communication phase does not impose a
synchronization among the processors after each step" — the matchings fix
*order* only, and actual start times come from the event-driven executor.

Backends: the default LAP solver is SciPy's Jonker-Volgenant
``linear_sum_assignment`` (the paper's acknowledgements thank Roy Jonker
for exactly this algorithm); a networkx
``minimum_weight_full_matching`` backend is kept for cross-validation;
and a dependency-free pure-numpy ``auction`` backend implements the same
Jonker-Volgenant scheme (reduction, augmenting row reduction, shortest
augmenting paths) with one twist the one-shot solvers cannot exploit:
its dual prices survive from one round to the next.  Masking a round's
edges only *raises* costs, so the previous round's duals stay feasible
and each re-solve starts from a near-optimal price vector — measured at
``P = 256``, warm duals cut the backend's round extraction ~3x versus
cold-starting every round.  Every backend extracts optimal-weight
matchings, so all three agree on per-round matching weight (though not
necessarily on which optimal permutation realises it).
"""

from __future__ import annotations

from typing import List, Literal, Sequence, Tuple

import numpy as np

from repro.core.problem import TotalExchangeProblem
from repro.sim.engine import SendOrders, execute_steps_strict
from repro.timing.events import Schedule

Objective = Literal["max", "min"]
Backend = Literal["scipy", "networkx", "auction"]

#: The modules each backend imports when it first solves (networkx's
#: matching solves on scipy): scipy and networkx load only in a process
#: that runs their matchings.
BACKEND_MODULES = {
    "scipy": ("scipy.optimize",),
    "networkx": ("networkx", "scipy.optimize", "scipy.sparse"),
    "auction": (),
}


def _assignment_scipy(weights: np.ndarray, objective: Objective) -> np.ndarray:
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(weights, maximize=(objective == "max"))
    permutation = np.empty(weights.shape[0], dtype=int)
    permutation[rows] = cols
    return permutation


def _assignment_networkx(weights: np.ndarray, objective: Objective) -> np.ndarray:
    import networkx as nx

    n = weights.shape[0]
    graph = nx.Graph()
    left = [("s", i) for i in range(n)]
    right = [("r", j) for j in range(n)]
    graph.add_nodes_from(left, bipartite=0)
    graph.add_nodes_from(right, bipartite=1)
    sign = -1.0 if objective == "max" else 1.0
    # Bulk edge insertion: one add_weighted_edges_from call over plain
    # Python floats instead of P^2 scalar add_edge calls on numpy values.
    signed = (sign * weights).tolist()
    graph.add_weighted_edges_from(
        (left[i], right[j], signed[i][j])
        for i in range(n)
        for j in range(n)
    )
    matching = nx.bipartite.minimum_weight_full_matching(graph, top_nodes=left)
    permutation = np.empty(n, dtype=int)
    for i in range(n):
        permutation[i] = matching[("s", i)][1]
    return permutation


def _lsap_warm(
    C: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    scratch: Tuple[np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """Min-cost full assignment of square ``C`` from feasible duals.

    Jonker-Volgenant in three phases, all exact:

    1. *row re-reduction* — tighten ``u`` so every row has a zero
       reduced-cost edge (vectorised), then harvest the conflict-free
       tight edges as initial assignments;
    2. *augmenting row reduction* — unassigned rows claim (or steal) the
       column behind their cheapest reduced cost, paying for thefts with
       a ``v`` price cut; capped, since on hard instances the
       displacement chain stops converging and phase 3 is cheaper;
    3. *shortest augmenting paths* — Dijkstra on reduced costs for each
       still-free row, with the standard dual update keeping all reduced
       costs non-negative.

    Duals ``u``/``v`` must satisfy ``C[i, j] - u[i] - v[j] >= 0`` on
    entry (guaranteed here by construction and preserved by every
    phase); they are updated in place and remain feasible for the
    returned assignment, which is what makes cross-round warm starts
    sound.  Returns the column assigned to each row.
    """
    n = C.shape[0]
    shortest, pred, d = scratch
    inf = np.inf

    # Phase 1: row re-reduction + conflict-free tight assignment.
    R = C - u[:, None]
    R -= v
    rmin = R.min(axis=1)
    u += rmin
    R -= rmin[:, None]
    col4row = np.full(n, -1, dtype=np.intp)
    row4col = np.full(n, -1, dtype=np.intp)
    jstar = R.argmin(axis=1)
    cols, first_rows = np.unique(jstar, return_index=True)
    col4row[first_rows] = cols
    row4col[cols] = first_rows

    # Phase 2: augmenting row reduction over the conflicted rows.
    queue = []
    for i in np.nonzero(col4row == -1)[0].tolist():
        j = int(jstar[i])
        if row4col[j] == -1:
            col4row[i] = j
            row4col[j] = i
        else:
            queue.append(i)
    attempts = 0
    max_attempts = 4 * n
    k = 0
    leftovers = []
    while k < len(queue):
        i = queue[k]
        k += 1
        if attempts >= max_attempts:
            leftovers.append(i)
            continue
        attempts += 1
        np.subtract(C[i], v, out=d)
        j1 = int(d.argmin())
        u1 = float(d[j1])
        d[j1] = inf
        j2 = int(d.argmin())
        u2 = float(d[j2])
        u[i] = u2
        if u1 < u2:
            v[j1] -= u2 - u1
        elif row4col[j1] != -1:
            j1 = j2
        i0 = int(row4col[j1])
        col4row[i] = j1
        row4col[j1] = i
        if i0 != -1:
            col4row[i0] = -1
            if u1 < u2:
                k -= 1
                queue[k] = i0
            else:
                queue.append(i0)

    # Phase 3: shortest augmenting path per remaining free row.
    for currow in leftovers:
        shortest.fill(inf)
        scanned_cols = np.zeros(n, dtype=bool)
        scanned_rows = [currow]
        minval = 0.0
        i = currow
        while True:
            np.subtract(C[i], v, out=d)
            d += minval - u[i]
            better = d < shortest
            better &= ~scanned_cols
            shortest[better] = d[better]
            pred[better] = i
            frontier = np.where(scanned_cols, inf, shortest)
            j = int(frontier.argmin())
            minval = float(frontier[j])
            if minval == inf:
                raise ValueError("assignment is infeasible")
            scanned_cols[j] = True
            if row4col[j] == -1:
                sink = j
                break
            i = int(row4col[j])
            scanned_rows.append(i)
        u[currow] += minval
        for r in scanned_rows[1:]:
            u[r] += minval - shortest[col4row[r]]
        v[scanned_cols] -= minval - shortest[scanned_cols]
        j = sink
        while True:
            i = int(pred[j])
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == currow:
                break
    return col4row


def _matching_rounds_auction(
    weights: np.ndarray, objective: Objective, used_value: float
) -> List[np.ndarray]:
    """All ``n`` rounds via :func:`_lsap_warm` with cross-round duals.

    Works on the signed min-cost matrix; used edges are overwritten with
    ``|used_value|`` (a dominating positive cost), which can only raise
    reduced costs, so the duals carried across rounds stay feasible.
    """
    n = weights.shape[0]
    sign = -1.0 if objective == "max" else 1.0
    C = sign * weights
    # Column then row reduction makes the initial duals feasible.
    v = C.min(axis=0)
    u = (C - v).min(axis=1)
    scratch = (np.empty(n), np.empty(n, dtype=np.intp), np.empty(n))
    rows = np.arange(n)
    masked_cost = abs(used_value)
    rounds: List[np.ndarray] = []
    for _ in range(n):
        permutation = _lsap_warm(C, u, v, scratch)
        rounds.append(permutation.astype(int))
        C[rows, permutation] = masked_cost
    return rounds


def matching_rounds(
    cost: np.ndarray,
    *,
    objective: Objective = "max",
    backend: Backend = "scipy",
) -> List[np.ndarray]:
    """The ``P`` permutations extracted by successive matchings.

    Round ``k``'s permutation maps each sender to its round-``k``
    destination.  Used edges are masked out between rounds, so the rounds
    partition all ``P^2`` (sender, receiver) pairs.
    """
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    if cost.shape != (n, n):
        raise ValueError(f"cost must be square, got {cost.shape}")
    if np.any(cost < 0):
        raise ValueError("cost entries must be non-negative")
    # Validate the backend *before* binding a solver, so an unknown
    # backend can never silently fall through to the networkx path.
    if backend not in ("scipy", "networkx", "auction"):
        raise ValueError(f"unknown backend {backend!r}")
    solve = _assignment_scipy if backend == "scipy" else _assignment_networkx

    # Work on a copy where used edges are masked with a penalty that
    # dominates any assignment total, so the solver always prefers a fully
    # unused permutation.  One always exists: K_{n,n} minus k perfect
    # matchings is (n-k)-regular bipartite, which has a perfect matching
    # by Hall's theorem — the rounds therefore partition all n^2 pairs.
    weights = cost.copy()
    penalty = float(cost.max()) * n + 1.0
    if objective == "max":
        used_value = -penalty
    elif objective == "min":
        used_value = penalty
    else:
        raise ValueError(f"objective must be 'max' or 'min', got {objective!r}")

    if backend == "auction":
        return _matching_rounds_auction(weights, objective, used_value)

    # The single working buffer `weights` is reused across all rounds;
    # only the used edges are overwritten between extractions.
    rows = np.arange(n)
    rounds: List[np.ndarray] = []
    for _ in range(n):
        permutation = solve(weights, objective)
        rounds.append(permutation)
        weights[rows, permutation] = used_value
    return rounds


def matching_orders(
    problem: TotalExchangeProblem,
    *,
    objective: Objective = "max",
    backend: Backend = "scipy",
) -> SendOrders:
    """Per-sender dispatch orders induced by the matching rounds.

    Zero-cost assignments (the diagonal and any free pairs) are kept in
    the order; the executor skips them at zero cost.
    """
    rounds = matching_rounds(problem.cost, objective=objective, backend=backend)
    orders: SendOrders = [[] for _ in range(problem.num_procs)]
    for permutation in rounds:
        for src, dst in enumerate(permutation):
            orders[src].append(int(dst))
    return orders


def schedule_matching(
    problem: TotalExchangeProblem,
    *,
    objective: Objective = "max",
    backend: Backend = "scipy",
) -> Schedule:
    """Matching-based schedule, executed order-preserving without barriers.

    The rounds fix both each sender's dispatch order and each receiver's
    service order; actual start times let every event begin as soon as
    both its ports are free (paper: "the communication phase does not
    impose a synchronization among the processors after each step").
    """
    rounds = matching_rounds(problem.cost, objective=objective, backend=backend)
    steps = [
        [(src, int(dst)) for src, dst in enumerate(permutation)]
        for permutation in rounds
    ]
    return execute_steps_strict(problem.cost, steps, sizes=problem.sizes)


def schedule_matching_max(problem: TotalExchangeProblem) -> Schedule:
    """Series-of-maximum-weight-matchings schedule (paper Figure 6)."""
    return schedule_matching(problem, objective="max")


def schedule_matching_min(problem: TotalExchangeProblem) -> Schedule:
    """Series-of-minimum-weight-matchings schedule (paper's variant)."""
    return schedule_matching(problem, objective="min")
