"""Seed (pre-optimization) kernel implementations, frozen verbatim.

When the greedy/executor/matching hot paths were rewritten as vectorized
or asymptotically better kernels, the original scalar implementations
moved here.  They serve two purposes:

* **golden references** — ``tests/test_golden_equivalence.py`` asserts
  the optimized kernels reproduce these schedules *exactly*
  (event-for-event) on randomized instances;
* **before/after benchmarking** — :mod:`repro.perf.bench` times both
  versions so ``BENCH_core.json`` records the speedup trajectory.

Do not "fix" or optimize this module: its value is bit-level fidelity to
the seed behavior.  Semantics are documented on the live counterparts in
:mod:`repro.core.greedy`, :mod:`repro.sim.engine`, and
:mod:`repro.core.matching`.
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.problem import TotalExchangeProblem
from repro.timing.events import CommEvent, Schedule
from repro.util.validation import check_square_matrix

SendOrders = List[List[int]]


# -- core/greedy.py seed kernels --------------------------------------------


def greedy_steps_reference(cost: np.ndarray) -> List[List[tuple]]:
    """Seed ``greedy_steps``: linear scans over shrinking Python lists."""
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]

    remaining: List[List[int]] = []
    for src in range(n):
        dsts = [dst for dst in range(n) if cost[src, dst] > 0]
        dsts.sort(key=lambda dst: (-cost[src, dst], dst))
        remaining.append(dsts)

    order = list(range(n))
    steps: List[List[tuple]] = []
    while any(remaining):
        taken_dsts = set()
        picks: List[tuple] = []
        idled: List[int] = []
        last_picker = None
        for src in order:
            if not remaining[src]:
                continue  # exhausted senders neither pick nor count as idle
            choice = None
            for dst in remaining[src]:
                if dst not in taken_dsts:
                    choice = dst
                    break
            if choice is None:
                idled.append(src)
                continue
            remaining[src].remove(choice)
            taken_dsts.add(choice)
            picks.append((src, choice))
            last_picker = src
        steps.append(picks)
        if idled:
            rest = [src for src in order if src not in idled]
            order = idled + rest
        elif last_picker is not None:
            order = [last_picker] + [src for src in order if src != last_picker]
    return steps


def greedy_orders_reference(problem: TotalExchangeProblem) -> SendOrders:
    """Seed ``greedy_orders``: per-sender ``present`` set plus a P-scan."""
    steps = greedy_steps_reference(problem.cost)
    orders: SendOrders = [[] for _ in range(problem.num_procs)]
    for picks in steps:
        for src, dst in picks:
            orders[src].append(dst)
    cost = problem.cost
    for src in range(problem.num_procs):
        present = set(orders[src])
        for dst in range(problem.num_procs):
            if dst != src and dst not in present and cost[src, dst] == 0:
                orders[src].append(dst)
    return orders


def schedule_greedy_reference(problem: TotalExchangeProblem) -> Schedule:
    """Seed ``schedule_greedy`` on top of the seed step executor."""
    steps = greedy_steps_reference(problem.cost)
    cost = problem.cost
    present = {pair for step in steps for pair in step}
    free_step = [
        (src, dst)
        for src in range(problem.num_procs)
        for dst in range(problem.num_procs)
        if src != dst and cost[src, dst] == 0 and (src, dst) not in present
    ]
    all_steps = steps + [[pair] for pair in free_step]
    return execute_steps_strict_reference(cost, all_steps, sizes=problem.sizes)


# -- sim/engine.py seed kernels ---------------------------------------------


def execute_orders_on_cost_reference(
    cost: np.ndarray,
    orders: Sequence[Sequence[int]],
    *,
    sizes: Optional[np.ndarray] = None,
    validate: bool = True,
) -> Schedule:
    """Seed FIFO executor: per-event numpy indexing, 4-tuple heap entries."""
    from repro.sim.engine import check_orders

    cost = check_square_matrix("cost", cost, nonnegative=True)
    if validate:
        check_orders(orders, cost, require_coverage=False)
    n = cost.shape[0]

    next_index = [0] * n
    recv_free = [0.0] * n
    events: List[CommEvent] = []

    def event_size(src: int, dst: int) -> float:
        return float(sizes[src, dst]) if sizes is not None else 0.0

    heap: List[tuple] = []

    def push_request(src: int, at_time: float) -> None:
        while next_index[src] < len(orders[src]):
            dst = orders[src][next_index[src]]
            next_index[src] += 1
            duration = float(cost[src, dst])
            if duration > 0:
                heapq.heappush(heap, (at_time, src, dst, duration))
                return
            events.append(
                CommEvent(
                    start=at_time,
                    src=src,
                    dst=dst,
                    duration=0.0,
                    size=event_size(src, dst),
                )
            )

    for src in range(n):
        push_request(src, 0.0)

    while heap:
        request_time, src, dst, duration = heapq.heappop(heap)
        start = max(request_time, recv_free[dst])
        finish = start + duration
        recv_free[dst] = finish
        events.append(
            CommEvent(
                start=start,
                src=src,
                dst=dst,
                duration=duration,
                size=event_size(src, dst),
            )
        )
        push_request(src, finish)

    return Schedule.from_events(n, events)


def execute_steps_strict_reference(
    cost: np.ndarray,
    steps,
    *,
    sizes: Optional[np.ndarray] = None,
) -> Schedule:
    """Seed strict step executor: scalar per-event relaxation."""
    from repro.sim.engine import _check_steps

    cost = check_square_matrix("cost", cost, nonnegative=True)
    n = cost.shape[0]
    _check_steps(steps, n)
    send_free = np.zeros(n)
    recv_free = np.zeros(n)
    events: List[CommEvent] = []
    for step in steps:
        placed = []
        for src, dst in step:
            start = max(send_free[src], recv_free[dst])
            duration = float(cost[src, dst])
            placed.append((src, dst, start, duration))
        for src, dst, start, duration in placed:
            if duration > 0:
                send_free[src] = start + duration
                recv_free[dst] = start + duration
            events.append(
                CommEvent(
                    start=start,
                    src=src,
                    dst=dst,
                    duration=duration,
                    size=float(sizes[src, dst]) if sizes is not None else 0.0,
                )
            )
    return Schedule.from_events(n, events)


def execute_steps_barrier_reference(
    cost: np.ndarray,
    steps,
    *,
    sizes: Optional[np.ndarray] = None,
) -> Schedule:
    """Seed barrier step executor: scalar per-event max tracking."""
    from repro.sim.engine import _check_steps

    cost = check_square_matrix("cost", cost, nonnegative=True)
    n = cost.shape[0]
    _check_steps(steps, n)
    events: List[CommEvent] = []
    clock = 0.0
    for step in steps:
        longest = 0.0
        for src, dst in step:
            duration = float(cost[src, dst])
            longest = max(longest, duration)
            events.append(
                CommEvent(
                    start=clock,
                    src=src,
                    dst=dst,
                    duration=duration,
                    size=float(sizes[src, dst]) if sizes is not None else 0.0,
                )
            )
        clock += longest
    return Schedule.from_events(n, events)


# -- core/openshop.py seed kernels ------------------------------------------


def openshop_events_reference(
    cost: np.ndarray,
    pairs: Iterable[Tuple[int, int]],
    sendavail: List[float],
    recvavail: List[float],
    *,
    sizes: Optional[np.ndarray] = None,
) -> List[CommEvent]:
    """Seed ``openshop_events``: per-event ``min`` scan over a Python set."""
    n = len(sendavail)
    recv_sets: List[Set[int]] = [set() for _ in range(n)]
    for src, dst in pairs:
        recv_sets[src].add(dst)
    events: List[CommEvent] = []

    heap = [(sendavail[src], src) for src in range(n) if recv_sets[src]]
    heapq.heapify(heap)

    while heap:
        avail, src = heapq.heappop(heap)
        if avail < sendavail[src] or not recv_sets[src]:
            continue  # stale entry
        receivers = recv_sets[src]
        dst = min(receivers, key=lambda j: (recvavail[j], j))
        start = max(sendavail[src], recvavail[dst])
        duration = float(cost[src, dst])
        finish = start + duration
        events.append(
            CommEvent(
                start=start,
                src=src,
                dst=dst,
                duration=duration,
                size=float(sizes[src, dst]) if sizes is not None else 0.0,
            )
        )
        sendavail[src] = finish
        recvavail[dst] = finish
        receivers.discard(dst)
        if receivers:
            heapq.heappush(heap, (finish, src))
    return events


def schedule_openshop_reference(problem: TotalExchangeProblem) -> Schedule:
    """Seed ``schedule_openshop``: scalar marker loop + eager event build."""
    cost = problem.cost
    n = problem.num_procs
    events: List[CommEvent] = []

    for src in range(n):
        for dst in range(n):
            if src != dst and cost[src, dst] == 0:
                events.append(
                    CommEvent(start=0.0, src=src, dst=dst, duration=0.0,
                              size=problem.size_of(src, dst))
                )

    events += openshop_events_reference(
        cost,
        problem.positive_events(),
        [0.0] * n,
        [0.0] * n,
        sizes=problem.sizes,
    )
    return Schedule.from_events(n, events)


# -- core/matching.py seed kernels ------------------------------------------


def assignment_networkx_reference(weights: np.ndarray, objective) -> np.ndarray:
    """Seed networkx assignment: ``P^2`` scalar ``add_edge`` calls."""
    import networkx as nx

    n = weights.shape[0]
    graph = nx.Graph()
    left = [("s", i) for i in range(n)]
    right = [("r", j) for j in range(n)]
    graph.add_nodes_from(left, bipartite=0)
    graph.add_nodes_from(right, bipartite=1)
    sign = -1.0 if objective == "max" else 1.0
    for i in range(n):
        for j in range(n):
            graph.add_edge(("s", i), ("r", j), weight=sign * weights[i, j])
    matching = nx.bipartite.minimum_weight_full_matching(graph, top_nodes=left)
    permutation = np.empty(n, dtype=int)
    for i in range(n):
        permutation[i] = matching[("s", i)][1]
    return permutation


def _assignment_scipy(weights: np.ndarray, objective) -> np.ndarray:
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(weights, maximize=(objective == "max"))
    permutation = np.empty(weights.shape[0], dtype=int)
    permutation[rows] = cols
    return permutation


def matching_rounds_reference(
    cost: np.ndarray,
    *,
    objective="max",
    backend="scipy",
) -> List[np.ndarray]:
    """Seed ``matching_rounds`` (including its late backend validation)."""
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    if cost.shape != (n, n):
        raise ValueError(f"cost must be square, got {cost.shape}")
    if np.any(cost < 0):
        raise ValueError("cost entries must be non-negative")
    solve = (
        _assignment_scipy if backend == "scipy" else assignment_networkx_reference
    )
    if backend not in ("scipy", "networkx"):
        raise ValueError(f"unknown backend {backend!r}")

    weights = cost.copy()
    penalty = float(cost.max()) * n + 1.0
    if objective == "max":
        used_value = -penalty
    elif objective == "min":
        used_value = penalty
    else:
        raise ValueError(f"objective must be 'max' or 'min', got {objective!r}")

    rounds: List[np.ndarray] = []
    for _ in range(n):
        permutation = solve(weights, objective)
        rounds.append(permutation)
        weights[np.arange(n), permutation] = used_value
    return rounds
