"""Dependence graphs of communication schedules (paper Section 4.2).

The paper analyses the baseline schedule through a directed *dependence
graph* **DG** with one node per communication event and an edge wherever
one event must wait for another: *vertical* edges chain consecutive sends
of the same sender, *diagonal* edges chain consecutive receives at the same
receiver.  The completion time of a stall-free execution equals the weight
of the longest node-weighted path — the machinery behind Theorem 2's
``P/2 x lower-bound`` result.

Two constructions are provided:

* :func:`dependence_graph` extracts the realised dependence structure from
  any timed :class:`~repro.timing.events.Schedule`;
* :func:`baseline_dependence_graph` builds the caterpillar structure of the
  paper's Figure 5 directly from the processor count, without executing
  anything.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from repro.timing.events import Schedule

if TYPE_CHECKING:
    import networkx as nx

#: Node identifier in a dependence graph: the (src, dst) message pair.
EventKey = Tuple[int, int]


def dependence_graph(schedule: Schedule) -> "nx.DiGraph":
    """Realised dependence graph of a timed schedule.

    Nodes are ``(src, dst)`` pairs carrying a ``duration`` attribute; an
    edge ``a -> b`` is added when ``b`` directly follows ``a`` at a shared
    sender or receiver.  Zero-duration events (free local copies) are
    omitted, matching their exclusion from the timing diagram.
    """
    import networkx as nx

    graph = nx.DiGraph()
    events = [e for e in schedule if e.duration > 0]
    for event in events:
        graph.add_node((event.src, event.dst), duration=event.duration)
    for proc in range(schedule.num_procs):
        sends = sorted(
            (e for e in events if e.src == proc), key=lambda e: e.start
        )
        for prev, nxt in zip(sends, sends[1:]):
            graph.add_edge((prev.src, prev.dst), (nxt.src, nxt.dst), kind="sender")
        recvs = sorted(
            (e for e in events if e.dst == proc), key=lambda e: e.start
        )
        for prev, nxt in zip(recvs, recvs[1:]):
            graph.add_edge(
                (prev.src, prev.dst), (nxt.src, nxt.dst), kind="receiver"
            )
    return graph


def baseline_dependence_graph(num_procs: int) -> "nx.DiGraph":
    """Structural dependence graph of the baseline caterpillar schedule.

    In step ``s`` of the caterpillar, ``P_i`` sends to ``P_(i+s) mod P``.
    Sender ``i``'s step-``s`` event depends on its own step ``s-1`` event
    (vertical edge) and on the event received at its destination in step
    ``s-1`` (diagonal edge) — exactly the structure of the paper's
    Figure 5.  Step 0 (the ``i -> i`` self messages) is skipped because the
    diagonal of the communication matrix is free.
    """
    if num_procs <= 0:
        raise ValueError(f"num_procs must be positive, got {num_procs}")
    import networkx as nx

    graph = nx.DiGraph()
    for step in range(1, num_procs):
        for src in range(num_procs):
            dst = (src + step) % num_procs
            graph.add_node((src, dst), step=step)
            if step >= 2:
                prev_own = (src, (src + step - 1) % num_procs)
                graph.add_edge(prev_own, (src, dst), kind="sender")
                prev_recv = ((dst - step + 1) % num_procs, dst)
                graph.add_edge(prev_recv, (src, dst), kind="receiver")
    return graph


def longest_path_time(graph: "nx.DiGraph", cost: np.ndarray) -> float:
    """Weight of the heaviest node-weighted path through ``graph``.

    ``cost[src, dst]`` supplies node weights keyed by the ``(src, dst)``
    node ids.  The graph must be acyclic (true for any valid schedule).
    """
    import networkx as nx

    cost = np.asarray(cost, dtype=float)
    if not nx.is_directed_acyclic_graph(graph):
        raise ValueError("dependence graph must be acyclic")
    best: Dict[EventKey, float] = {}
    for node in nx.topological_sort(graph):
        weight = float(cost[node[0], node[1]])
        incoming = [best[pred] for pred in graph.predecessors(node)]
        best[node] = weight + (max(incoming) if incoming else 0.0)
    return max(best.values(), default=0.0)


def critical_path(graph: "nx.DiGraph", cost: np.ndarray) -> List[EventKey]:
    """The event sequence realising :func:`longest_path_time`."""
    import networkx as nx

    cost = np.asarray(cost, dtype=float)
    if not nx.is_directed_acyclic_graph(graph):
        raise ValueError("dependence graph must be acyclic")
    best: Dict[EventKey, float] = {}
    parent: Dict[EventKey, EventKey] = {}
    for node in nx.topological_sort(graph):
        weight = float(cost[node[0], node[1]])
        best_pred, best_val = None, 0.0
        for pred in graph.predecessors(node):
            if best[pred] > best_val:
                best_pred, best_val = pred, best[pred]
        best[node] = weight + best_val
        if best_pred is not None:
            parent[node] = best_pred
    if not best:
        return []
    node = max(best, key=best.get)
    path = [node]
    while node in parent:
        node = parent[node]
        path.append(node)
    path.reverse()
    return path
