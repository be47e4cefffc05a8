"""Routing and end-to-end path parameters.

The application-level model sees only two numbers per processor pair: a
start-up cost ``T_ij`` and a transmission rate ``B_ij`` (paper Section
3.2).  This module derives them from the link-level topology:

* the route is the minimum-latency path between the two nodes;
* ``T_ij`` is the sum of link latencies along the route (plus a fixed
  per-message software overhead);
* ``B_ij`` is the bottleneck (minimum) link bandwidth along the route.

Intermediate-hop contention is deliberately ignored, as the paper's model
prescribes ("the model ignores the negligible delays incurred by
contention at intermediate links and nodes").  Link *sharing* between
simultaneous flows is handled separately in :mod:`repro.network.sharing`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from repro.network.topology import Metacomputer


@dataclass(frozen=True)
class PathInfo:
    """End-to-end parameters of a routed node-to-node path."""

    vertices: Tuple[str, ...]
    latency: float
    bandwidth: float

    @property
    def edges(self) -> Tuple[Tuple[str, str], ...]:
        """The path's edges as vertex pairs (canonically ordered)."""
        return tuple(
            (u, v) if u <= v else (v, u)
            for u, v in zip(self.vertices, self.vertices[1:])
        )


def path_info(system: Metacomputer, src: int, dst: int) -> PathInfo:
    """Route ``src -> dst`` and compute its end-to-end parameters."""
    if src == dst:
        vertex = system.node_vertex(src)
        return PathInfo(vertices=(vertex,), latency=0.0, bandwidth=float("inf"))
    import networkx as nx

    route = nx.shortest_path(
        system.graph,
        system.node_vertex(src),
        system.node_vertex(dst),
        weight=lambda u, v, data: data["link"].latency,
    )
    links = [system.link(u, v) for u, v in zip(route, route[1:])]
    return PathInfo(
        vertices=tuple(route),
        latency=sum(link.latency for link in links),
        bandwidth=min(link.bandwidth for link in links),
    )


def all_paths(system: Metacomputer) -> Dict[Tuple[int, int], PathInfo]:
    """Routes for every ordered off-diagonal node pair."""
    paths: Dict[Tuple[int, int], PathInfo] = {}
    for src in range(system.num_procs):
        for dst in range(system.num_procs):
            if src != dst:
                paths[(src, dst)] = path_info(system, src, dst)
    return paths


def end_to_end_matrices(
    system: Metacomputer, *, software_overhead: float = 0.0
) -> Tuple[np.ndarray, np.ndarray]:
    """Dense ``(latency, bandwidth)`` matrices over all node pairs.

    ``latency[i, j]`` is the start-up cost ``T_ij`` in seconds (path
    latency plus ``software_overhead``); ``bandwidth[i, j]`` is ``B_ij`` in
    bytes/second.  Diagonals are 0 and ``inf`` respectively (local copies
    are free under the paper's model).
    """
    n = system.num_procs
    latency = np.zeros((n, n))
    bandwidth = np.full((n, n), np.inf)
    for (src, dst), info in all_paths(system).items():
        latency[src, dst] = info.latency + software_overhead
        bandwidth[src, dst] = info.bandwidth
    return latency, bandwidth
