"""Link-level topology of a metacomputing system.

Mirrors the paper's Figure 1: compute nodes live at geographically
distributed *sites*; each site has a local network; sites are joined by
long-haul (ATM/T3-class) links.  The local network is modelled as a star —
every node has an access link to its site's hub — which captures the two
properties the paper relies on: node-to-node paths traverse both local
networks plus a backbone link, and concurrent flows through a site share
its local infrastructure.

The topology is held in a :class:`networkx.Graph` whose edges carry
:class:`Link` records.  All quantities use the package-wide units
(seconds, bytes, bytes/second).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.util.validation import check_positive


@dataclass(frozen=True)
class Link:
    """A physical network link.

    Attributes
    ----------
    latency:
        One-way traversal latency in seconds.
    bandwidth:
        Raw capacity in bytes/second (before any sharing).
    kind:
        Free-form tag (``"lan"``, ``"backbone"``, ``"access"``) used by
        reports and background-load models.
    """

    latency: float
    bandwidth: float
    kind: str = "link"

    def __post_init__(self) -> None:
        check_positive("link latency", self.latency, allow_zero=True)
        check_positive("link bandwidth", self.bandwidth)


@dataclass(frozen=True)
class Node:
    """A compute node attached to a site."""

    index: int
    site: str
    name: str = ""

    def label(self) -> str:
        return self.name or f"P{self.index}"


@dataclass
class Site:
    """A site: a named location hosting a hub and a set of compute nodes."""

    name: str
    nodes: List[Node] = field(default_factory=list)

    @property
    def hub(self) -> str:
        """Graph vertex id of this site's local-network hub."""
        return f"hub:{self.name}"


class Metacomputer:
    """A heterogeneous network-based system (paper Figure 1).

    Build one with :meth:`Metacomputer.build`, then query end-to-end
    parameters with :func:`repro.network.paths.end_to_end_matrices` or wrap
    it in a :class:`repro.directory.TopologyDirectory` for time-varying
    behaviour.
    """

    def __init__(self) -> None:
        import networkx as nx

        self.graph = nx.Graph()
        self.sites: Dict[str, Site] = {}
        self.nodes: List[Node] = []

    # -- construction -----------------------------------------------------

    def add_site(self, name: str) -> Site:
        """Register a site and its hub vertex."""
        if name in self.sites:
            raise ValueError(f"site {name!r} already exists")
        site = Site(name=name)
        self.sites[name] = site
        self.graph.add_node(site.hub, kind="hub", site=name)
        return site

    def add_node(
        self,
        site_name: str,
        *,
        access_latency: float,
        access_bandwidth: float,
        name: str = "",
    ) -> Node:
        """Attach a compute node to ``site_name`` via an access link."""
        if site_name not in self.sites:
            raise ValueError(f"unknown site {site_name!r}")
        site = self.sites[site_name]
        node = Node(index=len(self.nodes), site=site_name, name=name)
        self.nodes.append(node)
        site.nodes.append(node)
        vertex = self._node_vertex(node.index)
        self.graph.add_node(vertex, kind="node", site=site_name, node=node)
        self.graph.add_edge(
            vertex,
            site.hub,
            link=Link(
                latency=access_latency, bandwidth=access_bandwidth, kind="access"
            ),
        )
        return node

    def connect_sites(
        self,
        site_a: str,
        site_b: str,
        *,
        latency: float,
        bandwidth: float,
        kind: str = "backbone",
    ) -> None:
        """Join two site hubs with a long-haul link."""
        for name in (site_a, site_b):
            if name not in self.sites:
                raise ValueError(f"unknown site {name!r}")
        if site_a == site_b:
            raise ValueError("cannot connect a site to itself")
        self.graph.add_edge(
            self.sites[site_a].hub,
            self.sites[site_b].hub,
            link=Link(latency=latency, bandwidth=bandwidth, kind=kind),
        )

    @classmethod
    def build(
        cls,
        site_specs: Dict[str, int],
        *,
        access_latency: float,
        access_bandwidth: float,
        backbone: Iterable[Tuple[str, str, float, float]],
    ) -> "Metacomputer":
        """Convenience constructor.

        Parameters
        ----------
        site_specs:
            ``{site name: node count}``.
        backbone:
            Iterable of ``(site_a, site_b, latency_s, bandwidth_Bps)``.
        """
        system = cls()
        for site_name, count in site_specs.items():
            system.add_site(site_name)
            for i in range(count):
                system.add_node(
                    site_name,
                    access_latency=access_latency,
                    access_bandwidth=access_bandwidth,
                    name=f"{site_name}-{i}",
                )
        for site_a, site_b, latency, bandwidth in backbone:
            system.connect_sites(site_a, site_b, latency=latency, bandwidth=bandwidth)
        return system

    # -- queries -----------------------------------------------------------

    @property
    def num_procs(self) -> int:
        return len(self.nodes)

    def _node_vertex(self, index: int) -> str:
        return f"node:{index}"

    def node_vertex(self, index: int) -> str:
        """Graph vertex id for compute node ``index``."""
        if not (0 <= index < len(self.nodes)):
            raise ValueError(f"node index {index} out of range")
        return self._node_vertex(index)

    def link(self, u: str, v: str) -> Link:
        """The :class:`Link` on edge ``(u, v)``."""
        return self.graph.edges[u, v]["link"]

    def set_link(self, u: str, v: str, link: Link) -> None:
        """Replace the link record on edge ``(u, v)`` (used by dynamics)."""
        if not self.graph.has_edge(u, v):
            raise ValueError(f"no link between {u!r} and {v!r}")
        self.graph.edges[u, v]["link"] = link

    def links(self) -> List[Tuple[str, str, Link]]:
        """All links as ``(u, v, Link)`` triples."""
        return [(u, v, data["link"]) for u, v, data in self.graph.edges(data=True)]

    def is_connected(self) -> bool:
        """Whether every node can reach every other node."""
        import networkx as nx

        return nx.is_connected(self.graph) if len(self.graph) else True
