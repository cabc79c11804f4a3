"""Substrate sharding: regions, borders, and regional sub-models.

The federation's first move is to cut the substrate into ``n`` disjoint
shards using :func:`repro.scale.shard_map` (deterministic,
latency-coherent, connected regions).  Everything else follows from the
cut:

- every node, site, and *internal* link (both endpoints in one shard)
  belongs to exactly one :class:`SubstrateShard`, owned and planned by
  one ``RegionalSwitchboard``;
- every link crossing the cut becomes a :class:`BorderLink` with
  explicit bookkeeping: who owns it (the source-side region, which runs
  its capacity ledger), what the federation may load onto it (the link
  headroom under the MLU budget), and how it ranks among the parallel
  borders between the same region pair (latency, then name -- the
  deterministic retry order for cross-shard installs);
- :meth:`ShardMap.regional_model` derives each region's self-contained
  :class:`~repro.core.model.NetworkModel`: regional nodes/sites, the
  VNF catalog restricted to regional deployments, internal links, and
  *recomputed* intra-shard latencies and ECMP fractions over the
  regional subgraph only.  Recomputation matters: a global shortest
  path between two regional nodes may dip outside the shard, and a
  regional planner must not account capacity it does not own.

The capacity contract at borders: regional LPs never see border links,
so intra-shard plans cannot load them; only the coordinator's 2PC
ledger (``regional.BorderLedger``) places cross-shard demand on a
border, and it never admits more than the link's headroom.  Capacity
safety of the stitched system is therefore the conjunction of
per-region LP feasibility and per-border ledger bounds -- checked by
``federation.invariants``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.core.errors import ReproError
from repro.core.model import NetworkModel, VNF
from repro.scale.partition import shard_map
from repro.topology.backbone import shortest_path_tables


class FederationError(ReproError):
    """Raised on malformed federation requests or failed installs."""


@dataclass(frozen=True)
class BorderLink:
    """A physical link crossing the shard cut (directed, src-side owned)."""

    name: str
    src: str
    dst: str
    src_region: int
    dst_region: int
    #: One-way delay between the endpoint nodes (the crossing cost).
    latency: float
    #: Headroom under the MLU budget the coordinator may reserve.
    capacity: float


@dataclass(frozen=True)
class SubstrateShard:
    """One region's disjoint slice of the substrate."""

    region: int
    nodes: tuple[str, ...]
    sites: tuple[str, ...]
    internal_links: tuple[str, ...]
    #: Border links this region owns (their source node is inside).
    owned_borders: tuple[str, ...]


@dataclass
class ShardMap:
    """The full cut: shards, borders, and region-level adjacency."""

    shards: tuple[SubstrateShard, ...]
    borders: dict[str, BorderLink]
    node_region: dict[str, int]
    _region_paths: dict[tuple[int, int], tuple[int, ...]] = field(
        default_factory=dict, repr=False
    )

    @property
    def n_regions(self) -> int:
        return len(self.shards)

    def region_of(self, model: NetworkModel, endpoint: str) -> int:
        """Region of a node or site name."""
        node = model.endpoint_node(endpoint)
        region = self.node_region.get(node)
        if region is None:
            raise FederationError(f"unknown endpoint {endpoint!r}")
        return region

    def borders_between(self, src_region: int, dst_region: int) -> list[BorderLink]:
        """Border links from one region into another, best-first
        (latency, then name -- the deterministic retry order)."""
        found = [
            b
            for b in self.borders.values()
            if b.src_region == src_region and b.dst_region == dst_region
        ]
        found.sort(key=lambda b: (b.latency, b.name))
        return found

    def region_path(self, src_region: int, dst_region: int) -> tuple[int, ...]:
        """Cheapest region sequence from src to dst over the border
        graph (weight: best border latency per hop; deterministic
        tie-breaks).  Includes both endpoints; raises when no border
        path exists."""
        key = (src_region, dst_region)
        cached = self._region_paths.get(key)
        if cached is not None:
            return cached
        if src_region == dst_region:
            path = (src_region,)
            self._region_paths[key] = path
            return path
        best_edge: dict[tuple[int, int], float] = {}
        for border in self.borders.values():
            edge = (border.src_region, border.dst_region)
            cost = best_edge.get(edge)
            if cost is None or border.latency < cost:
                best_edge[edge] = border.latency
        dist: dict[int, float] = {src_region: 0.0}
        prev: dict[int, int] = {}
        heap = [(0.0, src_region)]
        while heap:
            d, region = heapq.heappop(heap)
            if d > dist.get(region, float("inf")):
                continue
            if region == dst_region:
                break
            for (a, b), cost in sorted(best_edge.items()):
                if a != region:
                    continue
                nd = d + cost
                if nd < dist.get(b, float("inf")) - 1e-12:
                    dist[b] = nd
                    prev[b] = a
                    heapq.heappush(heap, (nd, b))
        if dst_region not in dist:
            raise FederationError(
                f"no border path from region {src_region} to {dst_region}"
            )
        path_list = [dst_region]
        while path_list[-1] != src_region:
            path_list.append(prev[path_list[-1]])
        path = tuple(reversed(path_list))
        self._region_paths[key] = path
        return path

    def regional_model(
        self, model: NetworkModel, region: int
    ) -> NetworkModel:
        """The region's self-contained sub-model (no chains).

        Latency and ECMP routing are recomputed over the regional
        subgraph, both by
        :func:`~repro.topology.backbone.shortest_path_tables` with arcs
        named after the model's directed links, so the regional planner
        only ever accounts capacity it owns; VNFs keep only their
        regional deployment sites (a VNF with none is dropped from the
        regional catalog).
        """
        shard = self.shards[region]
        node_set = set(shard.nodes)
        sites = [
            s for s in model.sites.values() if s.node in node_set
        ]
        site_names = {s.name for s in sites}
        vnfs = []
        for vnf in model.vnfs.values():
            regional_caps = {
                site: cap
                for site, cap in vnf.site_capacity.items()
                if site in site_names
            }
            if regional_caps:
                vnfs.append(VNF(vnf.name, vnf.load_per_unit, regional_caps))
        links = [model.links[name] for name in shard.internal_links]

        graph: dict[str, dict[str, float]] = {node: {} for node in shard.nodes}
        link_names: dict[tuple[str, str], str] = {}
        for link in sorted(links, key=lambda x: x.name):
            link_names.setdefault((link.src, link.dst), link.name)
            graph[link.src][link.dst] = graph[link.dst][link.src] = model.latency(
                link.src, link.dst
            )

        def arc_name(u: str, v: str) -> str:
            return link_names.get((u, v)) or link_names[(v, u)]

        latency, routing = shortest_path_tables(graph, link_name=arc_name)
        return NetworkModel(
            nodes=shard.nodes,
            latency=latency,
            sites=sites,
            vnfs=vnfs,
            chains=(),
            links=links,
            routing=routing,
            mlu_limit=model.mlu_limit,
        )


def build_shards(model: NetworkModel, n_regions: int) -> ShardMap:
    """Cut the model's substrate into ``n_regions`` shards.

    Deterministic end to end: the node assignment comes from
    :func:`repro.scale.shard_map` (byte-stable), region ids follow its
    stable ordering, and every derived collection is name-sorted.
    """
    regions = shard_map(model, n_regions)
    node_region: dict[str, int] = {}
    for region, nodes in enumerate(regions):
        for node in nodes:
            node_region[node] = region

    internal: dict[int, list[str]] = {r: [] for r in range(len(regions))}
    borders: dict[str, BorderLink] = {}
    owned: dict[int, list[str]] = {r: [] for r in range(len(regions))}
    for name in sorted(model.links):
        link = model.links[name]
        src_region = node_region[link.src]
        dst_region = node_region[link.dst]
        if src_region == dst_region:
            internal[src_region].append(name)
        else:
            borders[name] = BorderLink(
                name=name,
                src=link.src,
                dst=link.dst,
                src_region=src_region,
                dst_region=dst_region,
                latency=model.latency(link.src, link.dst),
                capacity=model.link_headroom(link),
            )
            owned[src_region].append(name)

    sites_by_region: dict[int, list[str]] = {r: [] for r in range(len(regions))}
    for site_name in sorted(model.sites):
        site = model.sites[site_name]
        sites_by_region[node_region[site.node]].append(site_name)

    shards = tuple(
        SubstrateShard(
            region=r,
            nodes=nodes,
            sites=tuple(sites_by_region[r]),
            internal_links=tuple(internal[r]),
            owned_borders=tuple(owned[r]),
        )
        for r, nodes in enumerate(regions)
    )
    return ShardMap(shards=shards, borders=borders, node_region=node_region)
