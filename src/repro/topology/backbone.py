"""Synthetic tier-1 backbone graph.

The backbone connects each PoP to its ``k`` nearest neighbours (plus a
few long-haul shortcuts between the largest metros, as real tier-1
backbones have), assigns heterogeneous link capacities, derives pairwise
node latencies from shortest fibre paths, and computes the ECMP
shortest-path routing fractions ``r_{n1 n2 e}`` consumed by the
Equation 6 network-cost constraint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import networkx as nx

from repro.core.model import Link
from repro.topology.cities import City, DEFAULT_CITIES, fibre_delay_ms


@dataclass
class Backbone:
    """A built backbone: everything the NetworkModel's network section needs."""

    cities: tuple[City, ...]
    graph: nx.Graph
    #: (n1, n2) -> one-way delay in ms over the backbone's shortest path.
    latency: dict[tuple[str, str], float]
    #: Directed physical links.
    links: list[Link] = field(default_factory=list)
    #: (n1, n2) -> {link name: fraction} ECMP routing fractions.
    routing: dict[tuple[str, str], dict[str, float]] = field(default_factory=dict)

    @property
    def nodes(self) -> list[str]:
        return [c.name for c in self.cities]

    def link(self, name: str) -> Link:
        for link in self.links:
            if link.name == name:
                return link
        raise KeyError(name)


def build_backbone(
    cities: Sequence[City] = DEFAULT_CITIES,
    neighbours: int = 3,
    core_degree_threshold: int = 4,
    core_capacity: float = 400.0,
    edge_capacity: float = 100.0,
    long_haul_pairs: int = 4,
    ecmp=None,
) -> Backbone:
    """Build the synthetic backbone.

    Parameters
    ----------
    neighbours:
        Each city links to this many nearest neighbours.
    long_haul_pairs:
        Number of extra links between the largest metros (NYC-LAX style
        express routes) to keep coast-to-coast paths short.
    core_capacity / edge_capacity:
        Link bandwidths (abstract Gbps); links whose endpoints both have
        degree >= ``core_degree_threshold`` get core capacity.
    ecmp:
        Optional replacement for the default ECMP fraction computation
        (``graph -> routing dict``).  The default enumerates all
        shortest paths per pair, which is quadratic in paths and
        intractable beyond a few dozen PoPs;
        :func:`repro.topology.pops.ecmp_routing` is the equivalent
        path-counting implementation used for generated large
        topologies.
    """
    cities = tuple(cities)
    if len(cities) < 2:
        raise ValueError("backbone needs at least two cities")
    by_name = {c.name: c for c in cities}
    if len(by_name) != len(cities):
        raise ValueError("duplicate city names")

    graph = nx.Graph()
    for city in cities:
        graph.add_node(city.name)

    # k-nearest-neighbour mesh.
    for city in cities:
        others = sorted(
            (c for c in cities if c.name != city.name),
            key=partial(fibre_delay_ms, city),
        )
        for other in others[:neighbours]:
            graph.add_edge(
                city.name, other.name, delay=fibre_delay_ms(city, other)
            )

    # Long-haul shortcuts between the biggest metros.
    big = sorted(cities, key=lambda c: c.population_m, reverse=True)
    added = 0
    for i, a in enumerate(big):
        if added >= long_haul_pairs:
            break
        for b in big[i + 1:]:
            if added >= long_haul_pairs:
                break
            if not graph.has_edge(a.name, b.name) and fibre_delay_ms(a, b) > 8.0:
                graph.add_edge(a.name, b.name, delay=fibre_delay_ms(a, b))
                added += 1

    # Connect any stray components through their closest city pair.
    components = [list(c) for c in nx.connected_components(graph)]
    while len(components) > 1:
        first, rest = components[0], [n for c in components[1:] for n in c]
        best = min(
            ((a, b) for a in first for b in rest),
            key=lambda ab: fibre_delay_ms(by_name[ab[0]], by_name[ab[1]]),
        )
        graph.add_edge(
            best[0], best[1], delay=fibre_delay_ms(by_name[best[0]], by_name[best[1]])
        )
        components = [list(c) for c in nx.connected_components(graph)]

    # Directed links with heterogeneous capacities.
    links: list[Link] = []
    for a, b in graph.edges():
        is_core = (
            graph.degree[a] >= core_degree_threshold
            and graph.degree[b] >= core_degree_threshold
        )
        capacity = core_capacity if is_core else edge_capacity
        links.append(Link(f"{a}-{b}", a, b, capacity))
        links.append(Link(f"{b}-{a}", b, a, capacity))

    latency = _pairwise_latency(graph)
    routing = (ecmp or _ecmp_routing)(graph)
    return Backbone(cities, graph, latency, links, routing)


def _pairwise_latency(graph: nx.Graph) -> dict[tuple[str, str], float]:
    latency: dict[tuple[str, str], float] = {}
    lengths = dict(nx.all_pairs_dijkstra_path_length(graph, weight="delay"))
    for n1, targets in lengths.items():
        for n2, delay in targets.items():
            latency[(n1, n2)] = float(delay)
    return latency


def _ecmp_routing(graph: nx.Graph) -> dict[tuple[str, str], dict[str, float]]:
    """ECMP fractions: traffic between a node pair splits uniformly over
    all equal-cost shortest paths; a link's fraction is the share of
    paths using it (directed link names ``src-dst``)."""
    routing: dict[tuple[str, str], dict[str, float]] = {}
    for n1 in graph.nodes:
        for n2 in graph.nodes:
            if n1 == n2:
                continue
            paths = list(
                nx.all_shortest_paths(graph, n1, n2, weight="delay")
            )
            share = 1.0 / len(paths)
            fractions: dict[str, float] = {}
            for path in paths:
                for a, b in zip(path, path[1:]):
                    name = f"{a}-{b}"
                    fractions[name] = fractions.get(name, 0.0) + share
            routing[(n1, n2)] = fractions
    return routing
