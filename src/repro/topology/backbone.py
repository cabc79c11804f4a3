"""Synthetic tier-1 backbone graph.

The backbone connects each PoP to its ``k`` nearest neighbours (plus a
few long-haul shortcuts between the largest metros, as real tier-1
backbones have) and assigns heterogeneous link capacities.
:func:`shortest_path_tables` derives both per-pair tables in one
Dijkstra per source: node latencies over the shortest fibre paths, and
the ECMP shortest-path routing fractions ``r_{n1 n2 e}`` consumed by the
Equation 6 network-cost constraint.  It is the repository's one such
routine: the generated PoP topologies (:mod:`repro.topology.pops`) and
the federation's regional sub-models (:mod:`repro.federation.shard`)
call it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from heapq import heappop, heappush
from itertools import count
from typing import Sequence

import numpy as np

from repro.core.errors import ReproError
from repro.core.model import Link
from repro.topology.cities import City, DEFAULT_CITIES, fibre_delay_ms


@dataclass
class Backbone:
    """A built backbone: everything the NetworkModel's network section needs."""

    cities: tuple[City, ...]
    #: node -> {neighbour: delay}, insertion-ordered (undirected: both ways).
    graph: dict[str, dict[str, float]]
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


#: Each city links to this many nearest neighbours.
_NEIGHBOURS = 3
#: Link bandwidths (abstract Gbps): a link whose endpoints both have at
#: least ``_CORE_DEGREE`` links is core, any other an edge link.
_CORE_DEGREE = 4
_CORE_CAPACITY = 400.0
_EDGE_CAPACITY = 100.0


def build_backbone(
    cities: Sequence[City] = DEFAULT_CITIES,
    long_haul_pairs: int = 4,
) -> Backbone:
    """Build the synthetic backbone.

    Parameters
    ----------
    long_haul_pairs:
        Number of extra links between the largest metros (NYC-LAX style
        express routes) to keep coast-to-coast paths short.

    Latency and routing come from :func:`shortest_path_tables`.
    """
    cities = tuple(cities)
    if len(cities) < 2:
        raise ReproError("backbone needs at least two cities")
    by_name = {c.name: c for c in cities}
    if len(by_name) != len(cities):
        raise ReproError("duplicate city names")

    graph: dict[str, dict[str, float]] = {city.name: {} for city in cities}

    def add_edge(a: str, b: str) -> None:
        graph[a][b] = graph[b][a] = fibre_delay_ms(by_name[a], by_name[b])

    # k-nearest-neighbour mesh.
    for city in cities:
        others = sorted(
            (c for c in cities if c.name != city.name),
            key=partial(fibre_delay_ms, city),
        )
        for other in others[:_NEIGHBOURS]:
            add_edge(city.name, other.name)

    # Long-haul shortcuts between the biggest metros.
    big = sorted(cities, key=lambda c: c.population_m, reverse=True)
    added = 0
    for i, a in enumerate(big):
        if added >= long_haul_pairs:
            break
        for b in big[i + 1:]:
            if added >= long_haul_pairs:
                break
            if b.name not in graph[a.name] and fibre_delay_ms(a, b) > 8.0:
                add_edge(a.name, b.name)
                added += 1

    # Connect any stray cities to the first city's component through
    # their closest pair (both sides in node order: ties go to the first).
    while len(first := _dijkstra(graph, cities[0].name)[1]) < len(graph):
        best = min(
            ((a, b) for a in graph if a in first for b in graph if b not in first),
            key=lambda ab: fibre_delay_ms(by_name[ab[0]], by_name[ab[1]]),
        )
        add_edge(*best)

    # Directed links with heterogeneous capacities.
    links: list[Link] = []
    for a, b in edges(graph):
        is_core = len(graph[a]) >= _CORE_DEGREE and len(graph[b]) >= _CORE_DEGREE
        capacity = _CORE_CAPACITY if is_core else _EDGE_CAPACITY
        links.append(Link(f"{a}-{b}", a, b, capacity))
        links.append(Link(f"{b}-{a}", b, a, capacity))

    latency, routing = shortest_path_tables(graph)
    return Backbone(cities, graph, latency, links, routing)


def edges(graph: dict[str, dict[str, float]]) -> list[tuple[str, str]]:
    """Each undirected edge once, as ``networkx.Graph.edges()`` lists it."""
    order = {n: i for i, n in enumerate(graph)}
    return [(a, b) for a, nbrs in graph.items() for b in nbrs if order[b] >= order[a]]


def _dijkstra(graph: dict[str, dict[str, float]], source: str):
    """networkx 3.x's ``dijkstra_predecessor_and_distance(graph, source)``
    for non-negative delays: ``(pred, dist)``, ``dist`` in settle order,
    equal-distance predecessors appended in adjacency order."""
    dist: dict[str, float] = {}
    pred: dict[str, list[str]] = {source: []}
    seen: dict[str, float] = {source: 0}  # settled: seen[v] == dist[v]
    tick = count()
    fringe = [(0, next(tick), source)]
    while fringe:
        d, _, v = heappop(fringe)
        if v not in dist:
            dist[v] = d
            for u, delay in graph[v].items():
                du = d + delay
                if u not in seen or du < seen[u]:
                    seen[u] = du
                    heappush(fringe, (du, next(tick), u))
                    pred[u] = [v]
                elif du == seen[u]:
                    pred[u].append(v)
    return pred, dist


def shortest_path_tables(graph: dict[str, dict[str, float]], link_name=None):
    """Every pair's shortest-path latency and ECMP routing fractions.

    ``graph`` is an undirected adjacency dict, ``{node: {neighbour:
    delay}}``.  One Dijkstra per source gives that source's latency row
    (``dist``) and its shortest-path DAG (``pred``).  Traffic between a
    pair splits uniformly over all equal-cost shortest paths: with
    ``sigma[v]`` the number of shortest paths source -> v and ``tau[v,
    t]`` the number of DAG paths v -> t, a DAG arc ``u -> v`` carries
    ``sigma[u] * tau[v, t] / sigma[t]`` of the (source, t) traffic --
    path counts, never paths, computed for all targets at once.

    Returns ``(latency, routing)``: ``(n1, n2) -> delay`` for every
    reachable pair (``n1 == n2`` included, source-major, targets in
    distance order) and ``(n1, n2) -> {link name: fraction}`` for every
    reachable ``n1 != n2`` (pairs in ``graph`` order, links in
    distance-then-predecessor order).  ``link_name`` maps a directed arc
    ``(u, v)`` to its link's name (default ``f"{u}-{v}"``, the backbone
    convention).  Every arc's delay must be finite and positive: Dijkstra
    would route a zero, negative or NaN delay as if it were a real one.
    """
    link_name = link_name or "{}-{}".format
    for u, v in edges(graph):
        if not 0 < graph[u][v] < math.inf:
            raise ReproError(f"arc {u}-{v}: delay must be finite and positive, got {graph[u][v]}")
    latency: dict[tuple[str, str], float] = {}
    routing: dict[tuple[str, str], dict[str, float]] = {}
    for s in graph:
        pred, dist = _dijkstra(graph, s)
        for t, delay in dist.items():
            latency[(s, t)] = float(delay)
        # ``dist`` is in settle order: with positive delays every DAG
        # predecessor comes first.
        pos = {v: i for i, v in enumerate(dist)}
        tails = [pos[u] for v in dist for u in pred[v]]
        heads = [pos[v] for v in dist for _u in pred[v]]
        names = [link_name(u, v) for v in dist for u in pred[v]]
        sigma = np.zeros(len(pos))
        sigma[0] = 1.0
        for u, v in zip(tails, heads):
            sigma[v] += sigma[u]
        tau = np.eye(len(pos))
        for u, v in zip(reversed(tails), reversed(heads)):
            tau[u] += tau[v]
        fractions = (sigma[tails, None] * tau[heads] / sigma).T
        by_target: dict[int, dict[str, float]] = {}
        targets, arcs = np.nonzero(fractions)
        for j, a, fraction in zip(
            targets.tolist(), arcs.tolist(), fractions[targets, arcs].tolist()
        ):
            by_target.setdefault(j, {})[names[a]] = fraction
        for t in graph:
            if pos.get(t):  # reachable, and not the source itself
                routing[(s, t)] = by_target[pos[t]]
    return latency, routing
