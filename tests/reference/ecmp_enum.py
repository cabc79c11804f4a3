"""Shortest-path tables by path enumeration: the oracle of
``repro.topology.backbone.shortest_path_tables``, which counts paths
instead of listing them and must give the same latencies and ECMP
fractions, in the same key orders."""

import networkx as nx


def to_networkx(graph: dict[str, dict[str, float]]) -> nx.Graph:
    """An adjacency dict ``{node: {neighbour: delay}}`` as an ``nx.Graph``
    with ``delay`` edge attributes.  Nodes keep their order; a node's
    neighbours need not (each edge is added once, in the order
    ``repro.topology.backbone.edges`` lists it), which moves no key of
    either table on a graph without distance ties."""
    from repro.topology.backbone import edges

    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(graph)
    nx_graph.add_edges_from((u, v, {"delay": graph[u][v]}) for u, v in edges(graph))
    return nx_graph


def to_adjacency(nx_graph: nx.Graph) -> dict[str, dict[str, float]]:
    """An ``nx.Graph`` as the adjacency dict, adjacency order kept: the
    two Dijkstras then break distance ties alike."""
    return {u: {v: data["delay"] for v, data in nbrs.items()} for u, nbrs in nx_graph.adj.items()}


def pairwise_latency(graph: nx.Graph) -> dict[tuple[str, str], float]:
    latency: dict[tuple[str, str], float] = {}
    lengths = dict(nx.all_pairs_dijkstra_path_length(graph, weight="delay"))
    for n1, targets in lengths.items():
        for n2, delay in targets.items():
            latency[(n1, n2)] = float(delay)
    return latency


def ecmp_routing(graph: nx.Graph) -> dict[tuple[str, str], dict[str, float]]:
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
