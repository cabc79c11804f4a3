"""``shortest_path_tables`` against the path-enumerating oracle.

One Dijkstra per source gives a latency row and the shortest-path DAG;
ECMP fractions come from path counts.  The oracle
(``tests/reference/ecmp_enum.py``) lists every shortest path per pair.
On tie-free graphs -- every committed topology -- the two tables must be
the same floats in the same key orders; on tie-heavy graphs the
fractions must agree within rounding and form a unit flow.  The oracle
reads ``nx.Graph`` copies of the adjacency dicts; the Dijkstra under
both tables is held to networkx's own, ties included.
"""

import random

import networkx as nx
import pytest

from repro.core.errors import ReproError
from repro.federation import shard
from repro.topology.backbone import _dijkstra, build_backbone, shortest_path_tables
from repro.topology.cities import DEFAULT_CITIES
from repro.topology.pops import (
    PopGridConfig,
    generate_federation_workload,
    generate_pop_cities,
)
from tests.reference.ecmp_enum import (
    ecmp_routing,
    pairwise_latency,
    to_adjacency,
    to_networkx,
)


def ordered(table):
    """A table with its key orders made part of its value."""
    return [
        (pair, list(value.items()) if isinstance(value, dict) else value)
        for pair, value in table.items()
    ]


def assert_matches_oracle(backbone):
    graph = to_networkx(backbone.graph)
    assert ordered(backbone.latency) == ordered(pairwise_latency(graph))
    assert ordered(backbone.routing) == ordered(ecmp_routing(graph))


@pytest.mark.parametrize("k", range(2, len(DEFAULT_CITIES) + 1))
def test_default_city_prefixes_bit_identical(k):
    assert_matches_oracle(build_backbone(DEFAULT_CITIES[:k]))


@pytest.mark.parametrize("seed", range(30))
def test_random_city_subsets_bit_identical(seed):
    rng = random.Random(seed)
    cities = rng.sample(DEFAULT_CITIES, rng.randint(3, len(DEFAULT_CITIES)))
    assert_matches_oracle(build_backbone(cities))


@pytest.mark.parametrize("pops, metros", [(24, 3), (36, 4), (48, 4), (60, 5)])
def test_generated_pop_graphs_bit_identical(pops, metros):
    cities, _metro_of = generate_pop_cities(
        PopGridConfig(num_pops=pops, num_metros=metros)
    )
    assert_matches_oracle(build_backbone(cities, long_haul_pairs=6))


@pytest.mark.parametrize("pops, regions", [(36, 3), (24, 2), (48, 4)])
def test_regional_models_bit_identical(pops, regions, monkeypatch):
    """Each region's tables, over the regional subgraph the shard map
    hands to ``shortest_path_tables``, arcs named after model links."""
    model, _metro_of = generate_federation_workload(
        PopGridConfig(num_pops=pops, num_metros=regions, num_chains=2 * pops)
    )
    calls = []

    def recorded(graph, link_name=None):
        tables = shortest_path_tables(graph, link_name)
        calls.append((graph, tables))
        return tables

    monkeypatch.setattr(shard, "shortest_path_tables", recorded)
    shard_map = shard.build_shards(model, regions)
    for region in range(regions):
        regional = shard_map.regional_model(model, region)
        graph, (latency, routing) = calls[region]
        assert list(graph) == regional.nodes
        assert regional.routing == routing
        nx_graph = to_networkx(graph)
        assert ordered(latency) == ordered(pairwise_latency(nx_graph))
        assert ordered(routing) == ordered(ecmp_routing(nx_graph))


def named(graph):
    """``graph`` with string nodes ``n0, n1, ...`` and unit delays."""
    graph = nx.convert_node_labels_to_integers(graph)
    graph = nx.relabel_nodes(graph, {i: f"n{i}" for i in graph.nodes})
    nx.set_edge_attributes(graph, 1.0, "delay")
    return graph


TIE_HEAVY = {
    "grid": named(nx.grid_2d_graph(3, 4)),
    "even_cycle": named(nx.cycle_graph(8)),
    "k23": named(nx.complete_bipartite_graph(2, 3)),
}


@pytest.mark.parametrize("name", sorted(TIE_HEAVY))
def test_dijkstra_is_networkx_predecessor_and_distance(name):
    """Same settle order, same predecessor lists in the same order, the
    source's distance the same integer 0 -- on every tie."""
    graph = TIE_HEAVY[name]
    for source in graph:
        pred, dist = _dijkstra(to_adjacency(graph), source)
        nx_pred, nx_dist = nx.dijkstra_predecessor_and_distance(graph, source, weight="delay")
        assert list(dist.items()) == list(nx_dist.items())
        assert type(dist[source]) is type(nx_dist[source]) is int
        assert list(pred.items()) == list(nx_pred.items())


@pytest.mark.parametrize("name", sorted(TIE_HEAVY))
def test_tie_heavy_graphs_split_uniformly(name):
    graph = TIE_HEAVY[name]
    latency, routing = shortest_path_tables(to_adjacency(graph))
    oracle = ecmp_routing(graph)
    assert ordered(latency) == ordered(pairwise_latency(graph))
    assert list(routing) == list(oracle)
    assert any(len(fractions) > nx.shortest_path_length(graph, *pair)
               for pair, fractions in routing.items())  # ties do occur
    for (s, t), fractions in routing.items():
        assert fractions.keys() == oracle[(s, t)].keys()
        for link, fraction in fractions.items():
            assert fraction == pytest.approx(oracle[(s, t)][link], abs=1e-12)
        # A unit s -> t flow: conservation at every inner node.
        net = dict.fromkeys(graph.nodes, 0.0)
        for link, fraction in fractions.items():
            u, v = link.split("-")
            net[u] -= fraction
            net[v] += fraction
        for node, balance in net.items():
            expected = -1.0 if node == s else 1.0 if node == t else 0.0
            assert balance == pytest.approx(expected, abs=1e-12)


def test_latency_is_networkx_all_pairs_bitwise():
    graph = build_backbone(DEFAULT_CITIES).graph
    latency, _routing = shortest_path_tables(graph)
    expected = [
        ((n1, n2), delay)
        for n1, row in nx.all_pairs_dijkstra_path_length(to_networkx(graph), weight="delay")
        for n2, delay in row.items()
    ]
    assert list(latency.items()) == expected


def test_link_name_callback_names_every_arc():
    """The way ``ShardMap.regional_model`` names arcs: by a lookup of the
    model's directed links, whatever they are called."""
    backbone = build_backbone(DEFAULT_CITIES[:12])
    names = {(link.src, link.dst): f"L{i}" for i, link in enumerate(backbone.links)}
    latency, routing = shortest_path_tables(
        backbone.graph, link_name=lambda u, v: names[(u, v)]
    )
    renamed = {f"{u}-{v}": name for (u, v), name in names.items()}
    assert latency == backbone.latency
    assert ordered(routing) == [
        (pair, [(renamed[link], fraction) for link, fraction in fractions])
        for pair, fractions in ordered(backbone.routing)
    ]


def triangle(ab):
    """a-b at delay ``ab``; b-c and a-c at 1."""
    return {"a": {"b": ab, "c": 1.0}, "b": {"a": ab, "c": 1.0}, "c": {"b": 1.0, "a": 1.0}}


@pytest.mark.parametrize("delay", [0.0, -1.0, float("nan"), float("inf")])
def test_an_arc_delay_not_finite_and_positive_is_refused(delay):
    # Dijkstra would route through it: with a-b at 0, (a, b) would be
    # {'b-a': 1.0, 'a-b': 2.0}; at inf, (a, c) would cross three arcs.
    with pytest.raises(ReproError, match="arc a-b: delay must be finite and positive"):
        shortest_path_tables(triangle(delay))
