"""``shortest_path_tables`` against the path-enumerating oracle.

One Dijkstra per source gives a latency row and the shortest-path DAG;
ECMP fractions come from path counts.  The oracle
(``tests/reference/ecmp_enum.py``) lists every shortest path per pair.
On tie-free graphs -- every committed topology -- the two tables must be
the same floats in the same key orders; on tie-heavy graphs the
fractions must agree within rounding and form a unit flow.
"""

import random

import networkx as nx
import pytest

from repro.core.errors import ReproError
from repro.topology.backbone import build_backbone, shortest_path_tables
from repro.topology.cities import DEFAULT_CITIES
from repro.topology.pops import PopGridConfig, generate_pop_cities
from tests.reference.ecmp_enum import ecmp_routing, pairwise_latency


def ordered(table):
    """A table with its key orders made part of its value."""
    return [
        (pair, list(value.items()) if isinstance(value, dict) else value)
        for pair, value in table.items()
    ]


def assert_matches_oracle(backbone):
    assert ordered(backbone.latency) == ordered(pairwise_latency(backbone.graph))
    assert ordered(backbone.routing) == ordered(ecmp_routing(backbone.graph))


@pytest.mark.parametrize("k", range(2, len(DEFAULT_CITIES) + 1))
def test_default_city_prefixes_bit_identical(k):
    assert_matches_oracle(build_backbone(DEFAULT_CITIES[:k]))


@pytest.mark.parametrize("seed", range(30))
def test_random_city_subsets_bit_identical(seed):
    rng = random.Random(seed)
    cities = rng.sample(DEFAULT_CITIES, rng.randint(3, len(DEFAULT_CITIES)))
    assert_matches_oracle(build_backbone(cities, neighbours=rng.randint(2, 4)))


@pytest.mark.parametrize("pops, metros", [(24, 3), (36, 4), (48, 4), (60, 5)])
def test_generated_pop_graphs_bit_identical(pops, metros):
    cities, _metro_of = generate_pop_cities(
        PopGridConfig(num_pops=pops, num_metros=metros)
    )
    assert_matches_oracle(build_backbone(cities, long_haul_pairs=6))


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
def test_tie_heavy_graphs_split_uniformly(name):
    graph = TIE_HEAVY[name]
    latency, routing = shortest_path_tables(graph)
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
        for n1, row in nx.all_pairs_dijkstra_path_length(graph, weight="delay")
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
    graph = nx.Graph()
    graph.add_edge("a", "b", delay=ab)
    graph.add_edge("b", "c", delay=1.0)
    graph.add_edge("a", "c", delay=1.0)
    return graph


@pytest.mark.parametrize("delay", [0.0, -1.0, float("nan"), float("inf")])
def test_an_arc_delay_not_finite_and_positive_is_refused(delay):
    # Dijkstra would route through it: with a-b at 0, (a, b) would be
    # {'b-a': 1.0, 'a-b': 2.0}; at inf, (a, c) would cross three arcs.
    with pytest.raises(ReproError, match="arc a-b: delay must be finite and positive"):
        shortest_path_tables(triangle(delay))
