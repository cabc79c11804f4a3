"""Tests for the synthetic backbone, traffic matrices, and workloads."""

import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from repro.core.lp import LpObjective, solve_chain_routing_lp
from repro.topology.backbone import Backbone, build_backbone
from repro.topology.cities import (
    DEFAULT_CITIES,
    City,
    fibre_delay_ms,
    great_circle_km,
)
from repro.topology.traffic import (
    gravity_traffic_matrix,
    route_background,
    split_switchboard_background,
)
from repro.topology.workload import (
    WorkloadConfig,
    generate_chains,
    generate_workload,
    place_vnfs,
)
from tests.reference.ecmp_enum import to_networkx


class TestCities:
    def test_default_catalog_has_25_pops(self):
        assert len(DEFAULT_CITIES) == 25
        assert len({c.name for c in DEFAULT_CITIES}) == 25

    def test_great_circle_nyc_lax(self):
        nyc = next(c for c in DEFAULT_CITIES if c.name == "NYC")
        lax = next(c for c in DEFAULT_CITIES if c.name == "LAX")
        # Known distance ~3940 km.
        assert great_circle_km(nyc, lax) == pytest.approx(3940, rel=0.03)

    def test_fibre_delay_scales_distance(self):
        nyc = next(c for c in DEFAULT_CITIES if c.name == "NYC")
        lax = next(c for c in DEFAULT_CITIES if c.name == "LAX")
        # ~3940 km * 1.3 / 200 km/ms ~ 25.6 ms one-way.
        assert fibre_delay_ms(nyc, lax) == pytest.approx(25.6, rel=0.05)

    def test_zero_distance_to_self(self):
        city = DEFAULT_CITIES[0]
        assert great_circle_km(city, city) == pytest.approx(0.0, abs=1e-9)


class TestBackbone:
    @pytest.fixture(scope="class")
    def backbone(self) -> Backbone:
        return build_backbone()

    def test_connected(self, backbone):
        assert nx.is_connected(to_networkx(backbone.graph))

    def test_adjacency_is_undirected(self, backbone):
        for a, nbrs in backbone.graph.items():
            for b, delay in nbrs.items():
                assert backbone.graph[b][a] == delay

    def test_latency_matrix_complete_and_symmetric(self, backbone):
        nodes = backbone.nodes
        for n1 in nodes:
            for n2 in nodes:
                assert (n1, n2) in backbone.latency
                assert backbone.latency[(n1, n2)] == pytest.approx(
                    backbone.latency[(n2, n1)]
                )

    def test_latency_satisfies_triangle_inequality(self, backbone):
        nodes = backbone.nodes[:8]
        for n1 in nodes:
            for n2 in nodes:
                for n3 in nodes:
                    assert (
                        backbone.latency[(n1, n3)]
                        <= backbone.latency[(n1, n2)]
                        + backbone.latency[(n2, n3)]
                        + 1e-9
                    )

    def test_links_are_directed_pairs(self, backbone):
        names = {link.name for link in backbone.links}
        for link in backbone.links:
            assert f"{link.dst}-{link.src}" in names

    def test_routing_fractions_sum_to_path_length(self, backbone):
        # For each pair, every shortest path has the same hop structure:
        # fractions over links out of the source must sum to 1.
        for (n1, _n2), fractions in list(backbone.routing.items())[:200]:
            out_fracs = sum(
                frac
                for link_name, frac in fractions.items()
                if link_name.startswith(f"{n1}-")
            )
            assert out_fracs == pytest.approx(1.0)

    def test_core_links_have_higher_capacity(self, backbone):
        capacities = {link.bandwidth for link in backbone.links}
        assert len(capacities) == 2  # core and edge tiers

    def test_too_few_cities_rejected(self):
        with pytest.raises(ValueError):
            build_backbone([DEFAULT_CITIES[0]])

    def test_duplicate_cities_rejected(self):
        with pytest.raises(ValueError):
            build_backbone([DEFAULT_CITIES[0], DEFAULT_CITIES[0]])


#: Two clusters 20 degrees of longitude apart, mirror images across the
#: equator: each city's three nearest neighbours are in its own cluster,
#: and the closest cross pairs W1-E1 and W2-E2 tie exactly.
TWO_CLUSTERS = (
    City("W1", 1.0, -10.0, 1.0), City("W2", -1.0, -10.0, 1.0),
    City("W3", 0.0, -11.0, 1.0), City("W4", 0.0, -12.0, 1.0),
    City("E1", 1.0, 10.0, 1.0), City("E2", -1.0, 10.0, 1.0),
    City("E3", 0.0, 11.0, 1.0), City("E4", 0.0, 12.0, 1.0),
)

LINKS_PROBE = """
from repro.topology.backbone import build_backbone
from tests.test_topology import TWO_CLUSTERS
print([link.name for link in build_backbone(TWO_CLUSTERS, long_haul_pairs=0).links])
"""


class TestStrayComponentJoin:
    def test_the_join_connects_the_clusters_through_one_closest_pair(self):
        backbone = build_backbone(TWO_CLUSTERS, long_haul_pairs=0)
        assert nx.is_connected(to_networkx(backbone.graph))
        crossing = [
            link.name for link in backbone.links if link.src[0] != link.dst[0]
        ]
        assert crossing == ["W1-E1", "E1-W1"]  # the first of the tied pairs

    def test_the_link_list_does_not_depend_on_the_hash_seed(self):
        root = Path(__file__).resolve().parent.parent
        runs = {
            seed: subprocess.run(
                [sys.executable, "-c", LINKS_PROBE],
                cwd=root,
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": f"{root / 'src'}:{root}"},
                check=True, capture_output=True, text=True,
            ).stdout
            for seed in ("0", "1")
        }
        assert runs["0"] == runs["1"] and "W1-E1" in runs["0"]


class TestTrafficMatrix:
    def test_gravity_normalized_to_total(self):
        matrix = gravity_traffic_matrix(DEFAULT_CITIES, 100.0)
        assert matrix.total() == pytest.approx(100.0)

    def test_bigger_cities_send_more(self):
        matrix = gravity_traffic_matrix(DEFAULT_CITIES, 100.0)
        assert matrix.row_sum("NYC") > matrix.row_sum("SLC")

    def test_no_self_traffic(self):
        matrix = gravity_traffic_matrix(DEFAULT_CITIES, 100.0)
        assert ("NYC", "NYC") not in matrix.demand

    def test_split_preserves_total(self):
        matrix = gravity_traffic_matrix(DEFAULT_CITIES, 100.0)
        sb, bg = split_switchboard_background(matrix, 0.8)
        assert sb.total() + bg.total() == pytest.approx(100.0)
        assert sb.total() / bg.total() == pytest.approx(4.0)  # the 4:1 split

    def test_invalid_share_rejected(self):
        matrix = gravity_traffic_matrix(DEFAULT_CITIES, 100.0)
        with pytest.raises(ValueError):
            split_switchboard_background(matrix, 1.5)

    def test_background_routing_conserves_volume(self):
        backbone = build_backbone()
        matrix = gravity_traffic_matrix(backbone.cities, 100.0)
        loads = route_background(backbone, matrix)
        # Every unit of demand crosses at least one link.
        assert sum(loads.values()) >= matrix.total() - 1e-6


class TestWorkload:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(coverage=0.0)
        with pytest.raises(ValueError):
            WorkloadConfig(min_chain_length=5, max_chain_length=3)
        with pytest.raises(ValueError):
            WorkloadConfig(num_vnfs=2, max_chain_length=5)

    def test_coverage_controls_placement_breadth(self):
        sites = [f"S{i}" for i in range(20)]
        low = place_vnfs(WorkloadConfig(coverage=0.25), sites, random.Random(0))
        high = place_vnfs(WorkloadConfig(coverage=0.75), sites, random.Random(0))
        assert len(low[0].sites) == 5
        assert len(high[0].sites) == 15

    def test_site_capacity_divided_equally(self):
        config = WorkloadConfig(
            num_vnfs=4,
            coverage=1.0,
            site_capacity=100.0,
            min_chain_length=2,
            max_chain_length=4,
        )
        sites = ["S0", "S1"]
        vnfs = place_vnfs(config, sites, random.Random(0))
        # All 4 VNFs at both sites -> each gets 25.
        for vnf in vnfs:
            assert vnf.site_capacity["S0"] == pytest.approx(25.0)

    def test_chain_vnfs_follow_canonical_order(self):
        config = WorkloadConfig(num_chains=50, num_vnfs=10)
        backbone = build_backbone()
        matrix = gravity_traffic_matrix(backbone.cities, 100.0)
        names = [f"vnf{i:03d}" for i in range(10)]
        chains = generate_chains(
            config, backbone.nodes, names, matrix, random.Random(0)
        )
        order = {n: i for i, n in enumerate(names)}
        for chain in chains:
            positions = [order[v] for v in chain.vnfs]
            assert positions == sorted(positions)
            assert 3 <= len(chain.vnfs) <= 5

    def test_chain_traffic_proportional_to_ingress(self):
        config = WorkloadConfig(num_chains=200, num_vnfs=10, seed=3)
        backbone = build_backbone()
        matrix = gravity_traffic_matrix(backbone.cities, 100.0)
        names = [f"vnf{i:03d}" for i in range(10)]
        chains = generate_chains(
            config, backbone.nodes, names, matrix, random.Random(3)
        )
        by_ingress = {}
        for chain in chains:
            by_ingress.setdefault(chain.ingress, chain.forward_traffic[0])
        # Any NYC-ingress chain outweighs any SLC-ingress chain.
        if "NYC" in by_ingress and "SLC" in by_ingress:
            assert by_ingress["NYC"] > by_ingress["SLC"]

    def test_total_demand_matches_switchboard_share(self):
        config = WorkloadConfig(
            num_chains=100, total_traffic=500.0, switchboard_share=0.8
        )
        model = generate_workload(config)
        assert model.total_demand() == pytest.approx(400.0, rel=1e-6)

    def test_generated_model_is_routable(self):
        config = WorkloadConfig(num_chains=10, num_vnfs=8, seed=1)
        model = generate_workload(config)
        result = solve_chain_routing_lp(model, LpObjective.MAX_THROUGHPUT)
        assert result.ok
        assert result.solution.throughput() > 0

    def test_deterministic_given_seed(self):
        config = WorkloadConfig(num_chains=20, seed=9)
        m1 = generate_workload(config)
        m2 = generate_workload(config)
        c1 = m1.chains["chain00000"]
        c2 = m2.chains["chain00000"]
        assert c1.ingress == c2.ingress
        assert c1.vnfs == c2.vnfs
        assert c1.forward_traffic == c2.forward_traffic

    def test_background_traffic_applied_to_links(self):
        model = generate_workload(WorkloadConfig(num_chains=10))
        assert any(link.background > 0 for link in model.links.values())
