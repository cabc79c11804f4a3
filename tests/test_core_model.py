"""Unit tests for the Table 1 network model."""

import pytest

from repro.core.model import Chain, CloudSite, Link, ModelError, NetworkModel, VNF
from repro.core.routes import RoutingSolution


class TestChain:
    def test_scalar_traffic_broadcasts_to_stages(self):
        chain = Chain("c", "a", "b", ["f1", "f2"], 4.0, 1.0)
        assert chain.num_stages == 3
        assert chain.forward_traffic == (4.0, 4.0, 4.0)
        assert chain.reverse_traffic == (1.0, 1.0, 1.0)

    def test_per_stage_traffic_list(self):
        chain = Chain("c", "a", "b", ["f1"], [4.0, 2.0], [1.0, 0.5])
        assert chain.stage_traffic(1) == 5.0
        assert chain.stage_traffic(2) == 2.5

    def test_wrong_length_traffic_rejected(self):
        with pytest.raises(ModelError):
            Chain("c", "a", "b", ["f1"], [4.0, 2.0, 1.0])

    def test_negative_traffic_rejected(self):
        with pytest.raises(ModelError):
            Chain("c", "a", "b", ["f1"], -1.0)

    def test_vnf_at_is_one_based(self):
        chain = Chain("c", "a", "b", ["f1", "f2"])
        assert chain.vnf_at(1) == "f1"
        assert chain.vnf_at(2) == "f2"
        with pytest.raises(ModelError):
            chain.vnf_at(0)
        with pytest.raises(ModelError):
            chain.vnf_at(3)

    def test_stage_out_of_range(self):
        chain = Chain("c", "a", "b", ["f1"])
        with pytest.raises(ModelError):
            chain.stage_traffic(3)

    def test_scaled_multiplies_all_stages(self):
        chain = Chain("c", "a", "b", ["f1"], 4.0, 2.0)
        scaled = chain.scaled(0.5)
        assert scaled.forward_traffic == (2.0, 2.0)
        assert scaled.reverse_traffic == (1.0, 1.0)
        assert scaled.name == chain.name

    def test_empty_chain_has_one_stage(self):
        chain = Chain("c", "a", "b", [])
        assert chain.num_stages == 1


class TestVnf:
    def test_sites_lists_deployments(self):
        vnf = VNF("f", 1.0, {"A": 5.0, "B": 3.0})
        assert sorted(vnf.sites) == ["A", "B"]

    def test_negative_capacity_rejected(self):
        with pytest.raises(ModelError):
            VNF("f", 1.0, {"A": -1.0})

    def test_negative_load_rejected(self):
        with pytest.raises(ModelError):
            VNF("f", -0.5, {})

    def test_with_sites_adds_capacity(self):
        vnf = VNF("f", 1.0, {"A": 5.0})
        grown = vnf.with_sites({"B": 2.0, "A": 1.0})
        assert grown.site_capacity == {"A": 6.0, "B": 2.0}
        assert vnf.site_capacity == {"A": 5.0}  # original untouched


class TestLatency:
    def test_symmetric_fallback(self, triangle_model):
        assert triangle_model.latency("b", "a") == 10.0

    def test_diagonal_defaults_to_zero(self, triangle_model):
        assert triangle_model.latency("a", "a") == 0.0

    def test_missing_pair_raises(self):
        model = NetworkModel(["a", "b"], {})
        with pytest.raises(ModelError):
            model.latency("a", "b")

    def test_site_latency_resolves_site_names(self, triangle_model):
        assert triangle_model.site_latency("A", "B") == 10.0
        assert triangle_model.site_latency("a", "B") == 10.0


class TestStageEndpoints:
    def test_stage_one_source_is_ingress(self, triangle_model):
        chain = triangle_model.chains["c1"]
        assert triangle_model.stage_sources(chain, 1) == ["a"]

    def test_last_stage_destination_is_egress(self, triangle_model):
        chain = triangle_model.chains["c1"]
        assert triangle_model.stage_destinations(chain, 3) == ["c"]

    def test_intermediate_stages_use_vnf_sites(self, triangle_model):
        chain = triangle_model.chains["c1"]
        assert sorted(triangle_model.stage_destinations(chain, 1)) == ["A", "B"]
        assert sorted(triangle_model.stage_sources(chain, 2)) == ["A", "B"]
        assert sorted(triangle_model.stage_destinations(chain, 2)) == ["B", "C"]


class TestValidation:
    def test_unknown_ingress_rejected(self, triangle_model):
        with pytest.raises(ModelError):
            triangle_model.add_chain(Chain("bad", "zz", "c", ["fw"]))

    def test_unknown_vnf_rejected(self, triangle_model):
        with pytest.raises(ModelError):
            triangle_model.add_chain(Chain("bad", "a", "c", ["ghost"]))

    def test_vnf_without_sites_rejected(self):
        model = NetworkModel(
            ["a", "b"],
            {("a", "b"): 1.0},
            [CloudSite("A", "a", 10.0)],
            [VNF("f", 1.0, {})],
        )
        with pytest.raises(ModelError):
            model.add_chain(Chain("c", "a", "b", ["f"]))

    def test_duplicate_chain_rejected(self, triangle_model):
        with pytest.raises(ModelError):
            triangle_model.add_chain(Chain("c1", "a", "c", ["fw"]))

    def test_site_on_unknown_node_rejected(self):
        with pytest.raises(ModelError):
            NetworkModel(["a"], {}, [CloudSite("X", "zz", 1.0)])

    def test_vnf_at_unknown_site_rejected(self):
        with pytest.raises(ModelError):
            NetworkModel(["a"], {}, [], [VNF("f", 1.0, {"ghost": 1.0})])

    def test_remove_chain(self, triangle_model):
        triangle_model.remove_chain("c1")
        assert "c1" not in triangle_model.chains
        with pytest.raises(ModelError):
            triangle_model.remove_chain("c1")


class TestLinksAndRouting:
    def make_model(self):
        links = [
            Link("ab", "a", "b", bandwidth=10.0, background=2.0),
            Link("bc", "b", "c", bandwidth=10.0),
        ]
        routing = {("a", "c"): {"ab": 1.0, "bc": 1.0}, ("a", "b"): {"ab": 1.0}}
        return NetworkModel(
            ["a", "b", "c"],
            {("a", "b"): 1.0, ("b", "c"): 1.0, ("a", "c"): 2.0},
            links=links,
            routing=routing,
            mlu_limit=0.9,
        )

    def test_route_fraction_lookup(self):
        model = self.make_model()
        assert model.route_fraction("a", "c", "ab") == 1.0
        assert model.route_fraction("a", "c", "zz") == 0.0
        assert model.route_fraction("c", "a", "ab") == 0.0

    def test_link_headroom_respects_mlu_and_background(self):
        model = self.make_model()
        assert model.link_headroom(model.links["ab"]) == pytest.approx(7.0)
        assert model.link_headroom(model.links["bc"]) == pytest.approx(9.0)

    def test_unknown_link_in_routing_rejected(self):
        with pytest.raises(ModelError):
            NetworkModel(
                ["a", "b"],
                {("a", "b"): 1.0},
                routing={("a", "b"): {"ghost": 1.0}},
            )

    def test_negative_or_nan_bandwidth_rejected(self):
        for bandwidth in (-1.0, float("nan")):
            with pytest.raises(ModelError, match="negative or NaN bandwidth"):
                Link("l", "a", "b", bandwidth=bandwidth)

    def test_zero_bandwidth_is_a_blocked_link(self):
        link = Link("ab", "a", "b", bandwidth=0.0)
        model = NetworkModel(
            ["a", "b"], {("a", "b"): 1.0}, links=[link],
            routing={("a", "b"): {"ab": 1.0}},
        )
        solution = RoutingSolution(model)
        assert solution.link_utilization() == {"ab": 0.0}
        assert solution._link_utilization({"ab": 1.0}) == {"ab": float("inf")}


class TestCopies:
    def test_copy_with_chains_shares_substrate(self, triangle_model):
        copy = triangle_model.copy_with_chains([])
        assert not copy.chains
        assert copy.sites.keys() == triangle_model.sites.keys()
        assert triangle_model.chains  # original untouched

    def test_copy_with_vnfs_revalidates_chains(self, triangle_model):
        with pytest.raises(ModelError):
            triangle_model.copy_with_vnfs([VNF("other", 1.0, {})])

    def test_total_demand_sums_stage_one(self, triangle_model):
        assert triangle_model.total_demand() == pytest.approx(7.0 + 4.0)


class TestDigest:
    def test_insertion_order_invariant(self, triangle_model):
        reordered = NetworkModel(
            list(reversed(triangle_model.nodes)),
            {("b", "c"): 15.0, ("a", "c"): 30.0, ("a", "b"): 10.0},
            list(reversed(list(triangle_model.sites.values()))),
            list(reversed(list(triangle_model.vnfs.values()))),
            list(reversed(list(triangle_model.chains.values()))),
        )
        assert reordered.digest() == triangle_model.digest()

    def test_round_trips_serialization(self, triangle_model):
        from repro.core.serialization import model_from_dict, model_to_dict

        clone = model_from_dict(model_to_dict(triangle_model))
        assert clone.digest() == triangle_model.digest()

    def test_demand_change_changes_digest(self, triangle_model):
        before = triangle_model.digest()
        chain = triangle_model.chains["c1"]
        triangle_model.remove_chain("c1")
        triangle_model.add_chain(chain.scaled(2.0))
        assert triangle_model.digest() != before

    def test_capacity_change_changes_digest(self, triangle_model):
        before = triangle_model.digest()
        smaller = triangle_model.copy_with_sites(
            [CloudSite(s.name, s.node, s.capacity / 2)
             for s in triangle_model.sites.values()]
        )
        assert smaller.digest() != before

    def test_chain_subset_digest(self, triangle_model):
        full = triangle_model.digest()
        only_c1 = triangle_model.digest(chains=["c1"])
        assert only_c1 != full
        # Subset digest matches a model actually restricted to c1.
        restricted = triangle_model.copy_with_chains(
            [triangle_model.chains["c1"]]
        )
        assert restricted.digest() == only_c1
        # The other chain's demand is invisible to c1's subset digest.
        c2 = triangle_model.chains["c2"]
        triangle_model.remove_chain("c2")
        triangle_model.add_chain(c2.scaled(3.0))
        assert triangle_model.digest(chains=["c1"]) == only_c1

    def test_unknown_chain_rejected(self, triangle_model):
        with pytest.raises(ModelError):
            triangle_model.digest(chains=["ghost"])
