"""Tests for SB-DP: the Equation 8 recurrence, splitting, ablations,
and the incremental router used by Global Switchboard."""

import pytest

from repro.core.dp import (
    DpConfig,
    IncrementalDpRouter,
    route_chains_dp,
)
from repro.core.lp import solve_chain_routing_lp
from repro.core.model import Chain, CloudSite, Link, NetworkModel, VNF
from tests.test_vectorized_equivalence import dp_model


def small_model(chain_demand=5.0, fw_cap_a=10.0, fw_cap_b=50.0):
    nodes = ["a", "b", "c"]
    latency = {("a", "b"): 10.0, ("a", "c"): 30.0, ("b", "c"): 15.0}
    sites = [
        CloudSite("A", "a", 100.0),
        CloudSite("B", "b", 100.0),
        CloudSite("C", "c", 100.0),
    ]
    vnfs = [VNF("fw", 1.0, {"A": fw_cap_a, "B": fw_cap_b})]
    chains = [Chain("c1", "a", "c", ["fw"], chain_demand, 0.0)]
    return NetworkModel(nodes, latency, sites, vnfs, chains)


class TestSingleChain:
    def test_routes_fully_when_capacity_ample(self):
        result = route_chains_dp(small_model())
        assert result.fully_routed
        assert result.solution.routed_fraction("c1") == pytest.approx(1.0)
        result.solution.validate()

    def test_finds_min_latency_path_at_low_load(self):
        result = route_chains_dp(small_model(chain_demand=0.1))
        # Via B (10+15=25) beats via A (0+30=30).
        assert result.solution.fraction("c1", 1, "a", "B") == pytest.approx(1.0)

    def test_matches_lp_on_uncongested_instance(self):
        model = small_model(chain_demand=0.1)
        dp = route_chains_dp(model)
        lp = solve_chain_routing_lp(model)
        assert dp.solution.total_weighted_latency() == pytest.approx(
            lp.objective, rel=1e-6
        )

    def test_splits_across_paths_when_capacity_binds(self):
        # Neither site alone can carry the chain (load 2*5=10 > 6), so
        # the residual re-routing loop must split it across A and B.
        model = small_model(chain_demand=5.0, fw_cap_a=6.0, fw_cap_b=6.0)
        result = route_chains_dp(model)
        assert result.fully_routed
        flows = result.solution.stage_flows("c1", 1)
        assert len(flows) == 2  # split across A and B
        result.solution.validate()

    def test_avoids_overloading_a_small_site(self):
        # B is lower latency but would be driven to 2x utilization; the
        # convex penalty steers the whole chain to A instead.
        model = small_model(chain_demand=5.0, fw_cap_b=5.0, fw_cap_a=100.0)
        result = route_chains_dp(model)
        assert result.fully_routed
        assert result.solution.fraction("c1", 1, "a", "A") == pytest.approx(1.0)

    def test_reports_unrouted_remainder(self):
        model = small_model(chain_demand=100.0, fw_cap_a=5.0, fw_cap_b=5.0)
        result = route_chains_dp(model)
        assert "c1" in result.unrouted
        # Total capacity 10 load units = 5 traffic of 100 offered.
        assert result.solution.throughput() == pytest.approx(5.0, abs=1e-6)

    def test_multi_vnf_chain_orders_sites(self):
        model = small_model()
        model = model.copy_with_vnfs(
            [
                VNF("fw", 1.0, {"A": 50.0, "B": 50.0}),
                VNF("nat", 1.0, {"B": 50.0, "C": 50.0}),
            ]
        )
        model.remove_chain("c1")
        model.add_chain(Chain("c2", "a", "c", ["fw", "nat"], 2.0))
        result = route_chains_dp(model)
        assert result.fully_routed
        result.solution.validate()
        # Several site paths tie at latency 25 (e.g. a->A->B->c and
        # a->B->B->c); the holistic DP must find one of them.
        assert result.solution.chain_latency("c2") == pytest.approx(25.0)


class TestCapacityEnforcement:
    def test_sequential_chains_respect_shared_capacity(self):
        model = small_model(fw_cap_a=6.0, fw_cap_b=6.0)
        model.add_chain(Chain("c2", "a", "c", ["fw"], 5.0))
        result = route_chains_dp(model)
        result.solution.validate()  # never exceeds capacities

    def test_link_capacity_respected(self):
        nodes = ["a", "b"]
        latency = {("a", "b"): 10.0}
        sites = [CloudSite("A", "a", 100.0), CloudSite("B", "b", 100.0)]
        vnfs = [VNF("fw", 0.1, {"B": 100.0})]
        chains = [Chain("c1", "a", "b", ["fw"], 10.0, 0.0)]
        links = [Link("ab", "a", "b", 8.0), Link("ba", "b", "a", 8.0)]
        routing = {("a", "b"): {"ab": 1.0}, ("b", "a"): {"ba": 1.0}}
        model = NetworkModel(
            nodes, latency, sites, vnfs, chains, links, routing
        )
        result = route_chains_dp(model)
        assert result.solution.throughput() == pytest.approx(8.0, abs=1e-6)
        assert result.solution.max_link_utilization() <= 1.0 + 1e-9

    def test_zero_bandwidth_link_is_blocked(self):
        # fw at B is the shorter way (25 against 30), but a -> b crosses
        # a link of zero bandwidth: the whole demand goes through A.
        links = [
            Link("ab", "a", "b", 0.0), Link("bc", "b", "c", 100.0),
            Link("ac", "a", "c", 100.0),
        ]
        routing = {("a", "b"): {"ab": 1.0}, ("b", "c"): {"bc": 1.0},
                   ("a", "c"): {"ac": 1.0}}
        base = small_model(fw_cap_a=50.0)
        model = NetworkModel(
            base.nodes, base._latency, base.sites.values(), base.vnfs.values(),
            base.chains.values(), links, routing,
        )
        result = route_chains_dp(model)
        assert result.fully_routed
        assert set(result.solution.vnf_site_loads()) == {("fw", "A")}
        assert result.solution.link_utilization()["ab"] == 0.0
        assert result.solution.violations() == []

    def test_congestion_steers_to_other_site(self):
        # Two chains; fw at B is the low-latency choice but the penalty
        # should push the second chain to A once B saturates its knee.
        model = small_model(fw_cap_a=50.0, fw_cap_b=11.0)
        model.add_chain(Chain("c2", "a", "c", ["fw"], 5.0))
        result = route_chains_dp(model)
        assert result.fully_routed
        loads = result.solution.vnf_site_loads()
        assert ("fw", "A") in loads  # some traffic diverted


class TestAblations:
    def test_latency_only_ignores_congestion_costs(self):
        config = DpConfig.latency_only()
        assert not config.utilization_cost
        model = small_model(chain_demand=0.1)
        result = route_chains_dp(model, config)
        assert result.fully_routed

    def test_latency_only_still_enforces_capacity(self):
        model = small_model(chain_demand=100.0, fw_cap_a=5.0, fw_cap_b=5.0)
        result = route_chains_dp(model, DpConfig.latency_only())
        result.solution.validate()
        assert not result.fully_routed

    def test_one_hop_is_greedy(self):
        # Trap: greedy picks the nearest fw site (A at distance 0) even
        # though the egress is far from A; holistic DP avoids it.
        nodes = ["a", "b", "c"]
        latency = {("a", "b"): 5.0, ("a", "c"): 40.0, ("b", "c"): 5.0}
        sites = [CloudSite("A", "a", 100.0), CloudSite("B", "b", 100.0)]
        vnfs = [VNF("fw", 1.0, {"A": 50.0, "B": 50.0})]
        chains = [Chain("c1", "a", "c", ["fw"], 1.0)]
        model = NetworkModel(nodes, latency, sites, vnfs, chains)
        greedy = route_chains_dp(model, DpConfig.one_hop())
        holistic = route_chains_dp(model)
        assert greedy.solution.fraction("c1", 1, "a", "A") == pytest.approx(1.0)
        assert holistic.solution.fraction("c1", 1, "a", "B") == pytest.approx(1.0)
        assert (
            holistic.solution.chain_latency("c1")
            < greedy.solution.chain_latency("c1")
        )

    def test_chain_order_override(self):
        model = small_model(fw_cap_a=6.0, fw_cap_b=6.0)
        model.add_chain(Chain("c2", "a", "c", ["fw"], 5.0))
        result = route_chains_dp(model, chain_order=["c2", "c1"])
        assert result.solution.routed_fraction("c2") == pytest.approx(1.0)

    def test_unknown_chain_order_rejected(self):
        with pytest.raises(KeyError):
            route_chains_dp(small_model(), chain_order=["ghost"])

    def test_repeated_chain_order_rejected(self):
        """A name twice would route the chain twice: twice its demand."""
        model = dp_model(2, n_chains=2)
        with pytest.raises(KeyError, match=r"repeated \['c0'\]"):
            route_chains_dp(model, chain_order=["c0", "c0"])
        assert not route_chains_dp(model, chain_order=["c1", "c0"]).solution.violations()


class TestIncrementalRouter:
    def test_route_accumulates_into_shared_solution(self):
        model = small_model(fw_cap_a=50.0, fw_cap_b=50.0)
        model.add_chain(Chain("c2", "b", "c", ["fw"], 3.0))
        router = IncrementalDpRouter(model)
        assert router.route("c1") == pytest.approx(1.0)
        assert router.route("c2") == pytest.approx(1.0)
        assert router.solution.throughput() == pytest.approx(8.0)
        router.solution.validate()

    def test_rollback_restores_capacity(self):
        model = small_model(fw_cap_a=0.0, fw_cap_b=10.0)
        router = IncrementalDpRouter(model)
        router.route("c1")
        used_before = router.residual_vnf_capacity("fw", "B")
        router.rollback("c1")
        assert router.solution.routed_fraction("c1") == 0.0
        assert router.residual_vnf_capacity("fw", "B") == pytest.approx(10.0)
        assert used_before < 10.0

    def test_rollback_then_reroute_is_stable(self):
        model = small_model()
        router = IncrementalDpRouter(model)
        router.route("c1")
        first = dict(router.solution.stage_flows("c1", 1))
        router.rollback("c1")
        router.route("c1")
        assert dict(router.solution.stage_flows("c1", 1)) == first

    def test_rollback_releases_what_was_routed_not_what_the_model_says(self):
        # Regression: fw at sb holds 100; demand 10 commits load 20.
        model = small_model(chain_demand=10.0, fw_cap_a=0.0, fw_cap_b=100.0)
        router = IncrementalDpRouter(model)
        assert router.route("c1") == pytest.approx(1.0)
        assert router.residual_vnf_capacity("fw", "B") == pytest.approx(80.0)
        chain = model.chains["c1"]
        model.remove_chain("c1")
        model.add_chain(chain.scaled(2.0))
        router.rollback("c1")  # released 40, 20 more than exists
        assert router.residual_vnf_capacity("fw", "B") == pytest.approx(100.0)
        assert router.solution.routed_fraction("c1") == 0.0
        # ...and the next route is the re-scaled chain's
        assert router.route("c1") == pytest.approx(1.0)
        assert router.residual_vnf_capacity("fw", "B") == pytest.approx(60.0)

    def test_rollback_of_a_chain_the_model_already_dropped(self):
        # Regression: KeyError.
        model = small_model(chain_demand=10.0, fw_cap_a=0.0, fw_cap_b=100.0)
        model.add_chain(Chain("c2", "b", "c", ["fw"], 3.0))
        router = IncrementalDpRouter(model)
        router.route("c1")
        router.route("c2")
        model.remove_chain("c1")
        router.rollback("c1")
        assert router.residual_vnf_capacity("fw", "B") == pytest.approx(94.0)
        assert [flow.chain for flow in router.solution.flows()] == ["c2", "c2"]
        with pytest.raises(KeyError):
            router.rollback("c1")  # neither routed nor in the model

    def test_sync_vnf_capacity_reduces_residual(self):
        model = small_model(fw_cap_b=50.0)
        router = IncrementalDpRouter(model)
        router.sync_vnf_capacity("fw", "B", 5.0)
        assert router.residual_vnf_capacity("fw", "B") == pytest.approx(5.0)
        # Syncing to a larger value never *increases* (conservative).
        router.sync_vnf_capacity("fw", "B", 100.0)
        assert router.residual_vnf_capacity("fw", "B") == pytest.approx(5.0)


class TestStageFrontCache:
    def test_keyed_by_shape_so_churn_hits_and_stays_bounded(self):
        # Regression: the per-chain static arrays were keyed by chain
        # *name*, so under churn (every install a new name) the cache
        # never hit and grew by one entry per chain ever routed.
        def churn(router, model, clear):
            flows = []
            for i in range(200):
                name = f"churn{i}"
                model.add_chain(Chain(name, "a", "c", ["fw"], 0.5))
                if clear:  # the reference: every route builds its arrays
                    sub = model.substrate_columns()
                    sub._site_runs.clear()
                    sub._transitions.clear()
                fraction = router.route(name)
                flows.append((fraction, dict(router.solution.stage_flows(name, 1)),
                              dict(router.solution.stage_flows(name, 2))))
                if i % 3:
                    router.rollback(name)
                    model.remove_chain(name)
            return flows

        cached_model, reference_model = small_model(), small_model()
        cached = IncrementalDpRouter(cached_model)
        reference = IncrementalDpRouter(reference_model)
        assert churn(cached, cached_model, False) == churn(
            reference, reference_model, True
        )
        # 200 names, one (ingress, egress, vnfs) shape: one VNF sequence
        # and two front pairs, and they live with the substrate, not with
        # the router.
        sub = cached_model.substrate_columns()
        assert len(sub._site_runs) == 1
        assert len(sub._transitions) == 2
