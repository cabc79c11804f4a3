"""Tests for SB-LP: optimality, constraints, objectives."""

import pytest

from repro.core.lp import LpError, LpObjective, solve_chain_routing_lp
from repro.core.model import Chain, CloudSite, Link, NetworkModel, VNF


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


class TestMinLatency:
    def test_solves_to_optimality(self):
        result = solve_chain_routing_lp(small_model())
        assert result.ok
        assert result.solution is not None
        result.solution.validate()

    def test_routes_all_demand(self):
        result = solve_chain_routing_lp(small_model())
        assert result.solution.routed_fraction("c1") == pytest.approx(1.0)

    def test_prefers_lower_latency_site(self):
        # Via A: 0 + 30 = 30; via B: 10 + 15 = 25 -> everything on B.
        result = solve_chain_routing_lp(small_model(chain_demand=5.0))
        assert result.solution.fraction("c1", 1, "a", "B") == pytest.approx(1.0)

    def test_objective_equals_weighted_latency(self):
        result = solve_chain_routing_lp(small_model())
        assert result.objective == pytest.approx(
            result.solution.total_weighted_latency()
        )

    def test_splits_when_capacity_binds(self):
        # fw at B can only carry 2.5 demand units (load 2*d <= 5).
        model = small_model(chain_demand=5.0, fw_cap_b=5.0, fw_cap_a=100.0)
        result = solve_chain_routing_lp(model)
        assert result.ok
        b_frac = result.solution.fraction("c1", 1, "a", "B")
        assert 0 < b_frac < 1
        result.solution.validate()

    def test_infeasible_when_demand_exceeds_capacity(self):
        model = small_model(chain_demand=100.0, fw_cap_a=5.0, fw_cap_b=5.0)
        result = solve_chain_routing_lp(model)
        assert result.status == "infeasible"
        assert result.solution is None

    def test_a_hair_over_capacity_is_infeasible(self):
        # fw carries 2 * d <= 5 + 5: d = 5 fits exactly, 1e-5 more leaves a
        # phase-I mass of 1e-5, a hundred times the feasibility tolerance.
        exact = solve_chain_routing_lp(small_model(5.0, 5.0, 5.0))
        over = solve_chain_routing_lp(small_model(5.0 * (1 + 1e-5), 5.0, 5.0))
        assert exact.ok and exact.solution.routed_fraction("c1") == pytest.approx(1.0)
        assert over.status == "infeasible"

    def test_no_chains_raises(self):
        model = small_model()
        model.remove_chain("c1")
        with pytest.raises(LpError):
            solve_chain_routing_lp(model)


class TestMaxThroughput:
    def test_partial_routing_when_capacity_short(self):
        model = small_model(chain_demand=100.0, fw_cap_a=5.0, fw_cap_b=5.0)
        result = solve_chain_routing_lp(model, LpObjective.MAX_THROUGHPUT)
        assert result.ok
        routed = result.solution.routed_fraction("c1")
        # Total fw capacity 10 = load 2*traffic -> 5 traffic of 100 = 5%.
        assert routed == pytest.approx(0.05, rel=1e-3)
        result.solution.validate()

    def test_routes_everything_when_feasible(self):
        result = solve_chain_routing_lp(small_model(), LpObjective.MAX_THROUGHPUT)
        assert result.solution.routed_fraction("c1") == pytest.approx(1.0)

    def test_latency_tiebreak_picks_short_path(self):
        result = solve_chain_routing_lp(small_model(), LpObjective.MAX_THROUGHPUT)
        assert result.solution.fraction("c1", 1, "a", "B") == pytest.approx(
            1.0, abs=1e-4
        )

    def test_multi_chain_joint_optimization(self):
        model = small_model(fw_cap_a=12.0, fw_cap_b=12.0)
        model.add_chain(Chain("c2", "b", "c", ["fw"], 5.0))
        result = solve_chain_routing_lp(model, LpObjective.MAX_THROUGHPUT)
        assert result.ok
        total = result.solution.throughput()
        # Combined demand 10; combined fw load capacity 24 -> 12 traffic.
        assert total == pytest.approx(10.0, rel=1e-3)
        result.solution.validate()


class TestMluConstraint:
    def make_linked_model(self, bandwidth=8.0):
        nodes = ["a", "b"]
        latency = {("a", "b"): 10.0}
        sites = [CloudSite("A", "a", 100.0), CloudSite("B", "b", 100.0)]
        vnfs = [VNF("fw", 0.1, {"B": 100.0})]
        chains = [Chain("c1", "a", "b", ["fw"], 10.0, 0.0)]
        links = [
            Link("ab", "a", "b", bandwidth),
            Link("ba", "b", "a", bandwidth),
        ]
        routing = {("a", "b"): {"ab": 1.0}, ("b", "a"): {"ba": 1.0}}
        return NetworkModel(
            nodes, latency, sites, vnfs, chains, links, routing, mlu_limit=1.0
        )

    def test_link_capacity_limits_throughput(self):
        model = self.make_linked_model(bandwidth=8.0)
        result = solve_chain_routing_lp(model, LpObjective.MAX_THROUGHPUT)
        # The a->b link carries the chain's 10 units but only 8 fit.
        assert result.solution.throughput() == pytest.approx(8.0, rel=1e-3)

    def test_min_latency_infeasible_beyond_link_capacity(self):
        model = self.make_linked_model(bandwidth=8.0)
        result = solve_chain_routing_lp(model, LpObjective.MIN_LATENCY)
        assert result.status == "infeasible"

    def test_disabling_mlu_ignores_links(self):
        model = self.make_linked_model(bandwidth=8.0)
        result = solve_chain_routing_lp(
            model, LpObjective.MAX_THROUGHPUT, enforce_mlu=False
        )
        assert result.solution.throughput() == pytest.approx(10.0, rel=1e-3)

    def test_background_traffic_consumes_headroom(self):
        model = self.make_linked_model(bandwidth=8.0)
        links = [
            Link("ab", "a", "b", 8.0, background=4.0),
            Link("ba", "b", "a", 8.0),
        ]
        model = NetworkModel(
            model.nodes,
            {("a", "b"): 10.0},
            model.sites.values(),
            model.vnfs.values(),
            model.chains.values(),
            links,
            model.routing,
        )
        result = solve_chain_routing_lp(model, LpObjective.MAX_THROUGHPUT)
        assert result.solution.throughput() == pytest.approx(4.0, rel=1e-3)


class TestMinMlu:
    def make_two_path_model(self, demand=8.0):
        """Two parallel links a->b; fw at B only, so the chain's traffic
        can split across links only via the underlay fractions -- instead
        we give fw at two sites reached over different links."""
        nodes = ["a", "b", "c"]
        latency = {("a", "b"): 10.0, ("a", "c"): 10.0, ("b", "c"): 5.0}
        sites = [CloudSite("B", "b", 1000.0), CloudSite("C", "c", 1000.0)]
        vnfs = [VNF("fw", 0.01, {"B": 1000.0, "C": 1000.0})]
        chains = [Chain("c1", "a", "a", ["fw"], demand, 0.0)]
        links = [
            Link("ab", "a", "b", 10.0), Link("ba", "b", "a", 10.0),
            Link("ac", "a", "c", 10.0), Link("ca", "c", "a", 10.0),
        ]
        routing = {
            ("a", "b"): {"ab": 1.0}, ("b", "a"): {"ba": 1.0},
            ("a", "c"): {"ac": 1.0}, ("c", "a"): {"ca": 1.0},
        }
        return NetworkModel(nodes, latency, sites, vnfs, chains,
                            links, routing)

    def test_balances_load_across_links(self):
        model = self.make_two_path_model(demand=8.0)
        result = solve_chain_routing_lp(model, LpObjective.MIN_MLU)
        assert result.ok
        # 8 units split over two 10-unit paths -> MLU 0.4.
        assert result.objective == pytest.approx(0.4, abs=1e-4)
        assert result.solution.max_link_utilization() == pytest.approx(
            0.4, abs=1e-4
        )
        flows = result.solution.stage_flows("c1", 1)
        assert flows[("a", "B")] == pytest.approx(0.5, abs=1e-3)
        assert flows[("a", "C")] == pytest.approx(0.5, abs=1e-3)

    def test_min_mlu_routes_all_demand(self):
        model = self.make_two_path_model()
        result = solve_chain_routing_lp(model, LpObjective.MIN_MLU)
        assert result.solution.routed_fraction("c1") == pytest.approx(1.0)

    def test_min_mlu_can_exceed_the_budget(self):
        # Demand larger than the combined link capacity: MIN_MLU still
        # solves and reports a beta above 1 (the best achievable).
        model = self.make_two_path_model(demand=30.0)
        result = solve_chain_routing_lp(model, LpObjective.MIN_MLU)
        assert result.ok
        assert result.objective == pytest.approx(1.5, abs=1e-3)

    def test_min_mlu_accounts_background(self):
        model = self.make_two_path_model(demand=8.0)
        links = [
            Link("ab", "a", "b", 10.0, background=5.0),
            Link("ba", "b", "a", 10.0),
            Link("ac", "a", "c", 10.0),
            Link("ca", "c", "a", 10.0),
        ]
        model = NetworkModel(
            model.nodes,
            {("a", "b"): 10.0, ("a", "c"): 10.0, ("b", "c"): 5.0},
            model.sites.values(),
            model.vnfs.values(),
            model.chains.values(),
            links,
            model.routing,
        )
        result = solve_chain_routing_lp(model, LpObjective.MIN_MLU)
        # Balance point: x*8+5 = (1-x)*8 -> the optimizer pushes traffic
        # off the pre-loaded link; both links end at utilization 0.65.
        assert result.objective == pytest.approx(0.65, abs=1e-3)

    def test_min_mlu_beats_min_latency_on_mlu(self):
        model = self.make_two_path_model(demand=8.0)
        mlu = solve_chain_routing_lp(model, LpObjective.MIN_MLU)
        latency = solve_chain_routing_lp(model, LpObjective.MIN_LATENCY)
        assert (
            mlu.solution.max_link_utilization()
            <= latency.solution.max_link_utilization() + 1e-9
        )

    def test_requires_links(self):
        model = small_model()
        with pytest.raises(LpError):
            solve_chain_routing_lp(model, LpObjective.MIN_MLU)


class TestReportedShape:
    def test_counts_variables_and_constraints(self):
        result = solve_chain_routing_lp(small_model())
        # Stage 1: a->{A,B}; stage 2: {A,B}->c -> 4 variables.
        assert result.num_variables == 4
        assert result.num_constraints > 0
        assert result.solve_seconds >= 0.0
