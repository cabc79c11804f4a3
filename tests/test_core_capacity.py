"""Tests for cloud capacity planning (alpha LP) and VNF placement (MIP)."""

import random

import pytest

from repro.core import capacity as capacity_mod
from repro.core.capacity import (
    CapacityPlanningError,
    max_alpha,
    plan_cloud_capacity,
    plan_vnf_placement,
    random_vnf_placement,
    uniform_cloud_plan,
)
from repro.core.model import Chain, CloudSite, NetworkModel, VNF


def planning_model(site_caps=(10.0, 10.0, 10.0)):
    nodes = ["a", "b", "c"]
    latency = {("a", "b"): 10.0, ("a", "c"): 30.0, ("b", "c"): 15.0}
    sites = [
        CloudSite("A", "a", site_caps[0]),
        CloudSite("B", "b", site_caps[1]),
        CloudSite("C", "c", site_caps[2]),
    ]
    vnfs = [VNF("fw", 1.0, {"A": site_caps[0], "B": site_caps[1]})]
    chains = [Chain("c1", "a", "c", ["fw"], 1.0, 0.0)]
    return NetworkModel(nodes, latency, sites, vnfs, chains)


class TestCloudCapacityPlanning:
    def test_alpha_reflects_current_capacity(self):
        model = planning_model()
        plan = plan_cloud_capacity(model, budget=0.0)
        # fw capacity 20 total; chain load 2 per alpha -> alpha = 10.
        assert plan.alpha == pytest.approx(10.0, rel=1e-3)

    def test_budget_increases_alpha(self):
        model = planning_model()
        base = plan_cloud_capacity(model, budget=0.0)
        grown = plan_cloud_capacity(model, budget=20.0)
        assert grown.alpha > base.alpha

    def test_budget_respected(self):
        model = planning_model()
        plan = plan_cloud_capacity(model, budget=20.0)
        assert sum(plan.additional.values()) <= 20.0 + 1e-6

    def test_optimized_beats_uniform(self):
        # Site C hosts no VNF, so uniform provisioning wastes a third of
        # the budget; the optimizer should not.
        model = planning_model()
        optimized = plan_cloud_capacity(model, budget=30.0)
        uniform = uniform_cloud_plan(model, budget=30.0)
        assert optimized.alpha > uniform.alpha

    def test_uniform_spreads_evenly(self):
        model = planning_model()
        plan = uniform_cloud_plan(model, budget=30.0)
        assert plan.additional == {
            "A": pytest.approx(10.0),
            "B": pytest.approx(10.0),
            "C": pytest.approx(10.0),
        }

    def test_solution_flows_normalized_to_fractions(self):
        model = planning_model()
        plan = plan_cloud_capacity(model, budget=0.0)
        assert plan.solution is not None
        assert plan.solution.routed_fraction("c1") == pytest.approx(1.0, rel=1e-6)

    def test_negative_budget_rejected(self):
        with pytest.raises(CapacityPlanningError):
            plan_cloud_capacity(planning_model(), budget=-1.0)

    def test_max_alpha_helper(self):
        assert max_alpha(planning_model()) == pytest.approx(10.0, rel=1e-3)


class TestVnfPlacement:
    def test_placement_reduces_latency(self):
        # fw only at B (far detour for a->c); opening a site must help.
        nodes = ["a", "b", "c"]
        latency = {("a", "b"): 50.0, ("a", "c"): 10.0, ("b", "c"): 50.0}
        sites = [
            CloudSite("A", "a", 100.0),
            CloudSite("B", "b", 100.0),
            CloudSite("C", "c", 100.0),
        ]
        vnfs = [VNF("fw", 1.0, {"B": 100.0})]
        chains = [Chain("c1", "a", "c", ["fw"], 1.0)]
        model = NetworkModel(nodes, latency, sites, vnfs, chains)
        plan = plan_vnf_placement(model, {"fw": 1}, new_site_capacity=100.0)
        assert plan.status == "optimal"
        # Best new site is A or C (on the short a-c path).
        assert set(plan.new_sites["fw"]) <= {"A", "C"}
        # Objective: via new site = 10 weighted latency; via B = 100.
        assert plan.objective == pytest.approx(10.0, rel=1e-6)

    def test_quota_limits_new_sites(self):
        model = planning_model()
        plan = plan_vnf_placement(model, {"fw": 1}, new_site_capacity=10.0)
        assert len(plan.new_sites.get("fw", [])) <= 1

    def test_new_sites_disjoint_from_existing(self):
        model = planning_model()
        plan = plan_vnf_placement(model, {"fw": 1}, new_site_capacity=10.0)
        existing = set(model.vnfs["fw"].site_capacity)
        for site in plan.new_sites.get("fw", []):
            assert site not in existing

    def test_apply_returns_grown_model(self):
        model = planning_model()
        plan = plan_vnf_placement(model, {"fw": 1}, new_site_capacity=10.0)
        grown = plan.apply(model)
        for vnf_name, sites in plan.new_sites.items():
            for site in sites:
                assert site in grown.vnfs[vnf_name].site_capacity

    def test_unknown_vnf_rejected(self):
        with pytest.raises(CapacityPlanningError):
            plan_vnf_placement(planning_model(), {"ghost": 1}, 10.0)

    @pytest.mark.parametrize("limit", [0, -1.0, float("nan"), float("inf")])
    def test_time_limit_highs_would_ignore_rejected(self, limit, monkeypatch):
        """HiGHS runs without a limit it finds invalid; 0 read as none."""
        def unbuilt(*_args):
            raise AssertionError("the program was built")

        monkeypatch.setattr(capacity_mod, "_placement_program", unbuilt)
        with pytest.raises(CapacityPlanningError, match="time limit"):
            plan_vnf_placement(planning_model(), {"fw": 1}, 10.0, time_limit=limit)

    def test_no_time_limit(self):
        plan = plan_vnf_placement(planning_model(), {"fw": 1}, 10.0, time_limit=None)
        assert plan.status == "optimal"

    def test_random_placement_baseline(self):
        model = planning_model()
        plan = random_vnf_placement(
            model, {"fw": 1}, new_site_capacity=10.0, rng=random.Random(1)
        )
        assert plan.status == "random"
        assert plan.new_sites["fw"] == ["C"]  # only non-deployed site

    def test_optimal_at_least_as_good_as_random(self):
        nodes = ["a", "b", "c", "d"]
        latency = {
            ("a", "b"): 50.0, ("a", "c"): 10.0, ("a", "d"): 80.0,
            ("b", "c"): 50.0, ("b", "d"): 40.0, ("c", "d"): 70.0,
        }
        sites = [CloudSite(s.upper(), s, 100.0) for s in nodes]
        vnfs = [VNF("fw", 1.0, {"B": 100.0})]
        chains = [Chain("c1", "a", "c", ["fw"], 1.0)]
        model = NetworkModel(nodes, latency, sites, vnfs, chains)
        optimal = plan_vnf_placement(model, {"fw": 1}, new_site_capacity=100.0)
        rng = random.Random(0)
        for _ in range(3):
            random_plan = random_vnf_placement(model, {"fw": 1}, 100.0, rng)
            grown = random_plan.apply(model)
            from repro.core.lp import solve_chain_routing_lp

            lp = solve_chain_routing_lp(grown)
            assert optimal.objective <= lp.objective + 1e-6
