"""Unit tests for RoutingSolution metrics and validation."""

import pytest

from repro.core.model import Chain, CloudSite, Link, NetworkModel, VNF
from repro.core.routes import RoutingError, RoutingSolution


@pytest.fixture
def linked_model():
    """Triangle with physical links and shortest-path routing fractions."""
    links = [
        Link("ab", "a", "b", 100.0),
        Link("ba", "b", "a", 100.0),
        Link("bc", "b", "c", 100.0),
        Link("cb", "c", "b", 100.0),
        Link("ac", "a", "c", 100.0, background=10.0),
        Link("ca", "c", "a", 100.0),
    ]
    routing = {
        ("a", "b"): {"ab": 1.0},
        ("b", "a"): {"ba": 1.0},
        ("b", "c"): {"bc": 1.0},
        ("c", "b"): {"cb": 1.0},
        ("a", "c"): {"ac": 1.0},
        ("c", "a"): {"ca": 1.0},
    }
    return NetworkModel(
        ["a", "b", "c"],
        {("a", "b"): 10.0, ("a", "c"): 30.0, ("b", "c"): 15.0},
        [CloudSite("A", "a", 100.0), CloudSite("B", "b", 100.0)],
        [VNF("fw", 2.0, {"A": 50.0, "B": 50.0})],
        [Chain("c1", "a", "c", ["fw"], 4.0, 1.0)],
        links=links,
        routing=routing,
    )


class TestConstruction:
    def test_add_flow_accumulates(self, linked_model):
        sol = RoutingSolution(linked_model)
        sol.add_flow("c1", 1, "a", "B", 0.3)
        sol.add_flow("c1", 1, "a", "B", 0.2)
        assert sol.fraction("c1", 1, "a", "B") == pytest.approx(0.5)

    def test_tiny_fractions_dropped(self, linked_model):
        sol = RoutingSolution(linked_model)
        sol.add_flow("c1", 1, "a", "B", 1e-12)
        assert sol.fraction("c1", 1, "a", "B") == 0.0

    def test_unknown_chain_rejected(self, linked_model):
        sol = RoutingSolution(linked_model)
        with pytest.raises(RoutingError):
            sol.add_flow("ghost", 1, "a", "B", 1.0)

    def test_out_of_range_stage_rejected(self, linked_model):
        sol = RoutingSolution(linked_model)
        with pytest.raises(RoutingError):
            sol.add_flow("c1", 3, "a", "B", 1.0)

    def test_add_path_creates_stage_flows(self, linked_model):
        sol = RoutingSolution(linked_model)
        sol.add_path("c1", ["a", "B", "c"], 1.0)
        assert sol.fraction("c1", 1, "a", "B") == 1.0
        assert sol.fraction("c1", 2, "B", "c") == 1.0

    def test_add_path_wrong_length_rejected(self, linked_model):
        sol = RoutingSolution(linked_model)
        with pytest.raises(RoutingError):
            sol.add_path("c1", ["a", "c"], 1.0)


class TestMetrics:
    def test_weighted_latency_matches_equation_three(self, linked_model):
        sol = RoutingSolution(linked_model)
        sol.add_path("c1", ["a", "B", "c"], 1.0)
        # (w+v) = 5 per stage; latency a->B 10, B->c 15.
        assert sol.total_weighted_latency() == pytest.approx(5 * 10 + 5 * 15)

    def test_chain_latency_is_path_latency(self, linked_model):
        sol = RoutingSolution(linked_model)
        sol.add_path("c1", ["a", "B", "c"], 1.0)
        assert sol.chain_latency("c1") == pytest.approx(25.0)

    def test_chain_latency_with_split_traffic(self, linked_model):
        sol = RoutingSolution(linked_model)
        sol.add_path("c1", ["a", "B", "c"], 0.5)
        sol.add_path("c1", ["a", "A", "c"], 0.5)
        # 0.5 * (10 + 15) + 0.5 * (0 + 30)
        assert sol.chain_latency("c1") == pytest.approx(27.5)

    def test_unrouted_chain_has_infinite_latency(self, linked_model):
        sol = RoutingSolution(linked_model)
        assert sol.chain_latency("c1") == float("inf")

    def test_throughput_counts_carried_demand(self, linked_model):
        sol = RoutingSolution(linked_model)
        sol.add_path("c1", ["a", "B", "c"], 0.6)
        assert sol.throughput() == pytest.approx(0.6 * 5.0)

    def test_vnf_loads_count_both_directions(self, linked_model):
        sol = RoutingSolution(linked_model)
        sol.add_path("c1", ["a", "B", "c"], 1.0)
        loads = sol.vnf_site_loads()
        # l_f=2; receives stage-1 (5) and sends stage-2 (5): 2*(5+5)=20.
        assert loads[("fw", "B")] == pytest.approx(20.0)

    def test_site_loads_aggregate_vnfs(self, linked_model):
        sol = RoutingSolution(linked_model)
        sol.add_path("c1", ["a", "B", "c"], 1.0)
        assert sol.site_loads()["B"] == pytest.approx(20.0)

    def test_pair_traffic_separates_directions(self, linked_model):
        sol = RoutingSolution(linked_model)
        sol.add_path("c1", ["a", "B", "c"], 1.0)
        pairs = sol.pair_traffic()
        assert pairs[("a", "b")] == pytest.approx(4.0)  # forward
        assert pairs[("b", "a")] == pytest.approx(1.0)  # reverse
        assert pairs[("b", "c")] == pytest.approx(4.0)
        assert pairs[("c", "b")] == pytest.approx(1.0)

    def test_link_utilization_includes_background(self, linked_model):
        sol = RoutingSolution(linked_model)
        utils = sol.link_utilization()
        assert utils["ac"] == pytest.approx(0.1)  # background only

    def test_max_link_utilization(self, linked_model):
        sol = RoutingSolution(linked_model)
        sol.add_path("c1", ["a", "B", "c"], 1.0)
        assert sol.max_link_utilization() == pytest.approx(0.1)


class TestValidation:
    def test_valid_solution_passes(self, linked_model):
        sol = RoutingSolution(linked_model)
        sol.add_path("c1", ["a", "B", "c"], 1.0)
        sol.validate()

    def test_flow_conservation_violation_detected(self, linked_model):
        sol = RoutingSolution(linked_model)
        sol.add_flow("c1", 1, "a", "B", 1.0)
        sol.add_flow("c1", 2, "A", "c", 1.0)  # exits from A, entered at B
        problems = sol.violations()
        assert any("flow conservation" in p for p in problems)

    def test_overrouted_chain_detected(self, linked_model):
        sol = RoutingSolution(linked_model)
        sol.add_path("c1", ["a", "B", "c"], 1.5)
        problems = sol.violations()
        assert any("routes" in p for p in problems)

    def test_invalid_stage_site_detected(self, linked_model):
        sol = RoutingSolution(linked_model)
        sol.add_flow("c1", 1, "a", "a", 1.0)  # 'a' is not a site of fw
        problems = sol.violations()
        assert any("invalid destination" in p for p in problems)

    def test_vnf_capacity_violation_detected(self, linked_model):
        chain = Chain("big", "a", "c", ["fw"], 50.0)
        linked_model.add_chain(chain)
        sol = RoutingSolution(linked_model)
        sol.add_path("big", ["a", "B", "c"], 1.0)
        problems = sol.violations()
        assert any("overloaded" in p for p in problems)

    def test_mlu_violation_detected(self, linked_model):
        chain = Chain("huge", "a", "c", ["fw"], 20.0)
        linked_model.add_chain(chain)
        # fw load = 2*(20+20) = 80 < site 100, but link ab carries 20
        # forward on a 100 bandwidth link -- fine; shrink the budget.
        linked_model.mlu_limit = 0.1
        sol = RoutingSolution(linked_model)
        sol.add_path("huge", ["a", "B", "c"], 1.0)
        problems = sol.violations()
        assert any("MLU" in p for p in problems)

    def test_validate_raises_with_details(self, linked_model):
        sol = RoutingSolution(linked_model)
        sol.add_path("c1", ["a", "B", "c"], 1.5)
        with pytest.raises(RoutingError):
            sol.validate()
