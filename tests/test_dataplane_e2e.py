"""Tests for the end-to-end testbed model (Figures 10-11 substrate)."""

import pytest

from repro.dataplane.e2e import (
    E2EError,
    E2ERoute,
    E2ETestbed,
    MAX_QUEUE_MS,
    VnfInstanceSpec,
)
from tests.reference.e2e_scalar import evaluate_reference


def make_testbed(rtt=80.0):
    bed = E2ETestbed(rtt_ms={("A", "B"): rtt})
    bed.add_instance(VnfInstanceSpec("fwA", "A", capacity_mbps=100.0))
    bed.add_instance(VnfInstanceSpec("fwB", "B", capacity_mbps=100.0))
    return bed


class TestConstruction:
    def test_negative_rtt_rejected(self):
        with pytest.raises(E2EError):
            E2ETestbed(rtt_ms={("A", "B"): -1.0})

    def test_route_with_unknown_instance_rejected(self):
        bed = make_testbed()
        with pytest.raises(E2EError):
            bed.add_route(E2ERoute("r", ["A", "B"], ["ghost"], 10.0))

    def test_route_with_missing_rtt_rejected(self):
        bed = make_testbed()
        with pytest.raises(E2EError):
            bed.add_route(E2ERoute("r", ["A", "Z"], [], 10.0))

    def test_zero_capacity_instance_rejected(self):
        with pytest.raises(E2EError):
            VnfInstanceSpec("x", "A", capacity_mbps=0.0)


class TestThroughputAllocation:
    def test_single_route_demand_limited(self):
        bed = make_testbed()
        bed.add_route(E2ERoute("r1", ["A", "A", "B"], ["fwA"], 50.0))
        result = bed.evaluate()
        assert result.routes["r1"].throughput_mbps == pytest.approx(50.0)
        assert result.routes["r1"].bottleneck == "demand"

    def test_single_route_capacity_limited(self):
        bed = make_testbed()
        bed.add_route(E2ERoute("r1", ["A", "A", "B"], ["fwA"], 500.0))
        result = bed.evaluate()
        assert result.routes["r1"].throughput_mbps == pytest.approx(100.0)
        assert result.routes["r1"].bottleneck == "fwA"

    def test_shared_instance_split_fairly(self):
        bed = make_testbed()
        bed.add_route(E2ERoute("r1", ["A", "A", "B"], ["fwA"], 500.0))
        bed.add_route(E2ERoute("r2", ["B", "A", "B"], ["fwA"], 500.0))
        result = bed.evaluate()
        assert result.routes["r1"].throughput_mbps == pytest.approx(50.0)
        assert result.routes["r2"].throughput_mbps == pytest.approx(50.0)

    def test_max_min_fairness_with_unequal_demands(self):
        bed = make_testbed()
        bed.add_route(E2ERoute("small", ["A", "A", "B"], ["fwA"], 20.0))
        bed.add_route(E2ERoute("big", ["B", "A", "B"], ["fwA"], 500.0))
        result = bed.evaluate()
        # Small route gets its demand; big route takes the rest.
        assert result.routes["small"].throughput_mbps == pytest.approx(20.0)
        assert result.routes["big"].throughput_mbps == pytest.approx(80.0)

    def test_distributing_over_both_instances_wins(self):
        # The Figure 11 effect: two routes on one instance halve each
        # other; moving one to the other instance doubles total.
        piled = make_testbed()
        piled.add_route(E2ERoute("r1", ["A", "A", "B"], ["fwA"], 500.0))
        piled.add_route(E2ERoute("r2", ["B", "A", "B"], ["fwA"], 500.0))
        spread = make_testbed()
        spread.add_route(E2ERoute("r1", ["A", "A", "B"], ["fwA"], 500.0))
        spread.add_route(E2ERoute("r2", ["B", "B", "B"], ["fwB"], 500.0))
        assert (
            spread.evaluate().total_throughput_mbps
            == pytest.approx(2 * piled.evaluate().total_throughput_mbps)
        )

    def test_remove_route(self):
        bed = make_testbed()
        bed.add_route(E2ERoute("r1", ["A", "A", "B"], ["fwA"], 500.0))
        bed.remove_route("r1")
        assert bed.evaluate().routes == {}


class TestLatency:
    def test_base_rtt_sums_hops(self):
        bed = make_testbed(rtt=80.0)
        route = E2ERoute("r1", ["A", "B", "A"], ["fwB"], 10.0)
        assert bed.base_rtt(route) == pytest.approx(160.0)

    def test_same_site_hop_free(self):
        bed = make_testbed()
        route = E2ERoute("r1", ["A", "A", "B"], ["fwA"], 10.0)
        assert bed.base_rtt(route) == pytest.approx(80.0)

    def test_queueing_delay_grows_with_utilization(self):
        idle = make_testbed()
        idle.add_route(E2ERoute("r1", ["A", "A", "B"], ["fwA"], 10.0))
        busy = make_testbed()
        busy.add_route(E2ERoute("r1", ["A", "A", "B"], ["fwA"], 500.0))
        assert (
            busy.evaluate().routes["r1"].rtt_ms
            > idle.evaluate().routes["r1"].rtt_ms
        )

    def test_queueing_delay_capped(self):
        bed = E2ETestbed(rtt_ms={("A", "B"): 80.0})
        bed.add_instance(VnfInstanceSpec("fwA", "A", 100.0))
        bed.add_route(E2ERoute("r1", ["A", "A", "B"], ["fwA"], 5000.0))
        rtt = bed.evaluate().routes["r1"].rtt_ms
        assert rtt <= 80.0 + 2 * MAX_QUEUE_MS + 1e-9


class TestTcpModel:
    def test_loss_caps_throughput_via_mathis(self):
        bed = make_testbed(rtt=150.0)
        bed.set_loss("A", "B", 0.01)
        bed.add_route(E2ERoute("r1", ["A", "B", "A"], ["fwB"], 500.0))
        result = bed.evaluate()
        # Mathis over two lossy hops: loss = 1 - 0.99^2, RTT = 300 ms.
        loss = 1 - 0.99**2
        expected = 1.22 * 1460 * 8 / (0.3 * loss**0.5) / 1e6
        assert result.routes["r1"].throughput_mbps == pytest.approx(
            expected, rel=1e-6
        )
        assert result.routes["r1"].bottleneck == "tcp"

    def test_no_loss_no_tcp_cap(self):
        bed = make_testbed()
        route = E2ERoute("r1", ["A", "B"], [], 500.0)
        assert bed.tcp_cap_mbps(route) == float("inf")

    def test_longer_rtt_lowers_tcp_cap(self):
        short = make_testbed(rtt=80.0)
        short.set_loss("A", "B", 0.001)
        long = make_testbed(rtt=150.0)
        long.set_loss("A", "B", 0.001)
        route = E2ERoute("r1", ["A", "B"], [], 500.0)
        assert short.tcp_cap_mbps(route) > long.tcp_cap_mbps(route)

    def test_invalid_loss_rejected(self):
        bed = make_testbed()
        with pytest.raises(E2EError):
            bed.set_loss("A", "B", 1.5)


class TestAggregates:
    def test_mean_rtt_weighted_by_throughput(self):
        bed = make_testbed(rtt=80.0)
        bed.add_route(E2ERoute("near", ["A", "A", "A"], ["fwA"], 60.0))
        bed.add_route(E2ERoute("far", ["A", "B", "A"], ["fwB"], 20.0))
        result = bed.evaluate()
        near_rtt = result.routes["near"].rtt_ms
        far_rtt = result.routes["far"].rtt_ms
        expected = (60 * near_rtt + 20 * far_rtt) / 80
        assert result.mean_rtt_ms == pytest.approx(expected)

    def test_empty_testbed_evaluates(self):
        bed = make_testbed()
        result = bed.evaluate()
        assert result.total_throughput_mbps == 0.0


class TestResidualDrift:
    def _drift_testbed(self):
        # 0.01 / 3 subtracted three times overshoots 0.01 by one ulp, so
        # the unclamped allocator reported residual == -8.7e-19 and
        # utilization > 1.0 for the shared instance.
        bed = E2ETestbed(rtt_ms={("A", "B"): 80.0})
        bed.add_instance(VnfInstanceSpec("shared", "A", capacity_mbps=0.01))
        for i in range(3):
            bed.add_route(E2ERoute(f"r{i}", ["A", "B"], ["shared"], 1.0))
        return bed

    def test_utilization_never_exceeds_one(self):
        result = self._drift_testbed().evaluate()
        assert result.utilization["shared"] <= 1.0
        assert result.utilization["shared"] == pytest.approx(1.0)

    def test_reference_allocator_also_clamps(self):
        result = evaluate_reference(self._drift_testbed())
        assert result.utilization["shared"] <= 1.0

    def test_drift_case_splits_capacity_fairly(self):
        result = self._drift_testbed().evaluate()
        for i in range(3):
            assert result.routes[f"r{i}"].throughput_mbps == pytest.approx(
                0.01 / 3
            )
            assert result.routes[f"r{i}"].bottleneck == "shared"

    def test_utilization_reported_in_result(self):
        bed = make_testbed()
        bed.add_route(E2ERoute("r", ["A", "B"], ["fwA"], 50.0))
        result = bed.evaluate()
        assert result.utilization["fwA"] == pytest.approx(0.5)
        assert result.utilization["fwB"] == 0.0
