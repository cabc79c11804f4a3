"""Tests for forwarder traffic counters and demand estimation."""

import random

import pytest

from repro.dataplane.forwarder import DataPlane, Forwarder
from repro.dataplane.labels import FiveTuple, Labels, Packet
from repro.dataplane.measurement import (
    FACTOR_FLOOR,
    DemandEstimator,
    MeasurementError,
    chain_byte_counts,
)
from repro.dataplane.rules import LoadBalancingRule, WeightedChoice

LBL = Labels(chain=1, egress_site="E")


class Sink:
    name = "out"

    def receive_from_chain(self, packet, came_from):
        pass


def build_line():
    """Two-forwarder line: f1 -> f2 -> sink."""
    dp = DataPlane(random.Random(0))
    f1 = dp.add_forwarder(Forwarder("f1", "A"))
    f2 = dp.add_forwarder(Forwarder("f2", "B"))
    dp.add_endpoint(Sink())
    f1.install_rule(
        1, "E", LoadBalancingRule(next_forwarders=WeightedChoice({"f2": 1.0}))
    )
    f2.install_rule(
        1, "E", LoadBalancingRule(next_forwarders=WeightedChoice({"out": 1.0}))
    )
    return dp, f1, f2


def send(dp, n, size=500, start_port=1000):
    for i in range(n):
        packet = Packet(
            FiveTuple("10.0.0.1", "20.0.0.1", "tcp", start_port + i, 80),
            labels=LBL,
            size_bytes=size,
        )
        dp.send_forward(packet, "f1", "edge")


class TestForwarderCounters:
    def test_counts_bytes_per_chain_and_direction(self):
        dp, f1, _f2 = build_line()
        send(dp, 4, size=500)
        assert f1.traffic_bytes[(1, "E", "forward")] == 2000

    def test_every_hop_counts_the_packet(self):
        dp, f1, f2 = build_line()
        send(dp, 3, size=100)
        assert f1.traffic_bytes[(1, "E", "forward")] == 300
        assert f2.traffic_bytes[(1, "E", "forward")] == 300

    def test_chains_counted_separately(self):
        dp, f1, f2 = build_line()
        f1.install_rule(
            2, "E",
            LoadBalancingRule(next_forwarders=WeightedChoice({"f2": 1.0})),
        )
        f2.install_rule(
            2, "E",
            LoadBalancingRule(next_forwarders=WeightedChoice({"out": 1.0})),
        )
        send(dp, 2, size=100)
        packet = Packet(
            FiveTuple("10.0.0.2", "20.0.0.1", "tcp", 5000, 80),
            labels=Labels(2, "E"),
            size_bytes=700,
        )
        dp.send_forward(packet, "f1", "edge")
        assert f1.traffic_bytes[(1, "E", "forward")] == 200
        assert f1.traffic_bytes[(2, "E", "forward")] == 700

    def test_chain_byte_counts_uses_max_not_sum(self):
        dp, f1, f2 = build_line()
        send(dp, 4, size=250)
        counts = chain_byte_counts([f1, f2], 1)
        assert counts["forward"] == 1000  # not 2000


class TestDemandEstimator:
    def test_first_epoch_seeds_rate(self):
        dp, f1, f2 = build_line()
        send(dp, 10, size=100)
        estimator = DemandEstimator(alpha=0.5)
        estimates = estimator.observe([f1, f2], [1], epoch_seconds=2.0)
        assert estimates[1].forward_rate == pytest.approx(500.0)

    def test_ewma_smooths_changes(self):
        dp, f1, f2 = build_line()
        estimator = DemandEstimator(alpha=0.5)
        send(dp, 10, size=100)  # 1000 B
        estimator.observe([f1, f2], [1], epoch_seconds=1.0)
        send(dp, 30, size=100, start_port=5000)  # 3000 B this epoch
        estimates = estimator.observe([f1, f2], [1], epoch_seconds=1.0)
        # EWMA: 1000 + 0.5 * (3000 - 1000) = 2000.
        assert estimates[1].forward_rate == pytest.approx(2000.0)

    def test_idle_epoch_decays_estimate(self):
        dp, f1, f2 = build_line()
        estimator = DemandEstimator(alpha=0.5)
        send(dp, 10, size=100)
        estimator.observe([f1, f2], [1], epoch_seconds=1.0)
        estimates = estimator.observe([f1, f2], [1], epoch_seconds=1.0)
        assert estimates[1].forward_rate == pytest.approx(500.0)

    def test_demand_factors_relative_to_installed(self):
        dp, f1, f2 = build_line()
        estimator = DemandEstimator()
        send(dp, 10, size=100)
        estimator.observe([f1, f2], [1], epoch_seconds=1.0)
        factors = estimator.demand_factors({"corp": (1, 2000.0)})
        assert factors["corp"] == pytest.approx(0.5)

    def test_factor_floor(self):
        estimator = DemandEstimator()
        estimator.estimates[1] = __import__(
            "repro.dataplane.measurement", fromlist=["DemandEstimate"]
        ).DemandEstimate(forward_rate=0.0)
        factors = estimator.demand_factors({"corp": (1, 100.0)})
        assert factors["corp"] == FACTOR_FLOOR

    def test_unknown_label_skipped(self):
        estimator = DemandEstimator()
        assert estimator.demand_factors({"corp": (9, 100.0)}) == {}

    def test_invalid_parameters(self):
        with pytest.raises(MeasurementError):
            DemandEstimator(alpha=0.0)
        estimator = DemandEstimator()
        with pytest.raises(MeasurementError):
            estimator.observe([], [1], epoch_seconds=0.0)
        with pytest.raises(MeasurementError):
            estimator.demand_factors({"corp": (1, 0.0)})


class TestMeasureReoptimizeLoop:
    def test_end_to_end_loop(self):
        """Counters -> estimator -> factors -> reoptimize."""
        from repro.controller import (
            ChainSpecification,
            GlobalSwitchboard,
            LocalSwitchboard,
            reoptimize,
        )
        from repro.core.model import CloudSite, NetworkModel, VNF
        from repro.edge import EdgeController, EdgeInstance
        from repro.vnf import VnfService

        nodes = ["a", "b"]
        model = NetworkModel(
            nodes,
            {("a", "b"): 10.0},
            [CloudSite("A", "a", 100.0), CloudSite("B", "b", 100.0)],
            [VNF("fw", 1.0, {"B": 50.0})],
        )
        dp = DataPlane(random.Random(1))
        gs = GlobalSwitchboard(model, dp)
        for site in ("A", "B"):
            gs.register_local_switchboard(LocalSwitchboard(site, dp))
        gs.register_vnf_service(VnfService("fw", 1.0, {"B": 50.0}))
        edge = EdgeController("vpn")
        ingress = EdgeInstance("edge.A", "A", dp)
        egress = EdgeInstance("edge.B", "B", dp)
        edge.register_instance(ingress)
        edge.register_instance(egress)
        edge.register_attachment("in", "A")
        edge.register_attachment("out", "B")
        gs.register_edge_service(edge)

        installation = gs.create_chain(
            ChainSpecification(
                "corp", "vpn", "in", "out", ["fw"],
                forward_demand=1000.0,  # installed estimate: 1000 B/s
                src_prefix="10.0.0.0/24", dst_prefixes=["20.0.0.0/24"],
            )
        )
        # Measured traffic: 2000 B over a 1-second epoch = 2x installed.
        for i in range(4):
            packet = Packet(
                FiveTuple("10.0.0.5", "20.0.0.9", "tcp", 3000 + i, 80),
                size_bytes=500,
            )
            ingress.ingress(packet)
        estimator = DemandEstimator()
        estimator.observe(
            list(dp.forwarders.values()), [installation.label], 1.0
        )
        factors = estimator.demand_factors(
            {"corp": (installation.label, 1000.0)}
        )
        assert factors["corp"] == pytest.approx(2.0)
        report = reoptimize(gs, factors)
        assert report.rerouted == ["corp"]
        assert gs.model.chains["corp"].forward_traffic[0] == pytest.approx(
            2000.0
        )
