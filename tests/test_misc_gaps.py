"""Gap-filling tests for small API surfaces not covered elsewhere."""

import math

import pytest

from repro.bus.bus import BusStats, Delivery
from repro.dataplane.labels import FiveTuple, Labels
from repro.topology.backbone import build_backbone
from repro.topology.cities import DEFAULT_CITIES
from repro.topology.traffic import TrafficMatrix, gravity_traffic_matrix

LBL = Labels(chain=1, egress_site="E")


class TestBusStats:
    def test_empty_latencies_are_nan(self):
        stats = BusStats()
        assert math.isnan(stats.mean_latency())
        assert math.isnan(stats.p99_latency())

    def test_p99_with_few_samples(self):
        stats = BusStats()
        for latency in (0.010, 0.020, 0.030):
            stats.deliveries.append(Delivery("/t", "s", 0.0, latency))
        assert stats.p99_latency() == 0.030

    def test_delivery_latency(self):
        delivery = Delivery("/t", "s", published_at=1.0, delivered_at=1.25)
        assert delivery.latency == pytest.approx(0.25)


class TestBackboneAccessors:
    def test_link_lookup_by_name(self):
        backbone = build_backbone(DEFAULT_CITIES[:6])
        first = backbone.links[0]
        assert backbone.link(first.name) is first
        with pytest.raises(KeyError):
            backbone.link("no-such-link")

    def test_nodes_match_cities(self):
        cities = DEFAULT_CITIES[:6]
        backbone = build_backbone(cities)
        assert backbone.nodes == [c.name for c in cities]


class TestTrafficMatrixOps:
    def test_scaled(self):
        matrix = gravity_traffic_matrix(DEFAULT_CITIES[:5], 100.0)
        doubled = matrix.scaled(2.0)
        assert doubled.total() == pytest.approx(200.0)
        assert matrix.total() == pytest.approx(100.0)  # original intact

    def test_row_sum_of_absent_node(self):
        matrix = TrafficMatrix(["x"], {})
        assert matrix.row_sum("x") == 0.0

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            gravity_traffic_matrix(DEFAULT_CITIES[:3], -1.0)


class TestCliLpPath:
    def test_route_lp_scheme(self, capsys):
        from repro.cli import main

        assert main([
            "route", "--chains", "4", "--cities", "6", "--scheme", "lp",
            "--traffic", "500", "--site-capacity", "2000",
        ]) == 0
        out = capsys.readouterr().out
        assert "SB-LP" in out


class TestPacketDefaults:
    def test_default_size_is_500_bytes(self):
        from repro.dataplane.labels import Packet

        packet = Packet(FiveTuple("1.1.1.1", "2.2.2.2", "tcp", 1, 2))
        assert packet.size_bytes == 500  # the paper's average packet size
