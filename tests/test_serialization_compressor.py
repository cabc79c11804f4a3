"""Tests for the chain-specification document and the compressor VNF
(per-stage demands)."""

import json

import pytest

from repro.controller.chainspec import (
    ChainSpecification,
    SpecError,
    spec_from_dict,
    spec_to_dict,
)
from repro.core.dp import route_chains_dp
from repro.core.lp import LpObjective, solve_chain_routing_lp
from repro.core.model import Chain, CloudSite, Link, NetworkModel, VNF
from repro.core.serialization import SerializationError
from repro.dataplane.labels import FiveTuple, Packet
from repro.vnf.compressor import (
    Compressor,
    CompressorError,
    compressed_stage_demands,
)


def full_model() -> NetworkModel:
    links = [Link("ab", "a", "b", 100.0, background=3.0),
             Link("ba", "b", "a", 100.0)]
    routing = {("a", "b"): {"ab": 1.0}, ("b", "a"): {"ba": 1.0}}
    return NetworkModel(
        ["a", "b"],
        {("a", "b"): 12.5},
        [CloudSite("A", "a", 50.0), CloudSite("B", "b", 75.0)],
        [VNF("fw", 1.5, {"A": 20.0, "B": 30.0})],
        [Chain("c1", "a", "b", ["fw"], [4.0, 2.0], [1.0, 0.5])],
        links,
        routing,
        mlu_limit=0.9,
    )


class TestSpecSerialization:
    def test_round_trip(self):
        spec = ChainSpecification(
            "corp", "vpn", "in", "out", ["fw", "nat"],
            forward_demand=5.0, reverse_demand=2.0,
            src_prefix="10.0.0.0/24", dst_prefixes=["20.0.0.0/24"],
            protocol="tcp", dst_port_range=(80, 443),
        )
        restored = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert restored == spec

    def test_optional_fields_default(self):
        minimal = {
            "schema_version": 1, "name": "c", "edge_service": "vpn",
            "ingress_attachment": "i", "egress_attachment": "e",
            "vnf_services": ["fw"],
        }
        spec = spec_from_dict(minimal)
        assert spec.forward_demand == 1.0
        assert spec.dst_port_range is None

    def test_malformed_rejected(self):
        with pytest.raises(SerializationError):
            spec_from_dict({"schema_version": 1})

    @pytest.mark.parametrize("token", ["NaN", "Infinity"])
    def test_non_finite_demand_rejected(self, token):
        document = {
            "schema_version": 1, "name": "c", "edge_service": "vpn",
            "ingress_attachment": "i", "egress_attachment": "e",
            "vnf_services": ["fw"], "forward_demand": float(token),
        }
        with pytest.raises(SpecError):
            spec_from_dict(document)

    def test_wrong_schema_version_rejected(self):
        document = spec_to_dict(ChainSpecification("c", "vpn", "i", "e", ["fw"]))
        document["schema_version"] = 99
        with pytest.raises(SerializationError):
            spec_from_dict(document)


class TestCompressorVnf:
    def test_forward_compression(self):
        compressor = Compressor(0.5)
        packet = Packet(
            FiveTuple("10.0.0.1", "20.0.0.1", "tcp", 1, 80), size_bytes=1000
        )
        compressor(packet)
        assert packet.size_bytes == 500

    def test_reverse_decompression(self):
        compressor = Compressor(0.5)
        packet = Packet(
            FiveTuple("20.0.0.1", "10.0.0.1", "tcp", 80, 1),
            direction="reverse",
            size_bytes=500,
        )
        compressor(packet)
        assert packet.size_bytes == 1000

    def test_header_floor(self):
        compressor = Compressor(0.1)
        packet = Packet(
            FiveTuple("10.0.0.1", "20.0.0.1", "tcp", 1, 80), size_bytes=64
        )
        compressor(packet)
        assert packet.size_bytes == 40

    def test_savings_tracked(self):
        compressor = Compressor(0.25)
        for i in range(4):
            compressor(
                Packet(
                    FiveTuple("10.0.0.1", "20.0.0.1", "tcp", i, 80),
                    size_bytes=1000,
                )
            )
        assert compressor.savings == pytest.approx(0.75)

    def test_invalid_ratio(self):
        with pytest.raises(CompressorError):
            Compressor(0.0)
        with pytest.raises(CompressorError):
            Compressor(1.5)


class TestStageVaryingDemands:
    def test_demand_helper_applies_ratios_cumulatively(self):
        forward, reverse = compressed_stage_demands(
            10.0, 2.0, [None, 0.5, 0.4]
        )
        assert forward == pytest.approx([10.0, 10.0, 5.0, 2.0])
        assert reverse == pytest.approx([2.0, 2.0, 1.0, 0.4])

    def make_compressing_model(self):
        """fw -> wanopt(0.5) chain: the last stage carries half the bytes."""
        forward, reverse = compressed_stage_demands(10.0, 0.0, [None, 0.5])
        nodes = ["a", "b", "c"]
        latency = {("a", "b"): 5.0, ("a", "c"): 20.0, ("b", "c"): 15.0}
        sites = [CloudSite("B", "b", 1000.0)]
        vnfs = [
            VNF("fw", 1.0, {"B": 500.0}),
            VNF("wanopt", 1.0, {"B": 500.0}),
        ]
        chains = [Chain("c1", "a", "c", ["fw", "wanopt"], forward, reverse)]
        links = [
            Link("ab", "a", "b", 100.0), Link("ba", "b", "a", 100.0),
            Link("bc", "b", "c", 100.0), Link("cb", "c", "b", 100.0),
        ]
        routing = {
            ("a", "b"): {"ab": 1.0}, ("b", "a"): {"ba": 1.0},
            ("b", "c"): {"bc": 1.0}, ("c", "b"): {"cb": 1.0},
        }
        return NetworkModel(nodes, latency, sites, vnfs, chains,
                            links, routing)

    def test_te_sees_reduced_downstream_link_load(self):
        model = self.make_compressing_model()
        result = route_chains_dp(model)
        assert result.fully_routed
        traffic = result.solution.link_traffic()
        # Upstream of the compressor: 10 units; downstream: 5.
        assert traffic["ab"] == pytest.approx(10.0)
        assert traffic["bc"] == pytest.approx(5.0)

    def test_lp_handles_stage_varying_demands(self):
        model = self.make_compressing_model()
        result = solve_chain_routing_lp(model, LpObjective.MIN_LATENCY)
        assert result.ok
        result.solution.validate()
        # Weighted latency counts the thinner last stage at half weight:
        # 10 * 5 (a->B) + 10 * 0 (B->B) + 5 * 15 (B->c).
        assert result.objective == pytest.approx(10 * 5 + 5 * 15)
