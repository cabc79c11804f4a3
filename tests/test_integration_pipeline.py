"""Whole-pipeline integration: TE solution -> compiled rules -> packets.

These tests close the loop the paper's architecture promises: the
traffic-engineering fractions computed by Global Switchboard must be
what the data plane actually *does* to connections, via the hierarchical
load-balancing rules compiled by the Local Switchboards.
"""

import random
from collections import Counter

import pytest

from repro.controller import (
    ChainSpecification,
    GlobalSwitchboard,
    LocalSwitchboard,
)
from repro.core.model import CloudSite, NetworkModel, VNF
from repro.dataplane import DataPlane, FiveTuple, Packet
from repro.edge import EdgeController, EdgeInstance
from repro.vnf import VnfService


def build_deployment(fw_caps, nat_caps=None, forwarders_per_site=1):
    nodes = ["a", "b", "c"]
    latency = {("a", "b"): 10.0, ("a", "c"): 30.0, ("b", "c"): 15.0}
    sites = [
        CloudSite("A", "a", 1000.0),
        CloudSite("B", "b", 1000.0),
        CloudSite("C", "c", 1000.0),
    ]
    vnfs = [VNF("fw", 1.0, dict(fw_caps))]
    if nat_caps:
        vnfs.append(VNF("nat", 0.5, dict(nat_caps)))
    model = NetworkModel(nodes, latency, sites, vnfs)
    dp = DataPlane(random.Random(77))
    gs = GlobalSwitchboard(model, dp)
    for site in ("A", "B", "C"):
        local = LocalSwitchboard(site, dp)
        local.scale_forwarders(forwarders_per_site - 1)
        gs.register_local_switchboard(local)
    gs.register_vnf_service(VnfService("fw", 1.0, dict(fw_caps)))
    if nat_caps:
        gs.register_vnf_service(VnfService("nat", 0.5, dict(nat_caps)))
    edge = EdgeController("vpn")
    ingress = EdgeInstance("edge.A", "A", dp)
    egress = EdgeInstance("edge.C", "C", dp)
    edge.register_instance(ingress)
    edge.register_instance(egress)
    edge.register_attachment("in", "A")
    edge.register_attachment("out", "C")
    gs.register_edge_service(edge)
    egress.attach_forwarder(gs.local_switchboard("C").forwarders[0].name)
    return gs, dp, ingress, egress


def inject_flows(ingress, n, dst="20.0.0"):
    packets = []
    for i in range(n):
        packet = Packet(
            FiveTuple(f"10.0.{i // 250}.{i % 250 + 1}", f"{dst}.9",
                      "tcp", 1024 + i, 80)
        )
        ingress.ingress(packet)
        packets.append(packet)
    return packets


class TestRuleCompilationRealizesTeFractions:
    def test_split_route_splits_connections_proportionally(self):
        # fw capacity forces roughly a 50/50 split between A and B.
        gs, _dp, ingress, egress = build_deployment(
            {"A": 12.0, "B": 12.0}
        )
        gs.create_chain(
            ChainSpecification(
                "corp", "vpn", "in", "out", ["fw"],
                forward_demand=10.0, dst_prefixes=["20.0.0.0/24"],
            )
        )
        fractions = {
            dst: frac
            for (_s, dst), frac in gs.router.solution.stage_flows("corp", 1).items()
        }
        # B (lower latency: 10+15 vs 0+30) fills first at 0.6, the
        # remainder overflows to A.
        assert fractions == pytest.approx({"A": 0.4, "B": 0.6}, abs=0.01)

        packets = inject_flows(ingress, 600)
        assert len(egress.delivered) == 600
        sites = Counter(
            next(e for e in p.trace if e.startswith("fw.")).split(".")[1]
            for p in packets
        )
        for site, frac in fractions.items():
            observed = sites[site] / 600
            assert observed == pytest.approx(frac, abs=0.07)

    def test_single_site_route_sends_everything_there(self):
        gs, _dp, ingress, egress = build_deployment({"B": 100.0})
        gs.create_chain(
            ChainSpecification(
                "corp", "vpn", "in", "out", ["fw"],
                forward_demand=5.0, dst_prefixes=["20.0.0.0/24"],
            )
        )
        packets = inject_flows(ingress, 50)
        assert len(egress.delivered) == 50
        assert all(any(e.startswith("fw.B.") for e in p.trace) for p in packets)

    def test_multiple_forwarders_per_site_share_load(self):
        gs, _dp, ingress, egress = build_deployment(
            {"B": 100.0}, forwarders_per_site=2
        )
        service = gs.vnf_services["fw"]
        service.scale_out("B")  # two instances -> both forwarders used
        gs.create_chain(
            ChainSpecification(
                "corp", "vpn", "in", "out", ["fw"],
                forward_demand=5.0, dst_prefixes=["20.0.0.0/24"],
            )
        )
        packets = inject_flows(ingress, 300)
        forwarders = Counter(
            next(e for e in p.trace if e.startswith("fwd.B"))
            for p in packets
        )
        assert len(forwarders) == 2
        smaller = min(forwarders.values())
        assert smaller > 0.3 * 300  # roughly even split


class TestMultiVnfPipeline:
    def make_two_vnf(self):
        gs, dp, ingress, egress = build_deployment(
            fw_caps={"A": 100.0, "B": 100.0},
            nat_caps={"B": 100.0, "C": 100.0},
        )
        gs.create_chain(
            ChainSpecification(
                "corp", "vpn", "in", "out", ["fw", "nat"],
                forward_demand=5.0, reverse_demand=1.0,
                dst_prefixes=["20.0.0.0/24"],
            )
        )
        return gs, dp, ingress, egress

    def test_conformity_for_every_connection(self):
        _gs, _dp, ingress, egress = self.make_two_vnf()
        packets = inject_flows(ingress, 100)
        assert len(egress.delivered) == 100
        for packet in packets:
            fw_pos = next(
                i for i, e in enumerate(packet.trace) if e.startswith("fw.")
            )
            nat_pos = next(
                i for i, e in enumerate(packet.trace) if e.startswith("nat.")
            )
            assert fw_pos < nat_pos, packet.trace

    def test_symmetric_return_for_sampled_connections(self):
        _gs, _dp, ingress, egress = self.make_two_vnf()
        packets = inject_flows(ingress, 40)
        for packet in packets[::5]:
            fwd_instances = [
                e for e in packet.trace
                if e.startswith(("fw.", "nat."))
            ]
            rev = Packet(packet.flow.reversed())
            egress.send_reverse(rev)
            rev_instances = [
                e for e in rev.trace if e.startswith(("fw.", "nat."))
            ]
            assert rev_instances == list(reversed(fwd_instances))
            assert rev.trace[-1] == "edge.A"

    def test_flow_affinity_under_sustained_traffic(self):
        _gs, _dp, ingress, _egress = self.make_two_vnf()
        first = inject_flows(ingress, 30)
        again = inject_flows(ingress, 30)
        for p1, p2 in zip(first, again):
            assert p1.trace == p2.trace


class TestMultiTenancy:
    def test_two_chains_share_vnf_instances(self):
        """Section 7.2: the service-oriented design lets one VNF instance
        serve multiple chains (unlike per-chain-siloed designs)."""
        gs, _dp, ingress, egress = build_deployment({"B": 100.0})
        gs.create_chain(
            ChainSpecification(
                "chain1", "vpn", "in", "out", ["fw"],
                forward_demand=3.0, src_prefix="10.0.0.0/16",
                dst_prefixes=["20.0.0.0/24"],
            )
        )
        gs.create_chain(
            ChainSpecification(
                "chain2", "vpn", "in", "out", ["fw"],
                forward_demand=3.0, src_prefix="10.1.0.0/16",
                dst_prefixes=["20.0.1.0/24"],
            )
        )
        service = gs.vnf_services["fw"]
        assert len(service.instances_at("B")) == 1  # one shared instance
        p1 = Packet(FiveTuple("10.0.0.5", "20.0.0.9", "tcp", 1111, 80))
        p2 = Packet(FiveTuple("10.1.0.5", "20.0.1.9", "tcp", 2222, 80))
        ingress.ingress(p1)
        ingress.ingress(p2)
        instance = service.instances_at("B")[0]
        assert instance.name in p1.trace and instance.name in p2.trace
        assert len(egress.delivered) == 2

    def test_chains_carry_distinct_labels(self):
        gs, _dp, _ingress, _egress = build_deployment({"B": 100.0})
        i1 = gs.create_chain(
            ChainSpecification(
                "chain1", "vpn", "in", "out", ["fw"],
                forward_demand=3.0, dst_prefixes=["20.0.0.0/24"],
            )
        )
        i2 = gs.create_chain(
            ChainSpecification(
                "chain2", "vpn", "in", "out", ["fw"],
                forward_demand=3.0, dst_prefixes=["20.0.1.0/24"],
            )
        )
        assert i1.label != i2.label
        # Removing chain1 leaves chain2's rules untouched.
        gs.remove_chain("chain1")
        local_b = gs.local_switchboard("B")
        assert any(
            (i2.label, "C") in fwd.rules for fwd in local_b.forwarders
        )
        assert not any(
            (i1.label, "C") in fwd.rules for fwd in local_b.forwarders
        )
