"""Tests for the header-overhead comparison and the data-plane auditor."""

import random

import pytest

from repro.dataplane.headers import (
    HeaderModelError,
    compare_overheads,
    nsh_overhead_bytes,
    srv6_overhead_bytes,
    switchboard_overhead_bytes,
)


class TestHeaderOverheads:
    def test_switchboard_constant_in_chain_length(self):
        # The Section 8 claim: label switching "remains low even for
        # longer chains".
        values = {switchboard_overhead_bytes(n) for n in range(1, 12)}
        assert len(values) == 1

    def test_srv6_linear_in_chain_length(self):
        deltas = [
            srv6_overhead_bytes(n + 1) - srv6_overhead_bytes(n)
            for n in range(1, 10)
        ]
        assert all(d == 16 for d in deltas)  # one segment per VNF

    def test_switchboard_beats_srv6_for_long_chains(self):
        for n in range(1, 12):
            assert switchboard_overhead_bytes(n) < srv6_overhead_bytes(n)

    def test_nsh_md1_constant_md2_grows(self):
        assert nsh_overhead_bytes(3, md_type=1) == nsh_overhead_bytes(9, 1)
        assert nsh_overhead_bytes(9, md_type=2) > nsh_overhead_bytes(3, 2)

    def test_known_wire_sizes(self):
        # VXLAN (20+8+8) + 2 MPLS labels (8) = 44 bytes.
        assert switchboard_overhead_bytes(5) == 44
        # IPv6 (40) + SRH (8) + 5 segments (80) = 128 bytes.
        assert srv6_overhead_bytes(5) == 128

    def test_efficiency_ordering_small_packets(self):
        comparison = compare_overheads(5)
        eff = comparison.efficiency(payload_bytes=64)
        assert eff["switchboard"] > eff["nsh"] > eff["srv6"]

    def test_invalid_inputs(self):
        with pytest.raises(HeaderModelError):
            switchboard_overhead_bytes(-1)
        with pytest.raises(HeaderModelError):
            nsh_overhead_bytes(3, md_type=7)
        with pytest.raises(HeaderModelError):
            compare_overheads(3).efficiency(0)


# ---------------------------------------------------------------------------
# Auditor
# ---------------------------------------------------------------------------

from repro.controller import (  # noqa: E402
    ChainSpecification,
    GlobalSwitchboard,
    LocalSwitchboard,
)
from repro.controller.audit import audit_chain, audit_deployment  # noqa: E402
from repro.core.model import CloudSite, NetworkModel, VNF  # noqa: E402
from repro.dataplane import DataPlane  # noqa: E402
from repro.edge import EdgeController, EdgeInstance  # noqa: E402
from repro.vnf import VnfService  # noqa: E402


def build_deployment(fw_caps):
    nodes = ["a", "b", "c"]
    latency = {("a", "b"): 10.0, ("a", "c"): 30.0, ("b", "c"): 15.0}
    sites = [CloudSite(s, s.lower(), 1000.0) for s in ("A", "B", "C")]
    vnfs = [VNF("fw", 1.0, dict(fw_caps))]
    model = NetworkModel(nodes, latency, sites, vnfs)
    dp = DataPlane(random.Random(6))
    gs = GlobalSwitchboard(model, dp)
    for site in ("A", "B", "C"):
        gs.register_local_switchboard(LocalSwitchboard(site, dp))
    gs.register_vnf_service(VnfService("fw", 1.0, dict(fw_caps)))
    edge = EdgeController("vpn")
    edge.register_instance(EdgeInstance("edge.A", "A", dp))
    edge.register_instance(EdgeInstance("edge.C", "C", dp))
    edge.register_attachment("in", "A")
    edge.register_attachment("out", "C")
    gs.register_edge_service(edge)
    return gs


def spec(name="corp", demand=10.0):
    return ChainSpecification(
        name, "vpn", "in", "out", ["fw"],
        forward_demand=demand,
        src_prefix="10.0.0.0/24",
        dst_prefixes=["20.0.0.0/24"],
    )


class TestAuditor:
    def test_clean_deployment_has_no_findings(self):
        gs = build_deployment({"A": 12.0, "B": 12.0})
        gs.create_chain(spec())
        assert audit_deployment(gs) == []

    def test_split_route_audits_clean(self):
        gs = build_deployment({"A": 12.0, "B": 12.0})
        gs.create_chain(spec(demand=10.0))  # forces an A/B split
        assert audit_chain(gs, "corp") == []

    def test_uninstalled_chain_reported(self):
        gs = build_deployment({"B": 50.0})
        assert audit_chain(gs, "ghost") == ["chain 'ghost' is not installed"]

    def test_missing_ingress_rule_detected(self):
        gs = build_deployment({"B": 50.0})
        installation = gs.create_chain(spec())
        edge_fwd = gs.local_switchboard("A").edge_forwarder()
        edge_fwd.remove_rule(installation.label, installation.egress_site)
        findings = audit_chain(gs, "corp")
        assert any("no ingress rule" in f for f in findings)

    def test_wrong_split_detected(self):
        gs = build_deployment({"A": 12.0, "B": 12.0})
        installation = gs.create_chain(spec(demand=10.0))
        edge_fwd = gs.local_switchboard("A").edge_forwarder()
        rule = edge_fwd.rules[(installation.label, "C")]
        # An operator fat-fingers the weights to 50/50.
        for target in rule.next_forwarders.targets:
            rule.next_forwarders.set_weight(target, 1.0)
        findings = audit_chain(gs, "corp")
        assert any("TE intends" in f for f in findings)

    def test_detached_instance_detected(self):
        gs = build_deployment({"B": 50.0})
        service = gs.vnf_services["fw"]
        extra = service.scale_out("B")
        gs.local_switchboard("B").assign_instance(extra)
        gs.create_chain(spec())
        local = gs.local_switchboard("B")
        serving = local.forwarders_for_service("fw")[0]
        # Detach one of the two instances the rule references.
        instance_name = next(iter(serving.attached))
        serving.attached.pop(instance_name, None)
        findings = audit_chain(gs, "corp")
        assert any("detached instances" in f for f in findings)

    def test_missing_vnf_rule_detected(self):
        gs = build_deployment({"B": 50.0})
        installation = gs.create_chain(spec())
        local = gs.local_switchboard("B")
        for fwd in local.forwarders:
            fwd.remove_rule(installation.label, installation.egress_site)
        findings = audit_chain(gs, "corp")
        assert any("no rule for VNF" in f for f in findings)

    def test_stale_rules_detected_after_sloppy_teardown(self):
        gs = build_deployment({"B": 50.0})
        gs.create_chain(spec())
        # Simulate a teardown that forgets the data plane.
        gs.router.rollback("corp")
        gs.labels.release("corp")
        gs.model.remove_chain("corp")
        del gs.installations["corp"]
        findings = audit_deployment(gs)
        assert any("stale rule" in f for f in findings)

    def test_clean_after_proper_teardown(self):
        gs = build_deployment({"B": 50.0})
        gs.create_chain(spec())
        gs.remove_chain("corp")
        assert audit_deployment(gs) == []
