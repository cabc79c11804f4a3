"""Integration tests for the Global/Local Switchboard control plane."""

import random

import pytest

from repro.controller import (
    ChainSpecification,
    GlobalSwitchboard,
    InstallationError,
    LocalSwitchboard,
)
from repro.controller.timing import (
    PAPER_ROUTE_UPDATE_MS,
    PAPER_TABLE2_MS,
    simulate_chain_route_update,
    simulate_edge_site_addition,
)
from repro.core.model import CloudSite, NetworkModel, VNF
from repro.dataplane import DataPlane, FiveTuple, Packet
from repro.edge import EdgeController, EdgeInstance
from repro.vnf import StatefulFirewall, VnfService


def build_deployment(fw_cap_a=40.0, fw_cap_b=40.0):
    """A three-site deployment with a firewall service at A and B."""
    nodes = ["a", "b", "c"]
    latency = {("a", "b"): 10.0, ("a", "c"): 30.0, ("b", "c"): 15.0}
    sites = [
        CloudSite("A", "a", 100.0),
        CloudSite("B", "b", 100.0),
        CloudSite("C", "c", 100.0),
    ]
    vnfs = [VNF("firewall", 1.0, {"A": fw_cap_a, "B": fw_cap_b})]
    model = NetworkModel(nodes, latency, sites, vnfs)

    dp = DataPlane(random.Random(11))
    gs = GlobalSwitchboard(model, dp)
    for site in ("A", "B", "C"):
        gs.register_local_switchboard(LocalSwitchboard(site, dp))

    service = VnfService(
        "firewall",
        1.0,
        {"A": fw_cap_a, "B": fw_cap_b},
        instance_factory=lambda n, s: StatefulFirewall(default_allow=True),
    )
    gs.register_vnf_service(service)

    edge = EdgeController("vpn")
    ingress = EdgeInstance("edge.A", "A", dp)
    egress = EdgeInstance("edge.C", "C", dp)
    edge.register_instance(ingress)
    edge.register_instance(egress)
    edge.register_attachment("office-1", "A")
    edge.register_attachment("office-2", "C")
    gs.register_edge_service(edge)
    egress.attach_forwarder(gs.local_switchboard("C").forwarders[0].name)
    return gs, dp, service, edge, ingress, egress


def spec(name="corp", demand=5.0, dst="20.0.0.0/24"):
    return ChainSpecification(
        name,
        "vpn",
        "office-1",
        "office-2",
        ["firewall"],
        forward_demand=demand,
        reverse_demand=demand / 5,
        src_prefix="10.0.0.0/24",
        dst_prefixes=[dst],
    )


def send_packet(ingress, i=0):
    packet = Packet(FiveTuple("10.0.0.5", "20.0.0.9", "tcp", 1000 + i, 80))
    ingress.ingress(packet)
    return packet


class TestChainCreation:
    def test_create_chain_routes_fully(self):
        gs, *_ = build_deployment()
        installation = gs.create_chain(spec())
        assert installation.routed_fraction == pytest.approx(1.0)
        assert installation.ingress_site == "A"
        assert installation.egress_site == "C"

    def test_capacity_committed_at_vnf_service(self):
        gs, _dp, service, *_ = build_deployment()
        installation = gs.create_chain(spec(demand=5.0))
        total = sum(installation.committed_load.values())
        # load = l_f * (w+v) * 2 directions of traversal = 1*(6)*2 = 12.
        assert total == pytest.approx(12.0)
        committed = service.committed("A") + service.committed("B")
        assert committed == pytest.approx(total)

    def test_labels_allocated_per_chain(self):
        gs, *_ = build_deployment()
        l1 = gs.create_chain(spec("c1", dst="20.0.0.0/24")).label
        l2 = gs.create_chain(spec("c2", dst="20.0.1.0/24")).label
        assert l1 != l2

    def test_packets_flow_after_installation(self):
        gs, _dp, _svc, _edge, ingress, egress = build_deployment()
        gs.create_chain(spec())
        packet = send_packet(ingress)
        assert egress.delivered
        assert any("firewall" in e for e in packet.trace)

    def test_reverse_path_flows(self):
        gs, _dp, _svc, _edge, ingress, egress = build_deployment()
        gs.create_chain(spec())
        send_packet(ingress)
        rev = Packet(FiveTuple("20.0.0.9", "10.0.0.5", "tcp", 80, 1000))
        egress.send_reverse(rev)
        assert rev.trace[-1] == "edge.A"

    def test_unknown_edge_service_rejected(self):
        gs, *_ = build_deployment()
        bad = ChainSpecification(
            "x", "ghost", "office-1", "office-2", ["firewall"]
        )
        with pytest.raises(InstallationError):
            gs.create_chain(bad)

    def test_unknown_vnf_service_rejected(self):
        gs, *_ = build_deployment()
        bad = ChainSpecification("x", "vpn", "office-1", "office-2", ["ghost"])
        with pytest.raises(InstallationError):
            gs.create_chain(bad)

    def test_oversized_chain_admitted_partially(self):
        gs, *_ = build_deployment(fw_cap_a=10.0, fw_cap_b=10.0)
        installation = gs.create_chain(spec(demand=100.0))
        # Total firewall capacity 20 load units; the chain needs
        # 2 * (100 + 20) = 240 -> about 8.3% is admitted.
        assert installation.routed_fraction == pytest.approx(
            20.0 / 240.0, rel=0.01
        )

    def test_failed_install_rolls_back_model(self):
        gs, *_ = build_deployment(fw_cap_a=0.0, fw_cap_b=0.0)
        with pytest.raises(InstallationError):
            gs.create_chain(spec(demand=5.0))
        assert "corp" not in gs.model.chains
        assert "corp" not in gs.installations


class TestTwoPhaseCommit:
    def test_rejection_triggers_recompute_at_other_site(self):
        gs, _dp, service, *_ = build_deployment(fw_cap_a=100.0, fw_cap_b=100.0)
        # The model believes B has capacity, but the VNF controller has
        # (out of band) given most of it away: prepare() will reject.
        service.prepare("tenant-x", "B", 95.0)
        service.commit("tenant-x", "B")
        installation = gs.create_chain(spec(demand=5.0))
        assert installation.routed_fraction == pytest.approx(1.0)
        # Committed at A, since B rejected.
        assert ("firewall", "A") in installation.committed_load

    def test_no_reservations_leak_after_failure(self):
        gs, _dp, service, *_ = build_deployment(fw_cap_a=0.0, fw_cap_b=0.0)
        with pytest.raises(InstallationError):
            gs.create_chain(spec(demand=5.0))
        assert service.pending_reservations() == 0

    def test_no_reservations_leak_after_success(self):
        gs, _dp, service, *_ = build_deployment()
        gs.create_chain(spec())
        assert service.pending_reservations() == 0

    def test_capacity_restored_after_chain_removal(self):
        gs, *_ = build_deployment(fw_cap_a=10.0, fw_cap_b=10.0)
        big = gs.create_chain(spec("big", demand=100.0, dst="20.0.0.0/24"))
        assert big.routed_fraction < 1.0  # consumed all capacity
        gs.remove_chain("big")
        ok = gs.create_chain(spec("small", demand=2.0, dst="20.0.1.0/24"))
        assert ok.routed_fraction == pytest.approx(1.0)


class TestDynamicChaining:
    def test_extend_chain_after_capacity_growth(self):
        """The Figure 10 scenario: a route limited by one site's capacity
        doubles its throughput when a new route via another site opens."""
        gs, _dp, service, *_ = build_deployment(fw_cap_a=12.0, fw_cap_b=0.0)
        installation = gs.create_chain(spec(demand=10.0))
        first = installation.routed_fraction
        assert first < 1.0  # A alone cannot carry the chain

        # Site B's firewall comes online with fresh capacity.
        gs.model.vnfs["firewall"] = VNF(
            "firewall", 1.0, {"A": 12.0, "B": 12.0}
        )
        service.site_capacity["B"] = 12.0
        service._committed.setdefault("B", 0.0)
        gained = gs.extend_chain("corp")
        assert gained > 0
        assert installation.routed_fraction == pytest.approx(2 * first, rel=0.01)

    def test_extend_noop_when_fully_routed(self):
        gs, *_ = build_deployment()
        gs.create_chain(spec())
        assert gs.extend_chain("corp") == 0.0

    def test_existing_flows_keep_route_after_extension(self):
        gs, _dp, service, _edge, ingress, _egress = build_deployment(
            fw_cap_a=12.0, fw_cap_b=0.0
        )
        gs.create_chain(spec(demand=10.0))
        packet_before = send_packet(ingress, 1)
        route_before = [e for e in packet_before.trace if "firewall" in e]
        gs.model.vnfs["firewall"] = VNF("firewall", 1.0, {"A": 12.0, "B": 12.0})
        service.site_capacity["B"] = 12.0
        service._committed.setdefault("B", 0.0)
        gs.extend_chain("corp")
        packet_after = send_packet(ingress, 1)  # same five-tuple
        assert [e for e in packet_after.trace if "firewall" in e] == route_before

    def test_remove_chain_releases_everything(self):
        gs, _dp, service, *_ = build_deployment()
        gs.create_chain(spec())
        gs.remove_chain("corp")
        assert service.committed("A") + service.committed("B") == 0.0
        assert "corp" not in gs.model.chains
        assert gs.labels.lookup("corp") is None

    def test_removed_chain_stops_new_flows(self):
        gs, _dp, _svc, _edge, ingress, egress = build_deployment()
        gs.create_chain(spec())
        gs.remove_chain("corp")
        send_packet(ingress, 5)
        assert not egress.delivered


def rule_holders(dataplane, label):
    """Every forwarder of the deployment holding a rule of the chain --
    the all-forwarders sweep ``remove_chain`` itself no longer does."""
    return sorted(
        fwd.name for fwd in dataplane.forwarders.values()
        if any(chain == label for chain, _egress in fwd.rules)
    )


class TestRemovalLeavesNoRule:
    """``remove_chain`` visits the sites recorded on the installation;
    whichever way the rules got there, none may stay."""

    def removed(self, gs, dp, name="corp", sites=None):
        installation = gs.installations[name]
        held = rule_holders(dp, installation.label)
        assert held
        if sites is not None:
            assert {fwd.split(".")[1] for fwd in held} == set(sites)
            assert installation.rule_sites == set(sites)
        gs.remove_chain(name)
        assert rule_holders(dp, installation.label) == []

    def test_plain_install(self):
        gs, dp, *_ = build_deployment()
        gs.create_chain(spec())
        self.removed(gs, dp, sites={"A", "B"})  # ingress edge, firewall

    def test_route_recomputed_after_a_rejected_prepare(self):
        gs, dp, service, *_ = build_deployment(fw_cap_a=100.0, fw_cap_b=100.0)
        service.prepare("tenant-x", "B", 95.0)  # out of band: B will reject
        service.commit("tenant-x", "B")
        installation = gs.create_chain(spec(demand=5.0))
        assert ("firewall", "A") in installation.committed_load
        self.removed(gs, dp, sites={"A"})  # ingress edge and firewall

    def test_extended_chain(self):
        gs, dp, service, *_ = build_deployment(fw_cap_a=12.0, fw_cap_b=0.0)
        gs.create_chain(spec(demand=10.0))
        gs.model.vnfs["firewall"] = VNF("firewall", 1.0, {"A": 12.0, "B": 12.0})
        service.site_capacity["B"] = 12.0
        service._committed.setdefault("B", 0.0)
        assert gs.extend_chain("corp") > 0
        self.removed(gs, dp, sites={"A", "B"})

    def test_grafted_edge_site(self):
        gs, dp, _svc, edge, *_ = build_deployment()
        gs.create_chain(spec())
        edge.register_instance(EdgeInstance("edge.B", "B", dp))
        gs.add_edge_site("corp", "B")
        self.removed(gs, dp, sites={"A", "B"})

    def test_rerouted_off_a_failed_site(self):
        from repro.controller.failures import fail_site

        gs, dp, *_ = build_deployment()
        gs.create_chain(spec())
        fail_site(gs, "B")  # the firewall moves to A; B's old rule is stale
        assert ("firewall", "A") in gs.installations["corp"].committed_load
        self.removed(gs, dp, sites={"A", "B"})

    def test_bus_driven_install(self):
        from tests.test_resilience import build, make_installer, spec as bus_spec

        gs = build()
        installer = make_installer(gs)
        timeline = installer.install(bus_spec())
        installer.network.run()
        assert timeline.completed_at is not None
        self.removed(gs, gs.dataplane, sites={"A", "B"})

    def test_adopted_by_a_standby_after_takeover(self):
        from repro.controller.replication import ReplicatedStore
        from repro.resilience import FailoverManager
        from tests.test_resilience import build, make_installer, spec as bus_spec

        store = ReplicatedStore(["ctl.A", "ctl.B", "ctl.C"])
        gs = build()
        installer = make_installer(gs, store=store)
        timeline = installer.install(bus_spec())
        installer.network.run()
        assert timeline.completed_at is not None
        label = gs.installations["corp"].label
        # The standby knows the chain from its checkpoint alone.
        del gs.installations["corp"]
        fm = FailoverManager(installer, store)
        fm.check()
        installer.network.crash_host(installer.gs_host)
        fm.mark_dead(fm.active)
        fm.take_over("gs-standby")
        installer.network.run()
        assert gs.installations["corp"].label == label
        self.removed(gs, gs.dataplane, sites={"A", "B"})


class TestEdgeSiteAddition:
    def test_new_edge_site_reaches_chain(self):
        gs, dp, _svc, edge, _ingress, egress = build_deployment()
        gs.create_chain(spec())
        new_edge = EdgeInstance("edge.B", "B", dp)
        edge.register_instance(new_edge)
        chosen = gs.add_edge_site("corp", "B")
        assert chosen in ("A", "B")
        packet = Packet(FiveTuple("10.0.0.50", "20.0.0.9", "tcp", 2000, 80))
        new_edge.ingress(packet)
        assert egress.delivered
        assert any("firewall" in e for e in packet.trace)

    def test_uninstalled_chain_rejected(self):
        gs, *_ = build_deployment()
        with pytest.raises(InstallationError):
            gs.add_edge_site("ghost", "B")

    def test_extra_site_recorded(self):
        gs, dp, _svc, edge, *_ = build_deployment()
        installation = gs.create_chain(spec())
        edge.register_instance(EdgeInstance("edge.B", "B", dp))
        gs.add_edge_site("corp", "B")
        assert installation.extra_edge_sites == ["B"]


class TestLocalSwitchboard:
    def test_forwarder_scaling(self):
        dp = DataPlane(random.Random(0))
        local = LocalSwitchboard("A", dp)
        local.scale_forwarders(2)
        assert len(local.forwarders) == 3
        assert len(dp.forwarders) == 3

    def test_instance_assignment_is_sticky(self):
        from repro.dataplane.forwarder import VnfInstance

        dp = DataPlane(random.Random(0))
        local = LocalSwitchboard("A", dp)
        local.scale_forwarders(1)
        instance = VnfInstance("v1", "V", "A")
        first = local.assign_instance(instance)
        second = local.assign_instance(instance)
        assert first is second

    def test_assignment_balances_forwarders(self):
        from repro.dataplane.forwarder import VnfInstance

        dp = DataPlane(random.Random(0))
        local = LocalSwitchboard("A", dp)
        local.scale_forwarders(1)
        for i in range(4):
            local.assign_instance(VnfInstance(f"v{i}", "V", "A"))
        sizes = sorted(len(f.attached) for f in local.forwarders)
        assert sizes == [2, 2]

    def test_forwarder_weights_sum_instance_weights(self):
        from repro.dataplane.forwarder import VnfInstance

        dp = DataPlane(random.Random(0))
        local = LocalSwitchboard("A", dp)
        i1 = VnfInstance("v1", "V", "A")
        i2 = VnfInstance("v2", "V", "A")
        local.assign_instance(i1)
        local.assign_instance(i2)
        weights = local.forwarders_for_instances([i1, i2])
        assert weights == {local.forwarders[0].name: pytest.approx(2.0)}


class TestTiming:
    def test_route_update_near_paper_595ms(self):
        timeline = simulate_chain_route_update()
        total_ms = timeline.total_s * 1e3
        assert total_ms == pytest.approx(PAPER_ROUTE_UPDATE_MS, rel=0.05)

    def test_edge_addition_rows_match_paper(self):
        timeline = simulate_edge_site_addition()
        for operation, paper_ms in PAPER_TABLE2_MS.items():
            assert timeline.duration_of(operation) * 1e3 == pytest.approx(
                paper_ms, abs=1.0
            )

    def test_edge_addition_total_below_600ms(self):
        timeline = simulate_edge_site_addition()
        remaining = timeline.summed_durations_s - timeline.duration_of(
            "Local SB chooses the 1st VNF's site"
        )
        assert remaining * 1e3 < 600.0
