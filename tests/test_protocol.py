"""Tests for the bus-driven (discrete-event) Figure 4 installation."""

import random

import pytest

from repro.bus.bus import make_bus
from repro.controller import (
    ChainSpecification,
    GlobalSwitchboard,
    LocalSwitchboard,
)
from repro.controller.protocol import (
    BusDrivenInstaller,
    ProtocolDelays,
)
from repro.core.model import CloudSite, NetworkModel, VNF
from repro.dataplane import DataPlane, FiveTuple, Packet
from repro.edge import EdgeController, EdgeInstance
from repro.vnf import VnfService

SITES = ["A", "B", "C"]
WAN_DELAY_S = 0.030


def build(fw_cap_b=40.0, seed=11):
    nodes = ["a", "b", "c"]
    latency = {("a", "b"): 10.0, ("a", "c"): 30.0, ("b", "c"): 15.0}
    sites = [CloudSite(s, s.lower(), 100.0) for s in SITES]
    vnfs = [VNF("fw", 1.0, {"B": fw_cap_b})]
    model = NetworkModel(nodes, latency, sites, vnfs)
    dp = DataPlane(random.Random(seed))
    gs = GlobalSwitchboard(model, dp)
    for site in SITES:
        gs.register_local_switchboard(LocalSwitchboard(site, dp))
    service = VnfService("fw", 1.0, {"B": fw_cap_b})
    gs.register_vnf_service(service)
    edge = EdgeController("vpn")
    ingress = EdgeInstance("edge.A", "A", dp)
    egress = EdgeInstance("edge.C", "C", dp)
    edge.register_instance(ingress)
    edge.register_instance(egress)
    edge.register_attachment("in", "A")
    edge.register_attachment("out", "C")
    gs.register_edge_service(edge)
    egress.attach_forwarder(gs.local_switchboard("C").forwarders[0].name)
    return gs, dp, service, ingress, egress


def make_installer(gs):
    bus = make_bus(SITES, wan_delay_s=WAN_DELAY_S, uplink_bps=100e6)
    return BusDrivenInstaller(
        gs,
        bus,
        gs_site="A",
        edge_controller_site="A",
        vnf_controller_sites={"fw": "B"},
    )


def spec(name="corp", demand=5.0):
    return ChainSpecification(
        name, "vpn", "in", "out", ["fw"],
        forward_demand=demand,
        src_prefix="10.0.0.0/24",
        dst_prefixes=["20.0.0.0/24"],
    )


class TestBusDrivenInstallation:
    def test_installation_completes(self):
        gs, *_ = build()
        installer = make_installer(gs)
        timeline = installer.install(spec())
        installer.network.run()
        assert timeline.failed is None
        assert timeline.completed_at is not None
        assert timeline.installation is not None
        assert timeline.installation.routed_fraction == pytest.approx(1.0)

    def test_milestones_are_ordered(self):
        gs, *_ = build()
        installer = make_installer(gs)
        timeline = installer.install(spec())
        installer.network.run()
        assert (
            timeline.requested_at
            < timeline.sites_resolved_at
            < timeline.route_committed_at
            <= timeline.route_published_at
            < timeline.completed_at
        )

    def test_latency_reflects_wan_geography(self):
        """The total must cover at least: request hop, edge-resolve RTT,
        2PC prepare+commit RTTs to B, bus propagation, and the config
        delay -- all of which are simulated, not budgeted."""
        gs, *_ = build()
        installer = make_installer(gs)
        timeline = installer.install(spec())
        installer.network.run()
        delays = ProtocolDelays()
        floor = (
            2 * (2 * WAN_DELAY_S)      # prepare + commit RTTs (A<->B)
            + delays.route_compute_s
            + delays.dataplane_config_s
        )
        assert timeline.total_s > floor
        assert timeline.total_s < 1.0  # and it finishes in sub-second

    def test_end_state_matches_synchronous_install(self):
        gs_sync, *_ = build(seed=11)
        gs_sync.create_chain(spec())
        gs_bus, *_ = build(seed=11)
        installer = make_installer(gs_bus)
        installer.install(spec())
        installer.network.run()

        sync_flows = gs_sync.router.solution.stage_flows("corp", 1)
        bus_flows = gs_bus.router.solution.stage_flows("corp", 1)
        assert sync_flows == bus_flows
        sync_inst = gs_sync.installations["corp"]
        bus_inst = gs_bus.installations["corp"]
        assert sync_inst.committed_load == bus_inst.committed_load
        # Rules exist at the same (forwarder, key) pairs.
        sync_rules = {
            (name, key)
            for name, fwd in gs_sync.dataplane.forwarders.items()
            for key in fwd.rules
        }
        bus_rules = {
            (name, key)
            for name, fwd in gs_bus.dataplane.forwarders.items()
            for key in fwd.rules
        }
        assert sync_rules == bus_rules

    def test_packets_flow_after_bus_driven_install(self):
        gs, _dp, _service, ingress, egress = build()
        installer = make_installer(gs)
        installer.install(spec())
        installer.network.run()
        packet = Packet(FiveTuple("10.0.0.5", "20.0.0.9", "tcp", 1234, 80))
        ingress.ingress(packet)
        assert egress.delivered
        assert any(e.startswith("fw.") for e in packet.trace)

    def test_chain_without_vnfs_configures_its_ingress_directly(self):
        # No VNF on the route: nothing to allocate or announce, so the
        # installer compiles the rules itself once the route is out.
        gs, _dp, _service, ingress, egress = build()
        installer = make_installer(gs)
        timeline = installer.install(ChainSpecification(
            "direct", "vpn", "in", "out", [],
            forward_demand=5.0,
            src_prefix="10.0.0.0/24",
            dst_prefixes=["20.0.0.0/24"],
        ))
        installer.network.run()
        assert timeline.failed is None
        assert timeline.installation.committed_load == {}
        assert timeline.site_configured_at.keys() == {"A"}
        assert timeline.completed_at == timeline.site_configured_at["A"]
        packet = Packet(FiveTuple("10.0.0.5", "20.0.0.9", "tcp", 1234, 80))
        ingress.ingress(packet)
        assert egress.delivered
        assert not any(e.startswith("fw.") for e in packet.trace)

    def test_rejection_with_no_capacity_left_fails_cleanly(self):
        gs, _dp, service, *_ = build(fw_cap_b=100.0)
        # The VNF controller has quietly given ALL of B away.
        service.prepare("tenant-x", "B", 100.0)
        service.commit("tenant-x", "B")
        installer = make_installer(gs)
        timeline = installer.install(spec(demand=5.0))
        installer.network.run()
        assert timeline.failed is not None
        assert "corp" not in gs.model.chains
        assert service.pending_reservations() == 0

    def test_rejection_recomputes_onto_partial_capacity(self):
        gs, _dp, service, *_ = build(fw_cap_b=100.0)
        # B has only 5 load units left; the first 2PC attempt (load 10)
        # is rejected, the recompute admits the half that fits.
        service.prepare("tenant-x", "B", 95.0)
        service.commit("tenant-x", "B")
        installer = make_installer(gs)
        timeline = installer.install(spec(demand=5.0))
        installer.network.run()
        assert timeline.failed is None
        installation = gs.installations["corp"]
        assert installation.routed_fraction == pytest.approx(0.5)
        assert service.pending_reservations() == 0

    def test_rejection_recomputes_onto_other_site(self):
        """Mirrors the synchronous 2PC test: B rejects, A serves."""
        nodes = ["a", "b", "c"]
        latency = {("a", "b"): 10.0, ("a", "c"): 30.0, ("b", "c"): 15.0}
        sites = [CloudSite(s, s.lower(), 100.0) for s in SITES]
        vnfs = [VNF("fw", 1.0, {"A": 100.0, "B": 100.0})]
        model = NetworkModel(nodes, latency, sites, vnfs)
        dp = DataPlane(random.Random(4))
        gs = GlobalSwitchboard(model, dp)
        for site in SITES:
            gs.register_local_switchboard(LocalSwitchboard(site, dp))
        service = VnfService("fw", 1.0, {"A": 100.0, "B": 100.0})
        gs.register_vnf_service(service)
        edge = EdgeController("vpn")
        edge.register_instance(EdgeInstance("edge.A", "A", dp))
        edge.register_instance(EdgeInstance("edge.C", "C", dp))
        edge.register_attachment("in", "A")
        edge.register_attachment("out", "C")
        gs.register_edge_service(edge)
        service.prepare("tenant-x", "B", 95.0)
        service.commit("tenant-x", "B")
        installer = make_installer(gs)
        timeline = installer.install(spec(demand=5.0))
        installer.network.run()
        assert timeline.failed is None
        installation = gs.installations["corp"]
        assert installation.routed_fraction == pytest.approx(1.0)
        assert ("fw", "A") in installation.committed_load

    def test_bus_carries_one_instance_copy_per_site(self):
        gs, *_ = build()
        installer = make_installer(gs)
        installer.install(spec())
        installer.network.run()
        stats = installer.bus.stats
        assert stats.published >= 1
        # Route sites are {A (ingress), B (fw)}; the announcement is
        # published at B, so one WAN copy reaches A's proxy.
        assert stats.wan_messages >= 1
        assert stats.wan_drops == 0

    def test_two_sequential_installations(self):
        gs, _dp, _service, ingress, egress = build()
        installer = make_installer(gs)
        t1 = installer.install(spec("c1"))
        installer.network.run()
        t2 = installer.install(
            ChainSpecification(
                "c2", "vpn", "in", "out", ["fw"],
                forward_demand=3.0, src_prefix="10.1.0.0/24",
                dst_prefixes=["20.0.1.0/24"],
            )
        )
        installer.network.run()
        assert t1.completed_at is not None
        assert t2.completed_at is not None
        assert gs.installations.keys() == {"c1", "c2"}


def _subscription_state(bus):
    """Every per-topic entry the bus holds, by table."""
    return {
        "site_filters": {k for t in bus._site_filters.values() for k in t},
        "local_subscribers": {
            k for t in bus._local_subscribers.values() for k in t
        },
        "topic_callbacks": {
            k for c in bus.clients.values() for k in c.topic_callbacks
        },
    }


class TestSubscriptionsAreReleased:
    """A finished install leaves nothing on the bus: the filter tables,
    the fan-out lists and the per-topic callbacks (whose closures hold
    the whole pending install) are those of installs still in flight."""

    def specs(self, count):
        return [
            ChainSpecification(
                f"c{i}", "vpn", "in", "out", ["fw"], forward_demand=1.0,
                src_prefix=f"10.{i}.0.0/24", dst_prefixes=[f"20.0.{i}.0/24"],
            )
            for i in range(count)
        ]

    def test_completed_installs_hold_no_bus_state(self):
        gs, *_ = build()
        installer = make_installer(gs)
        timelines = []
        for s in self.specs(6):
            timelines.append(installer.install(s))
            installer.network.run()
        assert all(t.completed_at is not None for t in timelines)
        assert not any(_subscription_state(installer.bus).values())

    def test_only_the_pending_install_is_subscribed(self):
        gs, *_ = build()
        installer = make_installer(gs)
        first, second = self.specs(2)
        done = installer.install(first)
        installer.network.run()
        live = installer.install(second)
        while live.route_published_at is None:
            assert installer.sim.step()
        label = live.installation.label
        state = _subscription_state(installer.bus)
        assert all(state.values())
        for topics in state.values():
            assert all(t.startswith(f"/c{label}/") for t in topics)
        assert done.installation.label != label
        installer.network.run()
        assert live.completed_at is not None
        assert not any(_subscription_state(installer.bus).values())

    def test_late_duplicate_publication_is_harmless(self):
        gs, _dp, service, *_ = build()
        installer = make_installer(gs)
        timeline = installer.install(self.specs(1)[0])
        while timeline.route_published_at is None:
            assert installer.sim.step()
        topics = list(installer._pending["c0"].involved_topics.values())
        installer.network.run()
        assert timeline.completed_at is not None
        rules = {
            name: dict(fwd.rules)
            for name, fwd in gs.dataplane.forwarders.items()
        }
        before = (installer.bus.stats.wan_messages, installer.bus.stats.delivered)
        # The announcement again, after completion: nobody is subscribed
        # any more, so it dies at the publisher's proxy.
        assert installer.bus.publish("lsb.B", topics[0], {"instances": ["late"]})
        installer.network.run()
        assert (installer.bus.stats.wan_messages,
                installer.bus.stats.delivered) == before
        assert timeline.failed is None and "c0" in gs.installations
        assert rules == {
            name: dict(fwd.rules)
            for name, fwd in gs.dataplane.forwarders.items()
        }
        assert service.pending_reservations() == 0

    def test_aborted_install_holds_no_bus_state(self):
        gs, *_ = build()
        installer = make_installer(gs)
        timeline = installer.install(self.specs(1)[0])
        while timeline.route_published_at is None:
            assert installer.sim.step()
        assert all(_subscription_state(installer.bus).values())
        assert installer.abort_install("c0", "test abort")
        assert not any(_subscription_state(installer.bus).values())
        installer.network.run()  # straggler announcements find nobody
        assert timeline.failed == "test abort"
        assert "c0" not in gs.installations
