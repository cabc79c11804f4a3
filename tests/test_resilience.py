"""Tests for install deadlines, abort rollback, 2PC fan-out fixes,
pending-install lifecycle, and the reconciliation sweeper."""

import random

import pytest

from repro.bus.bus import make_bus
from repro.controller import (
    ChainSpecification,
    GlobalSwitchboard,
    LocalSwitchboard,
)
from repro.controller.protocol import BusDrivenInstaller
from repro.core.model import CloudSite, NetworkModel, VNF
from repro.dataplane import DataPlane
from repro.edge import EdgeController, EdgeInstance
from repro.resilience import (
    DeadlineManager,
    ReconciliationSweeper,
    ResilienceConfig,
    RpcConfig,
    RpcError,
)
from repro.simnet.events import Simulator
from repro.vnf import VnfService

SITES = ["A", "B", "C"]


def build(fw_cap_b=40.0, nat_service_cap_c=None, seed=11):
    """Three-site deployment with a fw VNF at B and, optionally, a nat
    VNF whose *service* capacity at C differs from the model's view
    (the model stays optimistic at 40 so routing succeeds and the
    prepare is what rejects)."""
    nodes = ["a", "b", "c"]
    latency = {("a", "b"): 10.0, ("a", "c"): 30.0, ("b", "c"): 15.0}
    sites = [CloudSite(s, s.lower(), 100.0) for s in SITES]
    vnfs = [VNF("fw", 1.0, {"B": fw_cap_b})]
    if nat_service_cap_c is not None:
        vnfs.append(VNF("nat", 1.0, {"C": 40.0}))
    model = NetworkModel(nodes, latency, sites, vnfs)
    dp = DataPlane(random.Random(seed))
    gs = GlobalSwitchboard(model, dp)
    for site in SITES:
        gs.register_local_switchboard(LocalSwitchboard(site, dp))
    gs.register_vnf_service(VnfService("fw", 1.0, {"B": fw_cap_b}))
    if nat_service_cap_c is not None:
        gs.register_vnf_service(
            VnfService("nat", 1.0, {"C": nat_service_cap_c})
        )
    edge = EdgeController("vpn")
    ingress = EdgeInstance("edge.A", "A", dp)
    egress = EdgeInstance("edge.C", "C", dp)
    edge.register_instance(ingress)
    edge.register_instance(egress)
    edge.register_attachment("in", "A")
    edge.register_attachment("out", "C")
    gs.register_edge_service(edge)
    egress.attach_forwarder(gs.local_switchboard("C").forwarders[0].name)
    return gs


def make_installer(gs, vnf_sites=None, resilience=None, store=None):
    bus = make_bus(SITES, wan_delay_s=0.030, uplink_bps=100e6)
    return BusDrivenInstaller(
        gs,
        bus,
        gs_site="A",
        edge_controller_site="A",
        vnf_controller_sites=vnf_sites or {"fw": "B"},
        resilience=resilience,
        store=store,
    )


def spec(name="corp", demand=5.0, vnfs=("fw",), prefix="20.0.0.0/24"):
    return ChainSpecification(
        name, "vpn", "in", "out", list(vnfs),
        forward_demand=demand,
        src_prefix="10.0.0.0/24",
        dst_prefixes=[prefix],
    )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"install_deadline_s": 0.0},
            {"install_deadline_s": -1.0},
        ],
    )
    def test_invalid_resilience_config_rejected(self, kwargs):
        with pytest.raises(RpcError):
            ResilienceConfig(**kwargs)


class TestDeadlineManager:
    def test_arm_fires_and_disarm_prevents(self):
        sim = Simulator()
        dm = DeadlineManager(sim)
        fired = []
        dm.arm("a", 1.0, fired.append)
        dm.arm("b", 1.0, fired.append)
        assert dm.disarm("b") is True
        assert dm.disarm("missing") is False
        sim.run()
        assert fired == ["a"]
        assert dm.active() == []

    def test_rearm_replaces_existing_deadline(self):
        sim = Simulator()
        dm = DeadlineManager(sim)
        fired = []
        dm.arm("a", 1.0, lambda key: fired.append((key, sim.now)))
        dm.arm("a", 3.0, lambda key: fired.append((key, sim.now)))
        sim.run()
        assert fired == [("a", 3.0)]


class TestAbortFanOut:
    def test_rejection_aborts_participants_that_already_acked(self):
        """Regression: a 2PC rejection must release the reservations of
        VNFs that *acked* their prepare, not only the un-acked ones.
        The nat service's real capacity (0) rejects every prepare, so
        the install fails -- and fw@B, which acked round 0, must not be
        left holding its reservation."""
        gs = build(nat_service_cap_c=0.0)
        installer = make_installer(gs, vnf_sites={"fw": "B", "nat": "C"})
        timeline = installer.install(spec(vnfs=("fw", "nat")))
        installer.network.run()
        assert timeline.failed is not None
        assert installer._pending == {}
        for service in gs.vnf_services.values():
            assert service.pending_reservations() == 0
            for site in service.sites:
                assert service.committed(site) == pytest.approx(0.0)
        assert "corp" not in gs.model.chains
        assert "corp" not in gs.installations

    def test_rejection_retry_leaves_no_orphaned_reservation(self):
        """A rejection followed by a successful reduced-capacity retry:
        the final ledger must match the installation exactly -- the
        aborted round's reservations must not linger at fw@B."""
        gs = build(nat_service_cap_c=2.0)
        installer = make_installer(gs, vnf_sites={"fw": "B", "nat": "C"})
        timeline = installer.install(spec(vnfs=("fw", "nat")))
        installer.network.run()
        assert timeline.failed is None
        assert timeline.completed_at is not None
        assert installer._pending == {}
        installation = gs.installations["corp"]
        for service in gs.vnf_services.values():
            assert service.pending_reservations() == 0
            for site in service.sites:
                owned = installation.committed_load.get(
                    (service.name, site), 0.0
                )
                assert service.committed(site) == pytest.approx(owned)


class TestPendingLifecycle:
    def test_hundred_installs_leave_no_pending_state(self):
        """_complete/_fail are symmetric: both pop the pending entry
        and invoke on_complete, so back-to-back installs cannot grow
        ``_pending`` without bound."""
        gs = build()
        installer = make_installer(gs)
        done = []
        timelines = []
        for i in range(100):
            timelines.append(
                installer.install(
                    spec(f"c{i}", demand=0.2, prefix=f"20.0.{i}.0/24"),
                    on_complete=done.append,
                )
            )
        installer.network.run()
        assert installer._pending == {}
        assert len(done) == 100
        assert all(t.completed_at is not None for t in timelines)
        assert {t.installation.spec.name for t in done} == {
            f"c{i}" for i in range(100)
        }

    def test_failed_install_also_invokes_on_complete(self):
        # nat's real capacity is 0, so every 2PC round rejects and the
        # install fails -- on_complete must fire exactly as on success.
        gs = build(nat_service_cap_c=0.0)
        installer = make_installer(gs, vnf_sites={"fw": "B", "nat": "C"})
        done = []
        timeline = installer.install(
            spec(vnfs=("fw", "nat")), on_complete=done.append
        )
        installer.network.run()
        assert timeline.failed is not None
        assert done == [timeline]
        assert installer._pending == {}


class TestDeadlineAbort:
    def test_unreachable_vnf_controller_triggers_deadline_rollback(self):
        """With retransmits that outlast the deadline, the deadline is
        what aborts: full rollback, failed timeline, released labels."""
        gs = build()
        resilience = ResilienceConfig(
            rpc=RpcConfig(timeout_s=0.25, max_retries=20),
            install_deadline_s=1.0,
        )
        installer = make_installer(gs, resilience=resilience)
        installer.network.crash_host("ctrl.vnf.fw")
        timeline = installer.install(spec())
        installer.network.run()
        assert timeline.failed == "installation deadline expired"
        assert installer.deadline_aborts == 1
        assert installer._pending == {}
        service = gs.vnf_services["fw"]
        assert service.pending_reservations() == 0
        assert service.committed("B") == pytest.approx(0.0)
        assert "corp" not in gs.model.chains
        assert "corp" not in gs.installations
        # The label was released: a follow-up install can reuse it.
        assert gs.labels.allocate("probe") >= 1

    def test_rpc_give_up_aborts_before_hanging(self):
        """With few retries, the RPC gives up first and the install is
        aborted immediately instead of waiting out the deadline."""
        gs = build()
        resilience = ResilienceConfig(
            rpc=RpcConfig(timeout_s=0.1, max_retries=2, jitter=0.0),
            install_deadline_s=30.0,
        )
        installer = make_installer(gs, resilience=resilience)
        installer.network.crash_host("ctrl.vnf.fw")
        timeline = installer.install(spec())
        installer.network.run()
        assert timeline.failed is not None
        assert "gave up" in timeline.failed
        assert installer._pending == {}


class TestEpochFencing:
    def test_teardown_fences_late_commit(self):
        gs = build()
        installer = make_installer(gs)
        service = gs.vnf_services["fw"]
        receive = installer._vnf_rpc["fw"].handler
        receive("ctrl.gs", {"type": "prepare", "chain": "x", "vnf": "fw",
                            "site": "B", "load": 5.0, "attempt": 0})
        assert service.pending_reservations() == 1
        receive("ctrl.gs", {"type": "teardown", "chain": "x", "vnf": "fw",
                            "site": "B", "attempt": 1 << 30})
        assert service.pending_reservations() == 0
        # A straggler commit of the old round must not resurrect it.
        receive("ctrl.gs", {"type": "commit", "chain": "x", "vnf": "fw",
                            "site": "B", "attempt": 0})
        assert service.committed("B") == pytest.approx(0.0)

    def test_newer_prepare_supersedes_stale_reservation(self):
        gs = build()
        installer = make_installer(gs)
        service = gs.vnf_services["fw"]
        receive = installer._vnf_rpc["fw"].handler
        receive("ctrl.gs", {"type": "prepare", "chain": "x", "vnf": "fw",
                            "site": "B", "load": 30.0, "attempt": 0})
        receive("ctrl.gs", {"type": "prepare", "chain": "x", "vnf": "fw",
                            "site": "B", "load": 5.0, "attempt": 1})
        # The round-0 reservation was replaced, not accumulated.
        assert service.available("B") == pytest.approx(35.0)
        # And the round-0 abort arriving late is a no-op now.
        receive("ctrl.gs", {"type": "abort", "chain": "x", "vnf": "fw",
                            "site": "B", "attempt": 0})
        assert service.available("B") == pytest.approx(35.0)


class TestSweeper:
    def test_sweep_releases_orphaned_participant_state(self):
        gs = build()
        installer = make_installer(gs)
        service = gs.vnf_services["fw"]
        # An orphaned reservation and an orphaned commitment: no
        # pending install and no installation owns either.
        service.prepare("ghost", "B", 3.0)
        service.prepare("ghost2", "B", 4.0)
        service.commit("ghost2", "B")
        sweeper = ReconciliationSweeper(installer)
        released = sweeper.sweep()
        assert released == 2
        assert service.pending_reservations() == 0
        assert service.committed("B") == pytest.approx(0.0)
        assert sweeper.stale_reservations_released == 2

    def test_sweep_keeps_installed_chain_state(self):
        gs = build()
        installer = make_installer(gs)
        timeline = installer.install(spec())
        installer.network.run()
        assert timeline.completed_at is not None
        service = gs.vnf_services["fw"]
        before = service.committed("B")
        assert before > 0
        sweeper = ReconciliationSweeper(installer)
        assert sweeper.sweep() == 0
        assert service.committed("B") == pytest.approx(before)

    def test_sweep_aborts_stalled_install(self):
        """Simulates lost deadline-timer state (e.g. across a failover):
        the sweeper is the backstop that aborts past 2x the deadline."""
        gs = build()
        resilience = ResilienceConfig(
            rpc=RpcConfig(timeout_s=0.25, max_retries=30),
            install_deadline_s=2.0,
        )
        installer = make_installer(gs, resilience=resilience)
        installer.network.crash_host("ctrl.vnf.fw")
        timeline = installer.install(spec())
        # Drop the deadline timer, as if the coordinator restarted
        # without re-arming it.
        installer.sim.schedule(
            0.05, installer.deadlines.disarm, "corp"
        )
        sweeper = ReconciliationSweeper(installer, interval_s=1.0)
        sweeper.start(until=10.0)
        installer.network.run()
        assert timeline.failed == "swept: install stalled"
        assert sweeper.stalled_installs_aborted == 1
        assert installer._pending == {}
