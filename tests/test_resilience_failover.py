"""Tests for standby-controller failover: durable checkpoints written
by the bus-driven installer, its install-log records, and lease-based
takeover."""

import pytest

from repro.controller import twopc
from repro.controller.replication import (
    InstallLog,
    ReplicatedStore,
    restore_installations,
)
from repro.resilience import FailoverManager, ResilienceConfig, RpcConfig

from tests.test_resilience import build, make_installer, spec

REPLICAS = ["ctl.A", "ctl.B", "ctl.C"]


def rehearse():
    """One clean install, to learn the deterministic milestone times."""
    gs = build()
    installer = make_installer(gs)
    timeline = installer.install(spec())
    installer.network.run()
    assert timeline.completed_at is not None
    return timeline


class TestDurableCheckpoints:
    def test_bus_driven_install_round_trips_through_the_store(self):
        """Satellite: restore_installations from checkpoints written by
        the *bus-driven* installer, not just the synchronous path."""
        store = ReplicatedStore(REPLICAS)
        gs = build()
        installer = make_installer(gs, store=store)
        timeline = installer.install(spec())
        installer.network.run()
        assert timeline.completed_at is not None

        restored = restore_installations(store)
        assert set(restored) == {"corp"}
        original = gs.installations["corp"]
        copy = restored["corp"]
        assert copy.label == original.label
        assert copy.committed_load == original.committed_load
        assert copy.ingress_site == original.ingress_site
        assert copy.egress_site == original.egress_site
        # Completed: the transient install record must be gone.
        assert InstallLog(store).pending() == {}

    def test_chain_checkpointed_mid_install_is_restorable(self):
        """A crash between route publication and configuration: the
        checkpoint plus the 'committing' record describe the chain."""
        rehearsal = rehearse()
        mid = (
            rehearsal.route_published_at + rehearsal.completed_at
        ) / 2.0
        store = ReplicatedStore(REPLICAS)
        gs = build()
        installer = make_installer(gs, store=store)
        timeline = installer.install(spec())
        installer.network.run(until=mid)
        assert timeline.route_published_at is not None
        assert timeline.completed_at is None

        restored = restore_installations(store)
        assert set(restored) == {"corp"}
        assert restored["corp"].committed_load == dict(
            installer._pending["corp"].loads
        )
        records = InstallLog(store).pending()
        assert records["corp"]["phase"] == twopc.COMMITTING
        assert set(records["corp"]["participants"]) == {
            f"{vnf}@{site}" for vnf, site in installer._pending["corp"].loads
        }

    def test_mid_2pc_marker_precedes_checkpoint(self):
        rehearsal = rehearse()
        mid = (
            rehearsal.sites_resolved_at + rehearsal.route_committed_at
        ) / 2.0
        store = ReplicatedStore(REPLICAS)
        gs = build()
        installer = make_installer(gs, store=store)
        installer.install(spec())
        installer.network.run(until=mid)
        assert restore_installations(store) == {}
        records = InstallLog(store).pending()
        assert records["corp"]["phase"] == twopc.PREPARING


class TestRemovalClearsCheckpoint:
    def test_removed_chain_is_not_readopted_by_a_takeover(self):
        """PR 12 finding: ``gs.remove_chain`` on a bus-installed chain
        left ``/chains/<name>`` in the store, so the next takeover
        restored the removed chain and capacity_safety fired."""
        from repro.chaos.invariants import (
            LeaseMonitor,
            bus_delivery,
            capacity_safety,
            lease_safety,
            link_conservation,
            no_orphaned_reservations,
            two_phase_atomicity,
        )

        store = ReplicatedStore(REPLICAS)
        gs = build()
        installer = make_installer(gs, store=store)
        timeline = installer.install(spec())
        installer.network.run()
        assert timeline.completed_at is not None
        assert set(restore_installations(store)) == {"corp"}

        gs.remove_chain("corp")
        assert restore_installations(store) == {}

        monitor = LeaseMonitor(store)
        fm = FailoverManager(installer, store, monitor=monitor)
        fm.check()
        installer.network.crash_host(installer.gs_host)
        fm.mark_dead(fm.active)
        fm.take_over("gs-standby")
        installer.network.run()

        assert "corp" not in gs.installations
        probes = [
            link_conservation(installer.network),
            two_phase_atomicity(gs, installer),
            capacity_safety(gs, installer),
            no_orphaned_reservations(gs, installer),
            bus_delivery(installer.bus),
            lease_safety(monitor),
        ]
        assert [problem for probe in probes for problem in probe()] == []


class TestTakeOver:
    def test_uncommitted_install_is_aborted_on_takeover(self):
        """The 2PC outcome of an uncommitted install is unknown to the
        standby: takeover aborts it and releases every participant."""
        rehearsal = rehearse()
        mid = (
            rehearsal.sites_resolved_at + rehearsal.route_committed_at
        ) / 2.0
        store = ReplicatedStore(REPLICAS)
        gs = build()
        installer = make_installer(gs, store=store)
        timeline = installer.install(spec())
        installer.network.run(until=mid)
        assert timeline.route_committed_at is None

        fm = FailoverManager(installer, store)
        fm.take_over("gs-standby")
        installer.network.run()
        assert fm.active == "gs-standby"
        assert timeline.failed == "controller failover"
        assert installer._pending == {}
        service = gs.vnf_services["fw"]
        assert service.pending_reservations() == 0
        assert service.committed("B") == pytest.approx(0.0)
        assert InstallLog(store).pending() == {}

    def test_committed_install_is_redriven_to_completion(self):
        """Past route commit the capacity is durably the chain's:
        takeover re-arms the deadline and re-drives configuration."""
        rehearsal = rehearse()
        mid = (
            rehearsal.route_published_at + rehearsal.completed_at
        ) / 2.0
        store = ReplicatedStore(REPLICAS)
        gs = build()
        installer = make_installer(gs, store=store)
        timeline = installer.install(spec())
        installer.network.run(until=mid)
        assert timeline.route_committed_at is not None

        fm = FailoverManager(installer, store)
        fm.take_over("gs-standby")
        installer.network.run()
        assert timeline.completed_at is not None
        assert timeline.failed is None
        assert "corp" in gs.installations

    def test_orphan_preparing_record_is_torn_down(self):
        """A record with no in-memory pending install (the previous
        coordinator died mid-2PC): participants are torn down and the
        record cleared."""
        store = ReplicatedStore(REPLICAS)
        gs = build()
        installer = make_installer(gs, store=store)
        service = gs.vnf_services["fw"]
        service.prepare("ghost", "B", 5.0)
        InstallLog(store).put("ghost", twopc.PREPARING, {"fw@B": 5.0}, 0)

        fm = FailoverManager(installer, store)
        fm.take_over("gs-standby")
        installer.network.run()
        assert service.pending_reservations() == 0
        assert service.committed("B") == pytest.approx(0.0)
        assert InstallLog(store).pending() == {}

    def test_orphan_committing_record_is_reconfigured(self):
        """A 'committing' record and a checkpoint with no in-memory
        pending install (the chain was published before the crash): the
        takeover re-applies the edge classifiers and the rules at every
        route site from the durable record, and clears it."""
        store = ReplicatedStore(REPLICAS)
        gs = build()
        installer = make_installer(gs, store=store)
        timeline = installer.install(spec())
        installer.network.run()
        assert timeline.completed_at is not None
        installation = gs.installations["corp"]
        route_sites = set(installation.rule_sites)
        assert route_sites == {"A", "B"}
        edge = gs.edge_controllers["vpn"]
        ingress = edge.instances_at("A")[0]

        def classified() -> bool:
            return any(
                rule.chain_label == installation.label
                for rule in ingress.classifier
            )

        def rule_sites() -> set[str]:
            return {
                fwd.site for fwd in gs.dataplane.forwarders.values()
                if any(chain == installation.label for chain, _ in fwd.rules)
            }

        # The configuration the dead primary had not finished applying.
        gs._remove_rules(installation)
        edge.remove_chain(installation.labels)
        assert not classified() and rule_sites() == set()
        InstallLog(store).put("corp", twopc.COMMITTING, {"fw@B": 5.0}, 0)

        fm = FailoverManager(installer, store)
        fm.take_over("gs-standby")
        installer.network.run()
        assert classified()
        assert rule_sites() == route_sites
        assert installation.rule_sites == route_sites
        assert InstallLog(store).pending() == {}
        assert gs.installations["corp"] is installation

    def test_checkpoints_are_adopted_into_empty_memory(self):
        """A standby with empty in-memory state inherits every durable
        installation record."""
        store = ReplicatedStore(REPLICAS)
        gs = build()
        installer = make_installer(gs, store=store)
        timeline = installer.install(spec())
        installer.network.run()
        assert timeline.completed_at is not None
        label = gs.installations["corp"].label

        gs.installations.clear()  # the new controller's cold memory
        fm = FailoverManager(installer, store)
        fm.take_over("gs-standby")
        assert "corp" in gs.installations
        assert gs.installations["corp"].label == label


class TestStoreGuard:
    def test_a_standby_recovers_from_the_installer_store_only(self):
        """A failover manager over another store would take over from
        records the primary never wrote."""
        store = ReplicatedStore(REPLICAS)
        installer = make_installer(build(), store=store)
        with pytest.raises(ValueError):
            FailoverManager(installer, ReplicatedStore(REPLICAS))
        with pytest.raises(ValueError):
            FailoverManager(make_installer(build()), store)
        assert FailoverManager(installer, store).store is store


class TestFailoverLoop:
    def test_crash_mid_install_fails_over_and_settles(self):
        """End to end: the active GS host crashes mid-install; the
        standby waits out the lease, takes over, and the system settles
        with no orphaned participant state."""
        rehearsal = rehearse()
        mid = (
            rehearsal.sites_resolved_at + rehearsal.route_committed_at
        ) / 2.0
        store = ReplicatedStore(REPLICAS)
        gs = build()
        resilience = ResilienceConfig(
            rpc=RpcConfig(timeout_s=0.25, max_retries=8),
            install_deadline_s=8.0,
        )
        installer = make_installer(gs, resilience=resilience, store=store)
        fm = FailoverManager(
            installer, store, lease_duration_s=1.0, check_interval_s=0.25
        )
        fm.start(until=10.0)
        timeline = installer.install(spec())

        def crash() -> None:
            installer.network.crash_host(installer.gs_host)
            fm.mark_dead(fm.active)

        installer.sim.schedule(mid, crash)
        installer.network.run()
        assert fm.takeovers == 1
        assert fm.active == "gs-standby"
        # The install either finished under the new controller or was
        # aborted cleanly -- never left half-done.
        assert (timeline.completed_at is not None) or (
            timeline.failed is not None
        )
        assert installer._pending == {}
        service = gs.vnf_services["fw"]
        assert service.pending_reservations() == 0
        if timeline.failed is not None:
            assert service.committed("B") == pytest.approx(0.0)
