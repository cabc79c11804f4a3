"""Tests for the MUSIC-style replicated store and controller checkpoints."""

import pytest

from repro.controller.chainspec import ChainSpecification
from repro.controller.global_switchboard import ChainInstallation
from repro.controller.replication import (
    ReplicatedStore,
    ReplicationError,
    checkpoint_installation,
    remove_checkpoint,
    restore_installations,
)
from repro.core.serialization import SerializationError

REPLICAS = ["nyc", "chi", "sfo"]


class TestQuorumBasics:
    def test_write_then_read(self):
        store = ReplicatedStore(REPLICAS)
        store.put("/k", {"v": 1})
        assert store.get("/k") == {"v": 1}

    def test_read_missing_returns_none(self):
        assert ReplicatedStore(REPLICAS).get("/nope") is None

    def test_versions_monotonic_last_write_wins(self):
        store = ReplicatedStore(REPLICAS)
        v1 = store.put("/k", "old")
        v2 = store.put("/k", "new")
        assert v2 > v1
        assert store.get("/k") == "new"

    def test_default_quorum_is_majority(self):
        assert ReplicatedStore(REPLICAS).quorum == 2
        assert ReplicatedStore(["a"]).quorum == 1
        assert ReplicatedStore(["a", "b", "c", "d", "e"]).quorum == 3

    def test_invalid_construction(self):
        with pytest.raises(ReplicationError):
            ReplicatedStore([])
        with pytest.raises(ReplicationError):
            ReplicatedStore(["a", "a"])


class TestFaultTolerance:
    def test_survives_minority_failure(self):
        store = ReplicatedStore(REPLICAS)
        store.put("/k", 42)
        store.fail("nyc")
        assert store.get("/k") == 42
        store.put("/k", 43)
        assert store.get("/k") == 43

    def test_majority_failure_blocks_writes_and_reads(self):
        store = ReplicatedStore(REPLICAS)
        store.put("/k", 1)
        store.fail("nyc")
        store.fail("chi")
        with pytest.raises(ReplicationError):
            store.put("/k", 2)
        with pytest.raises(ReplicationError):
            store.get("/k")

    def test_recovered_replica_heals_via_read_repair(self):
        store = ReplicatedStore(REPLICAS)
        store.put("/k", "v1")
        store.fail("nyc")
        latest = store.put("/k", "v2")  # nyc misses this write
        store.recover("nyc")
        assert store.replicas["nyc"].data["/k"].version < latest
        assert store.get("/k") == "v2"
        # The read repaired nyc: it holds the latest version now.
        assert store.replicas["nyc"].data["/k"].version == latest
        assert store.replicas["nyc"].data["/k"].value == "v2"

    def test_stale_read_never_returned(self):
        """A read after a successful write must see that write, for any
        single-replica failure pattern (quorum intersection)."""
        for failed in REPLICAS:
            store = ReplicatedStore(REPLICAS)
            store.put("/k", "fresh")
            store.fail(failed)
            assert store.get("/k") == "fresh"

    def test_delete_is_tombstone(self):
        store = ReplicatedStore(REPLICAS)
        store.put("/k", 1)
        store.delete("/k")
        assert store.get("/k") is None
        assert store.keys() == []


class TestLeaderLease:
    def test_first_acquirer_wins(self):
        store = ReplicatedStore(REPLICAS)
        assert store.acquire_lease("gs-1", now=0.0, duration=10.0)
        assert not store.acquire_lease("gs-2", now=1.0, duration=10.0)
        assert store.leader(now=5.0) == "gs-1"

    def test_renewal_by_owner(self):
        store = ReplicatedStore(REPLICAS)
        store.acquire_lease("gs-1", now=0.0, duration=10.0)
        assert store.acquire_lease("gs-1", now=8.0, duration=10.0)
        assert store.leader(now=15.0) == "gs-1"

    def test_takeover_after_expiry(self):
        store = ReplicatedStore(REPLICAS)
        store.acquire_lease("gs-1", now=0.0, duration=10.0)
        assert store.leader(now=11.0) is None
        assert store.acquire_lease("gs-2", now=11.0, duration=10.0)
        assert store.leader(now=12.0) == "gs-2"

    def test_release(self):
        store = ReplicatedStore(REPLICAS)
        store.acquire_lease("gs-1", now=0.0, duration=10.0)
        store.release_lease("gs-1")
        assert store.acquire_lease("gs-2", now=1.0, duration=10.0)

    def test_release_by_non_owner_ignored(self):
        store = ReplicatedStore(REPLICAS)
        store.acquire_lease("gs-1", now=0.0, duration=10.0)
        store.release_lease("gs-2")
        assert store.leader(now=1.0) == "gs-1"

    def test_lease_survives_replica_failure(self):
        store = ReplicatedStore(REPLICAS)
        store.acquire_lease("gs-1", now=0.0, duration=10.0)
        store.fail("sfo")
        assert store.leader(now=5.0) == "gs-1"


class TestLeaseEdgeCases:
    """Boundary semantics: a lease is held on the half-open window
    ``[granted, expires)`` -- at the expiry instant itself the lease is
    already gone, so takeover at exactly ``expires_at`` is legal and
    cannot overlap the old window."""

    def test_expiry_exactly_at_now(self):
        store = ReplicatedStore(REPLICAS)
        store.acquire_lease("gs-1", now=0.0, duration=10.0)
        assert store.leader(now=10.0) is None  # expired at the boundary
        assert store.acquire_lease("gs-2", now=10.0, duration=10.0)
        assert store.leader(now=10.0 + 1e-9) == "gs-2"

    def test_leader_just_before_expiry(self):
        store = ReplicatedStore(REPLICAS)
        store.acquire_lease("gs-1", now=0.0, duration=10.0)
        assert store.leader(now=10.0 - 1e-9) == "gs-1"
        assert not store.acquire_lease("gs-2", now=10.0 - 1e-9,
                                       duration=10.0)

    def test_failover_after_quorum_loss_and_recovery(self):
        """Quorum loss makes lease operations fail loudly (never a
        silent split-brain); after recovery the standby takes over once
        the old lease has expired."""
        store = ReplicatedStore(REPLICAS)
        store.acquire_lease("gs-1", now=0.0, duration=10.0)
        store.fail("nyc")
        store.fail("chi")
        with pytest.raises(ReplicationError):
            store.acquire_lease("gs-1", now=5.0, duration=10.0)
        with pytest.raises(ReplicationError):
            store.leader(now=5.0)
        store.recover("chi")
        # Quorum is back but the original lease still holds.
        assert not store.acquire_lease("gs-2", now=6.0, duration=10.0)
        assert store.leader(now=6.0) == "gs-1"
        # After expiry (the leader could not renew) the standby wins.
        assert store.acquire_lease("gs-2", now=10.0, duration=10.0)
        assert store.leader(now=11.0) == "gs-2"

    def test_release_by_non_owner_does_not_unlock(self):
        store = ReplicatedStore(REPLICAS)
        store.acquire_lease("gs-1", now=0.0, duration=10.0)
        store.release_lease("gs-2")  # not the owner: ignored
        assert not store.acquire_lease("gs-2", now=1.0, duration=10.0)
        assert store.leader(now=1.0) == "gs-1"

    def test_release_of_expired_lease_is_harmless(self):
        store = ReplicatedStore(REPLICAS)
        store.acquire_lease("gs-1", now=0.0, duration=5.0)
        store.release_lease("gs-1")  # owner releases after use
        store.release_lease("gs-1")  # double release: no effect
        assert store.leader(now=1.0) is None
        assert store.acquire_lease("gs-2", now=1.0, duration=5.0)

    def test_reacquire_own_expired_lease(self):
        store = ReplicatedStore(REPLICAS)
        store.acquire_lease("gs-1", now=0.0, duration=5.0)
        assert store.acquire_lease("gs-1", now=7.0, duration=5.0)
        assert store.leader(now=8.0) == "gs-1"


def make_installation(name="corp", label=7) -> ChainInstallation:
    spec = ChainSpecification(
        name, "vpn", "in", "out", ["fw", "nat"],
        forward_demand=5.0, reverse_demand=2.0,
        src_prefix="10.0.0.0/24", dst_prefixes=("20.0.0.0/24",),
        protocol="tcp", dst_port_range=(80, 443),
    )
    return ChainInstallation(
        spec, label, "A", "C", 1.0,
        {("fw", "B"): 14.0, ("nat", "B"): 7.0},
        ["D"],
    )


class TestCheckpointing:
    def test_round_trip(self):
        store = ReplicatedStore(REPLICAS)
        original = make_installation()
        checkpoint_installation(store, original)
        restored = restore_installations(store)
        assert set(restored) == {"corp"}
        clone = restored["corp"]
        assert clone.label == original.label
        assert clone.ingress_site == "A"
        assert clone.egress_site == "C"
        assert clone.routed_fraction == 1.0
        assert clone.committed_load == original.committed_load
        assert clone.extra_edge_sites == ["D"]
        assert clone.spec.vnf_services == ("fw", "nat")
        assert clone.spec.dst_port_range == (80, 443)

    def test_round_trip_is_equal(self):
        store = ReplicatedStore(REPLICAS)
        spec = ChainSpecification(
            "corp", "vpn", "in", "out", ["fw", "nat"],
            forward_demand=5.0, reverse_demand=2.0, src_prefix=None,
            dst_prefixes=("20.0.0.0/24", "30.0.0.0/16"),
            protocol="udp", dst_port_range=(5000, 5100),
        )
        original = ChainInstallation(
            spec, 7, "A", "C", 0.75,
            {("fw", "B"): 14.0, ("nat", "C"): 7.0}, ["D"],
            {"A", "B", "C", "D"},
        )
        checkpoint_installation(store, original)
        assert restore_installations(store) == {"corp": original}

    def test_stored_spec_missing_a_key_is_a_serialization_error(self):
        store = ReplicatedStore(REPLICAS)
        checkpoint_installation(store, make_installation())
        (key,) = store.keys("/chains/")
        record = store.get(key)
        del record["spec"]["edge_service"]
        store.put(key, record)
        with pytest.raises(SerializationError):
            restore_installations(store)

    def test_restore_after_controller_failover(self):
        """The scenario the recipe exists for: the leader writes state,
        dies, and a standby on the surviving replicas rebuilds it."""
        store = ReplicatedStore(REPLICAS)
        store.acquire_lease("gs-primary", now=0.0, duration=5.0)
        checkpoint_installation(store, make_installation("corp"))
        checkpoint_installation(store, make_installation("branch", label=8))
        store.fail("nyc")  # one replica dies with the primary
        assert store.leader(now=10.0) is None  # lease expired
        assert store.acquire_lease("gs-standby", now=10.0, duration=5.0)
        restored = restore_installations(store)
        assert set(restored) == {"branch", "corp"}

    def test_remove_checkpoint(self):
        store = ReplicatedStore(REPLICAS)
        checkpoint_installation(store, make_installation())
        remove_checkpoint(store, "corp")
        assert restore_installations(store) == {}

    def test_update_overwrites(self):
        store = ReplicatedStore(REPLICAS)
        installation = make_installation()
        checkpoint_installation(store, installation)
        installation.routed_fraction = 0.5
        checkpoint_installation(store, installation)
        restored = restore_installations(store)
        assert restored["corp"].routed_fraction == 0.5
