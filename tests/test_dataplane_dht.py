"""Tests for the DHT-replicated flow table (forwarder elasticity / FT)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataplane.dht import (
    ConsistentHashRing,
    DhtError,
    DhtFlowTableView,
    ReplicatedFlowTable,
)
from repro.dataplane.forwarder import DataPlane, Forwarder, VnfInstance
from repro.dataplane.labels import FiveTuple, Labels, Packet
from repro.dataplane.rules import LoadBalancingRule, WeightedChoice

LBL = Labels(chain=1, egress_site="E")


def flow(i: int) -> FiveTuple:
    return FiveTuple("10.0.0.1", "20.0.0.1", "tcp", 1000 + i, 80)


class TestConsistentHashRing:
    def test_owner_stable_for_same_token(self):
        ring = ConsistentHashRing()
        for node in ("f1", "f2", "f3"):
            ring.add(node)
        assert ring.owners("some-key", 1) == ring.owners("some-key", 1)

    def test_owners_distinct(self):
        ring = ConsistentHashRing()
        for node in ("f1", "f2", "f3"):
            ring.add(node)
        owners = ring.owners("k", 3)
        assert len(owners) == len(set(owners)) == 3

    def test_count_capped_by_membership(self):
        ring = ConsistentHashRing()
        ring.add("f1")
        assert ring.owners("k", 5) == ["f1"]

    def test_removal_only_moves_affected_keys(self):
        ring = ConsistentHashRing()
        for node in ("f1", "f2", "f3", "f4"):
            ring.add(node)
        keys = [f"key-{i}" for i in range(200)]
        before = {k: ring.owners(k, 1)[0] for k in keys}
        ring.remove("f2")
        moved = 0
        for k in keys:
            after = ring.owners(k, 1)[0]
            if before[k] == "f2":
                assert after != "f2"
            elif after != before[k]:
                moved += 1
        assert moved == 0  # consistent hashing: unaffected keys stay put

    def test_distribution_roughly_even(self):
        ring = ConsistentHashRing()
        for node in ("f1", "f2", "f3", "f4"):
            ring.add(node)
        counts = {n: 0 for n in ("f1", "f2", "f3", "f4")}
        for i in range(4000):
            counts[ring.owners(f"key-{i}", 1)[0]] += 1
        for count in counts.values():
            assert 600 <= count <= 1500  # within ~50% of fair share

    def test_duplicate_add_rejected(self):
        ring = ConsistentHashRing()
        ring.add("f1")
        with pytest.raises(DhtError):
            ring.add("f1")

    def test_remove_unknown_rejected(self):
        with pytest.raises(DhtError):
            ConsistentHashRing().remove("ghost")


class TestReplicatedFlowTable:
    def make_table(self, nodes=3, replication=2):
        table = ReplicatedFlowTable(replication=replication)
        for i in range(nodes):
            table.join(f"f{i}")
        return table

    def test_join_adds_node(self):
        table = ReplicatedFlowTable()
        table.join("f1")
        table.join("f2")
        assert table.nodes == ["f1", "f2"]

    def test_fail_drops_node(self):
        table = self.make_table(nodes=2)
        table.fail("f0")
        assert table.nodes == ["f1"]

    def test_insert_then_lookup_from_any_node(self):
        table = self.make_table()
        entry = table.insert(LBL, flow(0))
        entry.next_hop = "next"
        for node in table.nodes:
            found = table.lookup(node, LBL, flow(0))
            assert found is entry

    def test_entry_replicated_on_r_nodes(self):
        table = self.make_table(nodes=4, replication=3)
        table.insert(LBL, flow(0))
        holders = sum(
            1 for node in table.nodes if table.entries_at(node) > 0
        )
        assert holders == 3

    def test_survives_single_crash_with_replication_two(self):
        table = self.make_table(nodes=4, replication=2)
        entries = {}
        for i in range(100):
            entry = table.insert(LBL, flow(i))
            entry.next_hop = f"hop{i}"
            entries[i] = entry
        table.fail("f1")
        survivor = table.nodes[0]
        for i in range(100):
            found = table.lookup(survivor, LBL, flow(i))
            assert found is not None
            assert found.next_hop == f"hop{i}"

    def test_no_replication_loses_state_on_crash(self):
        table = self.make_table(nodes=3, replication=1)
        for i in range(200):
            table.insert(LBL, flow(i))
        lost_node = table.nodes[0]
        held = table.entries_at(lost_node)
        table.fail(lost_node)
        survivor = table.nodes[0]
        missing = sum(
            1
            for i in range(200)
            if table.lookup(survivor, LBL, flow(i)) is None
        )
        assert missing == held
        assert missing > 0  # the hash spreads entries over all nodes

    def test_graceful_leave_preserves_everything(self):
        table = self.make_table(nodes=3, replication=1)
        for i in range(100):
            table.insert(LBL, flow(i))
        table.leave(table.nodes[0])
        survivor = table.nodes[0]
        assert all(
            table.lookup(survivor, LBL, flow(i)) is not None
            for i in range(100)
        )

    def test_join_rebalances_ownership(self):
        table = self.make_table(nodes=2, replication=2)
        for i in range(100):
            table.insert(LBL, flow(i))
        table.join("f-new")
        # The new node can serve every owned entry locally or remotely.
        assert all(
            table.lookup("f-new", LBL, flow(i)) is not None
            for i in range(100)
        )
        assert table.entries_at("f-new") > 0

    def test_remote_lookup_counted_and_cached(self):
        table = self.make_table(nodes=3, replication=1)
        entry = table.insert(LBL, flow(0))
        remote = next(
            n for n in table.nodes if table.entries_at(n) == 0
        )
        assert table.lookup(remote, LBL, flow(0)) is entry
        remote_hits = table.stats.remote_hits
        assert remote_hits >= 1
        # Second lookup hits the read-repair cache locally.
        table.lookup(remote, LBL, flow(0))
        assert table.stats.remote_hits == remote_hits

    def test_miss_counted(self):
        table = self.make_table()
        assert table.lookup("f0", LBL, flow(99)) is None
        assert table.stats.misses == 1

    def test_remove(self):
        table = self.make_table()
        table.insert(LBL, flow(0))
        assert table.remove(LBL, flow(0))
        assert table.lookup("f0", LBL, flow(0)) is None

    def test_invalid_replication_rejected(self):
        with pytest.raises(DhtError):
            ReplicatedFlowTable(replication=0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=5), st.integers(0, 1000))
    def test_replication_invariant(self, nodes, seed):
        rng = random.Random(seed)
        table = ReplicatedFlowTable(replication=2)
        for i in range(nodes):
            table.join(f"f{i}")
        keys = rng.sample(range(1000), 30)
        for i in keys:
            table.insert(LBL, flow(i))
        # Crash one node: every entry must still be readable.
        table.fail(rng.choice(table.nodes))
        survivor = table.nodes[0]
        assert all(
            table.lookup(survivor, LBL, flow(i)) is not None for i in keys
        )


class TestDhtBackedForwarders:
    def test_affinity_survives_forwarder_failover(self):
        """The paper's motivating scenario: a forwarder dies, its VNF
        instance is re-fronted by a sibling, and existing connections
        keep their instance binding because flow state is in the DHT."""
        table = ReplicatedFlowTable(replication=2)
        dp = DataPlane(random.Random(3))
        f1 = dp.add_forwarder(
            Forwarder("f1", "A", flow_table=DhtFlowTableView(table, "f1"))
        )
        f2 = dp.add_forwarder(
            Forwarder("f2", "A", flow_table=DhtFlowTableView(table, "f2"))
        )
        g1 = VnfInstance("g1", "G", "A")
        g2 = VnfInstance("g2", "G", "A")
        f1.attach(g1)
        f1.attach(g2)

        class Sink:
            name = "out"

            def receive_from_chain(self, packet, came_from):
                packet.record("out")

        dp.add_endpoint(Sink())
        rule = LoadBalancingRule(
            local_instances=WeightedChoice({"g1": 1.0, "g2": 1.0}),
            next_forwarders=WeightedChoice({"out": 1.0}),
        )
        f1.install_rule(1, "E", rule)
        f2.install_rule(1, "E", rule)

        pinned = {}
        for i in range(10):
            packet = Packet(flow(i), labels=Labels(1, "E"))
            dp.send_forward(packet, "f1", "edge")
            pinned[i] = [e for e in packet.trace if e.startswith("g")][0]

        # f1 crashes; its instances re-home to f2 (instance objects are
        # per-site VMs, the forwarder was just their proxy).
        table.fail("f1")
        del dp.forwarders["f1"]
        f2.attach(g1)
        f2.attach(g2)

        for i in range(10):
            packet = Packet(flow(i), labels=Labels(1, "E"))
            dp.send_forward(packet, "f2", "edge")
            chosen = [e for e in packet.trace if e.startswith("g")][0]
            assert chosen == pinned[i], "affinity broken by failover"
