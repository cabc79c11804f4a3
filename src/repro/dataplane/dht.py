"""DHT-replicated flow tables for forwarder elasticity and fault tolerance.

Section 5.3: "We are developing a solution that supports elastic scaling
and fault tolerance of forwarders by maintaining the flow table as a
replicated distributed hash table across forwarder nodes."  The paper
defers the design; this module implements the natural one:

- flow keys are placed on a **consistent-hash ring** of forwarder nodes
  (virtual nodes smooth the distribution);
- each entry is stored on the owner plus the next ``replication - 1``
  distinct successors;
- a forwarder that misses locally performs a (counted) remote lookup at
  the key's owner, so any forwarder can recover any connection's state;
- when a node joins or leaves, only the entries whose ownership moved
  are re-replicated, and no entry is lost while at most
  ``replication - 1`` nodes fail together.

This is what lets a VNF instance be remapped to a different forwarder
without violating flow affinity: the new forwarder finds the
connection's established next/prev hops in the DHT.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass
from typing import Iterator

from repro.core.errors import ReproError
from repro.dataplane.flowtable import FlowEntry, FlowKey
from repro.dataplane.labels import FiveTuple, Labels

#: Ring points per member.
VIRTUAL_NODES = 64


class DhtError(ReproError):
    """Raised on invalid DHT configuration or use."""


def _hash(value: str) -> int:
    return int.from_bytes(hashlib.sha1(value.encode()).digest()[:8], "big")


def _key_token(labels: Labels, flow: FiveTuple) -> str:
    return (
        f"{labels.chain}/{labels.egress_site}/{flow.src_ip}:{flow.src_port}/"
        f"{flow.dst_ip}:{flow.dst_port}/{flow.protocol}"
    )


@dataclass
class DhtStats:
    """Counters for lookups and maintenance traffic."""

    local_hits: int = 0
    remote_hits: int = 0
    misses: int = 0
    stores: int = 0
    transferred_entries: int = 0


class ConsistentHashRing:
    """A consistent-hash ring with virtual nodes."""

    def __init__(self):
        self._points: list[tuple[int, str]] = []
        self._members: set[str] = set()

    @property
    def members(self) -> list[str]:
        return sorted(self._members)

    def add(self, member: str) -> None:
        if member in self._members:
            raise DhtError(f"member {member!r} already on the ring")
        self._members.add(member)
        for v in range(VIRTUAL_NODES):
            point = (_hash(f"{member}#{v}"), member)
            bisect.insort(self._points, point)

    def remove(self, member: str) -> None:
        if member not in self._members:
            raise DhtError(f"member {member!r} not on the ring")
        self._members.discard(member)
        self._points = [(h, m) for h, m in self._points if m != member]

    def owners(self, token: str, count: int) -> list[str]:
        """The first ``count`` distinct members clockwise from the token."""
        if not self._points:
            return []
        count = min(count, len(self._members))
        start = bisect.bisect_left(self._points, (_hash(token), ""))
        owners: list[str] = []
        index = start
        while len(owners) < count:
            _h, member = self._points[index % len(self._points)]
            if member not in owners:
                owners.append(member)
            index += 1
        return owners


class ReplicatedFlowTable:
    """Flow-table entries replicated over a forwarder ring.

    Each participating forwarder holds a shard (``_shards[node]``); the
    table object coordinates placement and rebalancing.  ``lookup`` takes
    the querying node so local vs remote hits are accounted the way the
    data plane would experience them.
    """

    def __init__(self, replication: int = 2):
        if replication < 1:
            raise DhtError("replication factor must be >= 1")
        self.replication = replication
        self.ring = ConsistentHashRing()
        self._shards: dict[str, dict[FlowKey, FlowEntry]] = {}
        self.stats = DhtStats()

    # -- membership -----------------------------------------------------

    @property
    def nodes(self) -> list[str]:
        return self.ring.members

    def join(self, node: str) -> None:
        """Add a forwarder node and rebalance affected entries to it."""
        self.ring.add(node)
        self._shards.setdefault(node, {})
        self._rebalance()

    def leave(self, node: str) -> None:
        """Gracefully remove a node, transferring its entries first."""
        if node not in self._shards:
            raise DhtError(f"unknown node {node!r}")
        departing = self._shards.pop(node)
        self.ring.remove(node)
        for key, entry in departing.items():
            self._store(key, entry, count_stats=False)
            self.stats.transferred_entries += 1
        self._rebalance()

    def fail(self, node: str) -> None:
        """Crash-remove a node: its shard is lost; replicas must cover."""
        if node not in self._shards:
            raise DhtError(f"unknown node {node!r}")
        del self._shards[node]
        self.ring.remove(node)
        self._rebalance()

    # -- data path --------------------------------------------------------

    def insert(self, labels: Labels, flow: FiveTuple) -> FlowEntry:
        """Insert (or fetch) the entry for a connection."""
        key = FlowKey(labels, flow)
        existing = self._find(key)
        if existing is not None:
            return existing
        entry = FlowEntry()
        self._store(key, entry)
        return entry

    def lookup(
        self, querying_node: str, labels: Labels, flow: FiveTuple
    ) -> FlowEntry | None:
        """Look a connection up from a given forwarder's perspective."""
        key = FlowKey(labels, flow)
        shard = self._shards.get(querying_node)
        if shard is not None and key in shard:
            self.stats.local_hits += 1
            return shard[key]
        entry = self._find(key)
        if entry is not None:
            self.stats.remote_hits += 1
            # Cache at the querying node (read-repair style) so later
            # packets of the flow hit locally.
            if shard is not None:
                shard[key] = entry
            return entry
        self.stats.misses += 1
        return None

    def remove(self, labels: Labels, flow: FiveTuple) -> bool:
        key = FlowKey(labels, flow)
        removed = False
        for shard in self._shards.values():
            removed = shard.pop(key, None) is not None or removed
        return removed

    def alias(self, labels: Labels, flow: FiveTuple, entry: FlowEntry) -> FlowEntry:
        """Register an additional key for an existing entry (NAT rewrites)."""
        key = FlowKey(labels, flow)
        existing = self._find(key)
        if existing is not None:
            return existing
        self._store(key, entry)
        return entry

    def __len__(self) -> int:
        return len(set(self._iter_keys()))

    def entries_at(self, node: str) -> int:
        """Number of entries (including replicas) stored at a node."""
        return len(self._shards.get(node, {}))

    # -- internals -----------------------------------------------------------

    def _iter_keys(self) -> Iterator[FlowKey]:
        for shard in self._shards.values():
            yield from shard

    def _owners(self, key: FlowKey) -> list[str]:
        token = _key_token(key.labels, key.flow)
        return self.ring.owners(token, self.replication)

    def _find(self, key: FlowKey) -> FlowEntry | None:
        for node in self._owners(key):
            entry = self._shards.get(node, {}).get(key)
            if entry is not None:
                return entry
        # Fall back to any replica (covers entries not yet rebalanced).
        for shard in self._shards.values():
            if key in shard:
                return shard[key]
        return None

    def _store(self, key: FlowKey, entry: FlowEntry, count_stats: bool = True) -> None:
        owners = self._owners(key)
        if not owners:
            raise DhtError("cannot store: no nodes on the ring")
        for node in owners:
            self._shards[node][key] = entry
        if count_stats:
            self.stats.stores += 1

    def _rebalance(self) -> None:
        """Re-replicate every entry onto its current owner set."""
        if not self._shards:
            return
        seen: dict[FlowKey, FlowEntry] = {}
        for shard in self._shards.values():
            for key, entry in shard.items():
                seen.setdefault(key, entry)
        for key, entry in seen.items():
            owners = self._owners(key)
            for node in owners:
                if key not in self._shards[node]:
                    self._shards[node][key] = entry
                    self.stats.transferred_entries += 1


class DhtFlowTableView:
    """A per-forwarder view of a :class:`ReplicatedFlowTable`.

    Exposes the same ``lookup`` / ``insert`` / ``alias`` / ``remove``
    surface as :class:`~repro.dataplane.flowtable.FlowTable`, so a
    :class:`~repro.dataplane.forwarder.Forwarder` can be constructed
    with a DHT-backed table transparently.  The view records which node
    is querying, which drives the local/remote hit accounting.
    """

    def __init__(self, table: ReplicatedFlowTable, node: str):
        self.table = table
        self.node = node
        if node not in table.nodes:
            table.join(node)

    def lookup(self, labels: Labels, flow: FiveTuple) -> FlowEntry | None:
        return self.table.lookup(self.node, labels, flow)

    def insert(self, labels: Labels, flow: FiveTuple) -> FlowEntry:
        return self.table.insert(labels, flow)

    def alias(self, labels: Labels, flow: FiveTuple, entry: FlowEntry) -> FlowEntry:
        return self.table.alias(labels, flow, entry)

    def remove(self, labels: Labels, flow: FiveTuple) -> bool:
        return self.table.remove(labels, flow)

    def __len__(self) -> int:
        return self.table.entries_at(self.node)

    def __iter__(self) -> Iterator[FlowKey]:
        return iter(self.table._shards.get(self.node, {}))

