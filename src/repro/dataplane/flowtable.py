"""The forwarder flow table (Section 3, connection setup time).

Each connection gets two entries at every forwarder it crosses:

- a *next-hop* entry storing the VNF or forwarder instance selected by
  weighted load balancing when the first packet arrived, so later
  packets in the same direction follow the same instances (flow
  affinity);
- a *previous-hop* entry storing where the first packet came from, so
  packets in the reverse direction retrace the same instances in reverse
  order (symmetric return).

Entries are keyed by the connection's labels plus its five-tuple and
survive rule updates: "forwarders allow existing entries to remain until
the completion of a flow and route only new flows on the new routes"
(Section 5.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from repro.dataplane.labels import FiveTuple, Labels


class FlowKey(NamedTuple):
    """Key of a flow-table entry.  A tuple, so it equals and hashes as
    the bare pair ``(labels, flow)`` that ``lookup`` probes with."""

    labels: Labels
    flow: FiveTuple


@dataclass
class FlowEntry:
    """One direction's state for a connection at one forwarder."""

    next_hop: str | None = None
    prev_hop: str | None = None
    local_instance: str | None = None
    packets: int = 0


class FlowTable:
    """A forwarder's connection table with occupancy statistics."""

    def __init__(self, max_entries: int | None = None):
        self._entries: dict[FlowKey, FlowEntry] = {}
        self.max_entries = max_entries
        self.inserts = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[FlowKey]:
        return iter(self._entries)

    def lookup(self, labels: Labels, flow: FiveTuple) -> FlowEntry | None:
        entry = self._entries.get((labels, flow))
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def insert(self, labels: Labels, flow: FiveTuple) -> FlowEntry:
        """Insert (or return) the entry for a connection.

        When the table is full the oldest entry is evicted (insertion
        order approximates flow age; the DPDK prototype uses an LRU-like
        policy for the same purpose).
        """
        key = FlowKey(labels, flow)
        entry = self._entries.get(key)
        if entry is not None:
            return entry
        if self.max_entries is not None and len(self._entries) >= self.max_entries:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            self.evictions += 1
        entry = FlowEntry()
        self._entries[key] = entry
        self.inserts += 1
        return entry

    def alias(self, labels: Labels, flow: FiveTuple, entry: FlowEntry) -> FlowEntry:
        """Map an additional key onto an existing entry.

        Used when a header-rewriting VNF changes a connection's
        five-tuple mid-chain: the forwarder keys the same connection
        state under both the pre- and post-rewrite tuples.  Returns the
        entry now registered under the key (the existing one if the key
        was already mapped).
        """
        key = FlowKey(labels, flow)
        existing = self._entries.get(key)
        if existing is not None:
            return existing
        self._entries[key] = entry
        return entry

    def remove(self, labels: Labels, flow: FiveTuple) -> bool:
        """Remove a completed flow's entry; True if it existed."""
        return self._entries.pop((labels, flow), None) is not None

    def items(self) -> list[tuple[FlowKey, FlowEntry]]:
        """All (key, entry) pairs, oldest first."""
        return list(self._entries.items())

    def entries_for_chain(self, chain_label: int) -> list[tuple[FlowKey, FlowEntry]]:
        return [
            (key, entry)
            for key, entry in self._entries.items()
            if key.labels.chain == chain_label
        ]
