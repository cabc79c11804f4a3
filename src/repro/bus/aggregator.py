"""Message aggregation at Local Switchboard (Section 3).

"The local Switchboard controls the horizontal scaling of forwarders at
the site and performs aggregation of messages sent either by or to
forwarders."  With tens of forwarders per site each publishing weight or
liveness updates, aggregation is what keeps the wide-area message count
per *site* rather than per *forwarder*.

:class:`MessageAggregator` batches items published under the same topic
within an aggregation window: the first item arms a timer; everything
collected until it fires is published as one combined message.  The
Figure 9 economics then improve by another factor of (items per window).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.bus.topics import Topic
from repro.simnet.events import EventHandle

#: Simulated seconds a topic's first item waits for company.
WINDOW_S = 0.050


@dataclass
class AggregatorStats:
    items_collected: int = 0
    batches_published: int = 0

    @property
    def compression(self) -> float:
        """Items per published batch (1.0 = no benefit)."""
        if self.batches_published == 0:
            return 1.0
        return self.items_collected / self.batches_published


@dataclass
class _PendingBatch:
    items: list[Any] = field(default_factory=list)
    timer: EventHandle | None = None


class MessageAggregator:
    """Batches per-topic items into windowed bus publications.

    ``bus`` is any object with a ``publish(client, topic, payload)``
    method and a ``network.sim`` clock (both bus implementations qualify);
    ``client`` is the Local Switchboard's bus client at this site.
    """

    def __init__(self, bus, client: str):
        self.bus = bus
        self.client = client
        self.stats = AggregatorStats()
        self._pending: dict[str, _PendingBatch] = {}

    def collect(self, topic: Topic | str, item: Any) -> None:
        """Queue one item for the topic; arms the window timer if idle."""
        key = str(topic)
        batch = self._pending.setdefault(key, _PendingBatch())
        batch.items.append(item)
        self.stats.items_collected += 1
        if batch.timer is None or batch.timer.cancelled:
            batch.timer = self.bus.network.sim.schedule(
                WINDOW_S, self._flush, key
            )

    def flush_all(self) -> None:
        """Publish every pending batch immediately (e.g. on shutdown)."""
        for key in list(self._pending):
            batch = self._pending[key]
            if batch.timer is not None:
                batch.timer.cancel()
            self._flush(key)

    def pending_items(self, topic: Topic | str) -> int:
        batch = self._pending.get(str(topic))
        return len(batch.items) if batch else 0

    def _flush(self, key: str) -> None:
        batch = self._pending.pop(key, None)
        if batch is None or not batch.items:
            return
        self.bus.publish(
            self.client, key, {"batch": list(batch.items)}
        )
        self.stats.batches_published += 1
