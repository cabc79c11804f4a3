"""Full-mesh broadcast baseline for the Figure 9 comparison.

"Full-mesh sends a separate copy of a message for each subscriber
whereas Switchboard only sends a single message for all subscribers at a
site.  Full-mesh results in excessive queuing of messages at the
publisher's site" (Section 6).

The baseline is the bus with that one change: :class:`FullMeshBus`
subclasses :class:`~repro.bus.bus.GlobalMessageBus` and keeps its
clients, publish path, WAN uplink accounting and gateway relays.  Only
the fan-out unit differs -- every publisher knows every subscriber, and
its proxy sends one copy addressed to each, in subscription order,
instead of one per subscribed site.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.bus.bus import GlobalMessageBus, proxy_name
from repro.bus.topics import Topic


class FullMeshBus(GlobalMessageBus):
    """Per-subscriber broadcast over the same proxy/uplink substrate."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Global subscriber registry: topic -> subscriber names, in
        #: subscription order.
        self._subscribers: dict[str, list[str]] = {}

    def subscribe(
        self,
        client_name: str,
        topic: Topic | str,
        callback: Callable[[str, Any], None] | None = None,
    ) -> None:
        super().subscribe(client_name, topic, callback)
        subscribers = self._subscribers.setdefault(str(topic), [])
        if client_name not in subscribers:
            subscribers.append(client_name)

    def unsubscribe(self, client_name: str, topic: Topic | str) -> None:
        super().unsubscribe(client_name, topic)
        key = str(topic)
        subscribers = self._subscribers.get(key, [])
        if client_name in subscribers:
            subscribers.remove(client_name)
        if not subscribers:
            self._subscribers.pop(key, None)

    def _fan_out(self, site: str, message: dict) -> None:
        """Publisher-site proxy: one copy per subscriber, every remote
        one pushed through the site's WAN uplink."""
        for name in self._subscribers.get(message["topic"], []):
            target_site = self.clients[name].site
            copy = {**message, "dest_client": name, "dest_site": target_site}
            if target_site == site:
                self._deliver_local(site, copy)
            else:
                self._send_wan(site, copy)

    def _deliver_local(self, site: str, message: dict) -> None:
        """Hand the copy to the one client it names."""
        self.network.send(
            proxy_name(site), message["dest_client"], message, message["size"],
            strict=False,
        )


make_full_mesh_bus = FullMeshBus.build
