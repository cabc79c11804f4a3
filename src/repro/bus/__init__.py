"""The Switchboard global message bus (Section 6).

A publish/subscribe system with one message-queuing proxy per site.
Its defining optimization: subscription filters are installed at the
proxy of the *publisher's* site (inferred from the topic), so a site
with no subscribers for a topic never receives the message, and a site
with any subscribers receives exactly one copy over the shared
inter-proxy connection.  The full-mesh broadcast baseline of Figure 9
is the same bus with one override: :class:`FullMeshBus` sends one copy
per *subscriber*, all serialized through the publisher site's uplink,
which is what produces its order-of-magnitude latency gap and
buffer-overflow message drops.
"""

from repro.bus.aggregator import MessageAggregator
from repro.bus.broadcast import FullMeshBus, make_full_mesh_bus
from repro.bus.bus import (
    BusClient,
    BusStats,
    GlobalMessageBus,
    build_bus_network,
    make_bus,
)
from repro.bus.topics import Topic

__all__ = [
    "BusClient",
    "BusStats",
    "FullMeshBus",
    "GlobalMessageBus",
    "MessageAggregator",
    "Topic",
    "build_bus_network",
    "make_bus",
    "make_full_mesh_bus",
]
