"""Discrete-event simulation substrate.

The control-plane experiments (message bus, chain installation, edge-site
addition) and the data-plane end-to-end experiments run on this simulator
instead of a physical testbed.  It provides:

- :class:`~repro.simnet.events.Simulator` -- an event loop with a
  simulated clock and cancellable timers.
- :class:`~repro.simnet.network.SimNetwork` -- hosts connected by
  directed links with propagation delay, finite bandwidth, and finite
  FIFO buffers (so overload produces queueing and drops, which the
  Figure 9 broadcast comparison depends on).
"""

from repro.simnet.events import EventHandle, Simulator
from repro.simnet.network import Host, LinkSpec, LinkStats, SimNetwork

__all__ = [
    "EventHandle",
    "Host",
    "LinkSpec",
    "LinkStats",
    "SimNetwork",
    "Simulator",
]
