"""Packets, five-tuples, and overlay labels.

Section 3: "The first packet in a connection enters at an ingress edge
instance, which affixes two labels to it.  The first label identifies the
customer and its service chain, and the second label identifies the
egress edge site."  The prototype carries these as MPLS labels inside
VXLAN tunnels; here they are plain fields on the simulated packet.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, NamedTuple


class FiveTuple(NamedTuple):
    """The connection key: (src IP, dst IP, protocol, src port, dst port).
    A tuple, as :class:`Labels` is: every hop hashes both, and does so in C."""

    src_ip: str
    dst_ip: str
    protocol: str
    src_port: int
    dst_port: int

    def reversed(self) -> "FiveTuple":
        """The same connection seen in the opposite direction."""
        # One frame: every reply is reversed at its edge and once per walk.
        return tuple.__new__(type(self), (self[1], self[0], self[2], self[4], self[3]))


class Labels(NamedTuple):
    """The two overlay labels applied by the ingress edge."""

    chain: int
    egress_site: str


@dataclass
class Packet:
    """A simulated packet.

    ``labels`` is None before the ingress edge applies them (and after a
    forwarder strips them for a label-unaware VNF).  ``direction`` is
    'forward' from ingress to egress and 'reverse' on the return path.
    ``trace`` accumulates the names of every element that handled the
    packet -- the conformity and affinity tests assert on it.
    """

    flow: FiveTuple
    direction: str = "forward"
    labels: Labels | None = None
    size_bytes: int = 500
    payload: Any = None
    trace: list[str] = field(default_factory=list)

    def record(self, element: str) -> None:
        self.trace.append(element)

    def copy(self) -> "Packet":
        return replace(self, trace=list(self.trace))


class LabelAllocator:
    """Allocates unique chain labels, as Global Switchboard does when it
    realizes a chain (Section 3, phase 2)."""

    def __init__(self) -> None:
        self._counter = itertools.count(1)
        self._by_chain: dict[str, int] = {}

    def allocate(self, chain_name: str) -> int:
        """Allocate (or return the existing) label for a chain."""
        if chain_name not in self._by_chain:
            self._by_chain[chain_name] = next(self._counter)
        return self._by_chain[chain_name]

    def release(self, chain_name: str) -> None:
        self._by_chain.pop(chain_name, None)

    def lookup(self, chain_name: str) -> int | None:
        return self._by_chain.get(chain_name)
