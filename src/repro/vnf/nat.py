"""A NAT network function (the paper's iptables NAT).

Forward packets get their source rewritten to the NAT's public address
with an allocated port; reverse packets addressed to the public mapping
are rewritten back to the original private endpoint.  A NAT is the
paper's canonical VNF requiring *symmetric return*: a reverse packet
that reached a different NAT instance would find no mapping and be
dropped -- which :class:`DropPacket` models.
"""

from __future__ import annotations

from repro.dataplane.forwarder import DropPacket
from repro.dataplane.labels import FiveTuple, Packet

#: The first public port a NAT allocates.
PORT_BASE = 40000


class NatFunction:
    """Source NAT with per-instance mapping state.

    Use one instance per data-plane :class:`VnfInstance`; the mapping
    table is deliberately *not* shared between instances, which is what
    makes symmetric return a correctness requirement.
    """

    def __init__(self, public_ip: str):
        self.public_ip = public_ip
        self._next_port = PORT_BASE
        #: (private ip, private port, protocol) -> public port
        self._forward: dict[tuple[str, int, str], int] = {}
        #: public port -> (private ip, private port, protocol)
        self._reverse: dict[int, tuple[str, int, str]] = {}
        self.translations = 0
        self.drops = 0

    def __call__(self, packet: Packet) -> None:
        if packet.direction == "forward":
            self._translate_forward(packet)
        else:
            self._translate_reverse(packet)

    def _translate_forward(self, packet: Packet) -> None:
        flow = packet.flow
        key = (flow.src_ip, flow.src_port, flow.protocol)
        port = self._forward.get(key)
        if port is None:
            port = self._next_port
            self._next_port += 1
            self._forward[key] = port
            self._reverse[port] = key
        packet.flow = FiveTuple(
            self.public_ip, flow.dst_ip, flow.protocol, port, flow.dst_port
        )
        self.translations += 1

    def _translate_reverse(self, packet: Packet) -> None:
        flow = packet.flow
        if flow.dst_ip != self.public_ip:
            self.drops += 1
            raise DropPacket(
                f"NAT {self.public_ip}: reverse packet for foreign address "
                f"{flow.dst_ip}"
            )
        mapping = self._reverse.get(flow.dst_port)
        if mapping is None or mapping[2] != flow.protocol:
            self.drops += 1
            raise DropPacket(
                f"NAT {self.public_ip}: no mapping for port {flow.dst_port}"
            )
        private_ip, private_port, protocol = mapping
        packet.flow = FiveTuple(
            flow.src_ip, private_ip, protocol, flow.src_port, private_port
        )
        self.translations += 1
