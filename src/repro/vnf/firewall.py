"""A stateful firewall network function (the paper's iptables firewall).

Policy rules decide which *forward-direction* flows may be admitted;
reverse packets are admitted only for connections the same instance has
previously seen in the forward direction (ESTABLISHED state, as with
iptables conntrack).  Because the connection state is per-instance, the
firewall requires *flow affinity*: a later packet of an admitted flow
that reached a different instance would be treated as unsolicited.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dataplane.forwarder import DropPacket
from repro.dataplane.labels import FiveTuple, Packet
from repro.edge.classifier import ClassifierRule


@dataclass(frozen=True)
class FirewallRule:
    """An allow rule; None fields are wildcards."""

    src_prefix: str | None = None
    dst_prefix: str | None = None
    protocol: str | None = None
    dst_port_range: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        # An allow rule matches as a classifier rule does (the chain
        # label is unused), so it is compiled once the same way.
        compiled = ClassifierRule(
            0, self.src_prefix, self.dst_prefix, self.protocol, None,
            self.dst_port_range,
        )
        object.__setattr__(self, "_compiled", compiled)

    def matches(self, flow: FiveTuple) -> bool:
        return self._compiled.matches(flow)


class StatefulFirewall:
    """Per-instance stateful firewall with allow rules + conntrack."""

    def __init__(self, rules: list[FirewallRule] | None = None,
                 default_allow: bool = False):
        self.rules = list(rules or [])
        self.default_allow = default_allow
        self._established: set[FiveTuple] = set()
        self.dropped = 0

    def is_established(self, flow: FiveTuple) -> bool:
        return flow in self._established

    def __call__(self, packet: Packet) -> None:
        flow = packet.flow
        if packet.direction == "forward":
            if flow in self._established:
                return
            if any(rule.matches(flow) for rule in self.rules) or self.default_allow:
                self._established.add(flow)
                return
            self.dropped += 1
            raise DropPacket(f"firewall: no rule admits {flow}")
        # Reverse direction: only established connections may return.
        if flow.reversed() in self._established:
            return
        self.dropped += 1
        raise DropPacket(f"firewall: unsolicited reverse packet {flow}")
