"""Edge instances: the chain's ingress and egress endpoints.

An edge instance classifies arriving customer packets (applying the two
overlay labels), hands them to its attached forwarder, and at the far
end strips the labels before final delivery.  It remembers, per flow,
which forwarder delivered the forward direction so that reverse packets
re-enter the chain through the same forwarder (the symmetric-return
anchor of Section 5.3).

Only a connection's first packet is classified.  The labels it is given
are filed in an exact-match connection table (OVS's microflow cache),
which the flow's later packets probe instead.  The table is a memo of
the classifier and the egress table, so it is flushed when either
changes -- read off ``PrefixIndex.version``, which every way of editing
them moves -- and cleared when full.
"""

from __future__ import annotations

from repro.core.errors import ReproError
from repro.dataplane.forwarder import DataPlane, ForwardingError
from repro.dataplane.labels import FiveTuple, Labels, Packet
from repro.edge.classifier import (
    ClassifierRule,
    ClassifierTable,
    EgressTable,
    parse_address,
)


#: Bound of an edge's connection table, which is cleared when full (the
#: size of the OVS exact-match cache it stands for).
MAX_CONNECTIONS = 8192


class EdgeError(ReproError):
    """Raised on edge misconfiguration."""


class EdgeInstance:
    """One edge instance at one site, attached to one forwarder."""

    def __init__(self, name: str, site: str, dataplane: DataPlane):
        self.name = name
        self.site = site
        self.dataplane = dataplane
        self.forwarder: str | None = None
        self.classifier = ClassifierTable()
        self.egress_table = EgressTable()
        #: Packets delivered out of the chain to local destinations.
        self.delivered: list[Packet] = []
        #: Packets that failed classification (no chain matched).
        self.unclassified: list[Packet] = []
        #: The connection table, flow -> labels, and the state of the two
        #: tables it was filled under (each index and its version).
        self._connections: dict[FiveTuple, Labels] = {}
        self._connections_of: tuple | None = None
        #: flow -> (labels, forwarder the forward direction arrived from).
        self._flow_memory: dict[FiveTuple, tuple[Labels, str]] = {}
        dataplane.add_endpoint(self)

    # -- control plane ----------------------------------------------------

    def attach_forwarder(self, forwarder_name: str) -> None:
        if forwarder_name not in self.dataplane.forwarders:
            raise EdgeError(f"unknown forwarder {forwarder_name!r}")
        if self.dataplane.forwarders[forwarder_name].site != self.site:
            raise EdgeError("edge instance and forwarder must share a site")
        self.forwarder = forwarder_name

    def install_classifier(self, rule: ClassifierRule) -> None:
        self.classifier.install(rule)

    def remove_classifier(self, chain_label: int) -> None:
        self.classifier.remove(chain_label)

    # -- ingress path -----------------------------------------------------------

    def classify(self, flow: FiveTuple) -> int | None:
        """First-match classification to a chain label."""
        return self.classifier.first_match(flow, parse_address(flow.src_ip))

    def ingress(self, packet: Packet) -> Packet:
        """Label an arriving customer packet and walk it down the chain."""
        if self.forwarder is None:
            raise EdgeError(f"edge {self.name!r} has no attached forwarder")
        packet.trace.append(self.name)
        flow = packet.flow
        rules, routes = self.classifier.index, self.egress_table.index
        tables = (rules, rules.version, routes, routes.version)
        if tables != self._connections_of:
            self._connections.clear()
            self._connections_of = tables
        labels = self._connections.get(flow)
        if labels is None:
            # First packet of a connection: the one place a packet's
            # address text is parsed and the two tables are searched.
            src, dst = parse_address(flow.src_ip), parse_address(flow.dst_ip)
            chain_label = self.classifier.first_match(flow, src, dst)
            if chain_label is None:
                self.unclassified.append(packet)
                return packet
            egress_site = self.egress_table.longest_match(dst)
            if egress_site is None:
                self.unclassified.append(packet)
                return packet
            if len(self._connections) >= MAX_CONNECTIONS:
                self._connections.clear()
            labels = self._connections[flow] = Labels(chain_label, egress_site)
        packet.labels = labels
        return self.dataplane.send_forward(packet, self.forwarder, self.name)

    def send_reverse(self, packet: Packet) -> Packet:
        """Inject a reverse-direction packet for a flow this edge egressed.

        ``packet.flow`` must be the reversed five-tuple of a forward flow
        previously delivered here.
        """
        forward_flow = packet.flow.reversed()
        memory = self._flow_memory.get(forward_flow)
        if memory is None:
            raise ForwardingError(
                f"edge {self.name!r}: no flow state for reverse of {forward_flow}"
            )
        labels, return_forwarder = memory
        packet.labels = labels
        packet.trace.append(self.name)
        return self.dataplane.send_reverse(packet, return_forwarder, self.name)

    # -- egress path -------------------------------------------------------------

    def receive_from_chain(self, packet: Packet, came_from: str) -> None:
        """Terminate the chain: strip labels, deliver, remember the flow."""
        packet.trace.append(self.name)
        if packet.direction == "forward" and packet.labels is not None:
            self._flow_memory[packet.flow] = (packet.labels, came_from)
        packet.labels = None
        self.delivered.append(packet)

    def __repr__(self) -> str:
        return f"EdgeInstance({self.name!r}, site={self.site!r})"
