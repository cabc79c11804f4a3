"""Forwarders and a synchronous data-plane driver.

The driver walks simulated packets through the exact element sequence of
Section 3's data-plane operation: ingress edge -> forwarder -> VNF
instance -> forwarder -> ... -> egress edge, installing flow-table
entries on the first packet of each connection so that

- later packets in the same direction follow the same instances
  (*flow affinity*),
- reverse-direction packets retrace the same instances in reverse order
  (*symmetric return*), and
- every packet visits the chain's VNFs in order (*conformity*).

Forwarders are deliberately oblivious to chain *semantics*: they only
know their label-indexed load-balancing rules and their flow tables, as
in the paper.  Route or weight changes only affect connections that
start after the change.

An established connection's packet costs one Python frame per hop.
``send_forward`` / ``send_reverse`` fix the direction, so the walk runs
that direction's handler at every forwarder: trace record, counters,
byte meter, one flow-table lookup, the instance.  Whatever else a
handler holds is connection set-up, run by the first packet only.  A
reply's lookup key (its five-tuple reversed) is built once per walk, and
again only behind a header-rewriting VNF.  DESIGN section 14 has the
cost model, ``tests/test_dataplane_fastpath.py`` pins it.
"""

from __future__ import annotations

import random
from typing import Callable, Protocol

from repro.core.errors import ReproError
from repro.dataplane.flowtable import FlowTable
from repro.dataplane.labels import FiveTuple, Labels, Packet
from repro.dataplane.rules import LoadBalancingRule, RuleError


class ForwardingError(ReproError):
    """Raised when a packet cannot be forwarded."""


class DropPacket(Exception):
    """Raised by a VNF transform to drop the packet (e.g. a NAT with no
    mapping, or a firewall rejecting an unsolicited reverse packet)."""


class ChainEndpoint(Protocol):
    """Anything that can terminate a chain (an egress edge instance)."""

    name: str

    def receive_from_chain(self, packet: Packet, came_from: str) -> None:
        ...


class VnfInstance:
    """A single VNF instance (VM/container) attached to a forwarder.

    ``transform`` optionally rewrites the packet (e.g. a NAT rewriting the
    five-tuple); it is called per packet with the packet itself.  When
    ``supports_labels`` is False, the attached forwarder strips the labels
    before handing over the packet and re-affixes them afterwards.
    """

    #: Load-balancing weight: a site's instances of a service share its
    #: traffic equally.
    weight = 1.0

    def __init__(
        self,
        name: str,
        service: str,
        site: str,
        supports_labels: bool = True,
        transform: Callable[[Packet], None] | None = None,
    ):
        self.name = name
        self.service = service
        self.site = site
        self.supports_labels = supports_labels
        self.transform = transform

    def process(self, packet: Packet) -> Packet:
        packet.trace.append(self.name)
        if self.transform is not None:
            self.transform(packet)
        return packet

    def __repr__(self) -> str:
        return f"VnfInstance({self.name!r}, service={self.service!r}, site={self.site!r})"


class Forwarder:
    """A Switchboard forwarder: label-indexed rules plus a flow table.

    ``flow_table`` may be supplied to share connection state across
    forwarders (the DHT-replicated table of
    :mod:`repro.dataplane.dht`); by default each forwarder keeps a
    private table, as the paper's base design does.
    """

    def __init__(
        self,
        name: str,
        site: str,
        flow_table=None,
    ):
        self.name = name
        self.site = site
        self.flow_table = flow_table if flow_table is not None else FlowTable()
        self.rules: dict[tuple[int, str], LoadBalancingRule] = {}
        self.attached: dict[str, VnfInstance] = {}
        self.packets_forwarded = 0
        self.packets_dropped = 0
        #: (chain label, egress site, direction) -> bytes seen.  The
        #: measurement substrate of Section 4.1: per-chain demand is
        #: estimated from these counters.
        self.traffic_bytes: dict[tuple[int, str, str], int] = {}

    # -- control plane surface ------------------------------------------

    def attach(self, instance: VnfInstance) -> None:
        """Associate a VNF instance with this forwarder (same L2 domain)."""
        if instance.site != self.site:
            raise ForwardingError(
                f"instance {instance.name!r} at {instance.site!r} cannot attach "
                f"to forwarder at {self.site!r}"
            )
        self.attached[instance.name] = instance

    def install_rule(
        self, chain_label: int, egress_site: str, rule: LoadBalancingRule
    ) -> None:
        """Install/replace the rule for a (chain, egress) pair.

        Existing flow-table entries are intentionally left alone: only
        new connections see the new rule (Section 5.3).
        """
        self.rules[(chain_label, egress_site)] = rule

    def remove_rule(self, chain_label: int, egress_site: str) -> None:
        self.rules.pop((chain_label, egress_site), None)

    def rule_for(self, labels: Labels) -> LoadBalancingRule | None:
        return self.rules.get((labels.chain, labels.egress_site))

    def __repr__(self) -> str:
        return f"Forwarder({self.name!r}, site={self.site!r})"


class DataPlane:
    """Synchronous packet walker over forwarders, VNFs, and edges.

    ``send_forward`` / ``send_reverse`` walk one packet end-to-end and
    return it (with its ``trace`` filled in).  A ``max_hops`` guard turns
    mis-configured rule loops into errors instead of hangs.
    """

    MAX_HOPS = 64

    def __init__(self, rng: random.Random | None = None):
        self.rng = rng if rng is not None else random.Random(0)
        self.forwarders: dict[str, Forwarder] = {}
        self.endpoints: dict[str, ChainEndpoint] = {}
        self.drops: list[tuple[Packet, str]] = []
        #: (a reply's flow, that tuple reversed): the last reverse lookup
        #: key, good for as long as ``packet.flow`` is that very object.
        self._reverse_key: tuple[FiveTuple | None, FiveTuple | None] = (None, None)

    # -- registration ------------------------------------------------------

    def add_forwarder(self, forwarder: Forwarder) -> Forwarder:
        if forwarder.name in self.forwarders:
            raise ForwardingError(f"duplicate forwarder {forwarder.name!r}")
        self.forwarders[forwarder.name] = forwarder
        return forwarder

    def add_endpoint(self, endpoint: ChainEndpoint) -> None:
        if endpoint.name in self.endpoints:
            raise ForwardingError(f"duplicate endpoint {endpoint.name!r}")
        self.endpoints[endpoint.name] = endpoint

    # -- packet walking -------------------------------------------------------

    def send_forward(self, packet: Packet, first_forwarder: str, came_from: str) -> Packet:
        """Walk a labelled forward-direction packet from the ingress
        edge's forwarder to the egress endpoint."""
        packet.direction = "forward"
        return self._walk(packet, first_forwarder, came_from, self._forward_hop)

    def send_reverse(self, packet: Packet, first_forwarder: str, came_from: str) -> Packet:
        """Walk a labelled reverse-direction packet from the egress
        edge's forwarder back to the ingress endpoint."""
        packet.direction = "reverse"
        return self._walk(packet, first_forwarder, came_from, self._reverse_hop)

    def _walk(self, packet: Packet, target: str, came_from: str, hop) -> Packet:
        """``hop`` handles one forwarder: the next target's name, or None to drop."""
        endpoint_of, forwarder_of = self.endpoints.get, self.forwarders.get
        for _ in range(self.MAX_HOPS):
            endpoint = endpoint_of(target)
            if endpoint is not None:
                endpoint.receive_from_chain(packet, came_from)
                return packet
            forwarder = forwarder_of(target)
            if forwarder is None:
                raise ForwardingError(f"unknown forwarding target {target!r}")
            step = hop(forwarder, packet, came_from)
            if step is None:
                self.drops.append((packet, forwarder.name))
                forwarder.packets_dropped += 1
                return packet
            came_from = forwarder.name
            target = step
        raise ForwardingError(
            f"packet exceeded {self.MAX_HOPS} hops: trace={packet.trace}"
        )

    # -- per-forwarder behaviour ----------------------------------------------

    def _forward_hop(self, fwd: Forwarder, packet: Packet, came_from: str) -> str | None:
        labels = packet.labels
        if labels is None:
            return None
        packet.trace.append(fwd.name)
        fwd.packets_forwarded += 1
        meter_key = (labels.chain, labels.egress_site, "forward")
        traffic = fwd.traffic_bytes
        traffic[meter_key] = traffic.get(meter_key, 0) + packet.size_bytes
        in_flow = packet.flow
        entry = fwd.flow_table.lookup(labels, in_flow)
        if entry is None:
            rule = fwd.rule_for(labels)
            if rule is None:
                return None
            # Pick before inserting: a set-up dropped here must leave no
            # entry for the flow's next packet to hit and skip the VNF.
            local_instance = None
            try:
                if len(rule.local_instances):
                    local_instance = rule.local_instances.pick(self.rng)
            except RuleError:
                return None
            entry = fwd.flow_table.insert(labels, in_flow)
            entry.prev_hop = came_from
            entry.local_instance = local_instance
            # The next hop is chosen after the local VNF runs (the tuple
            # may change); leave next_hop unset until then.
        entry.packets += 1

        if entry.local_instance is not None:
            instance = fwd.attached.get(entry.local_instance)
            if instance is None:
                return None
            try:
                if instance.supports_labels:
                    instance.process(packet)
                else:
                    self._run_instance(instance, packet)
            except DropPacket:
                return None
            out_flow = packet.flow
            if out_flow is not in_flow and out_flow != in_flow:
                # Header-rewriting VNF: alias the entry under the new
                # tuple so reverse-direction lookups still match (the
                # per-interface label re-association of Section 5.3).
                entry = fwd.flow_table.alias(labels, out_flow, entry)

        if entry.next_hop is None:
            rule = fwd.rule_for(labels)
            if rule is None or not len(rule.next_forwarders):
                return None
            try:
                entry.next_hop = rule.next_forwarders.pick(self.rng)
            except RuleError:
                return None
        return entry.next_hop

    def _reverse_hop(self, fwd: Forwarder, packet: Packet, came_from: str) -> str | None:
        labels = packet.labels
        if labels is None:
            return None
        packet.trace.append(fwd.name)
        fwd.packets_forwarded += 1
        meter_key = (labels.chain, labels.egress_site, "reverse")
        traffic = fwd.traffic_bytes
        traffic[meter_key] = traffic.get(meter_key, 0) + packet.size_bytes
        # Reverse packets match the entry installed by the forward
        # direction: key by the reversed five-tuple, carried from hop to
        # hop until a header-rewriting VNF replaces ``packet.flow``.
        flow = packet.flow
        reversed_of, key = self._reverse_key
        if reversed_of is not flow:
            key = flow.reversed()
            self._reverse_key = (flow, key)
        entry = fwd.flow_table.lookup(labels, key)
        if entry is None:
            return None
        entry.packets += 1
        if entry.local_instance is not None:
            instance = fwd.attached.get(entry.local_instance)
            if instance is None:
                return None
            try:
                if instance.supports_labels:
                    instance.process(packet)
                else:
                    self._run_instance(instance, packet)
            except DropPacket:
                return None
        return entry.prev_hop

    @staticmethod
    def _run_instance(instance: VnfInstance, packet: Packet) -> None:
        """Run a label-unaware instance: strip the labels, re-affix them."""
        saved = packet.labels
        packet.labels = None
        try:
            instance.process(packet)
        finally:
            packet.labels = saved
