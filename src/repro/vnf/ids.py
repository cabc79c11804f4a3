"""An intrusion-detection/prevention network function.

The paper's introduction motivates exactly this VNF: "a logistics
enterprise can add specialized network traffic analysis for its
Internet-connected vehicles in response to an emerging security threat
... by instantly inserting a new VNF into an existing chain."

The model is a small signature + anomaly engine:

- *signatures* match on packet payloads (simulated as strings); a match
  raises an alert and, in prevention mode, drops the packet;
- a per-source *scan detector* counts distinct destination ports seen
  from each source address and flags sources that exceed a threshold
  (a port-scan heuristic), after which their traffic is dropped.

State is per-instance, so this VNF, like the firewall, requires flow
affinity to see a connection's packets consistently.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.dataplane.forwarder import DropPacket
from repro.dataplane.labels import Packet


@dataclass
class Alert:
    """One IDS alert."""

    kind: str
    source: str
    detail: str


@dataclass
class IntrusionDetector:
    """Signature + port-scan detection, optionally in prevention mode."""

    signatures: list[str] = field(default_factory=list)
    scan_port_threshold: int = 20
    prevention: bool = True
    alerts: list[Alert] = field(default_factory=list)
    packets_dropped: int = 0
    _ports_by_source: dict[str, set[int]] = field(
        default_factory=lambda: defaultdict(set)
    )
    _blocked_sources: set[str] = field(default_factory=set)

    def is_blocked(self, source: str) -> bool:
        return source in self._blocked_sources

    def __call__(self, packet: Packet) -> None:
        source = packet.flow.src_ip

        if source in self._blocked_sources:
            self.packets_dropped += 1
            raise DropPacket(f"ids: source {source} is blocked")

        payload = packet.payload if isinstance(packet.payload, str) else ""
        for signature in self.signatures:
            if signature in payload:
                self.alerts.append(
                    Alert("signature", source, f"matched {signature!r}")
                )
                if self.prevention:
                    self.packets_dropped += 1
                    raise DropPacket(
                        f"ids: payload matched signature {signature!r}"
                    )

        ports = self._ports_by_source[source]
        ports.add(packet.flow.dst_port)
        if len(ports) > self.scan_port_threshold:
            self.alerts.append(
                Alert(
                    "port-scan",
                    source,
                    f"{len(ports)} distinct destination ports",
                )
            )
            if self.prevention:
                self._blocked_sources.add(source)
                self.packets_dropped += 1
                raise DropPacket(f"ids: port scan from {source}")
