"""Packet-header overhead: label switching vs source routing (Section 8).

The related-work section argues for Switchboard's data-plane encoding:
"Segment Routing and Network Services Headers use source routing for
service chaining.  However, source routing can inflate packet header
sizes, especially when using IPv6 headers or when routing through long
chains of VNFs.  In contrast, Switchboard's data plane uses label
switching whose data plane overhead remains low even for longer chains."

This module makes that argument quantitative with the standard wire
formats:

- **Switchboard**: VXLAN tunnel (outer IPv4 + UDP + VXLAN) + 2 MPLS
  labels (chain id, egress site) -- constant in chain length;
- **NSH**: outer transport + the 8-byte NSH base/service-path header +
  per-hop metadata context (MD type 1: fixed 16 bytes; MD type 2:
  variable, modeled per hop);
- **SRv6**: outer IPv6 + a Segment Routing Header carrying one 16-byte
  IPv6 segment per VNF in the chain -- linear in chain length.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ReproError

_IPV4_BYTES = 20
_IPV6_BYTES = 40
_UDP_BYTES = 8
_VXLAN_BYTES = 8
_MPLS_LABEL_BYTES = 4
_NSH_BASE_BYTES = 8
_NSH_MD1_CONTEXT_BYTES = 16
_SRH_FIXED_BYTES = 8
_SEGMENT_BYTES = 16


class HeaderModelError(ReproError):
    """Raised on invalid chain lengths."""


def _check(chain_length: int) -> None:
    if chain_length < 0:
        raise HeaderModelError(f"negative chain length {chain_length}")


def switchboard_overhead_bytes(chain_length: int) -> int:
    """VXLAN tunnel plus the two labels -- independent of chain length.

    (The forwarder at each hop rewrites labels in place; no per-hop
    state rides in the packet.)
    """
    _check(chain_length)
    return _IPV4_BYTES + _UDP_BYTES + _VXLAN_BYTES + 2 * _MPLS_LABEL_BYTES


def nsh_overhead_bytes(chain_length: int, md_type: int = 1) -> int:
    """Network Service Header over a VXLAN-GPE-style transport.

    MD type 1 carries a fixed 16-byte context; MD type 2 is modeled as
    4 bytes of per-hop metadata (a TLV per service function).
    """
    _check(chain_length)
    transport = _IPV4_BYTES + _UDP_BYTES + _VXLAN_BYTES
    if md_type == 1:
        return transport + _NSH_BASE_BYTES + _NSH_MD1_CONTEXT_BYTES
    if md_type == 2:
        return transport + _NSH_BASE_BYTES + 4 * chain_length
    raise HeaderModelError(f"unknown NSH MD type {md_type}")


def srv6_overhead_bytes(chain_length: int) -> int:
    """IPv6 + Segment Routing Header with one segment per VNF.

    The segment list is the full source route, so the header grows by
    16 bytes per chain hop -- the inflation the paper calls out.
    """
    _check(chain_length)
    segments = max(1, chain_length)
    return _IPV6_BYTES + _SRH_FIXED_BYTES + _SEGMENT_BYTES * segments


@dataclass(frozen=True)
class OverheadComparison:
    """Overheads for one chain length, with goodput efficiency."""

    chain_length: int
    switchboard_bytes: int
    nsh_bytes: int
    srv6_bytes: int

    def efficiency(self, payload_bytes: int) -> dict[str, float]:
        """Payload share of the wire bytes for each encoding."""
        if payload_bytes <= 0:
            raise HeaderModelError(f"non-positive payload {payload_bytes}")
        return {
            "switchboard": payload_bytes / (payload_bytes + self.switchboard_bytes),
            "nsh": payload_bytes / (payload_bytes + self.nsh_bytes),
            "srv6": payload_bytes / (payload_bytes + self.srv6_bytes),
        }


def compare_overheads(chain_length: int) -> OverheadComparison:
    """Header overheads of the three encodings for one chain length."""
    return OverheadComparison(
        chain_length,
        switchboard_overhead_bytes(chain_length),
        nsh_overhead_bytes(chain_length),
        srv6_overhead_bytes(chain_length),
    )
