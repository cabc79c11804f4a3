"""Customer-facing chain specifications.

This is what the portal of Section 2 submits: ingress/egress given as
edge attachments (a customer edge router identifier, a VPN, ...) plus an
optional traffic slice (prefixes, ports, protocol), the ordered VNF
list, and a demand estimate used for the initial route computation
("customer estimates for the initial chain deployment", Section 4.1).

:func:`spec_to_dict` / :func:`spec_from_dict` are a specification's one
document form (schema-versioned by
:func:`repro.core.serialization.check_version`): the portal submits it
and the controller checkpoint embeds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.errors import ReproError
from repro.core.serialization import (
    SCHEMA_VERSION,
    SerializationError,
    check_version,
)


class SpecError(ReproError):
    """Raised on malformed chain specifications."""


@dataclass(frozen=True)
class ChainSpecification:
    """A customer's chain request.

    ``ingress_attachment`` / ``egress_attachment`` name attachment points
    known to the edge service (resolved to sites by the edge controller).
    ``dst_prefixes`` populate the per-customer egress routing table.
    """

    name: str
    edge_service: str
    ingress_attachment: str
    egress_attachment: str
    vnf_services: tuple[str, ...]
    forward_demand: float = 1.0
    reverse_demand: float = 0.0
    src_prefix: str | None = None
    dst_prefixes: tuple[str, ...] = field(default_factory=tuple)
    protocol: str | None = None
    dst_port_range: tuple[int, int] | None = None

    def __init__(
        self,
        name: str,
        edge_service: str,
        ingress_attachment: str,
        egress_attachment: str,
        vnf_services: Sequence[str],
        forward_demand: float = 1.0,
        reverse_demand: float = 0.0,
        src_prefix: str | None = None,
        dst_prefixes: Sequence[str] = (),
        protocol: str | None = None,
        dst_port_range: tuple[int, int] | None = None,
    ):
        if not name:
            raise SpecError("chain needs a name")
        if not (0 <= forward_demand < math.inf and 0 <= reverse_demand < math.inf):
            raise SpecError(f"chain {name!r}: demand not finite and non-negative")
        if forward_demand + reverse_demand == 0:
            raise SpecError(f"chain {name!r}: zero total demand")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "edge_service", edge_service)
        object.__setattr__(self, "ingress_attachment", ingress_attachment)
        object.__setattr__(self, "egress_attachment", egress_attachment)
        object.__setattr__(self, "vnf_services", tuple(vnf_services))
        object.__setattr__(self, "forward_demand", forward_demand)
        object.__setattr__(self, "reverse_demand", reverse_demand)
        object.__setattr__(self, "src_prefix", src_prefix)
        object.__setattr__(self, "dst_prefixes", tuple(dst_prefixes))
        object.__setattr__(self, "protocol", protocol)
        object.__setattr__(self, "dst_port_range", dst_port_range)


def spec_to_dict(spec: ChainSpecification) -> dict[str, Any]:
    """A chain specification as the portal would submit it."""
    return {
        "schema_version": SCHEMA_VERSION,
        "name": spec.name,
        "edge_service": spec.edge_service,
        "ingress_attachment": spec.ingress_attachment,
        "egress_attachment": spec.egress_attachment,
        "vnf_services": list(spec.vnf_services),
        "forward_demand": spec.forward_demand,
        "reverse_demand": spec.reverse_demand,
        "src_prefix": spec.src_prefix,
        "dst_prefixes": list(spec.dst_prefixes),
        "protocol": spec.protocol,
        "dst_port_range": list(spec.dst_port_range)
        if spec.dst_port_range
        else None,
    }


def spec_from_dict(document: dict[str, Any]) -> ChainSpecification:
    """Parse a specification document; the specification validates its
    demands (:class:`SpecError`), a malformed document raises
    :class:`~repro.core.serialization.SerializationError`."""
    try:
        check_version(document)
        port_range = document.get("dst_port_range")
        return ChainSpecification(
            document["name"],
            document["edge_service"],
            document["ingress_attachment"],
            document["egress_attachment"],
            document["vnf_services"],
            forward_demand=float(document.get("forward_demand", 1.0)),
            reverse_demand=float(document.get("reverse_demand", 0.0)),
            src_prefix=document.get("src_prefix"),
            dst_prefixes=document.get("dst_prefixes", ()),
            protocol=document.get("protocol"),
            dst_port_range=tuple(port_range) if port_range else None,
        )
    except ReproError:
        raise  # the domain's own error, unwrapped
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed chain document: {exc}") from exc
