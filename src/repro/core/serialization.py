"""Document forms of the Table 1 model's records.

Section 4.5: "The parameters of the network model (Table 1) for Global
Switchboard are defined using the YANG data modeling language and data
entries are stored as JSON objects."  The one model record that crosses
a process boundary here is the chain: :func:`chain_to_dict` is the one
document form of a :class:`~repro.core.model.Chain`, which the
federation store persists and the federated RPC messages carry.
Customer chain specifications have their codec next to their type, in
:mod:`repro.controller.chainspec`, built on :func:`check_version`.
"""

from __future__ import annotations

from typing import Any

from repro.core.errors import ReproError
from repro.core.model import Chain

SCHEMA_VERSION = 1


class SerializationError(ReproError):
    """Raised on malformed documents."""


def check_version(document: dict[str, Any]) -> None:
    """Refuse a document of another schema version."""
    version = document["schema_version"]
    if version != SCHEMA_VERSION:
        raise SerializationError(
            f"unsupported schema version {version!r} "
            f"(expected {SCHEMA_VERSION})"
        )


def chain_to_dict(chain: Chain) -> dict[str, Any]:
    """A chain as its document."""
    return {
        "name": chain.name,
        "ingress": chain.ingress,
        "egress": chain.egress,
        "vnfs": list(chain.vnfs),
        "forward_traffic": list(chain.forward_traffic),
        "reverse_traffic": list(chain.reverse_traffic),
    }


def chain_from_dict(document: dict[str, Any]) -> Chain:
    """Parse a chain document; the chain validates its demands."""
    try:
        return Chain(
            document["name"],
            document["ingress"],
            document["egress"],
            document["vnfs"],
            document["forward_traffic"],
            document["reverse_traffic"],
        )
    except ReproError:
        raise  # the domain's own error, unwrapped
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed chain entry: {exc}") from exc
