"""JSON documents for the Table 1 network model and its chains.

Section 4.5: "The parameters of the network model (Table 1) for Global
Switchboard are defined using the YANG data modeling language and data
entries are stored as JSON objects."  This module is the JSON half of
that: a stable, versioned document format for the Table 1 model, with
validation on load.  A model document's chain entry
(:func:`chain_to_dict`) is the one document form of a
:class:`~repro.core.model.Chain`: the federation store persists it and
the federated RPC messages carry it.  Customer chain specifications
have their codec next to their type, in
:mod:`repro.controller.chainspec`, built on :func:`check_version` and
:func:`load_object`.  These documents are what a standby controller or
an external orchestrator (the paper's ONAP discussion) would exchange.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.model import Chain, CloudSite, Link, NetworkModel, VNF

SCHEMA_VERSION = 1


class SerializationError(Exception):
    """Raised on malformed documents."""


def check_version(document: dict[str, Any]) -> None:
    """Refuse a document of another schema version."""
    version = document["schema_version"]
    if version != SCHEMA_VERSION:
        raise SerializationError(
            f"unsupported schema version {version!r} "
            f"(expected {SCHEMA_VERSION})"
        )


def load_object(text: str, what: str) -> dict[str, Any]:
    """Parse ``text`` as one JSON object (a ``what`` document)."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise SerializationError(f"{what} document must be a JSON object")
    return document


# ---------------------------------------------------------------------------
# Chain
# ---------------------------------------------------------------------------


def chain_to_dict(chain: Chain) -> dict[str, Any]:
    """A chain as the model document's chain entry."""
    return {
        "name": chain.name,
        "ingress": chain.ingress,
        "egress": chain.egress,
        "vnfs": list(chain.vnfs),
        "forward_traffic": list(chain.forward_traffic),
        "reverse_traffic": list(chain.reverse_traffic),
    }


def chain_from_dict(document: dict[str, Any]) -> Chain:
    """Parse a chain entry; the chain validates its demands."""
    try:
        return Chain(
            document["name"],
            document["ingress"],
            document["egress"],
            document["vnfs"],
            document["forward_traffic"],
            document["reverse_traffic"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed chain entry: {exc}") from exc


# ---------------------------------------------------------------------------
# NetworkModel
# ---------------------------------------------------------------------------


def model_to_dict(model: NetworkModel) -> dict[str, Any]:
    """The Table 1 model as a JSON-compatible document."""
    return {
        "schema_version": SCHEMA_VERSION,
        "nodes": list(model.nodes),
        "latency": [
            {"from": n1, "to": n2, "delay_ms": delay}
            for (n1, n2), delay in sorted(model._latency.items())
        ],
        "sites": [
            {"name": s.name, "node": s.node, "capacity": s.capacity}
            for s in model.sites.values()
        ],
        "vnfs": [
            {
                "name": v.name,
                "load_per_unit": v.load_per_unit,
                "site_capacity": dict(v.site_capacity),
            }
            for v in model.vnfs.values()
        ],
        "chains": [chain_to_dict(c) for c in model.chains.values()],
        "links": [
            {
                "name": link.name,
                "src": link.src,
                "dst": link.dst,
                "bandwidth": link.bandwidth,
                "background": link.background,
            }
            for link in model.links.values()
        ],
        "routing": [
            {"from": n1, "to": n2, "fractions": dict(fractions)}
            for (n1, n2), fractions in sorted(model.routing.items())
        ],
        "mlu_limit": model.mlu_limit,
    }


def model_from_dict(document: dict[str, Any]) -> NetworkModel:
    """Parse and validate a model document (raises on malformed input)."""
    try:
        check_version(document)
        latency = {
            (entry["from"], entry["to"]): float(entry["delay_ms"])
            for entry in document.get("latency", [])
        }
        sites = [
            CloudSite(s["name"], s["node"], float(s["capacity"]))
            for s in document.get("sites", [])
        ]
        vnfs = [
            VNF(
                v["name"],
                float(v["load_per_unit"]),
                {k: float(c) for k, c in v["site_capacity"].items()},
            )
            for v in document.get("vnfs", [])
        ]
        chains = [chain_from_dict(c) for c in document.get("chains", [])]
        links = [
            Link(
                link["name"], link["src"], link["dst"],
                float(link["bandwidth"]), float(link.get("background", 0.0)),
            )
            for link in document.get("links", [])
        ]
        routing = {
            (entry["from"], entry["to"]): {
                k: float(f) for k, f in entry["fractions"].items()
            }
            for entry in document.get("routing", [])
        }
        return NetworkModel(
            nodes=document["nodes"],
            latency=latency,
            sites=sites,
            vnfs=vnfs,
            chains=chains,
            links=links,
            routing=routing,
            mlu_limit=float(document.get("mlu_limit", 1.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed model document: {exc}") from exc


def model_to_json(model: NetworkModel, indent: int | None = 2) -> str:
    return json.dumps(model_to_dict(model), indent=indent)


def model_from_json(text: str) -> NetworkModel:
    return model_from_dict(load_object(text, "model"))
