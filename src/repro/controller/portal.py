"""The customer portal (Section 2).

The paper's portal shows "the list of network functions available in
Switchboard, which we envision evolving into an appstore-like
marketplace", lets a customer define a chain (ingress, egress, ordered
VNFs, traffic slice), activates it ("automated route computation and
installation.  Upon completion, a status message is displayed"), and
supports instant VNF insertion into an existing chain.

This module is that surface as a library facade over Global Switchboard:
catalog listing, chain validation + activation, human-readable status,
and deactivation.  VNF insertion reuses the Section 5.3 semantics --
the updated chain applies to new connections only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.controller.chainspec import ChainSpecification
from repro.controller.global_switchboard import (
    GlobalSwitchboard,
    InstallationError,
)
from repro.core.errors import ReproError


class PortalError(ReproError):
    """Raised on invalid portal requests."""


@dataclass(frozen=True)
class CatalogEntry:
    """One VNF in the marketplace listing."""

    name: str
    sites: tuple[str, ...]
    total_capacity: float
    description: str = ""


@dataclass
class ChainStatus:
    """What the portal displays for one customer chain."""

    name: str
    state: str  # "active" | "degraded" | "inactive"
    ingress_site: str | None = None
    egress_site: str | None = None
    vnfs: tuple[str, ...] = ()
    carried_fraction: float = 0.0
    message: str = ""


@dataclass
class Portal:
    """The customer-facing facade over one Switchboard deployment."""

    gs: GlobalSwitchboard
    descriptions: dict[str, str] = field(default_factory=dict)

    # -- marketplace ------------------------------------------------------

    def catalog(self) -> list[CatalogEntry]:
        """The available network functions, appstore-style."""
        entries = []
        for name, service in sorted(self.gs.vnf_services.items()):
            entries.append(
                CatalogEntry(
                    name,
                    tuple(service.sites),
                    sum(service.site_capacity.values()),
                    self.descriptions.get(name, ""),
                )
            )
        return entries

    def describe_vnf(self, name: str, description: str) -> None:
        if name not in self.gs.vnf_services:
            raise PortalError(f"unknown VNF {name!r}")
        self.descriptions[name] = description

    # -- chain lifecycle -----------------------------------------------------

    def activate(self, spec: ChainSpecification) -> ChainStatus:
        """Validate and install a chain; returns its status message."""
        self._validate(spec)
        try:
            self.gs.create_chain(spec)
        except InstallationError as exc:
            return ChainStatus(
                spec.name,
                "inactive",
                vnfs=spec.vnf_services,
                message=f"activation failed: {exc}",
            )
        return self.status(spec.name)

    def insert_vnf(
        self, chain_name: str, vnf_name: str, position: int
    ) -> ChainStatus:
        """Insert a VNF into an existing chain (the Section 1 use case:
        "instantly inserting a new VNF into an existing chain").

        Implemented as re-activation with the extended VNF list; per
        Section 5.3 only new connections take the new chain.
        """
        installation = self.gs.installations.get(chain_name)
        if installation is None:
            raise PortalError(f"chain {chain_name!r} is not active")
        if vnf_name not in self.gs.vnf_services:
            raise PortalError(f"unknown VNF {vnf_name!r}")
        old = installation.spec
        vnfs = list(old.vnf_services)
        if not 0 <= position <= len(vnfs):
            raise PortalError(
                f"position {position} out of range for {len(vnfs)} VNFs"
            )
        vnfs.insert(position, vnf_name)
        new_spec = ChainSpecification(
            old.name,
            old.edge_service,
            old.ingress_attachment,
            old.egress_attachment,
            vnfs,
            forward_demand=old.forward_demand,
            reverse_demand=old.reverse_demand,
            src_prefix=old.src_prefix,
            dst_prefixes=old.dst_prefixes,
            protocol=old.protocol,
            dst_port_range=old.dst_port_range,
        )
        self._validate(new_spec)
        self.gs.remove_chain(chain_name)
        return self.activate(new_spec)

    def deactivate(self, chain_name: str) -> ChainStatus:
        if chain_name not in self.gs.installations:
            raise PortalError(f"chain {chain_name!r} is not active")
        self.gs.remove_chain(chain_name)
        return ChainStatus(chain_name, "inactive", message="deactivated")

    # -- status -----------------------------------------------------------------

    def status(self, chain_name: str) -> ChainStatus:
        installation = self.gs.installations.get(chain_name)
        if installation is None:
            return ChainStatus(chain_name, "inactive", message="not installed")
        carried = installation.routed_fraction
        if carried >= 1.0 - 1e-9:
            state, message = "active", "all traffic routed"
        elif carried > 0:
            state = "degraded"
            message = f"{carried:.0%} of traffic routed (capacity limited)"
        else:
            state, message = "inactive", "no traffic routed"
        return ChainStatus(
            chain_name,
            state,
            ingress_site=installation.ingress_site,
            egress_site=installation.egress_site,
            vnfs=installation.spec.vnf_services,
            carried_fraction=carried,
            message=message,
        )

    def list_chains(self) -> list[ChainStatus]:
        return [self.status(name) for name in sorted(self.gs.installations)]

    # -- validation ------------------------------------------------------------

    def _validate(self, spec: ChainSpecification) -> None:
        catalog = {entry.name for entry in self.catalog()}
        unknown = [v for v in spec.vnf_services if v not in catalog]
        if unknown:
            raise PortalError(
                f"VNFs not in the catalog: {unknown}; available: "
                f"{sorted(catalog)}"
            )
        if spec.edge_service not in self.gs.edge_controllers:
            raise PortalError(f"unknown edge service {spec.edge_service!r}")
        edge = self.gs.edge_controllers[spec.edge_service]
        for attachment in (spec.ingress_attachment, spec.egress_attachment):
            try:
                edge.resolve_site(attachment)
            except Exception:
                raise PortalError(
                    f"unknown attachment {attachment!r} for edge service "
                    f"{spec.edge_service!r}"
                ) from None
