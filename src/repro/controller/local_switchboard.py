"""Local Switchboard: the per-site controller (Sections 3, 5.2).

Responsibilities reproduced here:

- horizontal scaling of forwarders at the site and the assignment of
  VNF instances to forwarders (round-robin, keeping a VNF instance in
  the same L2 domain as its forwarder);
- compiling a chain's wide-area route fractions plus the published
  instance weights into the weighted load-balancing rule sets of
  Section 5.2, and installing them at the site's forwarders;
- the on-demand edge-site extension of Section 6: choosing the nearest
  existing wide-area route for traffic appearing at a new edge site.
"""

from __future__ import annotations

import itertools
from typing import Mapping

from repro.core.errors import ReproError
from repro.dataplane.forwarder import DataPlane, Forwarder, VnfInstance
from repro.dataplane.rules import (
    LoadBalancingRule,
    WeightedChoice,
    forwarder_weight,
)


class LocalSwitchboardError(ReproError):
    """Raised on per-site control errors."""


class LocalSwitchboard:
    """The Switchboard controller at one site."""

    def __init__(self, site: str, dataplane: DataPlane):
        self.site = site
        self.dataplane = dataplane
        self.forwarders: list[Forwarder] = []
        #: VNF instance name -> forwarder name it is attached to.
        self.assignment: dict[str, str] = {}
        self._counter = itertools.count(1)
        self._edge_forwarder: Forwarder | None = None
        self.scale_forwarders(1)

    # -- forwarder fleet -------------------------------------------------

    def scale_forwarders(self, extra: int = 1) -> list[Forwarder]:
        """Elastically add forwarders at this site."""
        added = []
        for _ in range(extra):
            name = f"fwd.{self.site}.{next(self._counter)}"
            fwd = self.dataplane.add_forwarder(Forwarder(name, self.site))
            self.forwarders.append(fwd)
            added.append(fwd)
        return added

    def edge_forwarder(self) -> Forwarder:
        """The forwarder reserved for edge instances at this site.

        Edge and VNF traffic need distinct forwarders because a
        forwarder's rule for a (chain, egress) pair describes *one* role
        -- either "load-balance into my local VNF instances" or
        "classify-and-forward for the ingress edge".  Keeping edges on a
        dedicated forwarder mirrors Figure 5, where each forwarder
        fronts a specific set of VNF instances.
        """
        if self._edge_forwarder is None:
            name = f"fwd.{self.site}.edge"
            self._edge_forwarder = self.dataplane.add_forwarder(
                Forwarder(name, self.site)
            )
        return self._edge_forwarder

    def assign_instance(self, instance: VnfInstance) -> Forwarder:
        """Attach a VNF instance to a forwarder fronting its service.

        The instance keeps its assignment for its lifetime (remapping
        would break flow affinity, Section 5.3).  A forwarder fronts
        instances of at most one VNF service -- the paper's model, and a
        requirement for unambiguous per-forwarder rules -- so the least
        loaded same-service forwarder is chosen, scaling out if every
        forwarder already fronts a different service.
        """
        if instance.site != self.site:
            raise LocalSwitchboardError(
                f"instance {instance.name!r} is at {instance.site!r}, "
                f"not {self.site!r}"
            )
        existing = self.assignment.get(instance.name)
        if existing is not None:
            return self.dataplane.forwarders[existing]
        candidates = [
            f
            for f in self.forwarders
            if not f.attached
            or next(iter(f.attached.values())).service == instance.service
        ]
        if not candidates:
            candidates = self.scale_forwarders(1)
        fwd = min(candidates, key=lambda f: len(f.attached))
        fwd.attach(instance)
        self.assignment[instance.name] = fwd.name
        return fwd

    def forwarders_for_service(self, service: str) -> list[Forwarder]:
        """Forwarders fronting at least one instance of a VNF service."""
        return [
            f
            for f in self.forwarders
            if any(inst.service == service for inst in f.attached.values())
        ]

    def forwarder_of(self, instance_name: str) -> str:
        try:
            return self.assignment[instance_name]
        except KeyError:
            raise LocalSwitchboardError(
                f"instance {instance_name!r} not assigned at {self.site!r}"
            ) from None

    def forwarders_for_instances(
        self, instances: list[VnfInstance]
    ) -> dict[str, float]:
        """Published weights of the forwarders fronting the instances:
        forwarder weight = sum of its attached instances' weights."""
        per_forwarder: dict[str, dict[str, float]] = {}
        for instance in instances:
            fwd = self.forwarder_of(instance.name)
            per_forwarder.setdefault(fwd, {})[instance.name] = instance.weight
        return {
            fwd: forwarder_weight(weights)
            for fwd, weights in per_forwarder.items()
        }

    # -- rule compilation ------------------------------------------------------

    def install_chain_rules(
        self,
        chain_label: int,
        egress_site: str,
        local_instances: Mapping[str, float],
        next_hops: Mapping[str, float],
    ) -> None:
        """Install the compiled rule at every forwarder of this site.

        ``local_instances`` / ``next_hops`` already carry
        hierarchical weights (site fraction x instance weight); this
        method only materializes them into the forwarders.
        """
        for fwd in self.forwarders:
            rule = LoadBalancingRule(
                local_instances=WeightedChoice(
                    {
                        name: weight
                        for name, weight in local_instances.items()
                        if name in fwd.attached
                    }
                ),
                next_forwarders=WeightedChoice(dict(next_hops)),
            )
            fwd.install_rule(chain_label, egress_site, rule)

    def install_edge_rule(
        self,
        chain_label: int,
        egress_site: str,
        next_hops: Mapping[str, float],
    ) -> Forwarder:
        """Install the ingress-side rule on the site's edge forwarder."""
        fwd = self.edge_forwarder()
        fwd.install_rule(
            chain_label,
            egress_site,
            LoadBalancingRule(next_forwarders=WeightedChoice(dict(next_hops))),
        )
        return fwd

    def remove_chain_rules(self, chain_label: int, egress_site: str) -> None:
        """Drop the chain's rule from every forwarder here that holds one."""
        for fwd in (*self.forwarders, self._edge_forwarder):
            if fwd is not None and (chain_label, egress_site) in fwd.rules:
                fwd.remove_rule(chain_label, egress_site)
