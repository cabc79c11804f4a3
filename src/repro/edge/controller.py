"""The edge controller: the centralized brain of one edge service.

Global Switchboard asks it for the ingress/egress sites of a chain
(Figure 4, step 1) and tells it which classifier and egress-table
entries to install (step 4).  The controller hides which concrete edge
instances exist at each site -- exactly the service-oriented split the
paper advocates.
"""

from __future__ import annotations

from repro.dataplane.labels import Labels
from repro.edge.classifier import ClassifierRule
from repro.edge.instance import EdgeError, EdgeInstance


class EdgeController:
    """Controller for one edge service (e.g. 'enterprise-vpn')."""

    def __init__(self, service_name: str):
        self.service_name = service_name
        #: site -> edge instances at that site.
        self._instances: dict[str, list[EdgeInstance]] = {}
        #: customer attachment: attachment id -> site (e.g. the site a
        #: customer's CPE homes to).
        self._attachments: dict[str, str] = {}
        #: chain label -> the (instance, prefix, egress site) routes
        #: ``install_chain`` added for it, removed again with the chain.
        self._routes: dict[int, list[tuple[EdgeInstance, str, str]]] = {}

    # -- registration -------------------------------------------------

    def register_instance(self, instance: EdgeInstance) -> None:
        self._instances.setdefault(instance.site, []).append(instance)

    def register_attachment(self, attachment_id: str, site: str) -> None:
        """Record that a customer attachment point homes to a site."""
        self._attachments[attachment_id] = site

    def instances_at(self, site: str) -> list[EdgeInstance]:
        return list(self._instances.get(site, []))

    @property
    def sites(self) -> list[str]:
        return sorted(self._instances)

    # -- queries from Global Switchboard ----------------------------------

    def resolve_site(self, attachment_id: str) -> str:
        """Map a chain spec's ingress/egress attachment to a site."""
        try:
            return self._attachments[attachment_id]
        except KeyError:
            raise EdgeError(
                f"edge service {self.service_name!r}: unknown attachment "
                f"{attachment_id!r}"
            ) from None

    # -- configuration pushed by Global Switchboard -------------------------

    def install_chain(
        self,
        site: str,
        labels: Labels,
        classifier: ClassifierRule | None,
        egress_routes: list[tuple[str, str]] | None = None,
    ) -> list[EdgeInstance]:
        """Configure every instance at a site for a chain.

        ``classifier`` applies on the ingress side (it carries the chain
        label); ``egress_routes`` are (prefix, egress site) pairs for the
        per-customer routing table.  Returns the configured instances.
        """
        instances = self._instances.get(site, [])
        if not instances:
            raise EdgeError(
                f"edge service {self.service_name!r} has no instances at "
                f"{site!r}"
            )
        added = self._routes.setdefault(labels.chain, [])
        for instance in instances:
            if classifier is not None:
                instance.install_classifier(classifier)
            for prefix, egress_site in egress_routes or []:
                instance.egress_table.add_route(prefix, egress_site)
                added.append((instance, prefix, egress_site))
        return instances

    def remove_chain(self, labels: Labels) -> None:
        for instances in self._instances.values():
            for instance in instances:
                instance.remove_classifier(labels.chain)
        for instance, prefix, egress_site in self._routes.pop(labels.chain, []):
            instance.egress_table.remove_route(prefix, egress_site)
