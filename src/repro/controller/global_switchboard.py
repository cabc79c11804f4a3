"""Global Switchboard: the centralized SDN controller (Sections 3-4).

``create_chain`` reproduces the Figure 4 message flow synchronously:

1. resolve ingress/egress sites with the edge controller;
2. compute the wide-area route (SB-DP against the residual state of the
   already-installed chains) and allocate the chain label;
3. two-phase commit the route's capacity with every VNF controller on
   it -- a rejection rolls the route back, reconciles the rejecting
   VNF's capacity, and recomputes;
4. have edge and VNF controllers allocate their instances on the route;
5. have the Local Switchboards compile and install the hierarchical
   load-balancing rules at their forwarders.

``extend_chain`` re-routes any unrouted remainder (the Figure 10
dynamic route addition) and ``add_edge_site`` grafts a new ingress edge
site onto the nearest existing route (the Section 6 mobility case,
Table 2).
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

from repro.core.dp import IncrementalDpRouter
from repro.core.errors import ReproError
from repro.core.lp import LpObjective, solve_chain_routing_lp
from repro.core.model import Chain, NetworkModel
from repro.dataplane.forwarder import DataPlane
from repro.dataplane.labels import LabelAllocator, Labels
from repro.dataplane.rules import LoadBalancingRule, WeightedChoice
from repro.edge.classifier import ClassifierRule
from repro.edge.controller import EdgeController
from repro.controller import twopc
from repro.controller.chainspec import ChainSpecification
from repro.controller.local_switchboard import LocalSwitchboard
from repro.vnf.service import VnfService

_EPS = 1e-9


class InstallationError(ReproError):
    """Raised when a chain cannot be installed."""


@dataclass
class ChainInstallation:
    """Everything Global Switchboard installed for one chain."""

    spec: ChainSpecification
    label: int
    ingress_site: str
    egress_site: str
    routed_fraction: float
    #: (vnf service, site) -> committed load.
    committed_load: dict[tuple[str, str], float] = field(default_factory=dict)
    #: additional ingress edge sites grafted on later (Section 6).
    extra_edge_sites: list[str] = field(default_factory=list)
    #: every site whose Local Switchboard was handed a rule for the chain
    #: (on its route, on a route since replaced, or as a grafted edge
    #: site): where a removal has rules to clear.
    rule_sites: set[str] = field(default_factory=set)

    @property
    def labels(self) -> Labels:
        return Labels(self.label, self.egress_site)


class GlobalSwitchboard:
    """The centralized controller over one administrative deployment."""

    MAX_COMMIT_ATTEMPTS = 4

    def __init__(
        self,
        model: NetworkModel,
        dataplane: DataPlane,
        metrics: "MetricsRegistry | None" = None,
    ):
        self.model = model
        self.dataplane = dataplane
        self.metrics = metrics
        self.router = IncrementalDpRouter(model)
        self.labels = LabelAllocator()
        self.locals: dict[str, LocalSwitchboard] = {}
        self.edge_controllers: dict[str, EdgeController] = {}
        self.vnf_services: dict[str, VnfService] = {}
        self.installations: dict[str, ChainInstallation] = {}
        #: Called with the chain name at the end of :meth:`remove_chain`;
        #: the bus-driven installer drops its durable checkpoint here, so
        #: a later failover cannot re-adopt a removed chain.
        self.removal_hooks: list[Callable[[str], None]] = []

    # -- service registration (Section 3, "prior to chain specification") --

    def register_local_switchboard(self, local: LocalSwitchboard) -> None:
        if local.site not in self.model.sites:
            raise InstallationError(f"unknown site {local.site!r}")
        self.locals[local.site] = local

    def local_switchboard(self, site: str) -> LocalSwitchboard:
        local = self.locals.get(site)
        if local is None:
            raise InstallationError(f"no Local Switchboard at {site!r}")
        return local

    def register_edge_service(self, controller: EdgeController) -> None:
        self.edge_controllers[controller.service_name] = controller

    def register_vnf_service(self, service: VnfService) -> None:
        if service.name not in self.model.vnfs:
            raise InstallationError(
                f"VNF service {service.name!r} not in the network model"
            )
        self.vnf_services[service.name] = service

    # -- chain lifecycle ----------------------------------------------------

    def _span(self, name: str, **labels):
        """A tracing span when a registry is attached, else a no-op."""
        if self.metrics is None:
            return contextlib.nullcontext()
        return self.metrics.span(name, **labels)

    def plan_routes(self):
        """Whole-network throughput-maximizing TE plan (SB-LP) for the
        current model: :func:`repro.core.lp.solve_chain_routing_lp`."""
        with self._span("controller.plan_routes"):
            return solve_chain_routing_lp(
                self.model, LpObjective.MAX_THROUGHPUT, metrics=self.metrics
            )

    def create_chain(self, spec: ChainSpecification) -> ChainInstallation:
        """Install a chain end to end (the Figure 4 flow)."""
        with self._span("install.create_chain", chain=spec.name):
            return self._create_chain(spec)

    def _create_chain(self, spec: ChainSpecification) -> ChainInstallation:
        edge = self.edge_controllers.get(spec.edge_service)
        if edge is None:
            raise InstallationError(f"unknown edge service {spec.edge_service!r}")
        for vnf_name in spec.vnf_services:
            if vnf_name not in self.vnf_services:
                raise InstallationError(f"unknown VNF service {vnf_name!r}")
        if len(set(spec.vnf_services)) != len(spec.vnf_services):
            # Rules are keyed by (chain label, egress site); a VNF that
            # appears twice would need per-position keys.
            raise InstallationError(
                f"chain {spec.name!r} repeats a VNF service; deploy a "
                "second instance of the service under a distinct name"
            )

        # (1) Resolve chain endpoints to sites.
        ingress_site = edge.resolve_site(spec.ingress_attachment)
        egress_site = edge.resolve_site(spec.egress_attachment)

        chain = Chain(
            spec.name,
            self.model.endpoint_node(ingress_site),
            self.model.endpoint_node(egress_site),
            spec.vnf_services,
            spec.forward_demand,
            spec.reverse_demand,
        )
        self.model.add_chain(chain)

        # (2)+(3) Route computation and two-phase commit, with
        # recompute-on-reject.
        try:
            routed, committed = self._route_and_commit(spec.name)
        except InstallationError:
            self.model.remove_chain(spec.name)
            raise

        label = self.labels.allocate(spec.name)
        installation = ChainInstallation(
            spec, label, ingress_site, egress_site, routed, committed
        )
        self.installations[spec.name] = installation

        # (4) Edge configuration + VNF instance assignment.
        self._configure_edges(installation, edge)
        self._assign_instances(installation)
        # (5) Local Switchboards compile and install rules.
        self._install_rules(installation)
        return installation

    def extend_chain(self, chain_name: str) -> float:
        """Try to route any unrouted remainder of a chain over whatever
        capacity exists now (the Figure 10 'new chain route').

        Returns the newly routed fraction and refreshes the data-plane
        rules; existing connections keep their old routes (Section 5.3).
        """
        installation = self._installation(chain_name)
        before = self.router.solution.routed_fraction(chain_name)
        if before >= 1.0 - _EPS:
            return 0.0
        self.router.route(chain_name)
        after = self.router.solution.routed_fraction(chain_name)
        gained = after - before
        if gained > _EPS:
            delta = self._chain_loads(chain_name)
            self._commit_delta(chain_name, delta, installation)
            self._assign_instances(installation)
            self._install_rules(installation)
            installation.routed_fraction = after
        return gained

    def reroute(self, chain_name: str) -> float:
        """Route an installed chain afresh and 2PC its capacity (the
        caller has released its old capacity and rolled its route back).

        Sets the installation's fraction and load, then installs the
        chain's rules -- or removes them when it carries nothing, so no
        new connection crosses a VNF without committed load.  Returns
        the carried fraction.
        """
        installation = self.installations[chain_name]
        try:
            routed, committed = self._route_and_commit(chain_name)
        except Exception:
            routed, committed = 0.0, {}
        installation.routed_fraction = routed
        installation.committed_load = committed
        if routed > _EPS:
            self._assign_instances(installation)
            self._install_rules(installation)
        else:
            self._remove_rules(installation)
        return routed

    def remove_chain(self, chain_name: str) -> None:
        """Tear a chain down: release capacity, label, forwarder rules,
        edge classifiers and egress routes.  Flow-table entries of its
        connections are not released; they stay until the flow ends or
        is evicted (Section 5.3)."""
        installation = self._installation(chain_name)
        for (vnf_name, site), load in installation.committed_load.items():
            self.vnf_services[vnf_name].release(chain_name, site, load)
        self._remove_rules(installation)
        edge = self.edge_controllers.get(installation.spec.edge_service)
        if edge is not None:
            edge.remove_chain(installation.labels)
        self.router.rollback(chain_name)
        self.labels.release(chain_name)
        if chain_name in self.model.chains:
            self.model.remove_chain(chain_name)
        del self.installations[chain_name]
        for hook in self.removal_hooks:
            hook(chain_name)

    def add_edge_site(self, chain_name: str, edge_site: str) -> str:
        """Graft a new ingress edge site onto an existing chain via the
        nearest wide-area route (Section 6).  Returns the chosen
        first-VNF site."""
        installation = self._installation(chain_name)
        chain = self.model.chains[chain_name]
        stage1 = self.router.solution.stage_flows(chain_name, 1)
        if not stage1:
            raise InstallationError(f"chain {chain_name!r} carries no traffic")
        entry_sites = {dst for (_src, dst), frac in stage1.items() if frac > _EPS}
        edge_node = self.model.endpoint_node(edge_site)
        best = min(
            entry_sites,
            key=lambda s: (
                self.model.latency(edge_node, self.model.endpoint_node(s)),
                s,
            ),
        )

        # The new edge site's *edge forwarder* gets an ingress-style rule
        # toward the first VNF's forwarders on the chosen route; the
        # site's VNF-fronting forwarders (if the site is on the route)
        # keep their existing rules untouched.
        local = self.local_switchboard(edge_site)
        if chain.vnfs:
            first_vnf = chain.vnfs[0]
            service = self.vnf_services[first_vnf]
            target_local = self.local_switchboard(best)
            next_hops = target_local.forwarders_for_instances(
                service.instances_at(best)
            )
        else:
            edge_ctrl = self.edge_controllers[installation.spec.edge_service]
            next_hops = {
                inst.name: 1.0
                for inst in edge_ctrl.instances_at(installation.egress_site)
            }
        local.install_edge_rule(
            installation.label, installation.egress_site, next_hops
        )
        installation.rule_sites.add(edge_site)
        # Configure edge instances at the new site.
        edge = self.edge_controllers[installation.spec.edge_service]
        classifier = self._classifier_for(installation)
        routes = [
            (prefix, installation.egress_site)
            for prefix in installation.spec.dst_prefixes
        ]
        instances = edge.install_chain(
            edge_site, installation.labels, classifier, routes
        )
        for instance in instances:
            if instance.forwarder is None:
                instance.attach_forwarder(local.edge_forwarder().name)
        installation.extra_edge_sites.append(edge_site)
        return best

    # -- internals -----------------------------------------------------------

    def _remove_rules(self, installation: ChainInstallation) -> None:
        """Clear the chain's rules at every site that was handed one."""
        for site in installation.rule_sites:
            self.locals[site].remove_chain_rules(
                installation.label, installation.egress_site
            )
        installation.rule_sites.clear()

    def _installation(self, chain_name: str) -> ChainInstallation:
        installation = self.installations.get(chain_name)
        if installation is None:
            raise InstallationError(f"chain {chain_name!r} is not installed")
        return installation

    def _route_and_commit(
        self, chain_name: str
    ) -> tuple[float, dict[tuple[str, str], float]]:
        """Route the chain and 2PC its capacity; recompute on rejection.

        The direct-call driver of :class:`repro.controller.twopc.Install`:
        it plans each attempt (SB-DP route + per-VNF loads) and carries
        the machine's actions out as method calls on the VNF services,
        one prepare at a time in sorted order."""
        install = twopc.Install(self.MAX_COMMIT_ATTEMPTS, fan_out=False)
        while True:
            with self._span("install.route_compute", chain=chain_name):
                routed = self.router.route(chain_name)
            if routed <= _EPS:
                self.router.rollback(chain_name)
                raise InstallationError(
                    f"no feasible route for chain {chain_name!r}"
                )
            loads = self._chain_loads(chain_name)
            verdict, rejecter, _ = self._two_phase_commit(
                install, chain_name, loads
            )
            if verdict == twopc.INSTALLED:
                return routed, loads
            # A VNF controller rejected: reconcile its reported capacity,
            # roll the route back, and recompute (Section 3 step 2).
            vnf_name, site = rejecter
            service = self.vnf_services[vnf_name]
            if self.metrics is not None:
                self.metrics.counter("2pc.rejections", chain=chain_name).inc()
            self.router.rollback(chain_name)
            self.router.sync_vnf_capacity(vnf_name, site, service.available(site))
            if verdict == twopc.REJECTED:
                raise InstallationError(
                    f"chain {chain_name!r}: two-phase commit failed after "
                    f"{self.MAX_COMMIT_ATTEMPTS} attempts"
                )

    def _chain_loads(self, chain_name: str) -> dict[tuple[str, str], float]:
        """Per-(VNF service, site) load of the chain's current flows."""
        chain = self.model.chains[chain_name]
        loads: dict[tuple[str, str], float] = defaultdict(float)
        for z in range(1, chain.num_stages + 1):
            for (src, dst), frac in self.router.solution.stage_flows(
                chain_name, z
            ).items():
                traffic = chain.stage_traffic(z) * frac
                if z < chain.num_stages:
                    vnf = chain.vnf_at(z)
                    loads[(vnf, dst)] += (
                        self.model.vnfs[vnf].load_per_unit * traffic
                    )
                if z > 1:
                    vnf = chain.vnf_at(z - 1)
                    loads[(vnf, src)] += (
                        self.model.vnfs[vnf].load_per_unit * traffic
                    )
        return dict(loads)

    def _two_phase_commit(
        self,
        install: "twopc.Install",
        chain_name: str,
        loads: dict[tuple[str, str], float],
    ) -> tuple:
        """One attempt: phase 1 everywhere, then phase 2.  Returns the
        machine's verdict, which names the rejecting (vnf, site)."""
        services = self.vnf_services

        def commit(key: tuple[str, str], _attempt: int) -> bool:
            services[key[0]].commit(chain_name, key[1])
            return True

        with contextlib.ExitStack() as phase:
            phase.enter_context(self._span("2pc.prepare", chain=chain_name))

            def decide(_attempt: int) -> None:
                phase.close()
                phase.enter_context(self._span("2pc.commit", chain=chain_name))

            return twopc.run_attempt(
                install,
                sorted(loads),
                lambda k, _a: services[k[0]].prepare(chain_name, k[1], loads[k]),
                commit,
                lambda k, _a: services[k[0]].abort(chain_name, k[1]),
                decide,
            )

    def _commit_delta(
        self,
        chain_name: str,
        new_total: dict[tuple[str, str], float],
        installation: ChainInstallation,
    ) -> None:
        """Commit only the *additional* load of an extended route."""
        for key, load in new_total.items():
            extra = load - installation.committed_load.get(key, 0.0)
            if extra <= _EPS:
                continue
            vnf_name, site = key
            service = self.vnf_services[vnf_name]
            if service.prepare(chain_name, site, extra):
                service.commit(chain_name, site)
                installation.committed_load[key] = load

    def _classifier_for(self, installation: ChainInstallation) -> ClassifierRule:
        spec = installation.spec
        return ClassifierRule(
            chain_label=installation.label,
            src_prefix=spec.src_prefix,
            protocol=spec.protocol,
            dst_port_range=spec.dst_port_range,
        )

    def _configure_edges(
        self, installation: ChainInstallation, edge: EdgeController
    ) -> None:
        spec = installation.spec
        classifier = self._classifier_for(installation)
        routes = [(p, installation.egress_site) for p in spec.dst_prefixes]
        ingress_instances = edge.install_chain(
            installation.ingress_site, installation.labels, classifier, routes
        )
        local = self.local_switchboard(installation.ingress_site)
        for instance in ingress_instances:
            if instance.forwarder is None:
                instance.attach_forwarder(local.edge_forwarder().name)
        # The egress side needs no classifier (it strips labels), but its
        # instances must exist and be known to the data plane.
        if installation.egress_site != installation.ingress_site:
            egress_instances = edge.instances_at(installation.egress_site)
            if not egress_instances:
                raise InstallationError(
                    f"no edge instances at egress site "
                    f"{installation.egress_site!r}"
                )

    def _assign_instances(self, installation: ChainInstallation) -> None:
        """Attach every VNF instance on the route to a forwarder."""
        chain = self.model.chains[installation.spec.name]
        for z in range(1, chain.num_stages):
            vnf_name = chain.vnf_at(z)
            service = self.vnf_services[vnf_name]
            for (_src, dst), frac in self.router.solution.stage_flows(
                installation.spec.name, z
            ).items():
                if frac <= _EPS:
                    continue
                local = self.local_switchboard(dst)
                instances = service.instances_at(dst)
                if not instances:
                    instances = [service.scale_out(dst)]
                for instance in instances:
                    local.assign_instance(instance)

    def _next_hop_weights(
        self,
        installation: ChainInstallation,
        position: int,
        site: str | None,
    ) -> dict[str, float]:
        """Hierarchical next-hop weights leaving chain node ``position``.

        For an intermediate stage the targets are the forwarders fronting
        the next VNF's instances at each destination site, weighted by
        the TE fraction times the forwarder's share of the site's
        instance weight (Section 5.2's product rule); for the
        last stage the targets are the egress edge instances.
        ``site=None`` means the ingress position (whose stage-1 sources
        are the raw ingress node, so no source filtering applies).
        """
        chain_name = installation.spec.name
        chain = self.model.chains[chain_name]
        stage_out = position + 1
        out_flows = self.router.solution.stage_flows(chain_name, stage_out)
        edge = self.edge_controllers[installation.spec.edge_service]
        egress_targets = {
            inst.name: 1.0
            for inst in edge.instances_at(installation.egress_site)
        }
        next_hops: dict[str, float] = {}
        for (src, dst), frac in out_flows.items():
            if site is not None and src != site:
                continue
            if stage_out == chain.num_stages:
                for target, weight in egress_targets.items():
                    next_hops[target] = (
                        next_hops.get(target, 0.0) + frac * weight
                    )
                continue
            shares = self._forwarder_shares(dst, chain.vnf_at(stage_out))
            for fwd_name, share in shares.items():
                next_hops[fwd_name] = (
                    next_hops.get(fwd_name, 0.0) + frac * share
                )
        return next_hops

    def _forwarder_shares(self, site: str, vnf: str) -> dict[str, float]:
        """Each forwarder fronting ``vnf``'s instances at ``site``: its
        published weight over the site's total instance weight."""
        weights = self.local_switchboard(site).forwarders_for_instances(
            self.vnf_services[vnf].instances_at(site)
        )
        total = sum(weights.values()) or 1.0
        return {fwd: weight / total for fwd, weight in weights.items()}

    def _prev_hop_weights(
        self,
        installation: ChainInstallation,
        position: int,
        site: str,
    ) -> dict[str, float]:
        """Hierarchical previous-hop weights entering chain node
        ``position`` at ``site`` (informational; the reverse data path
        follows flow-table state)."""
        chain_name = installation.spec.name
        chain = self.model.chains[chain_name]
        in_flows = self.router.solution.stage_flows(chain_name, position)
        prev_hops: dict[str, float] = {}
        for (src, dst), frac in in_flows.items():
            if dst != site:
                continue
            if position == 1:
                ingress_local = self.local_switchboard(
                    installation.ingress_site
                )
                fwd = ingress_local.edge_forwarder()
                prev_hops[fwd.name] = prev_hops.get(fwd.name, 0.0) + frac
            else:
                shares = self._forwarder_shares(src, chain.vnf_at(position - 1))
                for fwd_name, share in shares.items():
                    prev_hops[fwd_name] = (
                        prev_hops.get(fwd_name, 0.0) + frac * share
                    )
        return prev_hops

    def _install_rules(
        self, installation: ChainInstallation, only_site: str | None = None
    ) -> None:
        """Compile the route's stage flows into per-forwarder rules.

        Rules are per *forwarder*, not per site: a forwarder fronting
        instances of the chain's VNF at position ``p`` gets a rule that
        load-balances into its own instances and on toward position
        ``p + 1``; the ingress site's dedicated edge forwarder gets the
        position-0 rule.  This is what keeps a site that is both the
        ingress and a VNF host (or that hosts two of the chain's VNFs)
        unambiguous.

        ``only_site`` restricts installation to one site -- the
        bus-driven protocol uses this, since each Local Switchboard
        installs its own site's rules when its subscriptions fire.
        """
        chain_name = installation.spec.name
        chain = self.model.chains[chain_name]
        label = installation.label
        egress_site = installation.egress_site
        solution = self.router.solution
        rule_installs = self.metrics.counter("rules.installed") if (
            self.metrics is not None
        ) else None

        # Position-0 rule on the ingress site's edge forwarder.
        if only_site is None or only_site == installation.ingress_site:
            ingress_local = self.local_switchboard(installation.ingress_site)
            installation.rule_sites.add(installation.ingress_site)
            ingress_local.install_edge_rule(
                label,
                egress_site,
                self._next_hop_weights(installation, 0, site=None),
            )
            if rule_installs is not None:
                rule_installs.inc()

        # VNF rules: for every (position, site) carrying traffic, every
        # forwarder fronting that VNF's instances at the site.
        for position in range(1, chain.num_stages):
            vnf_name = chain.vnf_at(position)
            arriving: dict[str, float] = defaultdict(float)
            for (_src, dst), frac in solution.stage_flows(
                chain_name, position
            ).items():
                arriving[dst] += frac
            for site, frac in arriving.items():
                if frac <= _EPS:
                    continue
                if only_site is not None and site != only_site:
                    continue
                local = self.local_switchboard(site)
                installation.rule_sites.add(site)
                next_hops = self._next_hop_weights(
                    installation, position, site
                )
                prev_hops = self._prev_hop_weights(
                    installation, position, site
                )
                for fwd in local.forwarders_for_service(vnf_name):
                    local_instances = {
                        inst.name: inst.weight
                        for inst in fwd.attached.values()
                        if inst.service == vnf_name
                    }
                    fwd.install_rule(
                        label,
                        egress_site,
                        LoadBalancingRule(
                            local_instances=WeightedChoice(local_instances),
                            next_forwarders=WeightedChoice(next_hops),
                            prev_forwarders=WeightedChoice(prev_hops),
                        ),
                    )
                    if rule_installs is not None:
                        rule_installs.inc()
