"""Failure handling for sites and VNF deployments.

The paper defers failures to future work ("evaluate performance and
cost metrics in case of network and compute failures", Section 7.3);
this module implements the natural recovery flow on top of Global
Switchboard:

1. the failed site's compute disappears from the model, the VNF
   services, and the incremental router's residual state;
2. every installed chain with traffic through the site has its routing
   rolled back and recomputed on the surviving capacity (the same
   route-and-commit path used at creation, including two-phase commit);
3. data-plane rules are recompiled.  Flow-table entries at surviving
   forwarders are untouched, so connections that avoided the failed
   site keep their affinity (Section 5.3 semantics); connections through
   the failed site are the ones that must re-establish.

Link failures get the same first-class treatment via :func:`fail_link`:
the failed node pair's propagation delay becomes infinite (so the DP
cost function can never pick a route across it), every installed chain
with a stage hop over the pair is rolled back and recomputed on the
surviving topology, and :func:`restore_link` reinstates the stored
delay.  Both failure kinds return a :class:`FailureReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import ReproError
from repro.core.model import CloudSite, VNF
from repro.controller.global_switchboard import GlobalSwitchboard

_INF = float("inf")


class FailureError(ReproError):
    """Raised on invalid failure operations."""


@dataclass
class FailureReport:
    """Outcome of a site- or link-failure recovery."""

    #: the failed target: a site name, or ``"n1<->n2"`` for a link.
    site: str
    #: ``"site"`` or ``"link"``.
    kind: str = "site"
    #: chains that had traffic through the failed site.
    affected_chains: list[str] = field(default_factory=list)
    #: chain -> carried fraction before the failure.
    carried_before: dict[str, float] = field(default_factory=dict)
    #: chain -> carried fraction after recovery.
    carried_after: dict[str, float] = field(default_factory=dict)

    def recovery_ratio(self) -> float:
        """Restored fraction of the traffic that was affected."""
        before = sum(self.carried_before.values())
        after = sum(self.carried_after.values())
        return after / before if before > 0 else 1.0


def chains_through_site(gs: GlobalSwitchboard, site: str) -> list[str]:
    """Installed chains with any stage flow into or out of a site."""
    affected = []
    for name in gs.installations:
        chain = gs.model.chains[name]
        for z in range(1, chain.num_stages + 1):
            if any(
                site in (src, dst)
                for (src, dst) in gs.router.solution.stage_flows(name, z)
            ):
                affected.append(name)
                break
    return affected


def fail_site(gs: GlobalSwitchboard, site: str) -> FailureReport:
    """Fail a cloud site and re-route every affected chain.

    The site's node keeps carrying transit traffic (the network is not
    the thing that failed); only its compute goes away.  Chains whose
    ingress or egress *node* is colocated with the site are unaffected
    as endpoints -- edges are not cloud workloads.
    """
    if site not in gs.model.sites:
        raise FailureError(f"unknown site {site!r}")

    report = FailureReport(site)
    report.affected_chains = chains_through_site(gs, site)
    for name in report.affected_chains:
        report.carried_before[name] = gs.router.solution.routed_fraction(name)

    # (1) Remove the site's compute everywhere.
    old_site = gs.model.sites[site]
    gs.model.sites[site] = CloudSite(site, old_site.node, 0.0)
    for vnf_name, vnf in list(gs.model.vnfs.items()):
        if site in vnf.site_capacity:
            caps = dict(vnf.site_capacity)
            caps[site] = 0.0
            gs.model.vnfs[vnf_name] = VNF(vnf.name, vnf.load_per_unit, caps)
            gs.router.sync_vnf_capacity(vnf_name, site, 0.0)
    for service in gs.vnf_services.values():
        if site in service.site_capacity:
            service.site_capacity[site] = 0.0
    # Swapping catalogue entries bypasses the model's cache maintenance
    # like the latency edits below: without this every columnar reader
    # but the persistent router (which compares entry identities) keeps
    # planning on the site's old capacity.
    gs.model.invalidate_substrate()

    # (2) Roll back and recompute each affected chain.
    _reroute_affected(gs, report)
    return report


def _reroute_affected(gs: GlobalSwitchboard, report: FailureReport) -> None:
    """Roll back and recompute every chain in ``report.affected_chains``
    on whatever capacity and topology survive, filling in
    ``carried_after`` (shared by site- and link-failure recovery)."""
    for name in report.affected_chains:
        installation = gs.installations[name]
        # Release the chain's committed capacity at every site (a full
        # re-route may choose entirely different sites).  The service's
        # per-chain ledger is authoritative for the amount, so no load
        # argument: a coordinator-side record that drifted (e.g. across
        # a failover restore) cannot over- or under-release.
        for vnf_name, committed_site in list(installation.committed_load):
            gs.vnf_services[vnf_name].release(name, committed_site)
        installation.committed_load = {}
        gs.router.rollback(name)
        report.carried_after[name] = gs.reroute(name)


def restore_site(
    gs: GlobalSwitchboard,
    site: str,
    site_capacity: float,
    vnf_capacity: dict[str, float],
) -> None:
    """Bring a failed site back with the given capacities.

    Installed chains are *not* automatically re-balanced onto it -- the
    operator (or a periodic re-optimization, see
    :mod:`repro.controller.reoptimize`) calls ``extend_chain`` for the
    chains that should use the restored capacity, mirroring the paper's
    new-flows-only route change semantics.
    """
    if site not in gs.model.sites:
        raise FailureError(f"unknown site {site!r}")
    node = gs.model.sites[site].node
    gs.model.sites[site] = CloudSite(site, node, site_capacity)
    for vnf_name, capacity in vnf_capacity.items():
        vnf = gs.model.vnfs[vnf_name]
        caps = dict(vnf.site_capacity)
        caps[site] = capacity
        gs.model.vnfs[vnf_name] = VNF(vnf.name, vnf.load_per_unit, caps)
        service = gs.vnf_services.get(vnf_name)
        if service is not None:
            service.site_capacity[site] = capacity
            service._committed.setdefault(site, 0.0)
    # As in fail_site: a fresh LP or DP would otherwise still see the
    # failed site's zero capacities.
    gs.model.invalidate_substrate()


# ---------------------------------------------------------------------------
# Link failures (first-class, symmetric to site failures)
# ---------------------------------------------------------------------------


def _link_nodes(gs: GlobalSwitchboard, a: str, b: str) -> tuple[str, str]:
    """Resolve two endpoints (site or node names) to an existing
    backbone node pair."""
    n1 = gs.model.endpoint_node(a)
    n2 = gs.model.endpoint_node(b)
    if n1 == n2:
        raise FailureError(f"{a!r} and {b!r} are the same node")
    try:
        gs.model.latency(n1, n2)
    except Exception:
        raise FailureError(f"no link {a!r} <-> {b!r}") from None
    return n1, n2


def chains_through_link(gs: GlobalSwitchboard, a: str, b: str) -> list[str]:
    """Installed chains with any stage hop crossing the node pair
    ``a <-> b`` (in either direction)."""
    n1, n2 = _link_nodes(gs, a, b)
    pair = {n1, n2}
    affected = []
    for name in gs.installations:
        chain = gs.model.chains[name]
        for z in range(1, chain.num_stages + 1):
            if any(
                {
                    gs.model.endpoint_node(src),
                    gs.model.endpoint_node(dst),
                } == pair
                for (src, dst) in gs.router.solution.stage_flows(name, z)
            ):
                affected.append(name)
                break
    return affected


def fail_link(gs: GlobalSwitchboard, a: str, b: str) -> FailureReport:
    """Fail the backbone link between two nodes (or sites) and re-route
    every chain with a stage hop across it.

    The pair's one-way delay becomes infinite in both directions, which
    makes every route over it cost-infeasible for the DP (and keeps the
    model consistent: the nodes still exist, traffic just cannot cross).
    The previous delay entries are stashed on the controller so
    :func:`restore_link` can reinstate them.
    """
    n1, n2 = _link_nodes(gs, a, b)
    stash: dict[tuple[str, str], float | None] | None = getattr(
        gs, "_failed_links", None
    )
    if stash is None:
        stash = {}
        gs._failed_links = stash
    for key in ((n1, n2), (n2, n1)):
        if key not in stash:  # idempotent re-fail keeps the original
            stash[key] = gs.model._latency.get(key)
        gs.model._latency[key] = _INF
    # The in-place latency edit bypasses the model's cache maintenance:
    # columnar views and digests must not keep serving pre-failure
    # delays (the LP matrix cache keys on the digest).
    gs.model.invalidate_substrate()

    report = FailureReport(f"{n1}<->{n2}", kind="link")
    report.affected_chains = chains_through_link(gs, n1, n2)
    for name in report.affected_chains:
        report.carried_before[name] = gs.router.solution.routed_fraction(name)
    _reroute_affected(gs, report)
    return report


def restore_link(gs: GlobalSwitchboard, a: str, b: str) -> None:
    """Reinstate a failed link's stored delay.

    As with :func:`restore_site`, installed chains are not re-balanced
    automatically -- call ``extend_chain`` (or run a re-optimization
    round) for the chains that should use the restored shortcut.
    """
    n1, n2 = _link_nodes(gs, a, b)
    stash: dict[tuple[str, str], float | None] = getattr(
        gs, "_failed_links", {}
    )
    restored = False
    for key in ((n1, n2), (n2, n1)):
        if key in stash:
            previous = stash.pop(key)
            if previous is None:
                gs.model._latency.pop(key, None)
            else:
                gs.model._latency[key] = previous
            restored = True
    if not restored:
        raise FailureError(f"link {a!r} <-> {b!r} is not failed")
    gs.model.invalidate_substrate()
