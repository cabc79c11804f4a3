"""Data-plane auditor: does the installed state match the TE intent?

An operations tool the paper's architecture invites: Global Switchboard
knows the routing it *intended* (the ``x`` fractions); the forwarders
hold the rules that were actually *installed*.  The auditor walks every
installed chain and checks:

- the ingress edge forwarder's next-hop weights realize the stage-1
  site split (within tolerance);
- every (position, site) on the route has at least one forwarder rule
  with reachable local instances;
- rule targets exist (no dangling forwarder or endpoint names);
- no forwarder carries rules for chains that are no longer installed
  (stale-rule leak detection).

Returns human-readable findings, empty when the planes agree.
"""

from __future__ import annotations

from collections import defaultdict

from repro.controller.global_switchboard import GlobalSwitchboard

_EPS = 1e-9
#: How far a rule's site split may stray from the routing solution's.
_TOLERANCE = 0.02


def audit_deployment(gs: GlobalSwitchboard) -> list[str]:
    """Audit every installed chain; returns findings (empty == clean)."""
    findings: list[str] = []
    for name in gs.installations:
        findings.extend(audit_chain(gs, name))
    findings.extend(_find_stale_rules(gs))
    return findings


def audit_chain(gs: GlobalSwitchboard, chain_name: str) -> list[str]:
    """Audit one installed chain against the routing solution."""
    findings: list[str] = []
    installation = gs.installations.get(chain_name)
    if installation is None:
        return [f"chain {chain_name!r} is not installed"]
    chain = gs.model.chains[chain_name]
    label = installation.label
    key = (label, installation.egress_site)
    solution = gs.router.solution

    # 1. Ingress split: edge forwarder weights vs stage-1 fractions.
    ingress_local = gs.local_switchboard(installation.ingress_site)
    edge_fwd = ingress_local.edge_forwarder()
    rule = edge_fwd.rules.get(key)
    if rule is None:
        findings.append(
            f"{chain_name}: no ingress rule at {edge_fwd.name}"
        )
    else:
        intended: dict[str, float] = defaultdict(float)
        for (_src, dst), frac in solution.stage_flows(chain_name, 1).items():
            if chain.vnfs:
                site = dst
            else:
                site = installation.egress_site
            intended[site] += frac
        total_intended = sum(intended.values()) or 1.0
        installed: dict[str, float] = defaultdict(float)
        for target in rule.next_forwarders.targets:
            weight = rule.next_forwarders.weight(target)
            site = _site_of_target(gs, target)
            if site is None:
                findings.append(
                    f"{chain_name}: ingress rule targets unknown element "
                    f"{target!r}"
                )
                continue
            installed[site] += weight
        total_installed = sum(installed.values()) or 1.0
        for site, frac in intended.items():
            want = frac / total_intended
            got = installed.get(site, 0.0) / total_installed
            if abs(want - got) > _TOLERANCE:
                findings.append(
                    f"{chain_name}: ingress split to {site} is {got:.3f}, "
                    f"TE intends {want:.3f}"
                )

    # 2. Every VNF position/site on the route has a serving rule.
    for z in range(1, chain.num_stages):
        vnf_name = chain.vnf_at(z)
        sites = {
            dst
            for (_src, dst), frac in solution.stage_flows(chain_name, z).items()
            if frac > _EPS
        }
        for site in sites:
            local = gs.local_switchboard(site)
            serving = [
                fwd
                for fwd in local.forwarders_for_service(vnf_name)
                if key in fwd.rules
            ]
            if not serving:
                findings.append(
                    f"{chain_name}: no rule for VNF {vnf_name!r} at {site}"
                )
                continue
            for fwd in serving:
                fwd_rule = fwd.rules[key]
                missing = [
                    target
                    for target in fwd_rule.local_instances.targets
                    if target not in fwd.attached
                ]
                if missing:
                    findings.append(
                        f"{chain_name}: rule at {fwd.name} references "
                        f"detached instances {missing}"
                    )
                for target in fwd_rule.next_forwarders.targets:
                    if _site_of_target(gs, target) is None:
                        findings.append(
                            f"{chain_name}: rule at {fwd.name} targets "
                            f"unknown element {target!r}"
                        )
    return findings


def _site_of_target(gs: GlobalSwitchboard, target: str) -> str | None:
    fwd = gs.dataplane.forwarders.get(target)
    if fwd is not None:
        return fwd.site
    endpoint = gs.dataplane.endpoints.get(target)
    if endpoint is not None:
        return getattr(endpoint, "site", "<endpoint>")
    return None


def _find_stale_rules(gs: GlobalSwitchboard) -> list[str]:
    """Rules whose chain label is no longer installed."""
    live_labels = {inst.label for inst in gs.installations.values()}
    findings = []
    for fwd in gs.dataplane.forwarders.values():
        for (label, egress) in fwd.rules:
            if label not in live_labels:
                findings.append(
                    f"stale rule (label {label}, egress {egress}) at "
                    f"{fwd.name}"
                )
    return findings
