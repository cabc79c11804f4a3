"""Distributed load-balancing baselines from Sections 7.2 and 7.3.

- **ANYCAST** routes each chain hop-by-hop to the VNF site with the
  lowest propagation delay, ignoring both compute capacity and network
  load (Section 7.2: "similar to anycast routing").
- **COMPUTE-AWARE** also considers sites in latency order, but skips a
  site whose VNF lacks sufficient *compute* capacity; it remains blind to
  network link load.

Both schemes lack Switchboard's visibility across chains, VNFs, and
sites, which is exactly what Figures 11 and 12 quantify.  Because these
schemes route without admission control, their offered routing can
oversubscribe resources; :func:`scale_to_capacity` converts an offered
routing into the *carried* routing by scaling each chain down by the
worst oversubscription ratio it traverses (a proportional-fairness
congestion model), which is how the throughput numbers in the benches
are produced.
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.model import Chain, NetworkModel
from repro.core.routes import RoutingSolution

_EPS = 1e-9


def route_anycast(model: NetworkModel) -> RoutingSolution:
    """Route every chain to the nearest VNF instance per hop.

    The returned solution is *offered* routing: capacities are ignored
    entirely.  Pass it through :func:`scale_to_capacity` for carried
    throughput, as the Figure 11/12 benches do.
    """
    solution = RoutingSolution(model)
    for name, chain in model.chains.items():
        path = _nearest_site_path(model, chain)
        if path is not None:
            solution.add_path(name, path, 1.0)
    return solution


def _nearest_site_path(model: NetworkModel, chain: Chain) -> list[str] | None:
    path = [chain.ingress]
    current = chain.ingress
    for z in range(1, chain.num_stages + 1):
        dests = model.stage_destinations(chain, z)
        if not dests:
            return None
        best = min(
            dests,
            key=lambda dst, at=current: (model.site_latency(at, dst), dst),
        )
        path.append(best)
        current = best
    return path


def route_compute_aware(model: NetworkModel) -> RoutingSolution:
    """Latency-ordered site selection with a compute-capacity check.

    Chains are processed sequentially; each hop picks the nearest site
    whose VNF still has enough residual compute for the chain's entire
    demand at that site (matching the paper's description: "it does not
    pick a site if it does not have sufficient compute capacity").  If no
    site fits the whole demand, the least-loaded-by-latency-order site is
    split across: the chain takes whatever fraction the best site can
    carry and overflows the rest to the next site in latency order.
    Network link load is never consulted.
    """
    solution = RoutingSolution(model)
    vnf_load: dict[tuple[str, str], float] = defaultdict(float)
    site_load: dict[str, float] = defaultdict(float)

    for chain in model.chains.values():
        _route_one_compute_aware(model, chain, solution, vnf_load, site_load)
        _trim_to_goodput(solution, chain)
    return solution


def _trim_to_goodput(solution: RoutingSolution, chain: Chain) -> None:
    """Restore flow conservation after mid-chain admission failures.

    Greedy per-hop admission can strand traffic at a VNF whose downstream
    stage had no capacity; such traffic still *consumed* upstream compute
    (the load dictionaries keep it) but is not delivered.  The returned
    routing must describe delivered traffic only, so trim each stage's
    incoming flows back to what the following stage carries, walking from
    the egress toward the ingress.
    """
    for z in range(chain.num_stages - 1, 0, -1):
        incoming: dict[str, float] = defaultdict(float)
        outgoing: dict[str, float] = defaultdict(float)
        for (_src, dst), frac in solution.stage_flows(chain.name, z).items():
            incoming[dst] += frac
        for (src, _dst), frac in solution.stage_flows(
            chain.name, z + 1
        ).items():
            outgoing[src] += frac
        for site, in_frac in incoming.items():
            out_frac = outgoing.get(site, 0.0)
            if in_frac <= out_frac + _EPS:
                continue
            factor = out_frac / in_frac if in_frac > 0 else 0.0
            for (src, dst), frac in solution.stage_flows(
                chain.name, z
            ).items():
                if dst == site:
                    solution.set_flow(chain.name, z, src, dst, frac * factor)


def _route_one_compute_aware(
    model: NetworkModel,
    chain: Chain,
    solution: RoutingSolution,
    vnf_load: dict[tuple[str, str], float],
    site_load: dict[str, float],
) -> None:
    # Fractions of the chain's demand sitting at each current location.
    at: dict[str, float] = {chain.ingress: 1.0}
    for z in range(1, chain.num_stages + 1):
        next_at: dict[str, float] = defaultdict(float)
        if z == chain.num_stages:
            # Egress consumes no compute; forward everything.
            for src, frac in at.items():
                solution.add_flow(chain.name, z, src, chain.egress, frac)
                next_at[chain.egress] += frac
            at = dict(next_at)
            continue

        vnf_name = chain.vnf_at(z)
        vnf = model.vnfs[vnf_name]
        per_unit = vnf.load_per_unit * (
            chain.stage_traffic(z) + chain.stage_traffic(z + 1)
        )
        for src, frac in at.items():
            remaining = frac
            for dst in sorted(
                model.vnf_sites(vnf_name),
                key=lambda s, src=src: (model.site_latency(src, s), s),
            ):
                if remaining <= _EPS:
                    break
                cap = vnf.site_capacity[dst]
                site_cap = model.sites[dst].capacity
                residual = min(
                    cap - vnf_load[(vnf_name, dst)],
                    site_cap - site_load[dst],
                )
                if residual <= _EPS:
                    continue
                take = remaining
                if per_unit > 0:
                    take = min(remaining, residual / per_unit)
                if take <= _EPS:
                    continue
                solution.add_flow(chain.name, z, src, dst, take)
                vnf_load[(vnf_name, dst)] += per_unit * take
                site_load[dst] += per_unit * take
                next_at[dst] += take
                remaining -= take
            # Any remainder is simply not admitted (compute everywhere full).
        at = dict(next_at)
        if not at:
            return


def scale_to_capacity(solution: RoutingSolution) -> RoutingSolution:
    """Convert offered routing into carried routing under capacities.

    For every resource (VNF-site, site, link) compute its oversubscription
    ratio ``load / capacity``.  Each chain is then scaled down by the
    worst ratio over the resources its flows traverse (capped at 1).
    This models proportional sharing at congested resources without
    simulating per-packet queueing and is applied uniformly to every
    scheme so that throughput comparisons are apples-to-apples.
    """
    model = solution.model
    vnf_ratio: dict[tuple[str, str], float] = {}
    for (vnf, site), load in solution.vnf_site_loads().items():
        cap = model.vnfs[vnf].site_capacity.get(site, 0.0)
        vnf_ratio[(vnf, site)] = load / cap if cap > 0 else float("inf")
    site_ratio: dict[str, float] = {}
    for site, load in solution.site_loads().items():
        cap = model.sites[site].capacity if site in model.sites else 0.0
        site_ratio[site] = load / cap if cap > 0 else float("inf")
    link_ratio: dict[str, float] = {}
    if model.links:
        traffic = solution.link_traffic()
        for name, link in model.links.items():
            headroom = model.link_headroom(link)
            used = traffic.get(name, 0.0)
            if used <= 0:
                continue
            link_ratio[name] = used / headroom if headroom > 0 else float("inf")

    scaled = RoutingSolution(model)
    for cname, chain in model.chains.items():
        worst = 1.0
        flows = [
            (z, pair, frac)
            for z in range(1, chain.num_stages + 1)
            for pair, frac in solution.stage_flows(cname, z).items()
        ]
        if not flows:
            continue
        for z, (src, dst), frac in flows:
            if frac <= _EPS:
                continue
            if z < chain.num_stages:
                vnf = chain.vnf_at(z)
                worst = max(worst, vnf_ratio.get((vnf, dst), 1.0))
                worst = max(worst, site_ratio.get(dst, 1.0))
            if z > 1:
                vnf = chain.vnf_at(z - 1)
                worst = max(worst, vnf_ratio.get((vnf, src), 1.0))
                worst = max(worst, site_ratio.get(src, 1.0))
            n1, n2 = model.endpoint_node(src), model.endpoint_node(dst)
            fwd = chain.forward_traffic[z - 1]
            rev = chain.reverse_traffic[z - 1]
            for direction, volume in (((n1, n2), fwd), ((n2, n1), rev)):
                if volume <= 0:
                    continue
                for link_name in model.links_between(*direction):
                    worst = max(worst, link_ratio.get(link_name, 1.0))
        factor = 0.0 if worst == float("inf") else 1.0 / worst
        if factor <= _EPS:
            continue
        for z, (src, dst), frac in flows:
            scaled.add_flow(cname, z, src, dst, frac * factor)
    return scaled
