"""SB-DP as it ran before its per-chain routine was vectorized: one
``_transition_cost`` call per (source, destination) pair, either in the
Equation 8 recurrence (parents kept per stage, backtracking from the
egress) or, for ONEHOP, greedily one stage at a time; then a feasibility
check and a commit that walk the found path by name.

This is the oracle ``repro.core.dp``'s one-layout search, feasibility
and commit are tested against, route for route and residual array for
residual array (``tests/test_vectorized_equivalence.py``).  It owns the
whole per-chain routine and reads capacities from the model's catalogs;
nothing under ``src/`` reaches it, and it reaches ``src/`` only for the
residual loads (``_ResourceState``) and the commit records a rollback
releases (``_Commit``, ``_Routed``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.costs import FORTZ_THORUP
from repro.core.dp import _EPS, _INF, DpConfig, DpResult, _Commit, _ResourceState, _Routed
from repro.core.model import Chain, NetworkModel
from repro.core.routes import RoutingSolution


class ScalarDpRouter:
    """Routes chains one at a time against shared residual state, the
    scalar way; a drop-in for ``repro.core.dp._DpRouter``."""

    def __init__(self, model: NetworkModel, config: DpConfig):
        self.model = model
        self.config = config
        self.state = _ResourceState(model)
        self.paths_computed = 0
        #: ``_transition_cost`` calls: a test that compares against this
        #: oracle asserts it really searched.
        self.costs = 0
        finite = [d for d in model._latency.values() if math.isfinite(d)]
        diameter = max(finite, default=0.0)
        self._weight = diameter / FORTZ_THORUP(1.0) if diameter > 0 else 1.0

    def route_chain(
        self, chain: Chain, solution: RoutingSolution, remaining: float = 1.0
    ) -> _Routed:
        sub = self.model.substrate_columns()
        if sub is not self.state.sub:  # invalidated: the loads carry over
            self.state.refresh_substrate(sub)
        passes, searches = [], 0
        for _ in range(self.config.max_paths_per_chain):
            if remaining <= _EPS:
                break
            path = self._find_path(chain, remaining)
            searches += 1
            if path is None:
                break
            fraction = min(remaining, self._max_feasible_fraction(chain, path))
            if fraction <= _EPS:
                break
            passes.append((self._commit(chain, path, fraction), path))
            solution.add_path(chain.name, path, fraction)
            remaining -= fraction
        self.paths_computed += searches
        return _Routed(chain, passes, max(0.0, remaining), searches)

    # -- path search -----------------------------------------------------

    def _find_path(self, chain: Chain, pass_fraction: float) -> list[str] | None:
        if self.config.per_hop:
            return self._find_path_greedy(chain, pass_fraction)
        return self._find_path_dp(chain, pass_fraction)

    def _find_path_dp(self, chain: Chain, pass_fraction: float) -> list[str] | None:
        """The Equation 8 table computation with parent backtracking."""
        # Chain nodes 0 .. num_stages: node 0 is the ingress, node
        # num_stages is the egress; node z (1-based) hosts VNF z.
        prev_sites = [chain.ingress]
        prev_cost = {chain.ingress: 0.0}
        parents: list[dict[str, str]] = []

        for z in range(1, chain.num_stages + 1):
            dests = self.model.stage_destinations(chain, z)
            cost: dict[str, float] = {}
            parent: dict[str, str] = {}
            for dst in dests:
                best, best_src = _INF, None
                for src in prev_sites:
                    base = prev_cost.get(src, _INF)
                    if base == _INF:
                        continue
                    step = self._transition_cost(chain, z, src, dst, pass_fraction)
                    if base + step < best:
                        best = base + step
                        best_src = src
                if best_src is not None:
                    cost[dst] = best
                    parent[dst] = best_src
            if not cost:
                return None
            parents.append(parent)
            prev_sites = list(cost)
            prev_cost = cost

        # Backtrack from the egress.
        path = [chain.egress]
        current = chain.egress
        for parent in reversed(parents):
            current = parent[current]
            path.append(current)
        path.reverse()
        return path

    def _find_path_greedy(
        self, chain: Chain, pass_fraction: float
    ) -> list[str] | None:
        """ONEHOP: pick each next site by local cost only."""
        path = [chain.ingress]
        current = chain.ingress
        for z in range(1, chain.num_stages + 1):
            best, best_dst = _INF, None
            for dst in self.model.stage_destinations(chain, z):
                step = self._transition_cost(chain, z, current, dst, pass_fraction)
                if step < best:
                    best = step
                    best_dst = dst
            if best_dst is None:
                return None
            path.append(best_dst)
            current = best_dst
        return path

    # -- cost function ---------------------------------------------------

    def _transition_cost(
        self, chain: Chain, z: int, src: str, dst: str, pass_fraction: float
    ) -> float:
        """``cost(src, z-1, dst)`` in the paper's notation: latency +
        network-utilization cost + compute-utilization cost of moving
        stage-``z`` traffic from ``src`` to ``dst``."""
        self.costs += 1
        cost = self.model.site_latency(src, dst)
        traffic = chain.stage_traffic(z) * pass_fraction

        if z < chain.num_stages:
            vnf = chain.vnf_at(z)
            residual = self._vnf_residual(vnf, dst)
            site_residual = self._site_residual(dst)
            if residual <= _EPS or site_residual <= _EPS:
                return _INF
            if self.config.utilization_cost:
                # The VNF both receives stage-z and sends stage-(z+1)
                # traffic; approximate the added load with twice the
                # incoming demand (symmetric chains).
                load = self.model.vnfs[vnf].load_per_unit * traffic * 2.0
                util = self._vnf_utilization(vnf, dst, extra=load)
                cost += self._weight * FORTZ_THORUP(min(util, 2.0))

        if self.config.utilization_cost and self.model.routing:
            n1 = self.model.endpoint_node(src)
            n2 = self.model.endpoint_node(dst)
            fwd = chain.forward_traffic[z - 1] * pass_fraction
            rev = chain.reverse_traffic[z - 1] * pass_fraction
            for direction, volume in (((n1, n2), fwd), ((n2, n1), rev)):
                if volume <= 0:
                    continue
                for link_name, frac in self.model.links_between(*direction).items():
                    util = self._link_utilization(link_name, extra=volume * frac)
                    cost += (
                        self._weight
                        * frac
                        * FORTZ_THORUP(min(util, 2.0))
                    )
        return cost

    # -- residual capacities, by name ------------------------------------

    def _vnf_load(self, vnf: str, site: str) -> float:
        state = self.state
        return float(state.vnf_load[state.sub.vnf_index[vnf], state.sub.site_index[site]])

    def _vnf_residual(self, vnf: str, site: str) -> float:
        cap = self.model.vnfs[vnf].site_capacity.get(site, 0.0)
        return float(cap - self._vnf_load(vnf, site))

    def _site_residual(self, site: str) -> float:
        load = self.state.site_load[self.state.sub.site_index[site]]
        return float(self.model.sites[site].capacity - load)

    def _link_load(self, link_name: str) -> float:
        return float(self.state.link_load[self.state.sub.link_index[link_name]])

    def _link_residual(self, link_name: str) -> float:
        link = self.model.links[link_name]
        return float(self.model.mlu_limit * link.bandwidth - self._link_load(link_name))

    def _vnf_utilization(self, vnf: str, site: str, extra: float = 0.0) -> float:
        cap = self.model.vnfs[vnf].site_capacity.get(site, 0.0)
        if cap <= 0:
            return _INF
        return (self._vnf_load(vnf, site) + extra) / cap

    def _link_utilization(self, link_name: str, extra: float = 0.0) -> float:
        return (self._link_load(link_name) + extra) / self.model.links[link_name].bandwidth

    # -- feasibility and commit ------------------------------------------

    def _max_feasible_fraction(self, chain: Chain, path: list[str]) -> float:
        """Largest fraction of the chain's demand the path can carry given
        residual VNF, site, and link capacities."""
        max_fraction = 1.0

        # Compute: each VNF node z (1 .. len(vnfs)) at path[z].  Demands
        # are aggregated per (VNF, site) and per site first, so a path
        # placing several VNFs at one site cannot overload it.
        vnf_demand: dict[tuple[str, str], float] = {}
        site_demand: dict[str, float] = {}
        for z in range(1, chain.num_stages):
            vnf = chain.vnf_at(z)
            site = path[z]
            per_unit = self.model.vnfs[vnf].load_per_unit * (
                chain.stage_traffic(z) + chain.stage_traffic(z + 1)
            )
            if per_unit > 0:
                key = (vnf, site)
                vnf_demand[key] = vnf_demand.get(key, 0.0) + per_unit
                site_demand[site] = site_demand.get(site, 0.0) + per_unit
        for (vnf, site), per_unit in vnf_demand.items():
            max_fraction = min(max_fraction, self._vnf_residual(vnf, site) / per_unit)
        for site, per_unit in site_demand.items():
            max_fraction = min(max_fraction, self._site_residual(site) / per_unit)

        # Network: links along each stage hop.
        if self.model.routing and self.model.links:
            link_demand: dict[str, float] = {}
            for z, (src, dst) in enumerate(zip(path, path[1:]), start=1):
                n1 = self.model.endpoint_node(src)
                n2 = self.model.endpoint_node(dst)
                fwd = chain.forward_traffic[z - 1]
                rev = chain.reverse_traffic[z - 1]
                for direction, volume in (((n1, n2), fwd), ((n2, n1), rev)):
                    if volume <= 0:
                        continue
                    for name, frac in self.model.links_between(*direction).items():
                        link_demand[name] = link_demand.get(name, 0.0) + volume * frac
            for name, per_unit in link_demand.items():
                if per_unit > 0:
                    max_fraction = min(
                        max_fraction, self._link_residual(name) / per_unit
                    )

        return max(0.0, max_fraction)

    def _commit(self, chain: Chain, path: list[str], fraction: float) -> _Commit:
        """Commit one pass by name; what it committed as the record
        ``IncrementalDpRouter.rollback`` releases."""
        sub = self.state.sub
        vnfs, sites, loads = [], [], []
        for z in range(1, chain.num_stages):
            vnf = chain.vnf_at(z)
            load = (
                self.model.vnfs[vnf].load_per_unit
                * (chain.stage_traffic(z) + chain.stage_traffic(z + 1))
                * fraction
            )
            self.state.commit_vnf(vnf, path[z], load)
            vnfs.append(sub.vnf_index[vnf] * len(sub.site_names) + sub.site_index[path[z]])
            sites.append(sub.site_index[path[z]])
            loads.append(load)
        links, volumes = [], []
        for z, (src, dst) in enumerate(zip(path, path[1:]), start=1):
            n1 = self.model.endpoint_node(src)
            n2 = self.model.endpoint_node(dst)
            for a, b, volume in (
                (n1, n2, chain.forward_traffic[z - 1] * fraction),
                (n2, n1, chain.reverse_traffic[z - 1] * fraction),
            ):
                pool = self._pool(a, b) if volume else None
                if pool is not None:
                    # Each pair's pool lists every link once: fancy += is safe.
                    self.state.link_load[sub.pool_link[pool]] += volume * sub.pool_frac[pool]
                    links.append(sub.pool_link[pool])
                    volumes.append(volume * sub.pool_frac[pool])
        if not links:
            return _Commit(fraction, vnfs, sites, loads, None, None)
        return _Commit(fraction, vnfs, sites, loads, np.concatenate(links), np.concatenate(volumes))

    def _pool(self, n1: str, n2: str) -> slice | None:
        """The slice of the routing pool that spreads ``n1 -> n2``."""
        sub = self.state.sub
        i, j = sub.node_index.get(n1), sub.node_index.get(n2)
        if i is None or j is None or sub.pair_id[i, j] < 0:
            return None
        start = sub.pair_start[sub.pair_id[i, j]]
        return slice(start, start + sub.pair_len[sub.pair_id[i, j]])


def route_chains_dp_reference(
    model: NetworkModel, config: DpConfig | None = None
) -> tuple[DpResult, ScalarDpRouter]:
    """``route_chains_dp`` on the scalar router, and the router."""
    config = config or DpConfig()
    router = ScalarDpRouter(model, config)
    solution = RoutingSolution(model)
    unrouted = {}
    for name, chain in model.chains.items():
        remainder = router.route_chain(chain, solution).remainder
        if remainder > _EPS:
            unrouted[name] = remainder
    return DpResult(solution, unrouted, router.paths_computed), router
