"""The scalar searches SB-DP ran before its path search was vectorized:
one ``_transition_cost`` call per (source, destination) pair, either in
the Equation 8 recurrence (parents kept per stage, backtracking from the
egress) or, for ONEHOP, greedily one stage at a time.

They are the oracle ``repro.core.dp``'s one-penalty-pass search is
tested against, route for route (``tests/test_vectorized_equivalence.py``);
nothing under ``src/`` reaches them, and they reach ``src/`` only for
the router's residual state, feasibility and commit.
"""

from __future__ import annotations

import repro.core.dp as dp
from repro.core.dp import _EPS, _INF, DpConfig, DpResult
from repro.core.model import Chain, NetworkModel


class ScalarDpRouter(dp._DpRouter):
    """``_DpRouter`` searching with the scalar recurrence."""

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
        cost = self.model.site_latency(src, dst)
        traffic = chain.stage_traffic(z) * pass_fraction

        if z < chain.num_stages:
            vnf = chain.vnf_at(z)
            residual = self.state.vnf_residual(vnf, dst)
            site_residual = self.state.site_residual(dst)
            if residual <= _EPS or site_residual <= _EPS:
                return _INF
            if self.config.use_compute_cost:
                # The VNF both receives stage-z and sends stage-(z+1)
                # traffic; approximate the added load with twice the
                # incoming demand (symmetric chains).
                load = self.model.vnfs[vnf].load_per_unit * traffic * 2.0
                util = self._vnf_utilization(vnf, dst, extra=load)
                cost += self._weight * self.config.penalty(min(util, 2.0))

        if self.config.use_network_cost and self.model.routing:
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
                        * self.config.penalty(min(util, 2.0))
                    )
        return cost

    def _vnf_utilization(self, vnf: str, site: str, extra: float = 0.0) -> float:
        state = self.state
        vi = state.sub.vnf_index[vnf]
        si = state.sub.site_index.get(site)
        cap = 0.0 if si is None else state.vnf_cap[vi, si]
        if cap <= 0:
            return _INF
        return float((state.vnf_load[vi, si] + extra) / cap)

    def _link_utilization(self, link_name: str, extra: float = 0.0) -> float:
        state = self.state
        li = state.sub.link_index[link_name]
        return float(
            (state.link_load[li] + extra) / state.sub.link_bandwidth[li]
        )


def route_chains_dp_reference(
    model: NetworkModel, config: DpConfig | None = None
) -> DpResult:
    """``route_chains_dp`` with every path found by the scalar search."""
    vectorized = dp._DpRouter
    dp._DpRouter = ScalarDpRouter
    try:
        return dp.route_chains_dp(model, config)
    finally:
        dp._DpRouter = vectorized
