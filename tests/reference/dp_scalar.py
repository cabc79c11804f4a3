"""The scalar Equation 8 recurrence SB-DP ran before its path search
was vectorized: one ``_transition_cost`` call per (source, destination)
pair, parents kept per stage, backtracking from the egress.

It is the oracle ``repro.core.dp``'s one-penalty-pass search is tested
against, route for route (``tests/test_vectorized_equivalence.py``);
nothing under ``src/`` reaches it.
"""

from __future__ import annotations

import repro.core.dp as dp
from repro.core.dp import _INF, DpConfig, DpResult
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
