"""SB-DP: the dynamic-programming routing heuristic of Section 4.4.

For one chain, the algorithm builds the table ``E(z, s)`` -- the least
cost of a route through the first ``z`` chain nodes that ends at site
``s`` -- using the recurrence of Equation 8::

    E(z + 1, s) = min over s' of E(z, s') + cost(s', z, s)

where ``cost`` combines propagation latency, network-utilization cost,
and compute-utilization cost, the utilization terms using a
piecewise-linear convex penalty (Fortz--Thorup) that grows steeply above
50% utilization.  The least-cost route is recovered by walking the table
backwards from the egress.  If resource constraints let the route carry
only part of the chain's traffic, the algorithm repeats on the residual
capacities until the chain is fully routed or no capacity remains.

Multi-chain workloads are routed sequentially, each chain seeing the
utilization left behind by its predecessors -- this is the "computationally
efficient routing heuristic" evaluated against SB-LP in Section 7.3.

The one path search (``_DpRouter._find_path``) evaluates a whole stage
front at a time, and -- the residual state being constant within one
search -- prices the utilizations of *all* stages in one penalty pass
through the :class:`~repro.core.columns.ChainTable` of the chain's shape;
the scalar recurrence and greedy search it replaced
(``tests/reference/dp_scalar.py``) are the oracle it is tested against,
route for route.

Two ablations from Figure 13a are expressed as configurations of that
one search:

- ``DpConfig.latency_only()`` -- DP-LATENCY: the cost function degenerates
  to propagation delay (capacities are still *enforced*, they just do not
  steer route choice).
- ``DpConfig.one_hop()`` -- ONEHOP: the same stage costs, but chosen
  greedily one stage at a time (the cheapest hop from the site just
  picked) instead of by the min-plus recurrence over the whole chain.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, TYPE_CHECKING

import numpy as np

from repro.core.costs import FORTZ_THORUP, PiecewiseLinearCost
from repro.core.model import Chain, NetworkModel
from repro.core.routes import RoutingSolution

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

_EPS = 1e-9
_INF = float("inf")


@dataclass(frozen=True)
class DpConfig:
    """Tuning knobs for :func:`route_chains_dp`.

    ``utilization_weight`` scales the dimensionless utilization penalty
    into latency units; ``None`` picks ``network diameter / penalty(1.0)``
    so that a fully-utilized resource costs about one diameter crossing.
    """

    use_network_cost: bool = True
    use_compute_cost: bool = True
    per_hop: bool = False
    utilization_weight: float | None = None
    penalty: PiecewiseLinearCost = field(default=FORTZ_THORUP)
    max_paths_per_chain: int = 64
    sort_by_demand: bool = False

    @staticmethod
    def latency_only() -> "DpConfig":
        """The DP-LATENCY ablation of Figure 13a."""
        return DpConfig(use_network_cost=False, use_compute_cost=False)

    @staticmethod
    def one_hop() -> "DpConfig":
        """The ONEHOP ablation of Figure 13a."""
        return DpConfig(per_hop=True)


class _ResourceState:
    """Mutable residual-capacity state shared across sequentially routed
    chains: VNF loads, site loads, and link loads.

    Array-backed over the model's columnar index maps so the vectorized
    path search can read whole stage fronts at once; the name-keyed
    accessors below translate through the index maps and keep the
    historical per-resource semantics.
    """

    def __init__(self, model: NetworkModel):
        self.model = model
        sub = model.substrate_columns()
        n_vnfs = len(sub.vnf_names)
        n_sites = len(sub.site_names)
        self.vnf_load = np.zeros((n_vnfs, n_sites))
        self.vnf_load_flat = self.vnf_load.reshape(-1)  # a view, for one gather
        self.site_load = np.zeros(n_sites)
        self.link_load = sub.link_background.copy()
        self.refresh_substrate(sub)

    def refresh_substrate(self, sub) -> None:
        """Re-read capacities after the substrate views were rebuilt.

        Supported in-place mutations replace catalog *values* (a VNF's
        capacities, a site's capacity, link latencies); names and index
        maps are unchanged, so committed loads carry over.
        """
        self.sub = sub
        self.vnf_cap = np.where(np.isnan(sub.vnf_cap), 0.0, sub.vnf_cap)
        self.vnf_cap_flat = self.vnf_cap.reshape(-1)

    # -- residual capacities -------------------------------------------

    def vnf_residual(self, vnf: str, site: str) -> float:
        vi = self.sub.vnf_index[vnf]
        si = self.sub.site_index.get(site)
        if si is None:
            return 0.0
        return float(self.vnf_cap[vi, si] - self.vnf_load[vi, si])

    def site_residual(self, site: str) -> float:
        si = self.sub.site_index[site]
        return float(self.sub.site_capacity[si] - self.site_load[si])

    def link_residual(self, link_name: str) -> float:
        li = self.sub.link_index[link_name]
        return float(
            self.model.mlu_limit * self.sub.link_bandwidth[li]
            - self.link_load[li]
        )

    # -- commits -------------------------------------------------------------

    def commit_vnf(self, vnf: str, site: str, load: float) -> None:
        vi = self.sub.vnf_index[vnf]
        si = self.sub.site_index[site]
        self.vnf_load[vi, si] += load
        self.site_load[si] += load

    def commit_link_traffic(self, n1: str, n2: str, volume: float) -> None:
        """Add (or, with negative ``volume``, remove) traffic between two
        nodes, spread over links by the routing fractions."""
        if volume == 0:
            return
        sub = self.sub
        i = sub.node_index.get(n1)
        j = sub.node_index.get(n2)
        if i is None or j is None:
            return
        p = sub.pair_id[i, j]
        if p < 0:
            return
        s = sub.pair_start[p]
        e = s + sub.pair_len[p]
        # Each pair's pool lists every link once, so fancy += is safe.
        self.link_load[sub.pool_link[s:e]] += volume * sub.pool_frac[s:e]


@dataclass
class DpResult:
    """Outcome of routing a workload with SB-DP."""

    solution: RoutingSolution
    #: chain name -> fraction of demand left unrouted (only chains with
    #: a non-zero remainder appear).
    unrouted: dict[str, float]
    paths_computed: int

    @property
    def fully_routed(self) -> bool:
        return not self.unrouted


def route_chains_dp(
    model: NetworkModel,
    config: DpConfig | None = None,
    chain_order: Iterable[str] | None = None,
    metrics: "MetricsRegistry | None" = None,
) -> DpResult:
    """Route every chain in the model with the SB-DP heuristic."""
    config = config or DpConfig()
    router = _DpRouter(model, config)
    if chain_order is None:
        names = list(model.chains)
        if config.sort_by_demand:
            names.sort(
                key=lambda n: model.chains[n].stage_traffic(1), reverse=True
            )
    else:
        names = list(chain_order)
        unknown = set(names) - set(model.chains)
        if unknown:
            raise KeyError(f"unknown chains in chain_order: {sorted(unknown)}")

    solution = RoutingSolution(model)
    unrouted: dict[str, float] = {}
    chain_hist = (
        metrics.histogram("solver.dp_chain_s") if metrics is not None else None
    )
    start = time.perf_counter()
    for name in names:
        chain_start = time.perf_counter()
        remainder = router.route_chain(model.chains[name], solution)
        if chain_hist is not None:
            chain_hist.observe(time.perf_counter() - chain_start)
        if remainder > _EPS:
            unrouted[name] = remainder
    if metrics is not None:
        # Wall-clock heuristic time over the whole workload (the number
        # the paper compares against SB-LP's hours-long CPLEX solves).
        metrics.histogram("solver.dp_route_s").observe(
            time.perf_counter() - start
        )
        metrics.counter("solver.dp_paths_computed").inc(router.paths_computed)
    return DpResult(solution, unrouted, router.paths_computed)


class _DpRouter:
    """Routes chains one at a time against shared residual state."""

    def __init__(self, model: NetworkModel, config: DpConfig):
        self.model = model
        self.config = config
        self.state = _ResourceState(model)
        self._sub = self.state.sub
        self._model_sig = self._substrate_signature()
        self.paths_computed = 0
        self._weight = self._resolve_utilization_weight()

    def _resolve_utilization_weight(self) -> float:
        if self.config.utilization_weight is not None:
            return self.config.utilization_weight
        # A failed link's delay is infinite (repro.chaos); the
        # utilization weight must stay finite regardless.
        finite = self._sub.latency[np.isfinite(self._sub.latency)]
        diameter = float(finite.max()) if finite.size else 0.0
        penalty_at_full = self.config.penalty(1.0)
        if diameter <= 0 or penalty_at_full <= 0:
            return 1.0
        return diameter / penalty_at_full

    def _substrate_signature(self) -> tuple:
        """Object identities of the mutable substrate catalogs.

        Capacity growth and similar dynamic scenarios replace entries of
        ``model.vnfs`` / ``model.sites`` / ``model.links`` in place; the
        scalar code read those dicts live on every transition, so the
        vectorized router re-checks the identities once per routed chain
        and refreshes its snapshots when anything was swapped.
        """
        m = self.model
        return (
            tuple(map(id, m.vnfs.values())),
            tuple(map(id, m.sites.values())),
            tuple(map(id, m.links.values())),
        )

    def _maybe_refresh(self) -> None:
        """Re-read the substrate views after an in-place mutation.

        Triggered either by an external ``invalidate_substrate()`` call
        (``controller.failures`` flipping latency entries) or by a
        catalog-entry swap detected via :meth:`_substrate_signature`.
        Topology names and index maps are unchanged in both cases, so
        committed loads carry over and only the cached views (and the
        chain tables hanging off them) are rebuilt.
        """
        sig = self._substrate_signature()
        sub = self.model.substrate_columns()
        if sub is self._sub and sig == self._model_sig:
            return
        if sig != self._model_sig:
            self.model.invalidate_substrate()
            sub = self.model.substrate_columns()
            self._model_sig = sig
        self._sub = sub
        self.state.refresh_substrate(sub)

    # -- public per-chain entry point ------------------------------------

    def route_chain(
        self,
        chain: Chain,
        solution: RoutingSolution,
        remaining: float = 1.0,
    ) -> float:
        """Route (up to) ``remaining`` of one chain's demand, committing
        onto the shared state.

        Returns the unrouted remainder fraction.
        """
        self._maybe_refresh()
        for _ in range(self.config.max_paths_per_chain):
            if remaining <= _EPS:
                break
            path = self._find_path(chain, remaining)
            self.paths_computed += 1
            if path is None:
                break
            fraction = min(remaining, self._max_feasible_fraction(chain, path))
            if fraction <= _EPS:
                break
            self._commit(chain, path, fraction)
            solution.add_path(chain.name, path, fraction)
            remaining -= fraction
        return max(0.0, remaining)

    # -- path search ----------------------------------------------------------

    def _find_path(self, chain: Chain, pass_fraction: float) -> list[str] | None:
        """Equation 8 over whole stage fronts.

        One (sources x destinations) cost matrix per stage holds the
        transition cost of every pair.  Every matrix element is
        accumulated in the same order as the scalar code
        (``tests/reference/dp_scalar.py``: latency, then compute
        penalty, then forward link penalties in pool order, then
        reverse), and ``argmin`` keeps the first minimum exactly like
        the scalar strict-``<`` scan, so both implementations pick
        identical routes.  ONEHOP (``per_hop``) prices the same
        matrices and only chooses differently: each stage takes the
        cheapest entry of the row of the site just picked instead of
        the min-plus step over all of them.

        The residual state cannot change inside one search, so every
        utilization the search can meet -- the (VNF, site) elements of
        all stages, then the link entries of all stages in both
        directions -- is gathered into one array and priced by a single
        penalty pass; the stage recurrence then only slices the result.
        """
        cfg = self.config
        state = self.state
        sub = self._sub
        stages, index, site, load, sizes, front = sub.chain_table(chain, self.model)
        last = len(stages) - 1  # the egress stage; the others end at a VNF
        use_links = cfg.use_network_cost and bool(self.model.routing)

        caps = state.vnf_cap_flat[index]
        loads = state.vnf_load_flat[index]
        blocked = (caps - loads <= _EPS) | (
            (sub.site_capacity - state.site_load)[site] <= _EPS
        )
        any_blocked = np.count_nonzero(blocked) > 0
        utils = []
        if cfg.use_compute_cost:
            traffic = [
                (fwd + rev) * pass_fraction
                for fwd, rev in zip(
                    chain.forward_traffic[:last], chain.reverse_traffic[:last]
                )
            ]
            # Without capacity the quotient is never computed (x / 0, or
            # 0 / 0 for a stage an all-blocked earlier one makes unreachable).
            extra = load * np.array(traffic).repeat(sizes) * 2.0
            compute = np.empty(index.size)
            compute.fill(_INF)
            utils.append(np.divide(loads + extra, caps, out=compute, where=caps > 0))
        if use_links:
            # Per stage the forward then the reverse table and volume.
            tables = [table for stage in stages for table in (stage.fwd, stage.rev)]
            volumes = [
                demand[z] * pass_fraction
                for z in range(last + 1)
                for demand in (chain.forward_traffic, chain.reverse_traffic)
            ]
            links, fracs, bandwidth = (
                np.concatenate(part) for part in zip(*(t[1:] for t in tables))
            )
            volume = np.array(volumes).repeat([t.targets.size for t in tables])
            utils.append((state.link_load[links] + volume * fracs) / bandwidth)
        if utils:
            pens = cfg.penalty.batch(np.minimum(np.concatenate(utils), 2.0))
            n_compute = index.size if cfg.use_compute_cost else 0
            compute_pen = self._weight * pens[:n_compute]
            if use_links:
                link_pen = (self._weight * fracs) * pens[n_compute:]

        # Costs run over the *full* stage fronts; capacity-blocked or
        # unreachable entries carry +inf, which the min-reduction
        # ignores whenever any finite alternative exists -- the same
        # outcome as the scalar code's explicit skips.  A front no
        # finite cost reaches stays all +inf through the later stages
        # (only finite terms and +inf are ever added), so the one test
        # after the last stage covers every stage.
        parents: list[np.ndarray] = []  # of stages 2, 3, ...: stage 1 has one source
        entry = 0  # first link entry of the table at hand
        for z, stage in enumerate(stages):
            if z < last and cfg.use_compute_cost:
                step = stage.latency + compute_pen[front[z] : front[z + 1]]
            else:
                step = stage.latency.copy()
            if z < last and any_blocked:
                step[:, blocked[front[z] : front[z + 1]]] = _INF
            if use_links:
                flat = step.ravel()
                for k in (2 * z, 2 * z + 1):  # forward, then reverse
                    size = tables[k].targets.size
                    # A direction without demand was priced with the rest
                    # but, as in the scalar code, adds nothing.
                    if volumes[k] > 0 and size:
                        np.add.at(
                            flat, tables[k].targets, link_pen[entry : entry + size]
                        )
                    entry += size
            if z == 0:  # from the ingress alone: nothing to choose between
                prev_cost = step[0]
            elif cfg.per_hop:
                # The cheapest hop from the site just picked, whatever
                # the later stages cost; ``prev_cost`` is that site's row.
                pick = int(prev_cost.argmin())
                if not prev_cost[pick] < _INF:
                    return None
                parents.append(np.full(step.shape[1], pick))
                prev_cost = step[pick]
            else:
                total = prev_cost[:, None] + step
                parents.append(total.argmin(axis=0))
                prev_cost = np.minimum.reduce(total, axis=0)

        if not prev_cost[0] < _INF:
            return None
        # Backtrack from the egress (the only destination of the last
        # stage, so its front index is 0).
        idx = 0
        path = [chain.egress]
        for z in range(last, 0, -1):
            idx = int(parents[z - 1][idx])
            path.append(sub.site_names[site[front[z - 1] + idx]])
        path.append(chain.ingress)
        path.reverse()
        return path

    # -- feasibility and commit ------------------------------------------------------

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
            max_fraction = min(
                max_fraction, self.state.vnf_residual(vnf, site) / per_unit
            )
        for site, per_unit in site_demand.items():
            max_fraction = min(
                max_fraction, self.state.site_residual(site) / per_unit
            )

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
                        max_fraction, self.state.link_residual(name) / per_unit
                    )

        return max(0.0, max_fraction)

    def _commit(self, chain: Chain, path: list[str], fraction: float) -> None:
        for z in range(1, chain.num_stages):
            vnf = chain.vnf_at(z)
            load = (
                self.model.vnfs[vnf].load_per_unit
                * (chain.stage_traffic(z) + chain.stage_traffic(z + 1))
                * fraction
            )
            self.state.commit_vnf(vnf, path[z], load)
        for z, (src, dst) in enumerate(zip(path, path[1:]), start=1):
            n1 = self.model.endpoint_node(src)
            n2 = self.model.endpoint_node(dst)
            self.state.commit_link_traffic(
                n1, n2, chain.forward_traffic[z - 1] * fraction
            )
            self.state.commit_link_traffic(
                n2, n1, chain.reverse_traffic[z - 1] * fraction
            )


class IncrementalDpRouter:
    """Route chains one at a time against persistent residual state.

    This is the interface Global Switchboard uses operationally: chains
    arrive over time, each is routed against the utilization left by the
    chains already installed, and the accumulated
    :class:`~repro.core.routes.RoutingSolution` always reflects the
    currently installed routes.
    """

    def __init__(self, model: NetworkModel, config: DpConfig | None = None):
        self.model = model
        self.config = config or DpConfig()
        self._router = _DpRouter(model, self.config)
        self.solution = RoutingSolution(model)
        #: name -> the chain as routed.  The committed load is this
        #: chain's demands times the carried fractions, whatever the
        #: model holds under the name by the time of a rollback.
        self._routed: dict[str, Chain] = {}

    def route(self, chain_name: str) -> float:
        """Route one chain (must already be in the model).

        Any demand already carried (a previous partial routing) is left
        in place and only the remainder is attempted, so re-invoking
        after new capacity appears implements the paper's dynamic route
        addition.  While any of it is carried a name stays the chain it
        was routed as: replacing the chain in the model before the
        ``rollback`` does not change what the router carries or tops up.
        Returns the total carried fraction.
        """
        chain = self._routed.get(chain_name) or self.model.chains[chain_name]
        remaining = max(0.0, 1.0 - self.solution.routed_fraction(chain_name))
        self._router.route_chain(chain, self.solution, remaining)
        carried = self.solution.routed_fraction(chain_name)
        if carried > 0:
            self._routed[chain_name] = chain
        return carried

    def rollback(self, chain_name: str) -> None:
        """Undo a routed chain: release its VNF, site, and link load and
        drop its flows from the accumulated solution.

        Used when a two-phase commit is rejected by a VNF controller and
        the route must be recomputed (Section 3, chain creation).  What
        is released is what :meth:`route` committed -- the load of the
        chain as routed -- whether the model has since re-scaled the
        chain or dropped it.
        """
        chain = self._routed.pop(chain_name, None) or self.model.chains[chain_name]
        for z in range(1, chain.num_stages + 1):
            flows = self.solution._flows.pop((chain_name, z), {})
            for (src, dst), frac in flows.items():
                traffic = chain.stage_traffic(z) * frac
                if z < chain.num_stages:
                    vnf = chain.vnf_at(z)
                    load = self.model.vnfs[vnf].load_per_unit * traffic
                    self._router.state.commit_vnf(vnf, dst, -load)
                if z > 1:
                    vnf = chain.vnf_at(z - 1)
                    load = self.model.vnfs[vnf].load_per_unit * traffic
                    self._router.state.commit_vnf(vnf, src, -load)
                n1 = self.model.endpoint_node(src)
                n2 = self.model.endpoint_node(dst)
                fwd = chain.forward_traffic[z - 1] * frac
                rev = chain.reverse_traffic[z - 1] * frac
                self._router.state.commit_link_traffic(n1, n2, -fwd)
                self._router.state.commit_link_traffic(n2, n1, -rev)

    def sync_vnf_capacity(self, vnf_name: str, site: str, available: float) -> None:
        """Reconcile the router's view of a VNF's remaining capacity at a
        site with the capacity the VNF controller actually reports (used
        after a two-phase-commit rejection)."""
        current = self._router.state.vnf_residual(vnf_name, site)
        if available < current:
            extra = current - available
            self._router.state.commit_vnf(vnf_name, site, extra)

    def residual_vnf_capacity(self, vnf_name: str, site: str) -> float:
        return self._router.state.vnf_residual(vnf_name, site)


__all__ = [
    "DpConfig",
    "DpResult",
    "IncrementalDpRouter",
    "route_chains_dp",
]
