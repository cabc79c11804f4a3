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

A chain is routed from one layout (``_Layout``), assembled once per
``_DpRouter.route_chain`` from the shape's
:class:`~repro.core.columns.ChainTable` and reused by every pass: all
stages' step matrices as views into one buffer, the chain's (VNF, site)
elements, and the link entries of its directions with demand, grouped
in (link, fraction) classes.  One search (``_search``) evaluates a whole
stage front at a time and -- the residual state being constant within
it -- prices every compute element and link class in one penalty pass;
it returns element ids, by which feasibility (``_carry``) reads the
state and writes a commit record, which ``_commit`` applies.  The scalar
per-chain routine it replaced (``tests/reference/dp_scalar.py``: search,
feasibility and commit by name) is the oracle it is tested against,
route for route and residual array for residual array.

A run leaves a trail on the columns it routed over
(``SubstrateColumns.dp_trail``): per chain, in routing order, what it
committed and added, its remainder and its search count.  A later run on
the same columns, config and MLU limit replays the longest prefix of
equal chains through the same ``_commit`` -- the same float operations,
in the same order, from the same state -- and routes the rest, so its
result is bit-identical to a cold run's.  The trail dies with the
columns (``invalidate_substrate()``).

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
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple, TYPE_CHECKING

import numpy as np

from repro.core.columns import catalog_ids
from repro.core.costs import FORTZ_THORUP
from repro.core.model import Chain, NetworkModel
from repro.core.routes import RoutingSolution

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

_EPS = 1e-9
_INF = float("inf")


@dataclass(frozen=True)
class DpConfig:
    """Tuning knobs for :func:`route_chains_dp`.

    ``utilization_cost`` adds the Fortz--Thorup penalty of every link and
    (VNF, site) a hop loads to its latency, weighted by ``network
    diameter / penalty(1.0)`` so that a fully-utilized resource costs
    about one diameter crossing.
    """

    utilization_cost: bool = True
    per_hop: bool = False
    max_paths_per_chain: int = 64

    @staticmethod
    def latency_only() -> "DpConfig":
        """The DP-LATENCY ablation of Figure 13a."""
        return DpConfig(utilization_cost=False)

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

    # -- commits -------------------------------------------------------------

    def commit_vnf(self, vnf: str, site: str, load: float) -> None:
        vi = self.sub.vnf_index[vnf]
        si = self.sub.site_index[site]
        self.vnf_load[vi, si] += load
        self.site_load[si] += load


class _Commit(NamedTuple):
    """What one pass writes onto the state: per VNF stage the flat
    (VNF, site) index, site and load; the ``np.add.at`` link operands."""

    fraction: float
    vnfs: list
    sites: list
    loads: list[float]
    links: np.ndarray | None
    volumes: np.ndarray | None


class _Routed(NamedTuple):
    """One chain as routed: what replays it without a search."""

    chain: Chain
    passes: list[tuple[_Commit, list[str]]]  # each with the path it added
    remainder: float
    searches: int


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
    metrics: "MetricsRegistry | None" = None,
) -> DpResult:
    """Route every chain in the model, in the model's order, with the
    SB-DP heuristic.  The chains before the first that differs from the
    last run over the same columns, config and MLU limit are replayed
    (module docstring)."""
    config = config or DpConfig()
    router = _DpRouter(model, config)
    solution = RoutingSolution(model)
    unrouted: dict[str, float] = {}
    chain_hist = (
        metrics.histogram("solver.dp_chain_s") if metrics is not None else None
    )
    # The last run over these columns: ((config, MLU limit), chains).
    key, trail = (config, model.mlu_limit), router._sub.dp_trail
    last = trail[1] if trail is not None and trail[0] == key else []
    chains = list(model.chains.values())
    replayed = 0  # only a prefix replays
    while replayed < min(len(last), len(chains)) and last[replayed].chain == chains[replayed]:
        replayed += 1
    start = time.perf_counter()
    router._sub.chain_tables(chains[replayed:], model)  # one pass for the new pairs
    routed: list[_Routed] = []
    for i, chain in enumerate(chains):
        chain_start = time.perf_counter()
        if i < replayed:
            done = router.replay(last[i], solution)
        else:
            done = router.route_chain(chain, solution)
        routed.append(done)
        if chain_hist is not None:
            chain_hist.observe(time.perf_counter() - chain_start)
        if done.remainder > _EPS:
            unrouted[chain.name] = done.remainder
    router._sub.dp_trail = (key, routed)
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
        self._sub = self._substrate()
        self.state = _ResourceState(model)
        self.paths_computed = 0
        self._weight = self._resolve_utilization_weight()

    def _resolve_utilization_weight(self) -> float:
        # A failed link's delay is infinite (repro.chaos); the
        # utilization weight must stay finite regardless.
        finite = self._sub.latency[np.isfinite(self._sub.latency)]
        diameter = float(finite.max()) if finite.size else 0.0
        if diameter <= 0:
            return 1.0
        return diameter / FORTZ_THORUP(1.0)

    def _substrate(self):
        """The model's columns, rebuilt first when a catalog entry was
        swapped in place since they were read (the scalar code read the
        catalogs live, so this runs once per routed chain)."""
        sub = self.model.substrate_columns()
        if sub.catalogs != catalog_ids(self.model):
            self.model.invalidate_substrate()
            sub = self.model.substrate_columns()
        return sub

    def _maybe_refresh(self) -> None:
        """Re-read the substrate views after an in-place mutation: an
        ``invalidate_substrate()`` (``controller.failures`` flipping
        latency entries) or a catalog-entry swap.  Names and index maps
        are unchanged, so committed loads carry over.
        """
        sub = self._substrate()
        if sub is not self._sub:
            self._sub = sub
            self.state.refresh_substrate(sub)

    # -- public per-chain entry point ------------------------------------

    def route_chain(
        self,
        chain: Chain,
        solution: RoutingSolution,
        remaining: float = 1.0,
    ) -> _Routed:
        """Route (up to) ``remaining`` of one chain's demand, committing
        onto the shared state; the chain as routed, with its unrouted
        remainder fraction."""
        self._maybe_refresh()
        layout = None
        passes = []
        searches = 0
        for _ in range(self.config.max_paths_per_chain):
            if remaining <= _EPS:
                break
            if layout is None:
                layout = _Layout(self, chain)
            elems = self._search(layout, remaining)
            searches += 1
            if elems is None:
                break
            record = self._carry(layout, elems, remaining)
            if record is None:
                break
            self._commit(record)
            sites = [self._sub.site_names[layout.site[e]] for e in elems]
            path = [chain.ingress, *sites, chain.egress]
            solution.add_path(chain.name, path, record.fraction)
            passes.append((record, path))
            remaining -= record.fraction
        self.paths_computed += searches
        return _Routed(chain, passes, max(0.0, remaining), searches)

    def replay(self, routed: _Routed, solution: RoutingSolution) -> _Routed:
        """Commit and add what :meth:`route_chain` committed and added."""
        for record, path in routed.passes:
            self._commit(record)
            solution.add_path(routed.chain.name, path, record.fraction)
        self.paths_computed += routed.searches
        return routed

    # -- path search ----------------------------------------------------------

    def _search(self, lay: "_Layout", pass_fraction: float) -> list[int] | None:
        """Equation 8 over whole stage fronts: per VNF the element id (into
        the chain table's run) of its site, or ``None``.

        Every step-matrix element is accumulated in the scalar code's
        order (``tests/reference/dp_scalar.py``: latency, compute penalty,
        forward then reverse link penalties in pool order) and ``argmin``
        keeps the first minimum like its strict-``<`` scan, so both pick
        identical routes.  ONEHOP (``per_hop``) prices the same matrices
        and takes, per stage, the cheapest entry of the row of the site
        just picked instead of the min-plus step.  The residual state is
        constant within a search, so every utilization it can meet -- the
        (VNF, site) elements, then the link classes -- is priced by one
        penalty pass, and the link penalties land in one ``np.add.at``.
        """
        cfg = self.config
        state = self.state
        front = lay.front
        last = len(lay.latency) - 1  # the egress stage; the others end at a VNF
        n = lay.index.size if cfg.utilization_cost else 0
        use_links = lay.buf is not None

        loads = state.vnf_load_flat[lay.index]
        blocked = (lay.caps - loads <= _EPS) | (
            (self._sub.site_capacity - state.site_load)[lay.site] <= _EPS
        )
        any_blocked = np.count_nonzero(blocked) > 0
        if cfg.utilization_cost:
            # Without capacity the quotient is never computed (x / 0, or
            # 0 / 0 for a stage an all-blocked earlier one makes
            # unreachable): those elements keep the layout's +inf.
            extra = lay.load * (lay.traffic * pass_fraction) * 2.0
            np.divide(loads + extra, lay.caps, out=lay.util[:n], where=lay.caps > 0)
        if use_links:
            volume = lay.demand * pass_fraction
            np.divide(
                state.link_load[lay.links] + volume * lay.fracs, lay.bandwidth,
                out=lay.util[n:], where=lay.open,
            )
        pen = None
        if lay.util.size:
            pens = FORTZ_THORUP.batch(np.minimum(lay.util, 2.0))
            pen = self._weight * pens[:n]
        if any_blocked:
            if pen is None:
                pen = np.zeros(lay.index.size)
            pen[blocked] = _INF

        # Costs run over the *full* stage fronts; capacity-blocked or
        # unreachable entries carry +inf, which the min-reduction
        # ignores whenever any finite alternative exists -- the same
        # outcome as the scalar code's explicit skips.  A front no
        # finite cost reaches stays all +inf through the later stages
        # (only finite terms and +inf are ever added), so the one test
        # after the last stage covers every stage.
        steps = []
        for z, (step, out) in enumerate(zip(lay.latency, lay.views)):
            if z < last and pen is not None:
                step = np.add(step, pen[front[z] : front[z + 1]], out=out)
            elif out is not None:  # else nothing is added: read it in place
                np.copyto(out, step)
                step = out
            steps.append(step)
        if use_links:
            np.add.at(lay.buf, lay.targets, (lay.wfracs * pens[n:])[lay.group])
        parents: list[np.ndarray] = []  # of stages 2, 3, ...: stage 1 has one source
        for z, step in enumerate(steps):
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
        elems = []
        for z in range(last, 0, -1):
            idx = int(parents[z - 1][idx])
            elems.append(front[z - 1] + idx)
        return elems[::-1]

    # -- feasibility and commit ------------------------------------------------------

    def _carry(
        self, lay: "_Layout", elems: list[int], remaining: float
    ) -> _Commit | None:
        """The commit of the largest fraction (up to ``remaining``; ``None``
        if not above ``_EPS``) of the chain's demand the found path can
        carry.  The demands are summed per (VNF, site), per site and per
        link first, in path order, so no resource met twice overflows."""
        state = self.state
        vnf_load, site_load = state.vnf_load_flat, state.site_load
        index, site = lay.index, lay.site
        fraction = 1.0
        per_vnf, per_site = {}, {}
        for e, unit in zip(elems, lay.per_unit):
            if unit > 0:
                per_vnf[index[e]] = per_vnf.get(index[e], 0.0) + unit
                per_site[site[e]] = per_site.get(site[e], 0.0) + unit
        for i, unit in per_vnf.items():
            fraction = min(fraction, float(state.vnf_cap_flat[i] - vnf_load[i]) / unit)
        for s, unit in per_site.items():
            fraction = min(fraction, float(self._sub.site_capacity[s] - site_load[s]) / unit)
        if lay.classes:
            # The buffer element each stage's hop took, and its entries.
            cells, src = [], 0
            for z, (start, latency) in enumerate(zip(lay.start, lay.latency)):
                dst = elems[z] - lay.front[z] if z < len(elems) else 0
                cells.append(start + src * latency.shape[1] + dst)
                src = dst
            hit = np.flatnonzero(lay.targets == np.array(cells)[lay.stage_of])
            cls = lay.group[hit]
            links = lay.links[cls]
            demand = np.bincount(links, lay.unit[cls], state.link_load.size)
            used = np.flatnonzero(demand)
            if used.size:
                residual = (
                    self.model.mlu_limit * self._sub.link_bandwidth[used] - state.link_load[used]
                )
                fraction = min(fraction, float(np.minimum.reduce(residual / demand[used])))
        fraction = min(remaining, max(0.0, fraction))
        if fraction <= _EPS:
            return None
        return _Commit(
            fraction,
            [index[e] for e in elems],
            [site[e] for e in elems],
            [unit * fraction for unit in lay.per_unit],
            links if lay.classes else None,
            lay.demand[cls] * fraction * lay.fracs[cls] if lay.classes else None,
        )

    def _commit(self, record: _Commit) -> None:
        """Add one pass's loads to the state, in path order."""
        state = self.state
        vnf_load, site_load = state.vnf_load_flat, state.site_load
        for i, s, load in zip(record.vnfs, record.sites, record.loads):
            vnf_load[i] += load
            site_load[s] += load
        if record.links is not None:
            np.add.at(state.link_load, record.links, record.volumes)

    def _release(self, record: _Commit) -> None:
        """Take one pass's loads off the state (a rollback)."""
        state = self.state
        vnf_load, site_load = state.vnf_load_flat, state.site_load
        for i, s, load in zip(record.vnfs, record.sites, record.loads):
            vnf_load[i] -= load
            site_load[s] -= load
        if record.links is not None:
            np.subtract.at(state.link_load, record.links, record.volumes)


class _Layout:
    """What the searches, feasibility checks and commits of one chain
    read, assembled once per :meth:`_DpRouter.route_chain` and reused by
    every pass (between passes only the residual state changes).

    - The (VNF, site) elements of all VNF stages, the shape's
      :class:`~repro.core.columns.ChainTable` run: flat state index,
      site, load per unit, capacity and stage demand.
    - The link entries of the stage directions that carry demand,
      stage-major, forward before reverse, each in pool order, so the one
      ``np.add.at`` of a search and the per-link sums of a feasibility
      check add in the scalar code's order; ``targets`` are offset into
      ``buf``, where stage ``z``'s step matrix is ``views[z]``, from
      ``start[z]``.  The entries of one (direction, link, fraction) class
      meet one utilization: ``links``, ``fracs``, ``bandwidth`` and
      ``demand`` are per class, ``group`` maps an entry to its class.
    """

    def __init__(self, router: _DpRouter, chain: Chain):
        sub, cfg = router._sub, router.config
        stages, self.index, self.site, self.load, sizes, self.front = (
            sub.chain_table(chain, router.model)
        )
        self.latency = [stage.latency for stage in stages]
        fwd, rev = chain.forward_traffic, chain.reverse_traffic
        totals = [w + v for w, v in zip(fwd, rev)]  # stage_traffic(1 ..)
        self.traffic = np.array(totals[:-1]).repeat(sizes)
        vnfs = router.model.vnfs
        self.per_unit = [
            vnfs[name].load_per_unit * (a + b)
            for name, a, b in zip(chain.vnfs, totals, totals[1:])
        ]
        self.caps = router.state.vnf_cap_flat[self.index]

        tables, demands, stage_of = [], [], []
        for z, stage in enumerate(stages if sub.pool_link.size else ()):
            for table, demand in ((stage.fwd, fwd[z]), (stage.rev, rev[z])):
                if demand > 0 and table.targets.size:
                    tables.append(table)
                    demands.append(demand)
                    stage_of.append(z)
        self.classes = 0
        self.buf, self.views = None, [None] * len(stages)
        if tables:
            *self.start, size = accumulate((m.size for m in self.latency), initial=0)
            counts = [table.targets.size for table in tables]
            targets = np.concatenate([table.targets for table in tables])
            self.targets = targets + np.repeat([self.start[z] for z in stage_of], counts)
            self.stage_of = np.repeat(stage_of, counts)
            n = sub.class_link.size  # table k's class c is key k * n + c
            keys = np.concatenate([table.group for table in tables])
            keys += np.repeat(np.arange(0, n * len(tables), n), counts)
            present = np.zeros(n * len(tables), dtype=bool)
            present[keys] = True
            kinds = np.flatnonzero(present)
            rank = np.empty(present.size, dtype=np.int64)
            rank[kinds] = np.arange(kinds.size)
            self.group = rank[keys]
            table, kind = np.divmod(kinds, n)
            self.links, self.fracs = sub.class_link[kind], sub.class_frac[kind]
            self.bandwidth = sub.link_bandwidth[self.links]
            self.demand = np.array(demands)[table]
            self.unit = self.demand * self.fracs
            self.wfracs = router._weight * self.fracs
            # A zero-bandwidth link is blocked: its utilization is never
            # computed (the fill's +inf stays) and crossing it costs +inf.
            self.open = True
            if not self.bandwidth.all():
                self.open = self.bandwidth > 0
                self.wfracs[~self.open] = _INF
            self.classes = self.links.size
            if cfg.utilization_cost:  # only link penalties are added in place
                self.buf = np.empty(size)
                self.views = [
                    self.buf[a : a + m.size].reshape(m.shape)
                    for a, m in zip(self.start, self.latency)
                ]
        # Penalty input: compute elements (+inf where a VNF has no
        # capacity: never overwritten), then link classes.
        self.util = np.empty(
            self.index.size + self.classes if cfg.utilization_cost else 0
        )
        self.util.fill(_INF)


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
        #: name -> the chain as routed and the commit records of its
        #: passes: what a rollback releases, whatever the model holds
        #: under the name by then.
        self._routed: dict[str, tuple[Chain, list[_Commit]]] = {}

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
        chain, records = self._routed.get(chain_name) or (self.model.chains[chain_name], [])
        remaining = max(0.0, 1.0 - self.solution.routed_fraction(chain_name))
        done = self._router.route_chain(chain, self.solution, remaining)
        records += [record for record, _path in done.passes]
        carried = self.solution.routed_fraction(chain_name)
        if carried > 0:
            self._routed[chain_name] = (chain, records)
        return carried

    def rollback(self, chain_name: str) -> None:
        """Undo a routed chain: release its VNF, site, and link load and
        drop its flows from the accumulated solution.

        Used when a two-phase commit is rejected by a VNF controller and
        the route must be recomputed (Section 3, chain creation).  What
        is released is what :meth:`route` committed -- its commit
        records, pass by pass -- whether the model has since re-scaled
        the chain or dropped it.
        """
        chain, records = self._routed.pop(chain_name, None) or (self.model.chains[chain_name], [])
        for record in records:
            self._router._release(record)
        for z in range(1, chain.num_stages + 1):
            self.solution._flows.pop((chain_name, z), None)

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
