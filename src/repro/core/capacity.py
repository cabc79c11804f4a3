"""Capacity planning: the two planning problems of Sections 4.2-4.3.

**Cloud capacity planning** (Figure 13b): given an additional compute
budget ``A`` to spread across sites, choose per-site additions ``a_s``
maximizing the uniform traffic-scale factor ``alpha`` that the network
can still route.  The paper adapts the chain-routing LP; the bilinear
``alpha * x`` product is linearized by substituting absolute flow
variables ``y = alpha * x``, after which every constraint is linear.

**VNF capacity planning** (Figure 13c): given a number of new sites
``y_f`` for each VNF, choose the placement ``S'_f`` (disjoint from the
existing ``S_f``) minimizing the aggregate weighted latency.  This is the
paper's mixed-integer program with binary placement variables ``w_fs``;
we solve it with ``scipy.optimize.milp`` (HiGHS branch-and-bound), which
only this path imports: the routing and cloud programs need HiGHS alone
(:mod:`repro.core.highs`), not the ``scipy.optimize`` package.

Baselines used by the Figure 13 benches -- uniform cloud provisioning and
random VNF placement -- live here too so every comparison shares one
implementation of the accounting.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.errors import ReproError
from repro.core.formulation import (
    ChainFlow,
    Program,
    StructureCache,
    flow_solution,
    solve,
)
from repro.core.model import CloudSite, NetworkModel, VNF
from repro.core.routes import RoutingSolution

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

_EPS = 1e-9


class CapacityPlanningError(ReproError):
    """Raised when a planning program cannot be constructed or solved."""


# ---------------------------------------------------------------------------
# Cloud capacity planning
# ---------------------------------------------------------------------------


@dataclass
class CloudCapacityPlan:
    """Result of :func:`plan_cloud_capacity`."""

    alpha: float
    additional: dict[str, float]
    solution: RoutingSolution | None
    solve_seconds: float


class _CloudProgram(Program):
    """Cloud-capacity LP structure that survives capacity/demand changes.

    Columns: the flows ``y = alpha * x``, one addition ``a_s`` per site
    (dict order), then ``alpha``.  Row order replicates the scalar
    reference: the equality block is coverage (chain dict order, with the
    ``-alpha`` coupling) then flow conservation; the inequality block is
    per-site rows sorted by name, (VNF, site) rows sorted by name, the
    budget row, then link rows sorted by name.

    Everything numeric that a budget sweep changes -- site capacities,
    per-site VNF capacities, headroom, the budget itself, and demand
    magnitudes -- is refreshed into the data vector and RHS per call;
    the sparsity pattern and row order are fixed.
    """

    def __init__(self, model: NetworkModel, prior: Program | None = None):
        flow = ChainFlow(model, True, prior)
        sub = model.substrate_columns()
        n_flow = flow.n_flow
        site_cols = n_flow + np.arange(len(sub.site_names))
        self.alpha_index = n_flow + len(site_cols)
        super().__init__(flow, self.alpha_index + 1)

        self.open_eq(np.zeros(flow.n_chains + flow.n_cons))
        self.coverage(np.arange(flow.n_chains))
        self.eq(np.arange(flow.n_chains), self.alpha_index, -1.0)
        self.conservation(flow.n_chains + np.arange(flow.n_cons))

        # The RHS of every inequality row is written per call (zeros here).
        first = self.load_rows("site", np.zeros(len(flow.load_sites)))
        self.ub(first + np.arange(len(flow.load_sites)), n_flow + flow.load_sites, -1.0)
        pair_first = self.load_rows("pair", np.zeros(len(flow.pair_vnf)))
        self.ub(np.full(len(site_cols), self.open_ub([0.0])), site_cols, 1.0)  # budget
        self.load_rows("link", np.zeros(len(flow.load_links)))
        # Per-site totals get the a_s relief above; per-VNF capacities
        # scale with the site's relative growth (the paper assumes site
        # capacity is divided among its VNF instances, so extra site
        # capacity grows each hosted VNF proportionally).  That relief
        # coefficient -cap/site_cap changes with the capacities, so its
        # slots are rewritten per call.
        self.relief = np.flatnonzero(sub.site_capacity[flow.pair_site] > 0)
        relief_rows = pair_first + self.relief
        relief_cols = n_flow + flow.pair_site[self.relief]
        self.ub(relief_rows, relief_cols, 0.0)
        self.freeze()
        self.relief_slots = self.slots(relief_rows, relief_cols)

    def refreshed(
        self, model: NetworkModel, budget: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(data_ub, b_ub)`` under current capacities/demands."""
        flow = self.flow
        sub = model.substrate_columns()
        ch = model.chain_columns()
        caps = flow.pair_caps(sub, 0.0)
        data = self.refresh(ch.stage_total, ch.stage_fwd, ch.stage_rev)
        data[self.relief_slots] = (
            -caps[self.relief] / sub.site_capacity[flow.pair_site[self.relief]]
        )
        b_ub = np.concatenate([
            sub.site_capacity[flow.load_sites],
            caps,
            [budget],
            sub.headroom()[flow.load_links],
        ])
        return data, b_ub


_CACHE = StructureCache(limit=16)


def _check_cloud_inputs(model: NetworkModel, budget: float) -> None:
    if budget < 0:
        raise CapacityPlanningError(f"negative budget {budget}")
    if not model.chains:
        raise CapacityPlanningError("model has no chains")


def _cloud_plan(
    model: NetworkModel, outcome: tuple, n_flow: int, extract: Callable
) -> CloudCapacityPlan:
    x, _objective, elapsed = outcome
    if x is None:
        raise CapacityPlanningError("cloud capacity LP is infeasible")
    alpha = float(x[-1])
    additional = {
        s: float(x[n_flow + i])
        for i, s in enumerate(model.sites)
        if x[n_flow + i] > _EPS
    }
    solution = None
    if alpha > _EPS:
        # Back from the absolute flows y = alpha * x to routed fractions.
        solution = extract(np.minimum(x[:n_flow] / alpha, 1.0))
    return CloudCapacityPlan(alpha, additional, solution, elapsed)


def plan_cloud_capacity(
    model: NetworkModel, budget: float
) -> CloudCapacityPlan:
    """Distribute ``budget`` extra compute across sites to maximize the
    traffic scale factor ``alpha`` (all chains scaled uniformly).

    Variables: ``y_{c z n1 n2}`` (absolute flow fractions scaled by
    alpha), ``a_s`` (per-site additions), and ``alpha``.
    """
    _check_cloud_inputs(model, budget)
    structure, _cached = _CACHE.get(
        (model.capacity_structure_digest(), model.substrate_columns().order),
        model,
        lambda prior: _CloudProgram(model, prior),
    )
    data, b_ub = structure.refreshed(model, budget)
    n = structure.n_total
    cost = np.zeros(n)
    cost[structure.alpha_index] = -1.0  # maximize alpha
    outcome = solve(structure, cost, data, b_ub, np.full(n, np.inf))
    return _cloud_plan(
        model, outcome, structure.n_flow, lambda flows: flow_solution(model, flows)
    )


def uniform_cloud_plan(model: NetworkModel, budget: float) -> CloudCapacityPlan:
    """Baseline: spread the budget evenly across all sites, then measure
    the achievable alpha with the routing LP substrate."""
    if not model.sites:
        raise CapacityPlanningError("model has no sites")
    share = budget / len(model.sites)
    additional = {s: share for s in model.sites}
    alpha, solution = _max_alpha_fixed_capacity(model, additional)
    return CloudCapacityPlan(alpha, additional, solution, 0.0)


def max_alpha(model: NetworkModel) -> float:
    """The uniform traffic-scale factor the current capacities support."""
    alpha, _ = _max_alpha_fixed_capacity(model, {})
    return alpha


def _max_alpha_fixed_capacity(
    model: NetworkModel, additional: dict[str, float]
) -> tuple[float, RoutingSolution | None]:
    """Solve the alpha-maximization with capacities fixed (budget spent)."""
    sites = [
        CloudSite(s.name, s.node, s.capacity + additional.get(s.name, 0.0))
        for s in model.sites.values()
    ]
    grown = model.copy_with_sites(sites)
    # Scale each VNF's per-site capacity with its site's growth, matching
    # the proportional model used in plan_cloud_capacity.
    vnfs = []
    for vnf in grown.vnfs.values():
        caps = {}
        for site, cap in vnf.site_capacity.items():
            base = model.sites[site].capacity
            extra = additional.get(site, 0.0)
            factor = (base + extra) / base if base > 0 else 1.0
            caps[site] = cap * factor
        vnfs.append(VNF(vnf.name, vnf.load_per_unit, caps))
    grown = grown.copy_with_vnfs(vnfs)
    plan = plan_cloud_capacity(grown, budget=0.0)
    return plan.alpha, plan.solution


# ---------------------------------------------------------------------------
# VNF capacity planning (MIP)
# ---------------------------------------------------------------------------


@dataclass
class VnfPlacementPlan:
    """Result of :func:`plan_vnf_placement`."""

    #: VNF name -> list of newly selected sites.
    new_sites: dict[str, list[str]]
    objective: float
    solution: RoutingSolution | None
    solve_seconds: float
    status: str = "optimal"
    new_site_capacity: dict[tuple[str, str], float] = field(default_factory=dict)

    def apply(self, model: NetworkModel) -> NetworkModel:
        """Return a model with the planned deployments added."""
        vnfs = []
        for vnf in model.vnfs.values():
            extra = {
                site: self.new_site_capacity.get((vnf.name, site), 0.0)
                for site in self.new_sites.get(vnf.name, [])
            }
            vnfs.append(vnf.with_sites(extra) if extra else vnf)
        return model.copy_with_vnfs(vnfs)


@dataclass
class _PlacementProgram:
    """The placement MIP, rows ``[A_eq; A_ub]``, columns flows then ``w_fs``."""

    cost: np.ndarray
    a_eq: csr_matrix
    b_eq: np.ndarray
    a_ub: csr_matrix
    b_ub: np.ndarray
    #: UB rows from here on are the quotas, ``0 <= sum_s w_fs <= y_f``.
    quota_first: int
    #: (VNF, candidate site) -> column of its binary ``w_fs``.
    w_index: dict[tuple[str, str], int]
    #: Flow values -> RoutingSolution.
    extract: Callable
    #: Column upper bounds: zero on the blocked flows, one elsewhere.
    upper: np.ndarray


def _w_columns(
    candidate_sites: dict[str, list[str]], n_flow: int
) -> dict[tuple[str, str], int]:
    pairs = [(v, s) for v, sites in candidate_sites.items() for s in sites]
    return {pair: n_flow + k for k, pair in enumerate(pairs)}


def _placement_program(
    extended: NetworkModel,
    candidate_sites: dict[str, list[str]],
    quotas: dict[str, int],
) -> _PlacementProgram:
    """The MIP over the shared chain-flow blocks of the extended model."""
    from scipy.sparse import csc_matrix

    flow = ChainFlow(extended, links=False)
    sub = extended.substrate_columns()
    ch = extended.chain_columns()
    n_flow = flow.n_flow
    w_index = _w_columns(candidate_sites, n_flow)
    program = Program(flow, n_flow + len(w_index))

    # Coverage (full routing) and flow conservation, interleaved: each
    # chain's coverage row is followed by its conservation rows.
    cons_of = np.bincount(flow.cons_chain, minlength=flow.n_chains)
    cover_row = np.arange(flow.n_chains) + np.cumsum(cons_of) - cons_of
    b_eq = np.zeros(flow.n_chains + flow.n_cons)
    b_eq[cover_row] = 1.0
    program.open_eq(b_eq)
    program.coverage(cover_row)
    program.conservation(np.arange(flow.n_cons) + flow.cons_chain + 1)

    # Loads and linking.
    caps = flow.pair_caps(sub, 0.0)
    w_col = np.array(
        [
            w_index.get((sub.vnf_names[int(v)], sub.site_names[int(s)]), -1)
            for v, s in zip(flow.pair_vnf, flow.pair_site)
        ],
        dtype=np.int64,
    )
    new = np.flatnonzero(w_col >= 0)
    # New site: load <= cap * w (load only when the site opens).
    first = program.load_rows("pair", np.where(w_col >= 0, 0.0, caps))
    program.ub(first + new, w_col[new], -caps[new])
    program.load_rows("site", sub.site_capacity[flow.load_sites])

    # Placement quota per VNF.
    quota_first = program.open_ub([float(quotas[v]) for v in candidate_sites])
    owner = np.repeat(
        np.arange(len(candidate_sites)),
        np.array([len(s) for s in candidate_sites.values()], dtype=np.int64),
    )
    program.ub(quota_first + owner, n_flow + np.arange(len(w_index)), 1.0)
    program.freeze()

    data = program.refresh(ch.stage_total, ch.stage_fwd, ch.stage_rev)
    both = csc_matrix(
        (data, program.indices, program.indptr), shape=(program.n_rows, program.n_total)
    ).tocsr()
    n_ub = len(program.b_ub)
    cost = np.zeros(program.n_total)
    cost[:n_flow] = ch.stage_total[flow.var_stage] * flow.var_latency
    upper = np.ones(program.n_total)
    upper[flow.blocked] = 0.0
    return _PlacementProgram(
        cost, both[n_ub:], program.b_eq, both[:n_ub], program.b_ub, quota_first, w_index,
        lambda flows: flow_solution(extended, flows), upper,
    )


def _extended_catalog(
    model: NetworkModel, new_sites_per_vnf: dict[str, int], new_site_capacity: float
) -> tuple[NetworkModel, dict[str, list[str]]]:
    """The model with every planned VNF available at every site it is
    not deployed at yet, and those candidate sites per planned VNF."""
    for vnf_name in new_sites_per_vnf:
        if vnf_name not in model.vnfs:
            raise CapacityPlanningError(f"unknown VNF {vnf_name!r}")
    extended_vnfs = []
    candidate_sites: dict[str, list[str]] = {}
    for vnf in model.vnfs.values():
        quota = new_sites_per_vnf.get(vnf.name, 0)
        if quota <= 0:
            extended_vnfs.append(vnf)
            continue
        extra_sites = [s for s in model.sites if s not in vnf.site_capacity]
        candidate_sites[vnf.name] = extra_sites
        extended_vnfs.append(
            vnf.with_sites({s: new_site_capacity for s in extra_sites})
        )
    return model.copy_with_vnfs(extended_vnfs), candidate_sites


def _solve_placement(
    build: Callable,
    model: NetworkModel,
    new_sites_per_vnf: dict[str, int],
    new_site_capacity: float,
    time_limit: float | None,
) -> VnfPlacementPlan:
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import vstack

    # HiGHS warns about a limit it finds invalid and runs without one.
    if time_limit is not None and not (time_limit > 0 and np.isfinite(time_limit)):
        raise CapacityPlanningError(f"time limit {time_limit} is not a positive finite number")
    extended, candidate_sites = _extended_catalog(
        model, new_sites_per_vnf, new_site_capacity
    )
    program = build(extended, candidate_sites, new_sites_per_vnf)

    n = len(program.cost)
    n_eq = len(program.b_eq)
    lower = np.concatenate([program.b_eq, np.full(len(program.b_ub), -np.inf)])
    lower[n_eq + program.quota_first:] = 0.0
    constraint = LinearConstraint(
        vstack([program.a_eq, program.a_ub], format="csr"),
        lower,
        np.concatenate([program.b_eq, program.b_ub]),
    )
    integrality = np.zeros(n)
    integrality[n - len(program.w_index):] = 1

    options = {} if time_limit is None else {"time_limit": time_limit}
    start = time.perf_counter()
    result = milp(
        program.cost,
        constraints=[constraint],
        integrality=integrality,
        bounds=Bounds(np.zeros(n), program.upper),
        options=options,
    )
    elapsed = time.perf_counter() - start

    if result.x is None:
        return VnfPlacementPlan({}, float("inf"), None, elapsed, status="infeasible")

    new_sites: dict[str, list[str]] = {}
    capacities: dict[tuple[str, str], float] = {}
    for (vnf_name, site), idx in program.w_index.items():
        if result.x[idx] > 0.5:
            new_sites.setdefault(vnf_name, []).append(site)
            capacities[(vnf_name, site)] = new_site_capacity

    solution = program.extract(result.x[: n - len(program.w_index)])
    status = "optimal" if result.success else "feasible"
    return VnfPlacementPlan(
        new_sites, float(result.fun), solution, elapsed, status, capacities
    )


def plan_vnf_placement(
    model: NetworkModel,
    new_sites_per_vnf: dict[str, int],
    new_site_capacity: float,
    time_limit: float | None = 60.0,
) -> VnfPlacementPlan:
    """Choose new deployment sites for VNFs minimizing weighted latency.

    Implements the paper's MIP: binary ``w_fs`` decides whether VNF ``f``
    is newly placed at site ``s`` (restricted to sites outside the
    existing ``S_f``), a linking constraint forbids routing load onto an
    unopened site, and at most ``new_sites_per_vnf[f]`` sites open per
    VNF.  Every new deployment receives ``new_site_capacity``.
    ``time_limit`` is HiGHS's, in seconds (``None``: none); anything but
    a finite number above zero raises :class:`CapacityPlanningError`.
    """
    return _solve_placement(
        _placement_program, model, new_sites_per_vnf, new_site_capacity, time_limit
    )


def random_vnf_placement(
    model: NetworkModel,
    new_sites_per_vnf: dict[str, int],
    new_site_capacity: float,
    rng: random.Random,
) -> VnfPlacementPlan:
    """Baseline for Figure 13c: pick the new sites uniformly at random."""
    new_sites: dict[str, list[str]] = {}
    capacities: dict[tuple[str, str], float] = {}
    for vnf_name, quota in new_sites_per_vnf.items():
        vnf = model.vnfs[vnf_name]
        candidates = [s for s in model.sites if s not in vnf.site_capacity]
        chosen = rng.sample(candidates, min(quota, len(candidates)))
        new_sites[vnf_name] = chosen
        for site in chosen:
            capacities[(vnf_name, site)] = new_site_capacity
    return VnfPlacementPlan(new_sites, float("nan"), None, 0.0, "random", capacities)
