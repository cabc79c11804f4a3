"""SB-LP: the linear-programming chain routing of Section 4.3.

The decision variables are the paper's ``x_{c z n1 n2}`` -- the fraction
of chain ``c``'s stage-``z`` demand routed from ``n1`` to ``n2`` -- and
the formulation implements:

- the weighted-latency objective (Equation 3),
- per-site and per-(VNF, site) compute constraints (Equation 4),
- flow conservation at every intermediate site (Equation 5),
- the network-cost / MLU constraint over physical links (Equations 6-7).

Two objectives are provided, matching how the paper uses SB-LP in its
evaluation: ``MIN_LATENCY`` (Figure 12c and the E2E latency comparisons)
requires all demand to be carried and minimizes Equation 3, while
``MAX_THROUGHPUT`` (Figures 11/12a/12b) allows partial routing, maximizes
carried demand, and breaks ties toward lower latency.

The paper solves these programs with CPLEX inside OpenDaylight; we use
the HiGHS solver scipy ships, which solves the identical program.

Assembly and reuse
------------------
The constraint blocks themselves live in :mod:`repro.core.formulation`;
this module orders them into the routing program (coverage as ``<=`` or
``=``, conservation, (VNF, site) rows, per-site rows, link rows, and for
``MIN_MLU`` the ``beta`` column with its absent-link rows) and owns the
objective.  The assembled *structure* (sparsity pattern, demand- and
capacity-independent coefficients, variable order) is cached keyed on
:meth:`NetworkModel.structure_digest`.  Demands and capacities are data:
a re-solve after a demand change -- a ``reoptimize()`` round, the solver
farm's incremental ``resolve`` -- refreshes the demand-scaled entries of
the data vector with a few vectorized multiplies, and every solve
gathers the right-hand side of the capacity rows from the model's
columns (``_RoutingProgram.bounds``), so the solver farm's re-shared
partitions hit the cache too.  Every objective is solved through
warm-started column generation, a round of which adds each chain's best
routes (:mod:`repro.core.highs`); the demand-covered ones start with a
phase I in the same master.

``tests/reference/lp_scalar.py`` assembles the same program from the
scalar row generator (``tests/reference/scalar_rows.py``) and
solves it with ``linprog``: the ground truth the vectorized path is
property-tested against (equal matrices within 1e-9, equal optima
within 1e-7).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.errors import ReproError
from repro.core.formulation import (
    ChainFlow,
    Program,
    StructureCache,
    solve,
    solved_flows,
)
from repro.core.model import NetworkModel
from repro.core.routes import Certificate, RoutingSolution

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry


class LpError(ReproError):
    """Raised when the LP cannot be constructed."""


class LpObjective(enum.Enum):
    """Objective selection for :func:`solve_chain_routing_lp`.

    ``MIN_MLU`` minimizes the maximum link utilization -- the network
    operator's cost function of Section 4.1 ("a commonly used cost
    function for traffic engineering") -- while routing all demand; it
    turns the Equation 6 budget ``beta`` into the decision variable.
    """

    MIN_LATENCY = "min_latency"
    MAX_THROUGHPUT = "max_throughput"
    MIN_MLU = "min_mlu"


@dataclass
class LpResult:
    """Outcome of an SB-LP solve."""

    status: str
    objective: float | None
    solution: RoutingSolution | None
    num_variables: int
    num_constraints: int
    solve_seconds: float
    #: The solution's feasibility certificate (the columnar solve only).
    certificate: Certificate | None = None

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


# ---------------------------------------------------------------------------
# Columnar assembly with structure caching
# ---------------------------------------------------------------------------


class _RoutingProgram(Program):
    """The SB-LP constraint matrix over the shared chain-flow blocks.

    Row order replicates the scalar reference exactly (see
    ``tests/reference/lp_scalar.py``): coverage rows first (dict order), then -- in
    the equality block -- flow conservation; the inequality block
    continues with (VNF, site) rows sorted by name, per-site rows sorted
    by name, and link rows sorted by link name.
    """

    def __init__(
        self,
        model: NetworkModel,
        objective: LpObjective,
        enforce_mlu: bool,
        prior: Program | None = None,
    ):
        minimize_mlu = objective is LpObjective.MIN_MLU
        flow = ChainFlow(model, enforce_mlu or minimize_mlu, prior)
        super().__init__(flow, flow.n_flow + minimize_mlu)
        # MIN_MLU adds the utilization variable beta after the flow variables.
        self.beta_index = flow.n_flow if minimize_mlu else None
        sub = model.substrate_columns()

        # -- demand coverage on stage-1 flows, then Equation 5 -----------
        covered = objective is not LpObjective.MAX_THROUGHPUT
        first = (self.open_eq if covered else self.open_ub)(np.ones(flow.n_chains))
        self.coverage(first + np.arange(flow.n_chains), eq=covered)
        first = self.open_eq(np.zeros(flow.n_cons))
        self.conservation(first + np.arange(flow.n_cons))

        # -- compute (Equation 4) and network cost (Equations 6-7) --------
        # Every row from here on is a capacity row -- per (VNF, site),
        # per site, per link -- and its bound is data: zero here,
        # written by :meth:`bounds` at every solve.
        caps = flow.pair_caps(sub, np.nan)
        if np.isnan(caps).any():
            bad = int(np.argmax(np.isnan(caps)))
            raise LpError(
                "internal: VNF "
                f"{sub.vnf_names[int(flow.pair_vnf[bad])]!r} routed at "
                f"non-deployment site {sub.site_names[int(flow.pair_site[bad])]!r}"
            )
        self.cap_first = self.load_rows("pair", np.zeros(len(caps)))
        self.load_rows("site", np.zeros(len(flow.load_sites)))
        #: The link behind each link row, in row order.
        self.bound_links = flow.load_links
        if flow.has_links and minimize_mlu:
            # g_e + traffic_e <= beta * b_e
            present = flow.load_links
            first = self.load_rows("link", np.zeros(len(present)))
            self.ub(
                first + np.arange(len(present)),
                self.beta_index,
                -sub.link_bandwidth[present],
            )
            # Links Switchboard never touches still bound beta from below
            # (model dict order, matching the scalar reference).
            untouched = sub.link_background > 0
            untouched[present] = False
            absent = np.flatnonzero(untouched)
            first = self.open_ub(np.zeros(len(absent)))
            self.ub(
                first + np.arange(len(absent)),
                self.beta_index,
                -sub.link_bandwidth[absent],
            )
            self.bound_links = np.concatenate([present, absent])
        elif flow.has_links:
            self.load_rows("link", np.zeros(len(flow.load_links)))
        self.freeze()

    def bounds(self, sub) -> np.ndarray:
        """``b_ub`` under the capacities of ``sub``, the substrate columns
        of the model being solved: the routing program's second kind of
        refreshed data, next to the demands of :meth:`refresh`."""
        flow = self.flow
        link = sub.headroom() if self.beta_index is None else -sub.link_background
        return np.concatenate([
            self.b_ub[: self.cap_first],
            flow.pair_caps(sub, np.nan),
            sub.site_capacity[flow.load_sites],
            link[self.bound_links],
        ])


_CACHE = StructureCache(limit=32)


def matrix_cache_stats() -> dict[str, int]:
    """Warm-start observability: cache hit/rebuild counters."""
    return _CACHE.stats()


def clear_matrix_cache() -> None:
    """Drop all cached constraint-matrix structures (tests)."""
    _CACHE.clear()


def _structure_for(
    model: NetworkModel,
    objective: LpObjective,
    enforce_mlu: bool,
    metrics: "MetricsRegistry | None",
) -> _RoutingProgram:
    digest = model.structure_digest()
    if objective is LpObjective.MIN_MLU:
        # Bandwidths are the coefficients of beta's column and the links
        # with background traffic pick its absent-link rows: this one
        # program is keyed on the capacities too.
        digest += model.substrate_digest()
    # The digest sorts; the program's column ids follow one insertion order.
    structure, cached = _CACHE.get(
        (digest, model.substrate_columns().order, objective.value, bool(enforce_mlu)),
        model,
        lambda prior: _RoutingProgram(model, objective, enforce_mlu, prior),
    )
    if cached and model._chain_columns is None:
        # The key proves the chain-stage table's structure: only the
        # demands are this model's own.
        model._chain_columns = structure.flow.chains.refilled(model)
    if metrics is not None:
        metrics.counter(
            "lp.matrix_reuse_hits" if cached else "lp.matrix_rebuilds"
        ).inc()
    return structure


def _cost_vector(
    structure: _RoutingProgram,
    ch,
    objective: LpObjective,
    latency_tiebreak: float,
) -> np.ndarray:
    n = structure.n_flow
    var_stage = structure.flow.var_stage
    weighted_latency = ch.stage_total[var_stage] * structure.flow.var_latency
    latency_scale = float(np.max(weighted_latency)) if n else 1.0
    latency_scale = latency_scale or 1.0
    cost = np.zeros(structure.n_total)
    if objective is LpObjective.MIN_LATENCY:
        cost[:n] = weighted_latency
    elif objective is LpObjective.MIN_MLU:
        cost[structure.beta_index] = 1.0
        cost[:n] += (latency_tiebreak / latency_scale) * weighted_latency
    else:
        s1 = structure.flow.stage1_vars
        np.subtract.at(cost, s1, ch.stage_total[var_stage[s1]])
        min_demand = float(ch.stage_total[ch.stage_z == 1].min())
        cost[:n] += (
            latency_tiebreak * min_demand / latency_scale
        ) * weighted_latency
    return cost


def _check_inputs(model: NetworkModel, objective: LpObjective) -> None:
    if not model.chains:
        raise LpError("model has no chains to route")
    if objective is LpObjective.MIN_MLU and not (model.links and model.routing):
        raise LpError("MIN_MLU requires links and routing fractions")


def _column_upper(n_flow: int, beta_index: int | None) -> np.ndarray:
    """Flow fractions live in [0, 1]; ``beta`` is unbounded above."""
    upper = np.ones(n_flow + (beta_index is not None))
    upper[n_flow:] = np.inf
    return upper


def _result(
    objective: LpObjective,
    outcome: tuple,
    extract,
    beta_index: int | None,
    n_total: int,
    n_constraints: int,
    metrics: "MetricsRegistry | None",
) -> LpResult:
    x, objective_value, elapsed = outcome
    if metrics is not None:
        # Wall-clock solver time: here the interesting duration is how
        # long HiGHS takes on the host, not simulated seconds.
        metrics.histogram(
            "solver.lp_solve_s", objective=objective.value
        ).observe(elapsed)
        metrics.counter(
            "solver.lp_solves",
            objective=objective.value,
            ok=str(x is not None).lower(),
        ).inc()
    if x is None:
        return LpResult("infeasible", None, None, n_total, n_constraints, elapsed)
    if beta_index is not None:
        objective_value = float(x[beta_index])  # the achieved MLU
    solution, *certified = extract(x)
    return LpResult(
        "optimal", objective_value, solution, n_total, n_constraints, elapsed,
        *certified,
    )


def solve_chain_routing_lp(
    model: NetworkModel,
    objective: LpObjective = LpObjective.MIN_LATENCY,
    enforce_mlu: bool = True,
    latency_tiebreak: float = 1e-6,
    metrics: "MetricsRegistry | None" = None,
) -> LpResult:
    """Solve the chain-routing problem optimally.

    Parameters
    ----------
    model:
        The network model.  All chains in ``model.chains`` are routed
        jointly (this whole-network view is what distinguishes SB-LP from
        the distributed baselines).
    objective:
        ``MIN_LATENCY`` or ``MAX_THROUGHPUT`` (see module docstring).
    enforce_mlu:
        Apply the Equation 6 link constraint when the model defines links
        and routing fractions.
    latency_tiebreak:
        Relative weight of the latency term added to the max-throughput
        objective so that, among equal-throughput solutions, the lowest
        latency one is returned.
    """
    _check_inputs(model, objective)
    structure = _structure_for(model, objective, enforce_mlu, metrics)
    ch = model.chain_columns()
    n = structure.n_flow
    outcome = solve(
        structure,
        _cost_vector(structure, ch, objective, latency_tiebreak),
        structure.refresh(ch.stage_total, ch.stage_fwd, ch.stage_rev),
        structure.bounds(model.substrate_columns()),
        _column_upper(n, structure.beta_index),
    )
    return _result(
        objective,
        outcome,
        # The cached program's variable ids name this model's endpoints:
        # equal structure digests *and* the same insertion order of nodes,
        # sites and deployments, as ``bounds`` above assumes already.
        lambda x: solved_flows(model, structure.flow, x[:n]),
        structure.beta_index,
        structure.n_total,
        len(structure.b_ub) + len(structure.b_eq),
        metrics,
    )
