"""The Section 4.3 rows generated one variable at a time: the original
per-variable Python-loop assembly, kept as the ground truth the columnar
blocks of ``repro.core.formulation`` are property-tested against (equal
matrices within 1e-9) and the assembly behind every ``*_reference``
solve in this package.  Nothing under ``src/`` reaches it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from repro.core.model import Chain, NetworkModel
from repro.core.routes import RoutingSolution


def run_linprog(cost, a_ub, b_ub, a_eq, b_eq, col_upper) -> tuple:
    """``min cost @ x`` over ``0 <= x <= col_upper`` through scipy's
    ``linprog``; an empty block is passed as ``None``.

    Returns what ``repro.core.formulation.solve`` returns: ``(x,
    objective, solver seconds)``, ``x`` and ``objective`` ``None`` when
    the program is infeasible.  ``linprog``'s HiGHS gives up (status 4)
    on some infeasible programs of a zero capacity share, and its simplex
    with presolve does not come back from others; no method fails on all
    of them.  Interior point with crossover goes first, dual simplex
    (time-limited) where it gives up, and anything else raises.
    """
    start = time.perf_counter()
    for method in ("highs-ipm", "highs-ds"):
        result = linprog(
            cost,
            A_ub=a_ub if len(b_ub) else None,
            b_ub=b_ub if len(b_ub) else None,
            A_eq=a_eq if len(b_eq) else None,
            b_eq=b_eq if len(b_eq) else None,
            bounds=np.column_stack([np.zeros(len(cost)), col_upper]),
            method=method,
            options={"time_limit": 30.0},
        )
        if result.status in (0, 2):
            break
    else:
        raise RuntimeError(f"linprog: {result.message}")
    elapsed = time.perf_counter() - start
    if result.status == 2:
        return None, None, elapsed
    return np.asarray(result.x), float(result.fun), elapsed


class _Rows:
    """Row-by-row COO accumulator: ``add`` a coefficient dict and a bound."""

    def __init__(self) -> None:
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.data: list[float] = []
        self.bounds: list[float] = []

    def add(self, coeffs: dict[int, float], bound: float) -> None:
        row = len(self.bounds)
        for col, val in coeffs.items():
            self.rows.append(row)
            self.cols.append(col)
            self.data.append(val)
        self.bounds.append(bound)

    def matrix(self, n_cols: int) -> csr_matrix:
        return csr_matrix(
            (self.data, (self.rows, self.cols)), shape=(len(self.bounds), n_cols)
        )


@dataclass
class ScalarProgram:
    """A fully assembled reference program (for equivalence tests)."""

    cost: np.ndarray
    a_ub: csr_matrix
    b_ub: np.ndarray
    a_eq: csr_matrix
    b_eq: np.ndarray
    col_upper: np.ndarray
    rows: "ScalarRows"
    n_total: int

    def solve(self) -> tuple:
        return run_linprog(
            self.cost, self.a_ub, self.b_ub, self.a_eq, self.b_eq, self.col_upper
        )


class ScalarRows:
    """The original per-variable Python-loop generator of the Section 4.3
    rows, kept as the ground truth the columnar blocks are tested
    against.  A program picks the row order by the order in which it
    ``add``s the coefficient dicts to ``ub`` and ``eq``."""

    def __init__(self, model: NetworkModel):
        self.model = model
        self.index: dict[tuple[str, int, str, str], int] = {}
        self.vars: list[tuple[str, int, str, str]] = []
        for name, chain in model.chains.items():
            for z in range(1, chain.num_stages + 1):
                for src in model.stage_sources(chain, z):
                    for dst in model.stage_destinations(chain, z):
                        self.index[(name, z, src, dst)] = len(self.vars)
                        self.vars.append((name, z, src, dst))
        self.n_flow = len(self.vars)
        self.ub = _Rows()
        self.eq = _Rows()

    def coverage(self, chain: Chain) -> dict[int, float]:
        """The chain's stage-1 flows, coefficient 1 each."""
        return {
            self.index[(chain.name, 1, src, dst)]: 1.0
            for src in self.model.stage_sources(chain, 1)
            for dst in self.model.stage_destinations(chain, 1)
        }

    def conservation(self, chain: Chain) -> list[dict[int, float]]:
        """Equation 5 at each intermediate site of one chain."""
        model, rows = self.model, []
        for z in range(1, chain.num_stages):
            for site in model.stage_destinations(chain, z):
                coeffs: dict[int, float] = {}
                for src in model.stage_sources(chain, z):
                    coeffs[self.index[(chain.name, z, src, site)]] = 1.0
                for dst in model.stage_destinations(chain, z + 1):
                    idx = self.index[(chain.name, z + 1, site, dst)]
                    coeffs[idx] = coeffs.get(idx, 0.0) - 1.0
                rows.append(coeffs)
        return rows

    def loads(self) -> tuple[dict, dict]:
        """Equation 4 coefficients per (VNF, site) in first-use order, and
        the same merged per site."""
        model = self.model
        vnf_site: dict[tuple[str, str], dict[int, float]] = {}
        for i, (cname, z, src, dst) in enumerate(self.vars):
            chain = model.chains[cname]
            traffic = chain.stage_traffic(z)
            if z < chain.num_stages:
                vnf_name = chain.vnf_at(z)
                load = model.vnfs[vnf_name].load_per_unit * traffic
                coeffs = vnf_site.setdefault((vnf_name, dst), {})
                coeffs[i] = coeffs.get(i, 0.0) + load
            if z > 1:
                vnf_name = chain.vnf_at(z - 1)
                load = model.vnfs[vnf_name].load_per_unit * traffic
                coeffs = vnf_site.setdefault((vnf_name, src), {})
                coeffs[i] = coeffs.get(i, 0.0) + load
        per_site: dict[str, dict[int, float]] = {}
        for (_vnf_name, site), coeffs in vnf_site.items():
            merged = per_site.setdefault(site, {})
            for col, val in coeffs.items():
                merged[col] = merged.get(col, 0.0) + val
        return vnf_site, per_site

    def link_loads(self) -> dict[str, dict[int, float]]:
        """Equations 6-7 coefficients per link carrying chain traffic."""
        model = self.model
        per_link: dict[str, dict[int, float]] = {}
        for i, (cname, z, src, dst) in enumerate(self.vars):
            chain = model.chains[cname]
            n1 = model.endpoint_node(src)
            n2 = model.endpoint_node(dst)
            for demand, a, b in (
                (chain.forward_traffic[z - 1], n1, n2),
                (chain.reverse_traffic[z - 1], n2, n1),
            ):
                if demand > 0:
                    for link_name, frac in model.links_between(a, b).items():
                        coeffs = per_link.setdefault(link_name, {})
                        coeffs[i] = coeffs.get(i, 0.0) + demand * frac
        return per_link

    def weighted_latency(self) -> np.ndarray:
        """``(w_cz + v_cz) * d_{n1 n2}`` per flow variable (Equation 3)."""
        demand = np.array(
            [self.model.chains[c].stage_traffic(z) for c, z, _s, _d in self.vars]
        )
        latency = np.array(
            [self.model.site_latency(src, dst) for _c, _z, src, dst in self.vars]
        )
        return demand * latency

    def program(self, cost: np.ndarray, col_upper: np.ndarray) -> ScalarProgram:
        n = len(cost)
        return ScalarProgram(
            cost, self.ub.matrix(n), np.array(self.ub.bounds),
            self.eq.matrix(n), np.array(self.eq.bounds), col_upper, self, n,
        )

    def solution(self, flows) -> RoutingSolution:
        """A :class:`RoutingSolution` from the flow-variable values."""
        solution = RoutingSolution(self.model)
        for (cname, z, src, dst), value in zip(self.vars, flows):
            if value > RoutingSolution.EPSILON:
                solution.add_flow(cname, z, src, dst, float(value))
        return solution
