"""The routing LP of Section 4.3 as it was assembled before
``repro.core.lp`` went columnar: one coefficient dict per row from
:class:`tests.reference.scalar_rows.ScalarRows`, solved with ``linprog``.

The ground truth the vectorized assembly is property-tested against
(equal matrices within 1e-9, ``tests/test_vectorized_equivalence.py``,
``tests/test_warm_start_contract.py``); nothing under ``src/`` reaches it.
"""

from __future__ import annotations

import numpy as np

from repro.core.lp import (
    LpError,
    LpObjective,
    LpResult,
    _check_inputs,
    _column_upper,
    _result,
)
from repro.core.model import NetworkModel
from tests.reference.scalar_rows import ScalarProgram, ScalarRows


def scalar_program(
    model: NetworkModel,
    objective: LpObjective,
    enforce_mlu: bool,
    latency_tiebreak: float,
) -> ScalarProgram:
    """The routing program from the per-variable reference generator."""
    rows = ScalarRows(model)
    n = rows.n_flow
    # MIN_MLU adds the utilization variable beta after the flow variables.
    beta_index = n if objective is LpObjective.MIN_MLU else None
    n_total = n + (1 if beta_index is not None else 0)

    # Demand-coverage constraints on stage-1 flows.
    for chain in model.chains.values():
        if objective is LpObjective.MAX_THROUGHPUT:
            rows.ub.add(rows.coverage(chain), 1.0)
        else:
            rows.eq.add(rows.coverage(chain), 1.0)

    # Flow conservation (Equation 5) at each intermediate site.
    for chain in model.chains.values():
        for coeffs in rows.conservation(chain):
            rows.eq.add(coeffs, 0.0)

    # Compute constraints (Equation 4): per (VNF, site) and per site.
    vnf_site_coeffs, site_coeffs = rows.loads()
    for (vnf_name, site), coeffs in sorted(vnf_site_coeffs.items()):
        cap = model.vnfs[vnf_name].site_capacity.get(site)
        if cap is None:
            raise LpError(
                f"internal: VNF {vnf_name!r} routed at non-deployment site {site!r}"
            )
        rows.ub.add(coeffs, cap)
    for site, coeffs in sorted(site_coeffs.items()):
        rows.ub.add(coeffs, model.sites[site].capacity)

    # Network cost (Equations 6-7): per-link MLU budget, or -- for
    # MIN_MLU -- the same inequality with beta as a variable.
    if (enforce_mlu or beta_index is not None) and model.links and model.routing:
        link_coeffs = rows.link_loads()
        for link_name, coeffs in sorted(link_coeffs.items()):
            link = model.links[link_name]
            if beta_index is not None:
                # g_e + traffic_e <= beta * b_e
                rows.ub.add({**coeffs, beta_index: -link.bandwidth}, -link.background)
                continue
            # Background traffic may already exceed the MLU budget on a
            # link; Switchboard cannot reduce it, so its own traffic
            # there is simply forced to zero rather than making the
            # whole program infeasible.
            rows.ub.add(coeffs, model.link_headroom(link))
        if beta_index is not None:
            # Links Switchboard never touches still bound beta from below.
            for link_name, link in model.links.items():
                if link_name not in link_coeffs and link.background > 0:
                    rows.ub.add({beta_index: -link.bandwidth}, -link.background)

    # Objective vector.
    cost = np.zeros(n_total)
    padded_latency = np.zeros(n_total)
    padded_latency[:n] = weighted_latency = rows.weighted_latency()
    latency_scale = float(np.max(weighted_latency)) or 1.0
    if objective is LpObjective.MIN_LATENCY:
        cost = padded_latency
    elif objective is LpObjective.MIN_MLU:
        cost[beta_index] = 1.0
        cost = cost + (latency_tiebreak / latency_scale) * padded_latency
    else:
        # Maximize carried stage-1 demand; minimize latency as a tiebreak.
        for chain in model.chains.values():
            for idx in rows.coverage(chain):
                cost[idx] -= chain.stage_traffic(1)
        min_demand = min(c.stage_traffic(1) for c in model.chains.values())
        cost = cost + (latency_tiebreak * min_demand / latency_scale) * padded_latency
    return rows.program(cost, _column_upper(n, beta_index))


def solve_chain_routing_lp_reference(
    model: NetworkModel,
    objective: LpObjective = LpObjective.MIN_LATENCY,
    enforce_mlu: bool = True,
    latency_tiebreak: float = 1e-6,
    metrics=None,
) -> LpResult:
    """The pre-vectorization scalar path: loop assembly + ``linprog``."""
    _check_inputs(model, objective)
    program = scalar_program(model, objective, enforce_mlu, latency_tiebreak)
    n = program.rows.n_flow
    return _result(
        objective,
        program.solve(),
        lambda x: (program.rows.solution(x[:n]),),
        n if objective is LpObjective.MIN_MLU else None,
        program.n_total,
        len(program.b_ub) + len(program.b_eq),
        metrics,
    )
