"""The two capacity-planning programs of ``repro.core.capacity`` as they
were assembled before it went columnar: one coefficient dict per row
from :class:`tests.reference.scalar_rows.ScalarRows`.

The ground truth the vectorized assemblies are property-tested against
(``tests/test_vectorized_equivalence.py``); nothing under ``src/``
reaches it.
"""

from __future__ import annotations

import numpy as np

from repro.core.capacity import (
    CloudCapacityPlan,
    VnfPlacementPlan,
    _PlacementProgram,
    _check_cloud_inputs,
    _cloud_plan,
    _solve_placement,
    _w_columns,
)
from repro.core.model import NetworkModel
from tests.reference.scalar_rows import ScalarProgram, ScalarRows


def scalar_cloud_program(model: NetworkModel, budget: float) -> ScalarProgram:
    """The cloud-capacity LP from the per-variable reference generator."""
    rows = ScalarRows(model)
    sites = list(model.sites)
    site_index = {s: rows.n_flow + i for i, s in enumerate(sites)}
    alpha_index = rows.n_flow + len(sites)

    # Coverage: stage-1 flow sums to alpha for every chain.
    for chain in model.chains.values():
        rows.eq.add({**rows.coverage(chain), alpha_index: -1.0}, 0.0)
    # Flow conservation.
    for chain in model.chains.values():
        for coeffs in rows.conservation(chain):
            rows.eq.add(coeffs, 0.0)

    # Per-site totals get the a_s relief; per-VNF capacities scale with
    # the site's relative growth (see _CloudProgram).
    vnf_site_coeffs, site_coeffs = rows.loads()
    for site, coeffs in sorted(site_coeffs.items()):
        rows.ub.add({**coeffs, site_index[site]: -1.0}, model.sites[site].capacity)
    for (vnf, site), coeffs in sorted(vnf_site_coeffs.items()):
        cap = model.vnfs[vnf].site_capacity.get(site, 0.0)
        site_cap = model.sites[site].capacity
        if site_cap > 0:
            # VNF share of the site grows in proportion to the addition.
            coeffs = {**coeffs, site_index[site]: -cap / site_cap}
        rows.ub.add(coeffs, cap)

    # Budget.
    rows.ub.add({site_index[s]: 1.0 for s in sites}, budget)

    # Link capacity under scaled traffic.
    if model.links and model.routing:
        for link_name, coeffs in sorted(rows.link_loads().items()):
            rows.ub.add(coeffs, model.link_headroom(model.links[link_name]))

    cost = np.zeros(alpha_index + 1)
    cost[alpha_index] = -1.0  # maximize alpha
    return rows.program(cost, np.full(alpha_index + 1, np.inf))


def plan_cloud_capacity_reference(
    model: NetworkModel, budget: float
) -> CloudCapacityPlan:
    """The pre-vectorization scalar path (ground truth for tests)."""
    _check_cloud_inputs(model, budget)
    program = scalar_cloud_program(model, budget)
    return _cloud_plan(
        model, program.solve(), program.rows.n_flow, program.rows.solution
    )


def scalar_placement_program(
    extended: NetworkModel,
    candidate_sites: dict[str, list[str]],
    quotas: dict[str, int],
) -> _PlacementProgram:
    """The same MIP from the per-variable reference generator."""
    rows = ScalarRows(extended)
    w_index = _w_columns(candidate_sites, rows.n_flow)
    n = rows.n_flow + len(w_index)

    # Coverage (full routing) and flow conservation.
    for chain in extended.chains.values():
        rows.eq.add(rows.coverage(chain), 1.0)
        for coeffs in rows.conservation(chain):
            rows.eq.add(coeffs, 0.0)

    # Loads and linking.
    vnf_site_coeffs, site_coeffs = rows.loads()
    for (vnf_name, site), coeffs in sorted(vnf_site_coeffs.items()):
        cap = extended.vnfs[vnf_name].site_capacity.get(site, 0.0)
        if (vnf_name, site) in w_index:
            # New site: load <= cap * w (load only when the site opens).
            rows.ub.add({**coeffs, w_index[(vnf_name, site)]: -cap}, 0.0)
        else:
            rows.ub.add(coeffs, cap)
    for site, coeffs in sorted(site_coeffs.items()):
        rows.ub.add(coeffs, extended.sites[site].capacity)

    # Placement quota per VNF.
    quota_first = len(rows.ub.bounds)
    for vnf_name, sites in candidate_sites.items():
        rows.ub.add(
            {w_index[(vnf_name, s)]: 1.0 for s in sites}, float(quotas[vnf_name])
        )

    cost = np.zeros(n)
    cost[: rows.n_flow] = rows.weighted_latency()
    program = rows.program(cost, np.ones(n))
    return _PlacementProgram(
        cost, program.a_eq, program.b_eq, program.a_ub, program.b_ub,
        quota_first, w_index, rows.solution, np.ones(n),
    )


def plan_vnf_placement_reference(
    model: NetworkModel,
    new_sites_per_vnf: dict[str, int],
    new_site_capacity: float,
    time_limit: float | None = 60.0,
) -> VnfPlacementPlan:
    """:func:`plan_vnf_placement` on the scalar assembly (ground truth
    for tests)."""
    return _solve_placement(
        scalar_placement_program, model, new_sites_per_vnf, new_site_capacity,
        time_limit,
    )
