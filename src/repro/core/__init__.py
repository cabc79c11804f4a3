"""Global Switchboard traffic engineering (the paper's Section 4).

Public surface:

- :mod:`repro.core.model` -- the network model of Table 1.
- :mod:`repro.core.routes` -- routing solutions (the ``x_czn1n2``
  variables) and derived metrics (latency objective, site/VNF loads,
  link utilization).
- :mod:`repro.core.costs` -- the piecewise-linear convex utilization
  penalty used by the dynamic-programming heuristic.
- :mod:`repro.core.lp` -- SB-LP: the optimal linear program (Section 4.3).
- :mod:`repro.core.dp` -- SB-DP: the dynamic-programming heuristic
  (Section 4.4) plus its ablations (DP-LATENCY, ONEHOP).
- :mod:`repro.core.baselines` -- ANYCAST and COMPUTE-AWARE distributed
  load balancing (Section 7.2/7.3).
- :mod:`repro.core.capacity` -- VNF and cloud capacity planning
  (Sections 4.2/4.3).
"""

from repro.core.baselines import route_anycast, route_compute_aware
from repro.core.capacity import (
    CloudCapacityPlan,
    VnfPlacementPlan,
    plan_cloud_capacity,
    plan_vnf_placement,
)
from repro.core.costs import PiecewiseLinearCost
from repro.core.dp import DpConfig, route_chains_dp
from repro.core.lp import LpObjective, LpResult, solve_chain_routing_lp
from repro.core.model import Chain, CloudSite, Link, NetworkModel, VNF
from repro.core.routes import RoutingSolution, StageFlow

__all__ = [
    "Chain",
    "CloudCapacityPlan",
    "CloudSite",
    "DpConfig",
    "Link",
    "LpObjective",
    "LpResult",
    "NetworkModel",
    "PiecewiseLinearCost",
    "RoutingSolution",
    "StageFlow",
    "VNF",
    "VnfPlacementPlan",
    "plan_cloud_capacity",
    "plan_vnf_placement",
    "route_anycast",
    "route_chains_dp",
    "route_compute_aware",
    "solve_chain_routing_lp",
]
