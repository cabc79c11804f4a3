"""Periodic re-optimization under time-varying demand.

Implements the routing side of the paper's future-work item on
time-varying traffic matrices: given fresh per-chain demand estimates
(from forwarder measurements, or from the diurnal model in
:mod:`repro.topology.timeseries`), update the installed chains and
recompute routes where the demand moved materially.

Semantics follow Section 5.3: recomputation only changes where *new*
connections go; existing flow-table entries at the forwarders are never
touched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.controller.global_switchboard import GlobalSwitchboard
from repro.core.errors import ReproError


@dataclass
class ReoptimizationReport:
    """Outcome of one re-optimization round."""

    rerouted: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    #: Chains that disappeared mid-round (torn down while this round was
    #: releasing/re-routing) and were therefore left alone.
    vanished: list[str] = field(default_factory=list)
    carried_after: float = 0.0
    offered_after: float = 0.0

    @property
    def carried_share(self) -> float:
        return (
            self.carried_after / self.offered_after
            if self.offered_after > 0
            else 1.0
        )


def reoptimize(
    gs: GlobalSwitchboard,
    demand_factors: dict[str, float],
    threshold: float = 0.05,
) -> ReoptimizationReport:
    """Apply new demand factors and re-route chains that changed.

    ``demand_factors`` maps chain name -> multiplier relative to the
    chain's demand *as installed*.  Chains whose factor moved less than
    ``threshold`` from 1.0 keep their current routes (route churn is the
    thing the threshold suppresses); the rest are rolled back and routed
    afresh against the residual capacity, largest demand first so the
    heavy hitters get first pick, then committed through the usual
    two-phase protocol.

    Re-routing runs controller callbacks (2PC, rule installs) that can
    remove *other* chains from ``gs.installations`` mid-round -- an
    operator tearing a chain down between bus messages, or an admission
    policy evicting on rejection -- so every step re-checks membership
    against the live dict instead of indexing it blindly; chains that
    vanished are reported in :attr:`ReoptimizationReport.vanished`.
    """
    report = ReoptimizationReport()
    changed: list[str] = []
    for name, factor in demand_factors.items():
        if name not in gs.installations:
            raise KeyError(f"chain {name!r} is not installed")
        if factor < 0:
            raise ReproError(f"negative demand factor for {name!r}")
        if abs(factor - 1.0) <= threshold:
            report.skipped.append(name)
            continue
        changed.append(name)

    # Release every changed chain first so the recomputation sees the
    # full freed capacity, then re-route in descending demand order.
    for name in changed:
        installation = gs.installations.get(name)
        if installation is None:
            continue
        for (vnf_name, site), load in list(installation.committed_load.items()):
            gs.vnf_services[vnf_name].release(name, site, load)
        installation.committed_load = {}
        gs.router.rollback(name)
        old_chain = gs.model.chains[name]
        gs.model.remove_chain(name)
        gs.model.add_chain(old_chain.scaled(demand_factors[name]))

    changed.sort(
        key=lambda n: (
            gs.model.chains[n].stage_traffic(1)
            if n in gs.model.chains
            else 0.0
        ),
        reverse=True,
    )
    for name in changed:
        if name not in gs.installations or name not in gs.model.chains:
            report.vanished.append(name)
            continue
        gs.reroute(name)
        report.rerouted.append(name)

    for name in list(gs.installations):
        if name not in gs.model.chains:
            continue
        demand = gs.model.chains[name].stage_traffic(1)
        report.offered_after += demand
        report.carried_after += (
            gs.router.solution.routed_fraction(name) * demand
        )
    return report
