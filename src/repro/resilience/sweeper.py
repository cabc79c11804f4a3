"""Periodic reconciliation between the coordinator and its participants.

The RPC layer, deadlines, and epochs cover almost every loss pattern,
but "almost" is not an invariant: an abort whose every retransmit was
lost leaves a reservation with no owner, and a router capacity view can
drift from what VNF controllers actually report after enough churn.
The sweeper is the backstop that turns those residuals into bounded
garbage: every :data:`SWEEP_INTERVAL_S` of simulated time it

- releases **stale reservations** -- any (chain, site) reservation at a
  VNF service whose chain is not pending in the installer (no
  coordinator will ever commit or abort it);
- aborts **stalled installs** that outlived twice their deadline (the
  deadline timer itself is the primary path; this catches a coordinator
  whose timer state was lost, e.g. across a failover);
- re-syncs the **router's capacity view** against each service's
  reported :meth:`~repro.vnf.service.VnfService.available` -- only while
  no install is in flight, since mid-2PC reservations legitimately
  depress availability.

The sweep loop runs on the sim clock and self-terminates at its
horizon, so a full ``network.run()`` drain still finishes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controller.protocol import BusDrivenInstaller

#: Simulated seconds between two sweeps.
SWEEP_INTERVAL_S = 1.0


class ReconciliationSweeper:
    """Sim-clock garbage collector for control-plane residuals."""

    def __init__(self, installer: "BusDrivenInstaller"):
        self.installer = installer
        self.sweeps = 0
        self.stale_reservations_released = 0
        self.stalled_installs_aborted = 0

    def start(self, until: float) -> None:
        """Sweep every :data:`SWEEP_INTERVAL_S` sim-seconds until the
        horizon."""
        self._tick(until)

    def _tick(self, until: float) -> None:
        self.sweep()
        sim = self.installer.sim
        if sim.now + SWEEP_INTERVAL_S <= until:
            sim.schedule(SWEEP_INTERVAL_S, self._tick, until)

    def sweep(self) -> int:
        """One reconciliation pass; returns stale reservations released."""
        self.sweeps += 1
        installer = self.installer
        gs = installer.gs
        now = installer.sim.now

        # Stalled installs: the deadline timer should have fired long
        # ago; abort whatever is still pending past twice the deadline.
        budget = 2.0 * installer.resilience.install_deadline_s
        for name in sorted(installer._pending):
            pending = installer._pending[name]
            if now - pending.timeline.requested_at > budget:
                self.stalled_installs_aborted += 1
                installer.abort_install(name, "swept: install stalled")

        pending_chains = set(installer._pending)
        released = 0
        for service in gs.vnf_services.values():
            for chain, site in sorted(service.reservations()):
                if chain not in pending_chains:
                    service.abort(chain, site)
                    released += 1
            # Committed ledger entries whose chain has no owner left
            # (not pending, not installed): the teardown that should
            # have released them gave up -- release them here.
            for chain, site in sorted(service.committed_chains()):
                if (
                    chain not in pending_chains
                    and chain not in gs.installations
                ):
                    service.release(chain, site)
                    released += 1
        self.stale_reservations_released += released

        # Capacity re-sync is only sound at quiescence: while a 2PC is
        # in flight its reservations legitimately depress available().
        if not pending_chains:
            for vnf_name in sorted(gs.vnf_services):
                service = gs.vnf_services[vnf_name]
                for site in service.sites:
                    gs.router.sync_vnf_capacity(
                        vnf_name, site, service.available(site)
                    )
        return released
