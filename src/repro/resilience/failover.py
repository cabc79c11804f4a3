"""Standby Global Switchboard: lease-based failover for the installer.

Section 4.5's replication recipe gives the control plane a durable,
quorum-replicated store; this module adds the process that uses it.  A
:class:`FailoverManager` runs the sim-clock :class:`LeaseElection` tick
-- the one election loop, which ``federation.ha.FederationFailover`` and
the chaos soak's lease-only mode run too -- on behalf of a set of
controller *candidates* (by convention ``gs-primary``/``gs-standby``,
both fronting the same ``ctrl.gs`` role host):

- while the active candidate's host is up, the tick simply **renews the
  leader lease** (through the chaos :class:`LeaseMonitor` when given
  one, so lease-safety stays checkable);
- when the active candidate dies (a chaos ``gs_crash`` marks it dead
  and crashes the host), the standby waits for the old lease to
  **expire**, acquires it, and :meth:`takes over <take_over>`:
  restarts the controller host, adopts every durable checkpoint missing
  from memory, and carries out :func:`repro.controller.twopc.recover`
  over the installer's :class:`~repro.controller.replication.InstallLog`
  -- the one recovery decision, which ``CoordinatorNode.recover`` runs
  too.  A released install is aborted (its 2PC outcome is unknown; the
  teardown fence makes that safe), a re-driven one re-armed and
  re-driven (the durable checkpoint proves the capacity is its own); a
  record with no install in memory is torn down or re-configured from
  the store, and an install in memory with no record (its 2PC never
  began) is aborted.

Everything runs on the simulated clock; the tick self-terminates at its
horizon so a full event-queue drain still finishes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.controller import twopc
from repro.controller.replication import (
    ReplicatedStore,
    ReplicationError,
    restore_installations,
)
from repro.core.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chaos.invariants import LeaseMonitor
    from repro.controller.protocol import BusDrivenInstaller


class LeaseElection:
    """The lease renew / wait-out / take-over loop.

    While the active candidate is up, each tick renews its leader lease
    (through the chaos :class:`LeaseMonitor` when given one, so
    lease-safety stays checkable).  Otherwise the first live standby, in
    candidate order, waits for the old lease to expire, acquires it, and
    :meth:`take_over` -- the recovery callback a subclass supplies --
    runs; ``take_over`` also moves :attr:`active_name`.  The tick
    self-terminates at its horizon so an event-queue drain finishes.
    """

    def __init__(
        self,
        sim,
        store: ReplicatedStore,
        candidates,
        monitor: "LeaseMonitor | None" = None,
        lease_duration_s: float = 2.0,
        check_interval_s: float = 0.5,
    ):
        self.sim = sim
        self.store = store
        self.monitor = monitor
        self.candidates = list(candidates)
        if not self.candidates:
            raise ReproError("need at least one leader candidate")
        self.active_name = self.candidates[0]
        self.lease_duration_s = lease_duration_s
        self.check_interval_s = check_interval_s
        self.takeovers = 0
        #: Candidates whose process has died (a chaos crash event marks
        #: them); they stop renewing immediately.
        self.dead: set[str] = set()

    def mark_dead(self, candidate: str) -> None:
        self.dead.add(candidate)

    def revive(self, candidate: str) -> None:
        self.dead.discard(candidate)

    # -- what a subclass supplies -------------------------------------------

    def _active_up(self) -> bool:
        """Whether the active candidate's process can still lead."""
        raise NotImplementedError

    def _standby_up(self, candidate: str) -> bool:
        """Whether a (not dead) candidate could take the lease now."""
        return True

    def _active_lost(self) -> None:
        """The active candidate was found down (fence it off)."""

    def take_over(self, candidate: str) -> None:
        raise NotImplementedError

    # -- the loop -------------------------------------------------------------

    def start(self, until: float) -> None:
        """Run the renewal/election tick until the sim-clock horizon."""
        self._tick(until)

    def _tick(self, until: float) -> None:
        self.check()
        if self.sim.now + self.check_interval_s <= until:
            self.sim.schedule(self.check_interval_s, self._tick, until)

    def check(self) -> None:
        """One election step: renew, or fail over if the active died."""
        now = self.sim.now
        if self.active_name not in self.dead and self._active_up():
            self._acquire(self.active_name, now)
            return
        self._active_lost()
        standby = next(
            (
                c for c in self.candidates
                if c not in self.dead and self._standby_up(c)
            ),
            None,
        )
        if standby is None:
            return  # nobody left to lead
        if self._leader(now) is not None:
            return  # the dead leader's lease has not expired yet
        if self._acquire(standby, now):
            self.take_over(standby)

    def _acquire(self, owner: str, now: float) -> bool:
        if self.monitor is not None:
            return self.monitor.acquire(owner, now, self.lease_duration_s)
        try:
            return self.store.acquire_lease(owner, now, self.lease_duration_s)
        except ReplicationError:
            return False

    def _leader(self, now: float) -> str | None:
        if self.monitor is not None:
            return self.monitor.leader(now)
        try:
            return self.store.leader(now)
        except ReplicationError:
            return None


class FailoverManager(LeaseElection):
    """Keeps exactly one controller candidate driving the installer."""

    def __init__(
        self,
        installer: "BusDrivenInstaller",
        store: ReplicatedStore,
        monitor: "LeaseMonitor | None" = None,
        candidates: tuple[str, ...] = ("gs-primary", "gs-standby"),
        lease_duration_s: float = 2.0,
        check_interval_s: float = 0.5,
    ):
        if store is not installer.store:
            raise ReproError(
                "the standby must recover from the store the installer writes"
            )
        super().__init__(
            installer.sim, store, candidates, monitor,
            lease_duration_s, check_interval_s,
        )
        self.installer = installer

    @property
    def active(self) -> str:
        return self.active_name

    def _active_up(self) -> bool:
        # Every candidate fronts the same role host; a standby needs no
        # host of its own (take_over restarts the shared one).
        return self.installer.network.host_is_up(self.installer.gs_host)

    # benchmarks/ledger/spans.py wraps ``FailoverManager.check`` by name
    # and needs it in this class's own namespace.
    check = LeaseElection.check

    # -- takeover ---------------------------------------------------------

    def take_over(self, owner: str) -> None:
        """Make ``owner`` the active controller: adopt the durable
        checkpoints, then carry out :func:`twopc.recover` over the
        install log."""
        self.takeovers += 1
        installer = self.installer
        gs = installer.gs
        if not installer.network.host_is_up(installer.gs_host):
            installer.network.restart_host(installer.gs_host)
        try:
            restored = restore_installations(self.store)
            records = installer.log.pending()
        except ReplicationError:
            restored, records = {}, {}
        # Committed chains survive their coordinator.
        for name in sorted(restored):
            gs.installations.setdefault(name, restored[name])
        # Attempts are numbered per install here: nothing to resume.
        actions, _resume = twopc.recover(records, 0)
        todo = {name: (kind, record) for kind, name, record in actions}
        for name in sorted(todo.keys() | installer._pending.keys()):
            kind, record = todo.get(name, (None, None))
            if name in installer._pending:
                if kind == twopc.REDRIVE:
                    installer.deadlines.arm(
                        name,
                        installer.resilience.install_deadline_s,
                        installer._on_deadline,
                    )
                    installer.redrive(name)
                else:
                    # Released, or no record yet (its 2PC never began).
                    installer.abort_install(name, "controller failover")
            elif kind == twopc.REDRIVE and name in gs.installations:
                installer.reconfigure(name)
            else:
                installer.release_orphan(name, record["participants"])

        self.active_name = owner
