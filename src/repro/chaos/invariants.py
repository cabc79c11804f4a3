"""Continuously-evaluated system invariants.

An :class:`InvariantChecker` holds named probes and evaluates all of
them periodically on the *simulated* clock (plus once on demand at
settle points).  Each probe is a plain callable returning violation
detail strings, so the checkers are provable live: the chaos self-test
deliberately corrupts state (a link counter, a fake bus delivery, an
overlapping lease grant) and asserts the corresponding probe fires.

Probes shipped here, matching the failure modes the chaos scenarios
exercise:

- **link conservation** -- ``sent == delivered + dropped + in_flight``
  per link with non-negative, monotonically non-decreasing counters
  (faults must turn messages into drops, never lose them from the
  ledger);
- **2PC atomicity** -- no VNF service holds a dangling reservation once
  recovery settles (a crashed coordinator must not leave capacity half
  committed);
- **capacity safety** -- per (VNF, site), the capacity committed by the
  service equals the sum committed across installed chains and never
  exceeds the surviving capacity;
- **bus delivery** -- every recorded delivery belongs to an attached
  subscriber, latencies are non-negative, and WAN drops never exceed
  WAN sends;
- **lease safety** -- at most one leader at any simulated time: no two
  lease grants by different owners overlap (tracked by
  :class:`LeaseMonitor`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, TYPE_CHECKING

from repro.controller.replication import ReplicatedStore, ReplicationError
from repro.core.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bus.bus import GlobalMessageBus
    from repro.controller.global_switchboard import GlobalSwitchboard
    from repro.controller.protocol import BusDrivenInstaller
    from repro.simnet.events import Simulator
    from repro.simnet.network import SimNetwork

_EPS = 1e-6


@dataclass(frozen=True)
class Violation:
    """One invariant violation observed at a simulated time."""

    at: float
    invariant: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[t={self.at:.3f}s] {self.invariant}: {self.detail}"

    def to_doc(self) -> dict:
        return {"at": round(self.at, 9), "invariant": self.invariant,
                "detail": self.detail}


class InvariantChecker:
    """Periodic evaluation of registered invariant probes."""

    def __init__(self, sim: "Simulator", interval_s: float = 1.0):
        if interval_s <= 0:
            raise ReproError("non-positive probe interval")
        self.sim = sim
        self.interval_s = interval_s
        self._probes: dict[str, Callable[[], Iterable[str]]] = {}
        self.violations: list[Violation] = []
        self.probes_run = 0

    def add(self, name: str, probe: Callable[[], Iterable[str]]) -> None:
        if name in self._probes:
            raise ReproError(f"duplicate invariant {name!r}")
        self._probes[name] = probe

    def check_now(self) -> list[Violation]:
        """Run every probe once; returns (and records) new violations."""
        found: list[Violation] = []
        now = self.sim.now
        for name, probe in self._probes.items():
            self.probes_run += 1
            for detail in probe():
                found.append(Violation(now, name, detail))
        self.violations.extend(found)
        return found

    def start(self, until: float) -> None:
        """Schedule probes every ``interval_s`` up to ``until``."""

        def tick() -> None:
            self.check_now()
            if self.sim.now + self.interval_s <= until:
                self.sim.schedule(self.interval_s, tick)

        self.sim.schedule(self.interval_s, tick)


# ---------------------------------------------------------------------------
# Probe factories
# ---------------------------------------------------------------------------


def link_conservation(net: "SimNetwork") -> Callable[[], list[str]]:
    """``sent == delivered + dropped + in_flight`` per link, counters
    non-negative and non-decreasing between probes, queues non-negative.

    The in-flight term is derived, so the *checkable* content is the
    inequality system around it plus monotonicity: a fault
    implementation that forgot to account a dropped message would show
    up as delivered + dropped exceeding sent after the queue drains, or
    as a counter moving backwards.
    """
    last: dict[tuple[str, str], tuple[int, int, int]] = {}

    def probe() -> list[str]:
        out: list[str] = []
        for (src, dst), state in net._links.items():
            s = state.stats
            link = f"{src}->{dst}"
            if min(s.sent, s.delivered, s.dropped) < 0:
                out.append(f"{link}: negative counter {s}")
            if s.delivered + s.dropped > s.sent:
                out.append(
                    f"{link}: delivered {s.delivered} + dropped "
                    f"{s.dropped} > sent {s.sent}"
                )
            if s.bytes_delivered + s.bytes_dropped > s.bytes_sent:
                out.append(
                    f"{link}: byte ledger exceeds bytes_sent "
                    f"({s.bytes_delivered} + {s.bytes_dropped} > "
                    f"{s.bytes_sent})"
                )
            queued = state.queued_bytes(net.sim.now)
            if queued < 0:
                out.append(f"{link}: negative queue {queued}")
            prev = last.get((src, dst))
            now = (s.sent, s.delivered, s.dropped)
            if prev is not None and any(n < p for n, p in zip(now, prev)):
                out.append(f"{link}: counters went backwards {prev} -> {now}")
            last[(src, dst)] = now
        return out

    return probe


def network_quiescence(net: "SimNetwork") -> Callable[[], list[str]]:
    """No message in flight -- valid only once the event queue drained
    (the soak runner registers this for its final settle check only)."""

    def probe() -> list[str]:
        out = []
        for (src, dst), state in net._links.items():
            if state.stats.in_flight != 0:
                out.append(
                    f"{src}->{dst}: {state.stats.in_flight} message(s) "
                    "unaccounted after drain"
                )
        return out

    return probe


def _installing(installer: "BusDrivenInstaller | None") -> bool:
    """In-flight installs and un-acked control RPCs (e.g. teardowns
    still being retransmitted) legitimately leave participant state
    without an owning installation: the 2PC probes skip meanwhile."""
    return installer is not None and bool(
        installer._pending or installer.rpc.outstanding()
    )


def _recorded_loads(gs: "GlobalSwitchboard") -> dict[tuple[str, str], float]:
    """Per (VNF, site), the load the installed chains record committed."""
    loads: dict[tuple[str, str], float] = {}
    for installation in gs.installations.values():
        for key, load in installation.committed_load.items():
            loads[key] = loads.get(key, 0.0) + load
    return loads


def two_phase_atomicity(
    gs: "GlobalSwitchboard",
    installer: "BusDrivenInstaller | None" = None,
) -> Callable[[], list[str]]:
    """No dangling 2PC reservation once recovery settles: every prepare
    was either committed or aborted.

    With an ``installer``, the probe skips while installs are in flight
    -- a live 2PC legitimately holds reservations mid-round.
    """

    def probe() -> list[str]:
        if _installing(installer):
            return []
        out = []
        for name, service in gs.vnf_services.items():
            pending = service.pending_reservations()
            if pending:
                out.append(
                    f"service {name!r} holds {pending} dangling "
                    "reservation(s)"
                )
        return out

    return probe


def capacity_safety(
    gs: "GlobalSwitchboard",
    installer: "BusDrivenInstaller | None" = None,
) -> Callable[[], list[str]]:
    """Committed capacity never exceeds surviving capacity, and the
    services' ledgers agree with the installed chains' records.

    With an ``installer``, the probe skips while installs are in flight:
    a commit lands at the VNF service one WAN delay before the
    coordinator publishes the installation record, so the two ledgers
    legitimately disagree mid-install.
    """

    def probe() -> list[str]:
        if _installing(installer):
            return []
        out = []
        per_site = _recorded_loads(gs)
        for name, service in gs.vnf_services.items():
            for site, cap in service.site_capacity.items():
                committed = service.committed(site)
                if committed > cap + _EPS:
                    out.append(
                        f"{name}@{site}: committed {committed:.3f} exceeds "
                        f"capacity {cap:.3f}"
                    )
                if committed < -_EPS:
                    out.append(f"{name}@{site}: negative committed load")
                recorded = per_site.get((name, site), 0.0)
                if abs(recorded - committed) > 1e-3:
                    out.append(
                        f"{name}@{site}: installations record "
                        f"{recorded:.3f} but service ledger has "
                        f"{committed:.3f}"
                    )
        return out

    return probe


def no_orphaned_reservations(
    gs: "GlobalSwitchboard",
    installer: "BusDrivenInstaller | None" = None,
) -> Callable[[], list[str]]:
    """The end-to-end outcome guarantee of the resilient control plane:
    after quiescence every submitted chain either fully installed or was
    aborted with all participant state released.  Concretely, per VNF
    service: zero outstanding reservations, and the per-(vnf, site) sum
    of committed chain loads recorded by the coordinator's installations
    equals what the service's own ledger holds -- no reservation or
    commitment survives without an owning installation.

    With an ``installer``, the probe skips while installs are in flight
    (their reservations and half-published commitments are legitimate).
    """

    def probe() -> list[str]:
        if _installing(installer):
            return []
        out = []
        recorded = _recorded_loads(gs)
        for name, service in gs.vnf_services.items():
            for (chain, site), load in sorted(service.reservations().items()):
                out.append(
                    f"{name}@{site}: orphaned reservation of {load:.3f} "
                    f"for chain {chain!r}"
                )
            for site in service.sites:
                committed = service.committed(site)
                expected = recorded.get((name, site), 0.0)
                if abs(committed - expected) > 1e-3:
                    out.append(
                        f"{name}@{site}: service ledger holds "
                        f"{committed:.3f} but installations own "
                        f"{expected:.3f}"
                    )
        return out

    return probe


def bus_delivery(bus: "GlobalMessageBus") -> Callable[[], list[str]]:
    """Deliveries are attributable and sane: each recorded delivery
    belongs to an attached subscriber whose own receive log agrees,
    latencies are non-negative, and WAN drops never exceed WAN sends.

    The delivery record only grows, so a probe reads it from where the
    last one stopped and keeps running per-client counts; a negative
    latency once found is reported by every later probe, as a full
    re-walk would."""
    cursor = 0
    negative: list[str] = []
    per_client: dict[str, int] = {}

    def probe() -> list[str]:
        nonlocal cursor
        out = []
        stats = bus.stats
        if stats.wan_drops > stats.wan_messages:
            out.append(
                f"wan_drops {stats.wan_drops} > wan_messages "
                f"{stats.wan_messages}"
            )
        deliveries = stats.deliveries
        for delivery in deliveries[cursor:]:
            if delivery.latency < -_EPS:
                negative.append(
                    f"negative delivery latency {delivery.latency:.6f}s "
                    f"to {delivery.subscriber!r}"
                )
            per_client[delivery.subscriber] = (
                per_client.get(delivery.subscriber, 0) + 1
            )
        cursor = len(deliveries)
        out += negative
        for name, count in per_client.items():
            client = bus.clients.get(name)
            if client is None:
                out.append(f"delivery recorded for unknown client {name!r}")
            elif len(client.received) != count:
                out.append(
                    f"client {name!r} logged {len(client.received)} "
                    f"receipts but the bus recorded {count} deliveries"
                )
        return out

    return probe


# ---------------------------------------------------------------------------
# Leader-lease monitoring
# ---------------------------------------------------------------------------


@dataclass
class LeaseGrant:
    """One successful lease acquisition (possibly truncated by an
    explicit release)."""

    owner: str
    granted_at: float
    expires_at: float
    quorum_alive: int = 0


@dataclass
class LeaseMonitor:
    """Wraps a :class:`ReplicatedStore`'s lease API, recording every
    grant so lease safety is checkable after the fact.

    Renewals by the owner extend its latest grant; a release truncates
    it.  Quorum loss turns acquisition attempts into clean failures
    (``False``) instead of exceptions inside scenario events.
    """

    store: ReplicatedStore
    grants: list[LeaseGrant] = field(default_factory=list)

    def acquire(self, owner: str, now: float, duration: float) -> bool:
        try:
            ok = self.store.acquire_lease(owner, now, duration)
        except ReplicationError:
            return False
        if ok:
            latest = self.grants[-1] if self.grants else None
            if latest is not None and latest.owner == owner and (
                latest.expires_at >= now
            ):
                latest.expires_at = now + duration  # renewal
            else:
                self.grants.append(
                    LeaseGrant(owner, now, now + duration,
                               self.store.alive_count())
                )
        return ok

    def release(self, owner: str, now: float) -> None:
        try:
            self.store.release_lease(owner)
        except ReplicationError:
            return
        for grant in reversed(self.grants):
            if grant.owner == owner and grant.expires_at > now:
                grant.expires_at = now
                break

    def leader(self, now: float) -> str | None:
        try:
            return self.store.leader(now)
        except ReplicationError:
            return None


def lease_safety(monitor: LeaseMonitor) -> Callable[[], list[str]]:
    """At most one leader per lease window: no two grants by different
    owners overlap in time, and every grant had a quorum behind it."""

    def probe() -> list[str]:
        out = []
        grants = sorted(monitor.grants, key=lambda g: g.granted_at)
        for i, a in enumerate(grants):
            if a.quorum_alive and a.quorum_alive < monitor.store.quorum:
                out.append(
                    f"lease to {a.owner!r} at t={a.granted_at:.3f} with "
                    f"only {a.quorum_alive} replicas alive"
                )
            for b in grants[i + 1:]:
                if b.granted_at >= a.expires_at - _EPS:
                    break
                if b.owner != a.owner:
                    out.append(
                        f"overlapping leases: {a.owner!r} "
                        f"[{a.granted_at:.3f}, {a.expires_at:.3f}) and "
                        f"{b.owner!r} [{b.granted_at:.3f}, "
                        f"{b.expires_at:.3f})"
                    )
        return out

    return probe
