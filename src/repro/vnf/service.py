"""The VNF service: controller, instances, and capacity accounting.

The VNF controller is the participant side of Global Switchboard's
two-phase commit (Section 3, chain creation): a *prepare* reserves
capacity for a chain at a site and may be rejected on resource shortage
(triggering route recomputation at Global Switchboard); *commit* turns
the reservation into an allocation and instantiates/assigns instances;
*abort* releases it.

Every 2PC operation here is idempotent, because the control plane
delivers at-least-once (:mod:`repro.resilience.rpc`): re-preparing an
already-reserved (chain, site) returns the cached outcome, re-committing
an already-committed pair is a no-op, and abort/teardown of absent state
does nothing.  Committed capacity is tracked per (chain, site) -- not
just as a per-site aggregate -- so a coordinator that lost track of a
chain mid-install can still tear it down exactly (releasing what this
chain committed and nothing else).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.errors import ReproError
from repro.dataplane.forwarder import VnfInstance
from repro.dataplane.labels import Packet


class AllocationError(ReproError):
    """Raised on invalid capacity operations."""


@dataclass
class _Reservation:
    chain: str
    site: str
    load: float


class VnfService:
    """One VNF service with per-site capacity and 2PC participation.

    ``instance_factory`` builds the packet-processing behaviour for new
    instances (e.g. a NAT transform); by default instances are
    pass-through.
    """

    def __init__(
        self,
        name: str,
        load_per_unit: float,
        site_capacity: dict[str, float],
        supports_labels: bool = True,
        instance_factory: Callable[[str, str], Callable[[Packet], None] | None]
        | None = None,
    ):
        if load_per_unit < 0:
            raise AllocationError("negative load_per_unit")
        self.name = name
        self.load_per_unit = load_per_unit
        self.site_capacity = dict(site_capacity)
        self.supports_labels = supports_labels
        self.instance_factory = instance_factory
        self._committed: dict[str, float] = {s: 0.0 for s in site_capacity}
        #: (chain, site) -> load committed for that chain there.
        self._chain_committed: dict[tuple[str, str], float] = {}
        self._reserved: dict[tuple[str, str], _Reservation] = {}
        self.instances: dict[str, list[VnfInstance]] = {}
        self._instance_counter = 0
        for site in site_capacity:
            self._spawn_instance(site)

    # -- instances -------------------------------------------------------

    def _spawn_instance(self, site: str) -> VnfInstance:
        self._instance_counter += 1
        name = f"{self.name}.{site}.{self._instance_counter}"
        transform = (
            self.instance_factory(name, site) if self.instance_factory else None
        )
        instance = VnfInstance(
            name,
            service=self.name,
            site=site,
            supports_labels=self.supports_labels,
            transform=transform,
        )
        self.instances.setdefault(site, []).append(instance)
        return instance

    def scale_out(self, site: str) -> VnfInstance:
        """Add an instance at a site (elastic scaling)."""
        if site not in self.site_capacity:
            raise AllocationError(f"{self.name!r} is not deployed at {site!r}")
        return self._spawn_instance(site)

    def instances_at(self, site: str) -> list[VnfInstance]:
        return list(self.instances.get(site, []))

    @property
    def sites(self) -> list[str]:
        return sorted(self.site_capacity)

    # -- capacity (two-phase commit participant) -----------------------------

    def available(self, site: str) -> float:
        """Capacity not yet committed or reserved at a site."""
        if site not in self.site_capacity:
            return 0.0
        reserved = sum(
            r.load for r in self._reserved.values() if r.site == site
        )
        return self.site_capacity[site] - self._committed[site] - reserved

    def prepare(self, chain: str, site: str, load: float) -> bool:
        """Phase 1: reserve capacity; False rejects the proposed route."""
        if load < 0:
            raise AllocationError("negative load")
        if site not in self.site_capacity:
            return False
        key = (chain, site)
        if key in self._reserved:
            return True  # idempotent re-prepare
        if load > self.available(site) + 1e-9:
            return False
        self._reserved[key] = _Reservation(chain, site, load)
        return True

    def commit(self, chain: str, site: str) -> None:
        """Phase 2: turn the reservation into a committed allocation.

        Idempotent under re-delivery: a commit for a (chain, site) that
        already committed (and holds no new reservation) is a no-op; a
        commit that was never prepared is still an error.
        """
        key = (chain, site)
        reservation = self._reserved.pop(key, None)
        if reservation is None:
            if key in self._chain_committed:
                return  # re-delivered commit: already applied
            raise AllocationError(
                f"{self.name!r}: commit without prepare for "
                f"chain {chain!r} at {site!r}"
            )
        self._committed[site] += reservation.load
        self._chain_committed[key] = (
            self._chain_committed.get(key, 0.0) + reservation.load
        )

    def abort(self, chain: str, site: str) -> None:
        """Phase 2 (failure path): release the reservation.  Idempotent."""
        self._reserved.pop((chain, site), None)

    def release(self, chain: str, site: str, load: float | None = None) -> float:
        """Release committed capacity when a chain is torn down.

        The per-chain ledger is authoritative: the amount released is
        what this chain actually committed at the site, which makes
        release idempotent (a second release of the same pair is a
        no-op) and immune to a stale ``load`` argument.  Returns the
        amount released.
        """
        if load is not None and load < 0:
            raise AllocationError("negative load")
        recorded = self._chain_committed.pop((chain, site), None)
        if recorded is None:
            return 0.0
        self._committed[site] = max(0.0, self._committed[site] - recorded)
        return recorded

    def teardown(self, chain: str, site: str) -> float:
        """Drop *all* state this chain holds at a site: the reservation
        (if any) and the committed allocation (if any).  Idempotent --
        this is the participant side of a coordinator's unilateral abort
        after a deadline or failover.  Returns the committed load
        released."""
        self.abort(chain, site)
        return self.release(chain, site)

    def committed(self, site: str) -> float:
        return self._committed.get(site, 0.0)

    def pending_reservations(self) -> int:
        return len(self._reserved)

    def reservations(self) -> dict[tuple[str, str], float]:
        """Outstanding (chain, site) reservations and their loads --
        read by the reconciliation sweeper to spot reservations whose
        install is no longer pending anywhere."""
        return {key: r.load for key, r in self._reserved.items()}

    def committed_chains(self) -> dict[tuple[str, str], float]:
        """Committed (chain, site) ledger entries -- read by the
        reconciliation sweeper to spot commitments whose chain is
        neither pending nor installed (a teardown whose every
        retransmit was lost)."""
        return dict(self._chain_committed)
