"""Controller fault tolerance: a MUSIC-style replicated key-value store.

Section 4.5: "We plan to support fault-tolerance of controllers using a
replication recipe based on MUSIC, a resilient key-value store optimized
for wide-area deployments."  This module implements that recipe's core:

- a set of replicas (one per controller site) holding versioned entries;
- **majority-quorum** writes and reads -- a write succeeds only if a
  quorum of replicas accepted it, a read consults a quorum and returns
  the highest version it sees (so any successful read observes any
  successful write: the two quorums intersect);
- read-repair: stale replicas touched by a read are brought up to date;
- an **ownership lease** recipe (MUSIC's locking API) so exactly one
  Global Switchboard instance acts as leader at a time, with takeover
  after lease expiry;
- the :class:`InstallLog`, one durable record per in-flight install,
  which both coordinators write and a standby recovers from;
- checkpoint/restore helpers that persist Global Switchboard's chain
  installations so a standby controller can rebuild its control state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.controller.chainspec import spec_from_dict, spec_to_dict
from repro.controller.global_switchboard import ChainInstallation
from repro.core.errors import ReproError


class ReplicationError(ReproError):
    """Raised on quorum loss or invalid store operations."""


@dataclass
class _Versioned:
    version: int
    value: Any


@dataclass
class Replica:
    """One store replica (a controller site)."""

    name: str
    alive: bool = True
    data: dict[str, _Versioned] = field(default_factory=dict)


@dataclass
class _Lease:
    owner: str
    expires_at: float


class ReplicatedStore:
    """Quorum-replicated, versioned key-value store."""

    def __init__(self, replica_names: list[str]):
        if not replica_names:
            raise ReplicationError("need at least one replica")
        if len(set(replica_names)) != len(replica_names):
            raise ReplicationError("duplicate replica names")
        self.replicas = {name: Replica(name) for name in replica_names}
        #: A majority: any two quorums intersect.
        self.quorum = len(replica_names) // 2 + 1
        self._next_version = 1
        self.writes = 0
        self.reads = 0
        self.read_repairs = 0

    # -- membership -----------------------------------------------------

    def fail(self, name: str) -> None:
        self._replica(name).alive = False

    def recover(self, name: str) -> None:
        """Bring a replica back (possibly with stale data: read-repair
        heals it lazily)."""
        self._replica(name).alive = True

    def alive_count(self) -> int:
        return sum(1 for r in self.replicas.values() if r.alive)

    def _replica(self, name: str) -> Replica:
        try:
            return self.replicas[name]
        except KeyError:
            raise ReplicationError(f"unknown replica {name!r}") from None

    # -- quorum operations ------------------------------------------------

    def put(self, key: str, value: Any) -> int:
        """Write a value; returns the committed version.

        Raises :class:`ReplicationError` if fewer than a quorum of
        replicas are alive (the write must not appear successful).
        """
        alive = [r for r in self.replicas.values() if r.alive]
        if len(alive) < self.quorum:
            raise ReplicationError(
                f"write quorum lost: {len(alive)} alive < {self.quorum}"
            )
        version = self._next_version
        self._next_version += 1
        for replica in alive:
            replica.data[key] = _Versioned(version, value)
        self.writes += 1
        return version

    def get(self, key: str) -> Any:
        """Quorum read: the highest-versioned value a quorum has seen."""
        alive = [r for r in self.replicas.values() if r.alive]
        if len(alive) < self.quorum:
            raise ReplicationError(
                f"read quorum lost: {len(alive)} alive < {self.quorum}"
            )
        self.reads += 1
        best: _Versioned | None = None
        for replica in alive[: max(self.quorum, len(alive))]:
            entry = replica.data.get(key)
            if entry is not None and (best is None or entry.version > best.version):
                best = entry
        if best is None:
            return None
        # Read-repair any alive replica that is stale.
        for replica in alive:
            entry = replica.data.get(key)
            if entry is None or entry.version < best.version:
                replica.data[key] = best
                self.read_repairs += 1
        return best.value

    def delete(self, key: str) -> None:
        """Delete by writing a tombstone (None)."""
        self.put(key, None)

    def keys(self, prefix: str = "") -> list[str]:
        """Keys with live (non-tombstone) values under a prefix."""
        alive = [r for r in self.replicas.values() if r.alive]
        if len(alive) < self.quorum:
            raise ReplicationError("read quorum lost")
        candidates: set[str] = set()
        for replica in alive:
            candidates.update(
                k for k in replica.data if k.startswith(prefix)
            )
        return sorted(k for k in candidates if self.get(k) is not None)

    # -- leader lease (the MUSIC locking recipe) ----------------------------

    LEASE_KEY = "/leader-lease"

    def acquire_lease(self, owner: str, now: float, duration: float) -> bool:
        """Try to become (or stay) leader until ``now + duration``."""
        current: _Lease | None = self.get(self.LEASE_KEY)
        if current is not None and current.owner != owner and current.expires_at > now:
            return False
        self.put(self.LEASE_KEY, _Lease(owner, now + duration))
        return True

    def leader(self, now: float) -> str | None:
        """The current leaseholder, or None if the lease has expired."""
        current: _Lease | None = self.get(self.LEASE_KEY)
        if current is None or current.expires_at <= now:
            return None
        return current.owner

    def release_lease(self, owner: str) -> None:
        current: _Lease | None = self.get(self.LEASE_KEY)
        if current is not None and current.owner == owner:
            self.put(self.LEASE_KEY, None)


# ---------------------------------------------------------------------------
# The install log: one durable record per in-flight install
# ---------------------------------------------------------------------------

_INSTALL_PREFIX = "/installing/"
_ATTEMPT_KEY = "/installing-attempt"


def participants_to_doc(
    loads: Mapping[tuple[str, str], float],
) -> dict[str, float]:
    """(VNF, site) -> load as a store document, keyed ``"vnf@site"``."""
    return {f"{vnf}@{site}": load for (vnf, site), load in loads.items()}


def participants_from_doc(
    doc: Mapping[str, float],
) -> dict[tuple[str, str], float]:
    """Inverse of :func:`participants_to_doc`."""
    return {tuple(key.split("@", 1)): load for key, load in doc.items()}


class InstallLog:
    """The durable record of every in-flight install, for both
    coordinators (the bus-driven installer and the deployed federated
    coordinator).

    A record is ``{"phase", "participants", "attempt", "origin"}``: the
    :mod:`~repro.controller.twopc` phase it was written in, every
    participant key with its payload, the attempt's fencing number, and
    where the request came from.  ``PREPARING`` lands before a 2PC
    attempt's first prepare leaves, ``COMMITTING`` once the attempt is
    decided (at the decide point, before any commit leaves; on the bus,
    at publish); the driver clears the record when the install ends.  :func:`repro.controller.twopc.recover` turns the
    records a dead coordinator left into its standby's actions.

    The attempt high water is a key of its own, kept only by a
    coordinator whose participants fence across installs, so that its
    standby resumes above every epoch it fenced with.
    """

    def __init__(self, store: ReplicatedStore):
        self.store = store

    def put(
        self, name: str, phase: str, participants: dict[str, Any],
        attempt: int, origin: Any = None,
    ) -> None:
        record = {"phase": phase, "participants": participants,
                  "attempt": attempt, "origin": origin}
        self.store.put(_INSTALL_PREFIX + name, record)

    def clear(self, name: str) -> None:
        self.store.delete(_INSTALL_PREFIX + name)

    def pending(self) -> dict[str, dict]:
        """Every record still in the log: install name -> record."""
        records: dict[str, dict] = {}
        for key in self.store.keys(_INSTALL_PREFIX):
            record = self.store.get(key)
            if record is not None:
                records[key[len(_INSTALL_PREFIX):]] = record
        return records

    def note_attempt(self, attempt: int) -> None:
        """Raise the attempt high water to ``attempt``."""
        high = self.store.get(_ATTEMPT_KEY)
        if high is None or high < attempt:
            self.store.put(_ATTEMPT_KEY, attempt)

    def high_water(self) -> int:
        return self.store.get(_ATTEMPT_KEY) or 0


# ---------------------------------------------------------------------------
# Global Switchboard checkpointing
# ---------------------------------------------------------------------------

_CHAIN_PREFIX = "/chains/"


def checkpoint_installation(
    store: ReplicatedStore, installation: ChainInstallation
) -> None:
    """Persist one chain installation (called after create/extend)."""
    record = {
        "spec": spec_to_dict(installation.spec),
        "label": installation.label,
        "ingress_site": installation.ingress_site,
        "egress_site": installation.egress_site,
        "routed_fraction": installation.routed_fraction,
        "committed_load": participants_to_doc(installation.committed_load),
        "extra_edge_sites": list(installation.extra_edge_sites),
    }
    store.put(_CHAIN_PREFIX + installation.spec.name, record)


def remove_checkpoint(store: ReplicatedStore, chain_name: str) -> None:
    store.delete(_CHAIN_PREFIX + chain_name)


def restore_installations(store: ReplicatedStore) -> dict[str, ChainInstallation]:
    """Rebuild every checkpointed installation (for a standby controller)."""
    installations: dict[str, ChainInstallation] = {}
    for key in store.keys(_CHAIN_PREFIX):
        record = store.get(key)
        if record is None:
            continue
        spec = spec_from_dict(record["spec"])
        committed = participants_from_doc(record["committed_load"])
        installation = ChainInstallation(
            spec,
            record["label"],
            record["ingress_site"],
            record["egress_site"],
            record["routed_fraction"],
            committed,
            list(record["extra_edge_sites"]),
            # Where the recorded route and grafts put rules: the ingress,
            # the sites holding its load, the grafted edge sites.
            {record["ingress_site"], *record["extra_edge_sites"]}
            | {site for _vnf, site in committed},
        )
        installations[spec.name] = installation
    return installations
