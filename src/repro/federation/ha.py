"""Durable state and failover for the federated coordinator.

The sync :class:`~repro.federation.GlobalCoordinator` keeps its record
of installed chains in memory; a crash loses it even though the
regional switchboards (the ground truth) survive.  This module gives
the *deployed* coordinator (``federation.nodes.CoordinatorNode``) the
PR 4 durability recipe, specialized to the federation:

- :class:`FederationStore` -- a typed facade over the quorum
  :class:`~repro.controller.replication.ReplicatedStore` holding three
  kinds of record:

  * **chain checkpoints** (``/fed/intra/``, ``/fed/cross/``): every
    installed chain, written at the 2PC decide point, before any
    commit message leaves the coordinator;
  * **an install WAL** (``/fed/wal/``): one entry per in-flight
    cross-shard install, flipped from ``preparing`` to ``committing``
    at the decide point -- the commit point of the protocol.  A
    standby that takes over aborts every ``preparing`` entry (its 2PC
    outcome is unknown; the regions' epoch fences make the abort safe)
    and re-drives every ``committing`` entry (the durable record
    proves the capacity is owned);
  * **border-ledger checkpoints** (``/fed/ledgers/``): the per-region
    committed ledger image derived from the cross-chain records, so a
    takeover can reconcile each region's
    :class:`~repro.federation.regional.BorderLedger` against what the
    store says should be reserved.

- :class:`FederationFailover` -- the shared lease-election loop
  (:class:`~repro.resilience.failover.LeaseElection`, the one
  ``FailoverManager`` runs) over coordinator nodes: while the active
  coordinator's host is up it renews the leader lease; when it dies,
  the standby waits out the lease, acquires it, and activates with
  recovery (``CoordinatorNode.recover``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.model import Chain
from repro.federation.coordinator import CrossChainRecord
from repro.federation.regional import SegmentSpec
from repro.controller.replication import ReplicatedStore
from repro.resilience.failover import LeaseElection

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chaos.invariants import LeaseMonitor
    from repro.federation.nodes import CoordinatorNode
    from repro.simnet.network import SimNetwork

_INTRA_PREFIX = "/fed/intra/"
_CROSS_PREFIX = "/fed/cross/"
_WAL_PREFIX = "/fed/wal/"
_LEDGER_PREFIX = "/fed/ledgers/"
_ATTEMPT_KEY = "/fed/attempt"


# ---------------------------------------------------------------------------
# Plain-data (de)serialization: Chain / SegmentSpec <-> store documents
# ---------------------------------------------------------------------------


def chain_doc(chain: Chain) -> dict:
    return {
        "name": chain.name,
        "ingress": chain.ingress,
        "egress": chain.egress,
        "vnfs": list(chain.vnfs),
        "forward": list(chain.forward_traffic),
        "reverse": list(chain.reverse_traffic),
    }


def chain_from_doc(doc: dict) -> Chain:
    return Chain(
        doc["name"],
        doc["ingress"],
        doc["egress"],
        doc["vnfs"],
        tuple(doc["forward"]),
        tuple(doc["reverse"]),
    )


def segment_doc(seg: SegmentSpec) -> dict:
    return {
        "origin": seg.origin,
        "index": seg.index,
        "region": seg.region,
        "chain": chain_doc(seg.chain),
        "border_demands": [list(bd) for bd in seg.border_demands],
    }


def segment_from_doc(doc: dict) -> SegmentSpec:
    return SegmentSpec(
        origin=doc["origin"],
        index=doc["index"],
        region=doc["region"],
        chain=chain_from_doc(doc["chain"]),
        border_demands=tuple(
            (link, amount) for link, amount in doc["border_demands"]
        ),
    )


class FederationStore:
    """Typed durable-state facade for the deployed coordinator.

    Every write is quorum-replicated through the underlying store; a
    write that loses its quorum raises
    :class:`~repro.controller.replication.ReplicationError` out of the
    caller (the chaos deployments keep the store replicas on the core
    site, so partitions between coordinator and regions never cost the
    quorum -- exactly the MUSIC deployment the paper sketches)."""

    def __init__(self, store: ReplicatedStore):
        self.store = store

    # -- chain checkpoints -------------------------------------------------

    def checkpoint_intra(self, name: str, region: int, chain: Chain) -> None:
        self.store.put(
            _INTRA_PREFIX + name,
            {"region": region, "chain": chain_doc(chain)},
        )

    def checkpoint_cross(self, record: CrossChainRecord) -> None:
        self.store.put(
            _CROSS_PREFIX + record.chain.name,
            {
                "attempt": record.attempt,
                "chain": chain_doc(record.chain),
                "segments": [segment_doc(seg) for seg in record.segments],
            },
        )

    def remove_chain(self, name: str) -> None:
        self.store.delete(_INTRA_PREFIX + name)
        self.store.delete(_CROSS_PREFIX + name)

    def restore(self) -> tuple[dict[str, tuple[int, Chain]],
                               dict[str, CrossChainRecord]]:
        """Rebuild every checkpointed chain record (standby takeover)."""
        intra: dict[str, tuple[int, Chain]] = {}
        for key in self.store.keys(_INTRA_PREFIX):
            doc = self.store.get(key)
            if doc is None:
                continue
            name = key[len(_INTRA_PREFIX):]
            intra[name] = (doc["region"], chain_from_doc(doc["chain"]))
        cross: dict[str, CrossChainRecord] = {}
        for key in self.store.keys(_CROSS_PREFIX):
            doc = self.store.get(key)
            if doc is None:
                continue
            name = key[len(_CROSS_PREFIX):]
            cross[name] = CrossChainRecord(
                chain_from_doc(doc["chain"]),
                tuple(segment_from_doc(s) for s in doc["segments"]),
                doc["attempt"],
            )
        return intra, cross

    # -- install WAL -------------------------------------------------------

    def wal_begin(
        self,
        name: str,
        origin: int,
        attempt: int,
        segments: tuple[SegmentSpec, ...],
    ) -> None:
        """Record a 2PC round before its first prepare leaves."""
        self.note_attempt(attempt)
        self.store.put(
            _WAL_PREFIX + name,
            {
                "phase": "preparing",
                "origin": origin,
                "attempt": attempt,
                "segments": [segment_doc(seg) for seg in segments],
            },
        )

    def note_attempt(self, attempt: int) -> None:
        """Track the attempt-counter high-water mark, so a takeover
        resumes above every epoch the old coordinator fenced with."""
        doc = self.store.get(_ATTEMPT_KEY)
        if doc is None or doc["attempt"] < attempt:
            self.store.put(_ATTEMPT_KEY, {"attempt": attempt})

    def last_attempt(self) -> int:
        doc = self.store.get(_ATTEMPT_KEY)
        return 0 if doc is None else doc["attempt"]

    def wal_decide(self, name: str) -> None:
        """Flip an install to ``committing`` -- the 2PC commit point."""
        doc = self.store.get(_WAL_PREFIX + name)
        if doc is not None:
            self.store.put(_WAL_PREFIX + name, dict(doc, phase="committing"))

    def wal_clear(self, name: str) -> None:
        self.store.delete(_WAL_PREFIX + name)

    def pending_wal(self) -> dict[str, dict]:
        """Every in-flight install the previous coordinator left behind:
        name -> {phase, origin, attempt, segments}."""
        entries: dict[str, dict] = {}
        for key in self.store.keys(_WAL_PREFIX):
            doc = self.store.get(key)
            if doc is None:
                continue
            entries[key[len(_WAL_PREFIX):]] = {
                "phase": doc["phase"],
                "origin": doc["origin"],
                "attempt": doc["attempt"],
                "segments": [
                    segment_from_doc(s) for s in doc["segments"]
                ],
            }
        return entries

    # -- border-ledger checkpoints ----------------------------------------

    def checkpoint_ledgers(
        self, cross: dict[str, CrossChainRecord]
    ) -> None:
        """Persist the committed border-ledger image implied by the
        cross-chain records (called whenever they change)."""
        per_region: dict[int, dict[str, dict[str, float]]] = {}
        for record in cross.values():
            for seg in record.segments:
                for link_name, amount in seg.border_demands:
                    per_region.setdefault(seg.region, {}).setdefault(
                        link_name, {}
                    )[seg.chain.name] = amount
        self.store.put(
            _LEDGER_PREFIX + "committed",
            {str(r): links for r, links in sorted(per_region.items())},
        )


class FederationFailover(LeaseElection):
    """Keeps exactly one coordinator node active, via the leader lease.

    The shared :class:`~repro.resilience.failover.LeaseElection` loop
    over :class:`~repro.federation.nodes.CoordinatorNode` candidates in
    priority order: the active node's lease is renewed while its host is
    up; once a dead leader's lease expires the first standby whose host
    is up is elected and activated with recovery.
    """

    def __init__(
        self,
        nodes: "dict[str, CoordinatorNode]",
        store: ReplicatedStore,
        net: "SimNetwork",
        monitor: "LeaseMonitor | None" = None,
        lease_duration_s: float = 2.0,
        check_interval_s: float = 0.5,
    ):
        super().__init__(
            net.sim, store, nodes, monitor, lease_duration_s, check_interval_s
        )
        self.nodes = dict(nodes)
        self.net = net
        self.takeover_times: list[float] = []
        self.active.activate(recover=False)

    @property
    def active(self) -> "CoordinatorNode":
        return self.nodes[self.active_name]

    def mark_dead(self, name: str) -> None:
        super().mark_dead(name)
        self.nodes[name].deactivate()

    def crash_active(self) -> str:
        """Chaos helper: kill the active coordinator process + host."""
        name = self.active_name
        self.mark_dead(name)
        if self.net.host_is_up(self.nodes[name].host):
            self.net.crash_host(self.nodes[name].host)
        return name

    def _active_up(self) -> bool:
        return self._standby_up(self.active_name)

    def _standby_up(self, name: str) -> bool:
        return self.net.host_is_up(self.nodes[name].host)

    def _active_lost(self) -> None:
        self.active.deactivate()

    def take_over(self, name: str) -> None:
        """Activate a standby: restore checkpoints, settle the WAL,
        reconcile every region."""
        self.takeovers += 1
        self.takeover_times.append(self.net.sim.now)
        self.active_name = name
        self.nodes[name].activate(recover=True)


__all__ = [
    "FederationFailover",
    "FederationStore",
    "chain_doc",
    "chain_from_doc",
    "segment_doc",
    "segment_from_doc",
]
