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
  * **the install log** (:class:`~repro.controller.replication.InstallLog`,
    the bus-driven installer's too): one record per in-flight
    cross-shard install, written ``PREPARING`` when a round starts and
    ``COMMITTING`` at the decide point -- the commit point of the
    protocol -- with the segments as participants, and the attempt
    high water.  A standby that takes over runs
    :func:`~repro.controller.twopc.recover` over it;
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
from repro.core.serialization import chain_from_dict, chain_to_dict
from repro.federation.coordinator import CrossChainRecord
from repro.federation.regional import SegmentSpec
from repro.controller.replication import InstallLog, ReplicatedStore
from repro.resilience.failover import LeaseElection

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chaos.invariants import LeaseMonitor
    from repro.federation.nodes import CoordinatorNode
    from repro.simnet.network import SimNetwork

_INTRA_PREFIX = "/fed/intra/"
_CROSS_PREFIX = "/fed/cross/"
_LEDGER_PREFIX = "/fed/ledgers/"


# ---------------------------------------------------------------------------
# SegmentSpec <-> store documents (a chain is its model-document entry)
# ---------------------------------------------------------------------------


def segment_doc(seg: SegmentSpec) -> dict:
    return {
        "origin": seg.origin,
        "index": seg.index,
        "region": seg.region,
        "chain": chain_to_dict(seg.chain),
        "border_demands": [list(bd) for bd in seg.border_demands],
    }


def segment_from_doc(doc: dict) -> SegmentSpec:
    return SegmentSpec(
        origin=doc["origin"],
        index=doc["index"],
        region=doc["region"],
        chain=chain_from_dict(doc["chain"]),
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
        #: In-flight installs and the attempt high water.
        self.log = InstallLog(store)

    # -- chain checkpoints -------------------------------------------------

    def checkpoint_intra(self, name: str, region: int, chain: Chain) -> None:
        self.store.put(
            _INTRA_PREFIX + name,
            {"region": region, "chain": chain_to_dict(chain)},
        )

    def checkpoint_cross(self, record: CrossChainRecord) -> None:
        self.store.put(
            _CROSS_PREFIX + record.chain.name,
            {
                "attempt": record.attempt,
                "chain": chain_to_dict(record.chain),
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
            intra[name] = (doc["region"], chain_from_dict(doc["chain"]))
        cross: dict[str, CrossChainRecord] = {}
        for key in self.store.keys(_CROSS_PREFIX):
            doc = self.store.get(key)
            if doc is None:
                continue
            name = key[len(_CROSS_PREFIX):]
            cross[name] = CrossChainRecord(
                chain_from_dict(doc["chain"]),
                tuple(segment_from_doc(s) for s in doc["segments"]),
                doc["attempt"],
            )
        return intra, cross

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
        """Activate a standby: restore checkpoints, recover from the
        install log, reconcile every region."""
        self.takeovers += 1
        self.takeover_times.append(self.net.sim.now)
        self.active_name = name
        self.nodes[name].activate(recover=True)
