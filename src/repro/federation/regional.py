"""The regional switchboard: one shard's planner and 2PC participant.

A ``RegionalSwitchboard`` owns everything inside its shard: the
regional :class:`~repro.core.model.NetworkModel`, a
:class:`~repro.scale.SolverFarm` over it (the PR 6 columnar solver
stack -- partitioned, cached, incremental), and the *ledgers* of the
border links it owns (a border link belongs to its source-side region).

Intra-shard chains are admitted directly (:meth:`admit`) -- the
regional LP is their single planner, exactly as the monolithic
Switchboard was for the whole network.

Cross-shard chain *segments* arrive through the 2PC participant
surface.  Stale attempts are filtered by the shared
:class:`repro.controller.twopc.Fence` (the same one the VNF-controller
receiver of ``controller.protocol`` uses); unlike that receiver, which
drops a stale message, a region answers it ``False``:

- :meth:`prepare` validates the segment (VNFs deployable, endpoints
  reachable, aggregate compute headroom) and reserves capacity on
  every owned border link the coordinator's crossing plan touches.
  Idempotent; rejects cleanly without partial state.
- :meth:`commit` / :meth:`abort` settle the reservation;
  :meth:`release` drops it regardless of attempt (the ``fed: release``
  protocol op of recovery and reconciliation).
- :meth:`teardown` removes all segment state and leaves the fence's
  tombstone, permanently fencing late prepares or commits from an
  aborted install.

The border-capacity contract: ``sum(prepared) + sum(committed)`` on a
ledger never exceeds the link's headroom; the regional LP never sees
border links at all, so ledger bounds and per-region LP feasibility
compose into end-to-end capacity safety.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.controller.twopc import STALE, Fence
from repro.core.lp import LpObjective
from repro.core.model import Chain, ModelError, NetworkModel
from repro.federation.shard import BorderLink, FederationError
from repro.scale.farm import FarmResult, SolverFarm

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

_EPS = 1e-9


def trivial_segment(chain: Chain) -> bool:
    """A degenerate transit segment: no VNFs and a single node.

    It consumes no intra-region capacity (the crossing demand is
    accounted on the border ledgers), so it never enters the regional
    LP; 2PC still tracks it for uniform commit/abort semantics."""
    return not chain.vnfs and chain.ingress == chain.egress


class BorderLedger:
    """2PC capacity ledger for one owned border link.

    The in-region analogue of ``VnfService``'s reservation ledger:
    idempotent prepare/commit/abort/teardown keyed by segment name,
    with the committed ledger authoritative for release.
    """

    def __init__(self, capacity: float):
        self.capacity = capacity
        self.prepared: dict[str, float] = {}
        self.committed: dict[str, float] = {}

    def reserved(self) -> float:
        return sum(self.prepared.values()) + sum(self.committed.values())

    def available(self) -> float:
        return self.capacity - self.reserved()

    def prepare(self, segment: str, amount: float) -> bool:
        if segment in self.committed:
            return False
        existing = self.prepared.get(segment, 0.0)
        if amount - existing > self.available() + _EPS:
            return False
        self.prepared[segment] = amount
        return True

    def commit(self, segment: str) -> bool:
        if segment in self.committed:
            return True
        if segment not in self.prepared:
            return False
        self.committed[segment] = self.prepared.pop(segment)
        return True

    def abort(self, segment: str) -> None:
        self.prepared.pop(segment, None)

    def teardown(self, segment: str) -> None:
        self.prepared.pop(segment, None)
        self.committed.pop(segment, None)

    def fits_update(self, segment: str, amount: float) -> bool:
        """Would :meth:`update_committed` succeed?  (Pre-check so a
        multi-segment demand refresh can validate before mutating.)"""
        if segment not in self.committed:
            return False
        return amount - self.committed[segment] <= self.available() + _EPS

    def update_committed(self, segment: str, amount: float) -> bool:
        """Resize a committed reservation (demand-only re-optimization).

        Fails without side effects when the increase does not fit."""
        if not self.fits_update(segment, amount):
            return False
        self.committed[segment] = amount
        return True


@dataclass(frozen=True)
class SegmentSpec:
    """One region's slice of a cross-shard chain, as sent in prepare.

    ``border_demands`` lists the reservations this region's *owned*
    ledgers must take for the crossings that exit this segment.
    """

    origin: str
    index: int
    region: int
    chain: Chain
    border_demands: tuple[tuple[str, float], ...] = ()


class RegionalSwitchboard:
    """Planner, installer, and reoptimizer for one substrate shard."""

    def __init__(
        self,
        region: int,
        model: NetworkModel,
        owned_borders: list[BorderLink],
        partition_size: int | None = 16,
        metrics: "MetricsRegistry | None" = None,
    ):
        self.region = region
        self.model = model
        self.metrics = metrics
        self.farm = SolverFarm(partition_size=partition_size, metrics=metrics)
        self.ledgers: dict[str, BorderLedger] = {
            b.name: BorderLedger(b.capacity) for b in owned_borders
        }
        #: Attempt epochs per segment name (tombstone on teardown).
        self._fence = Fence()
        self._prepared: dict[str, SegmentSpec] = {}
        self._committed: dict[str, SegmentSpec] = {}
        self._intra: set[str] = set()
        #: Aggregate compute admission bookkeeping per VNF.
        self._vnf_admitted: dict[str, float] = {}
        self._chain_loads: dict[str, dict[str, float]] = {}
        #: Bumped on every regional-model mutation; the coordinator
        #: only reuses a cached plan taken at the same generation.
        self.generation = 0

    # -- intra-shard chains ----------------------------------------------

    def admit(self, chain: Chain) -> None:
        """Admit an intra-shard chain (the regional LP is its planner)."""
        self.model.add_chain(chain)
        self._intra.add(chain.name)
        self._track_loads(chain)
        self.generation += 1

    def evict(self, name: str) -> None:
        if name not in self._intra:
            raise FederationError(
                f"region {self.region}: {name!r} is not an intra chain"
            )
        self.model.remove_chain(name)
        self._intra.discard(name)
        self._untrack_loads(name)
        self.generation += 1

    def update_demand(self, chain: Chain) -> None:
        """Refresh an admitted chain's demands (structure unchanged)."""
        if chain.name not in self.model.chains:
            raise FederationError(
                f"region {self.region}: unknown chain {chain.name!r}"
            )
        self.model.remove_chain(chain.name)
        self.model.add_chain(chain)
        self._untrack_loads(chain.name)
        self._track_loads(chain)
        self.generation += 1

    # -- 2PC participant surface -----------------------------------------

    def prepare(self, seg: SegmentSpec, attempt: int) -> bool:
        """Phase 1: validate and reserve.  Idempotent per attempt;
        stale attempts (older than the segment's epoch) are fenced."""
        key = seg.chain.name
        if self._fence.prepare(key, attempt) == STALE:
            return False
        if key in self._committed:
            return False
        held = self._prepared.get(key)
        if held is not None:
            if held == seg:
                return True
            # A *newer* round re-prepares with a different spec (e.g. a
            # retry whose abort never reached us before the partition
            # healed).  The fencing above guarantees the old round can
            # never commit, so release its reservation and fall through
            # to re-validate the new spec.
            self.release(key)
        if not self._admissible(seg):
            return False
        taken: list[str] = []
        for link_name, amount in seg.border_demands:
            ledger = self.ledgers.get(link_name)
            if ledger is None or not ledger.prepare(key, amount):
                for name in taken:
                    self.ledgers[name].abort(key)
                return False
            taken.append(link_name)
        if not trivial_segment(seg.chain):
            self.model.add_chain(seg.chain)
            self._track_loads(seg.chain)
            self.generation += 1
        self._prepared[key] = seg
        return True

    def commit(self, key: str, attempt: int) -> bool:
        """Phase 2: make a prepared segment durable."""
        if not self._fence.admits(key, attempt):
            return False
        if key in self._committed:
            return True
        seg = self._prepared.pop(key, None)
        if seg is None:
            return False
        for link_name, _amount in seg.border_demands:
            self.ledgers[link_name].commit(key)
        self._committed[key] = seg
        return True

    def abort(self, key: str, attempt: int) -> bool:
        """Roll back a prepared (uncommitted) segment."""
        return self._fence.abort(key, attempt) and self.release(key)

    def release(self, key: str) -> bool:
        """Drop a prepared segment's reservation and model state,
        whatever attempt prepared it; leaves no fence behind, so the
        chain can be installed again.  False if nothing was prepared."""
        seg = self._prepared.pop(key, None)
        if seg is None:
            return False
        for link_name, _amount in seg.border_demands:
            self.ledgers[link_name].abort(key)
        if key in self.model.chains:
            self.model.remove_chain(key)
            self.generation += 1
        self._untrack_loads(key)
        return True

    def teardown(self, key: str) -> None:
        """Drop *all* state for a segment and fence it permanently."""
        self._fence.teardown(key)
        self._prepared.pop(key, None)
        self._committed.pop(key, None)
        for ledger in self.ledgers.values():
            ledger.teardown(key)
        if key in self.model.chains:
            self.model.remove_chain(key)
            self.generation += 1
        self._untrack_loads(key)

    def update_segment(self, seg: SegmentSpec) -> None:
        """Refresh a committed segment's demands (re-optimization)."""
        key = seg.chain.name
        if key not in self._committed:
            raise FederationError(
                f"region {self.region}: segment {key!r} is not committed"
            )
        for link_name, amount in seg.border_demands:
            if not self.ledgers[link_name].update_committed(key, amount):
                raise FederationError(
                    f"region {self.region}: border {link_name!r} cannot "
                    f"fit the new demand of {key!r}"
                )
        if key in self.model.chains:
            self.model.remove_chain(key)
        self._untrack_loads(key)
        if not trivial_segment(seg.chain):
            self.model.add_chain(seg.chain)
            self._track_loads(seg.chain)
        self.generation += 1
        self._committed[key] = seg

    # -- reconciliation surface (failover / restart recovery) --------------

    def adopt_segment(self, seg: SegmentSpec, attempt: int) -> None:
        """Authoritatively (re-)install a *committed* segment.

        Used by the reconciliation protocol: the coordinator's durable
        checkpoint says this segment is committed, so make the local
        state match regardless of what this process remembers (it may
        have restarted and lost everything, or hold a stale prepared
        round).  Unconditional, unlike :meth:`prepare`/:meth:`commit` --
        reconciliation is the authority, not a 2PC round."""
        key = seg.chain.name
        self._fence.adopt(key, attempt)
        self.release(key)
        if key in self._committed:
            held = self._committed[key]
            if held == seg:
                return
            # Demand/spec drift: rebuild from the authoritative copy.
            for ledger in self.ledgers.values():
                ledger.teardown(key)
            if key in self.model.chains:
                self.model.remove_chain(key)
            self._untrack_loads(key)
            del self._committed[key]
        for link_name, amount in seg.border_demands:
            ledger = self.ledgers.get(link_name)
            if ledger is None:
                raise FederationError(
                    f"region {self.region}: adopt of {key!r} names "
                    f"unknown border {link_name!r}"
                )
            ledger.prepared.pop(key, None)
            ledger.committed[key] = amount
        if not trivial_segment(seg.chain) and key not in self.model.chains:
            self.model.add_chain(seg.chain)
            self._track_loads(seg.chain)
        self._committed[key] = seg
        self.generation += 1

    def adopt_intra(self, chain: Chain) -> None:
        """Re-admit an intra chain from a checkpoint (idempotent)."""
        if chain.name in self._intra:
            return
        self.admit(chain)

    def reset(self) -> None:
        """Forget *everything* -- a regional process restart.

        Ledger capacities survive (they are substrate facts) but every
        reservation, admitted chain, and epoch is volatile state that a
        restarted process no longer remembers.  The reconciliation
        protocol rebuilds committed segments and intra chains from the
        coordinator's durable checkpoints afterwards."""
        for name in list(self.model.chains):
            self.model.remove_chain(name)
        self._prepared.clear()
        self._committed.clear()
        self._intra.clear()
        self._fence.clear()
        self._vnf_admitted.clear()
        self._chain_loads.clear()
        for ledger in self.ledgers.values():
            ledger.prepared.clear()
            ledger.committed.clear()
        self.generation += 1

    def sweep(self) -> list[str]:
        """Backstop GC: release every prepared-but-uncommitted segment.

        The coordinator calls this at quiescence (no install in
        flight), mirroring ``resilience.sweeper``: anything still in
        phase 1 was abandoned by a failed coordinator and must not pin
        border capacity or model state forever.  Returns the released
        segment names."""
        released = sorted(self._prepared)
        for key in released:
            self.teardown(key)
        return released

    # -- planning ---------------------------------------------------------

    def plan(
        self, objective: LpObjective = LpObjective.MAX_THROUGHPUT
    ) -> FarmResult:
        """Cold/warm regional plan over every admitted chain."""
        if not self.model.chains:
            return self._empty_plan()
        start = time.perf_counter()
        result = self.farm.solve(self.model, objective)
        if self.metrics is not None:
            self.metrics.histogram(
                "federation.region_solve_s", region=self.region
            ).observe(time.perf_counter() - start)
        return result

    def reoptimize(self, changed: list[str]) -> FarmResult:
        """Incremental re-plan after demand changes (farm ``resolve``)."""
        if not self.model.chains:
            return self._empty_plan()
        start = time.perf_counter()
        result = self.farm.resolve(self.model, changed)
        if self.metrics is not None:
            self.metrics.histogram(
                "federation.region_solve_s", region=self.region
            ).observe(time.perf_counter() - start)
        return result

    def _empty_plan(self) -> FarmResult:
        """A region with nothing admitted plans trivially (a federation
        at low fill routinely has empty regions; the farm itself
        refuses to partition an empty chain set)."""
        return FarmResult(
            status="optimal",
            objective=0.0,
            solution=None,
            partitions=0,
            solved=(),
            cache_hits=0,
            wall_seconds=0.0,
            exact=True,
        )

    # -- bookkeeping -------------------------------------------------------

    def prepared_segments(self) -> list[str]:
        return sorted(self._prepared)

    def committed_segments(self) -> list[str]:
        return sorted(self._committed)

    def intra_chains(self) -> list[str]:
        return sorted(self._intra)

    def epoch_of(self, key: str) -> int:
        """Fencing epoch recorded for a segment key (0 if never seen).
        Reconciliation uses it to leave state from rounds *newer* than
        its snapshot alone."""
        return self._fence.epoch(key)

    def _admissible(self, seg: SegmentSpec) -> bool:
        """Structural + aggregate-compute admission for a segment."""
        chain = seg.chain
        for node in (chain.ingress, chain.egress):
            if node not in self.model._node_set:
                return False
        try:
            self.model.latency(chain.ingress, chain.egress)
        except ModelError:
            return False  # endpoints not reachable inside the shard
        loads = self._loads_of(chain)
        for vnf_name, load in loads.items():
            vnf = self.model.vnfs.get(vnf_name)
            if vnf is None or not vnf.site_capacity:
                return False
            total = sum(vnf.site_capacity.values())
            if self._vnf_admitted.get(vnf_name, 0.0) + load > total + _EPS:
                return False
        return True

    def _loads_of(self, chain: Chain) -> dict[str, float]:
        loads: dict[str, float] = {}
        for z in range(1, chain.num_stages):
            vnf_name = chain.vnf_at(z)
            vnf = self.model.vnfs.get(vnf_name)
            load_per_unit = vnf.load_per_unit if vnf is not None else 1.0
            loads[vnf_name] = loads.get(vnf_name, 0.0) + load_per_unit * (
                chain.stage_traffic(z) + chain.stage_traffic(z + 1)
            )
        return loads

    def _track_loads(self, chain: Chain) -> None:
        loads = self._loads_of(chain)
        self._chain_loads[chain.name] = loads
        for vnf_name, load in loads.items():
            self._vnf_admitted[vnf_name] = (
                self._vnf_admitted.get(vnf_name, 0.0) + load
            )

    def _untrack_loads(self, name: str) -> None:
        loads = self._chain_loads.pop(name, None)
        if not loads:
            return
        for vnf_name, load in loads.items():
            remaining = self._vnf_admitted.get(vnf_name, 0.0) - load
            if remaining <= _EPS:
                self._vnf_admitted.pop(vnf_name, None)
            else:
                self._vnf_admitted[vnf_name] = remaining
