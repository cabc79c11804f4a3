"""The thin global coordinator of the federated switchboard.

The coordinator owns *only* what cannot be decided inside one shard:

- **Classification** -- a submitted chain whose endpoints share a
  region and whose VNFs are all deployed there is handed to that
  :class:`~repro.federation.regional.RegionalSwitchboard` untouched
  (the common case by construction: workloads are locality-biased).
- **Splitting** -- a cross-shard chain is cut at border sites into
  per-region segments: a small DP assigns each VNF to a region that
  deploys it while minimising border crossings along the region graph,
  the region sequence is expanded via :meth:`ShardMap.region_path`,
  and each consecutive region pair gets a concrete
  :class:`~repro.federation.shard.BorderLink` (best-first, rotating on
  retry).  Segment demands are exact slices of the original per-stage
  demands, and each crossing reserves the full stage demand on its
  border ledger -- the stitched end-to-end path can never load a
  border beyond the reservation.
- **Atomic install** -- segments are installed with the shared
  two-phase commit core (:mod:`repro.controller.twopc`), driven here by
  direct calls: prepare every involved region in order; any rejection
  aborts *all* prepared regions and the next attempt re-splits with the
  next border choice; only a full set of prepares commits.  A
  coordinator crash mid-prepare leaves fenced residue that
  :meth:`GlobalCoordinator.sweep` reclaims, exactly like
  ``resilience.sweeper``.
- **Stitching** -- :meth:`end_to_end_route` reassembles the committed
  segments and crossings into the end-to-end path;
  ``federation.invariants`` checks continuity and demand conservation.

Planning stays regional: :meth:`plan_all` runs each region's solver
farm independently (embarrassingly parallel across regions; each farm
is itself partitioned and cached) and merges the results into a
:class:`FederatedPlan`; :meth:`resolve` re-plans only the regions a
demand change touched.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.controller import twopc
from repro.core.lp import LpObjective
from repro.core.model import Chain, NetworkModel
from repro.federation.regional import (
    RegionalSwitchboard,
    SegmentSpec,
    trivial_segment,
)
from repro.federation.shard import BorderLink, FederationError, build_shards
from repro.resilience.rpc import BackoffPolicy
from repro.scale.farm import FarmResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

_EPS = 1e-9
#: Install attempts (border choices) before a cross-shard chain fails.
MAX_ATTEMPTS = 3
#: Slack on the border-capacity contract.
_BORDER_TOL = 1e-6


class CoordinatorCrash(Exception):
    """Injected coordinator failure mid-install (fault testing)."""


@dataclass
class CrossChainRecord:
    """A committed cross-shard chain: its segments and crossings."""

    chain: Chain
    segments: tuple[SegmentSpec, ...]
    attempt: int


@dataclass
class FederatedPlan:
    """Merged outcome of per-region solves.

    Duck-types the ``status`` / ``objective`` / ``ok`` surface of
    :class:`~repro.core.lp.LpResult`; there is deliberately no merged
    ``RoutingSolution`` (regions route over disjoint sub-models), so
    federated accounting lives in ``carried_demand`` (cross-shard
    chains counted once, bottlenecked by their weakest segment) and
    ``violations`` (per-region LP invariants plus border ledger
    bounds).
    """

    status: str
    objective: float | None
    per_region: dict[int, FarmResult]
    wall_seconds: float
    carried_demand: float
    offered_demand: float
    violations: list[str] = field(default_factory=list)
    #: Regions actually re-solved on this call (resolve path).
    resolved_regions: tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == "optimal"

    @property
    def solution(self) -> None:
        return None


class GlobalCoordinator:
    """Two-level control plane: regional switchboards + thin global tier."""

    def __init__(
        self,
        model: NetworkModel,
        n_regions: int = 4,
        partition_size: int | None = 16,
        max_workers: int = 1,
        metrics: "MetricsRegistry | None" = None,
        fault_policy=None,
        shard_map=None,
        regionals: dict[int, RegionalSwitchboard] | None = None,
        retry_backoff: "BackoffPolicy | None" = None,
    ):
        # The farms solve serially; the keyword stays for callers that
        # still spell out ``max_workers=1``.
        if max_workers != 1:
            raise FederationError(f"max_workers must be 1, got {max_workers!r}")
        self.model = model
        self.metrics = metrics
        self.fault_policy = fault_policy
        # A standby coordinator shares the primary's shard map and
        # regional switchboards (the regions are the ground truth; only
        # the coordinator's *memory* of installed chains is per-node and
        # lost on a crash) -- pass both in to build a peer.
        self.shard_map = (
            shard_map if shard_map is not None else build_shards(
                model, n_regions
            )
        )
        if regionals is not None:
            self.regionals = regionals
        else:
            self.regionals = {}
            for shard in self.shard_map.shards:
                regional_model = self.shard_map.regional_model(
                    model, shard.region
                )
                self.regionals[shard.region] = RegionalSwitchboard(
                    region=shard.region,
                    model=regional_model,
                    owned_borders=[
                        self.shard_map.borders[b]
                        for b in shard.owned_borders
                    ],
                    partition_size=partition_size,
                    metrics=metrics,
                )
        #: Install-retry pacing: one deterministic backoff implementation
        #: shared with the RPC retransmit timer (resilience.rpc).  The
        #: synchronous install path retries in-line; the deployed
        #: CoordinatorNode paces its async retry rounds with this.
        self.retry_backoff = (
            retry_backoff if retry_backoff is not None
            else BackoffPolicy(name="fed-install")
        )
        #: Installed intra chains: name -> owning region.
        self._intra: dict[str, int] = {}
        #: Installed cross-shard chains: name -> record.
        self._cross: dict[str, CrossChainRecord] = {}
        #: The global 2PC fencing epoch: one counter for every install
        #: (regions fence across installs), first attempt 1.
        self._attempts = twopc.AttemptCounter(0)
        #: region -> (regional generation at solve time, result); reuse
        #: is only safe while the region's model is unchanged since.
        self._last_plans: dict[int, tuple[int, FarmResult]] = {}

    # -- install / remove -------------------------------------------------

    def submit(self, chain: Chain) -> int | CrossChainRecord:
        """Install one chain; returns the owning region (intra) or the
        cross-shard record.  The chain is registered in the federated
        model; a failed cross-shard install deregisters it again."""
        name = chain.name
        if name in self._intra or name in self._cross:
            raise FederationError(f"chain {name!r} is already installed")
        added = name not in self.model.chains
        if added:
            self.model.add_chain(chain)
        region = self._classify(chain)
        if region is not None:
            self.regionals[region].admit(chain)
            self._record_intra(name, region, chain)
            self._inc("federation.chains.intra")
            return region
        try:
            record = self._install_cross(chain)
        except (FederationError, CoordinatorCrash):
            if added and name in self.model.chains:
                self.model.remove_chain(name)
            raise
        self._inc("federation.chains.cross")
        return record

    def remove(self, name: str) -> None:
        """Tear down an installed chain (intra or cross-shard)."""
        if name in self._intra:
            region = self._intra.pop(name)
            self.regionals[region].evict(name)
        elif name in self._cross:
            record = self._cross.pop(name)
            for seg in record.segments:
                self.regionals[seg.region].teardown(seg.chain.name)
        else:
            raise FederationError(f"chain {name!r} is not installed")
        if name in self.model.chains:
            self.model.remove_chain(name)
        self._unrecord(name)

    # -- durable-record hooks (overridden by the deployed node) ------------

    def _record_intra(self, name: str, region: int, chain: Chain) -> None:
        self._intra[name] = region

    def _record_cross(self, record: CrossChainRecord) -> None:
        self._cross[record.chain.name] = record

    def _unrecord(self, name: str) -> None:
        """Called after a chain is removed (checkpoint cleanup hook)."""

    def installed(self) -> list[str]:
        return sorted(set(self._intra) | set(self._cross))

    def is_cross(self, name: str) -> bool:
        return name in self._cross

    def sweep(self) -> list[tuple[int, str]]:
        """Backstop GC: reclaim prepared-but-uncommitted segment residue
        abandoned by a crashed coordinator.  Call at quiescence."""
        released: list[tuple[int, str]] = []
        for region in sorted(self.regionals):
            for key in self.regionals[region].sweep():
                released.append((region, key))
        self._inc("federation.sweeps")
        if released:
            if self.metrics is not None:
                self.metrics.counter("federation.orphans_released").inc(
                    len(released)
                )
        return released

    # -- planning ---------------------------------------------------------

    def plan_all(
        self, objective: LpObjective = LpObjective.MAX_THROUGHPUT
    ) -> FederatedPlan:
        """Cold/warm plan: every region's farm solves independently."""
        start = time.perf_counter()
        per_region = {
            region: self.regionals[region].plan(objective)
            for region in sorted(self.regionals)
        }
        self._last_plans = {
            region: (self.regionals[region].generation, result)
            for region, result in per_region.items()
        }
        return self._merge(
            per_region,
            objective,
            time.perf_counter() - start,
            resolved=tuple(sorted(per_region)),
        )

    def resolve(
        self,
        model: NetworkModel,
        changed_chains: Iterable[str],
    ) -> FederatedPlan:
        """Incremental federated (throughput) re-plan after demand
        changes.

        Only regions hosting a changed chain (or a segment of one)
        re-solve -- and inside each, only the touched partitions, via
        the farm's own incremental path.  Untouched regions reuse their
        last result."""
        start = time.perf_counter()
        by_region: dict[int, set[str]] = {}
        for name in dict.fromkeys(changed_chains):  # caller order, not hash order
            chain = self.model.chains.get(name)
            if chain is None:
                raise FederationError(f"unknown chain {name!r}")
            if name in self._intra:
                region = self._refresh_intra(name, chain)
                by_region.setdefault(region, set()).add(name)
            elif name in self._cross:
                for seg in self._refresh_segments(name, chain):
                    if not trivial_segment(seg.chain):
                        by_region.setdefault(seg.region, set()).add(
                            seg.chain.name
                        )
            else:
                raise FederationError(f"chain {name!r} is not installed")
        per_region: dict[int, FarmResult] = {}
        for region in sorted(self.regionals):
            regional = self.regionals[region]
            changed = by_region.get(region)
            cached = self._last_plans.get(region)
            if changed:
                per_region[region] = regional.reoptimize(sorted(changed))
            elif cached is not None and cached[0] == regional.generation:
                per_region[region] = cached[1]
            else:
                # Model mutated since the cached plan (install/remove):
                # an empty incremental pass re-merges from the farm's
                # own solution cache, solving only actual misses.
                per_region[region] = regional.reoptimize([])
        self._last_plans = {
            region: (self.regionals[region].generation, result)
            for region, result in per_region.items()
        }
        return self._merge(
            per_region,
            LpObjective.MAX_THROUGHPUT,
            time.perf_counter() - start,
            resolved=tuple(sorted(by_region)),
        )

    # -- stitching / introspection ----------------------------------------

    def end_to_end_route(self, name: str) -> tuple[dict, ...]:
        """The stitched path: segments interleaved with border crossings."""
        if name in self._intra:
            return (
                {
                    "kind": "segment",
                    "region": self._intra[name],
                    "name": name,
                },
            )
        record = self._cross.get(name)
        if record is None:
            raise FederationError(f"chain {name!r} is not installed")
        hops: list[dict] = []
        for seg in record.segments:
            hops.append(
                {
                    "kind": "segment",
                    "region": seg.region,
                    "name": seg.chain.name,
                    "ingress": seg.chain.ingress,
                    "egress": seg.chain.egress,
                    "vnfs": seg.chain.vnfs,
                }
            )
            for link_name, demand in seg.border_demands:
                border = self.shard_map.borders[link_name]
                hops.append(
                    {
                        "kind": "border",
                        "name": link_name,
                        "src": border.src,
                        "dst": border.dst,
                        "src_region": border.src_region,
                        "dst_region": border.dst_region,
                        "demand": demand,
                    }
                )
        return tuple(hops)

    def border_utilization(self) -> dict[str, float]:
        """Reserved share of each border link's headroom."""
        utilization: dict[str, float] = {}
        for regional in self.regionals.values():
            for name, ledger in regional.ledgers.items():
                if ledger.capacity <= 0:
                    utilization[name] = float(
                        "inf" if ledger.reserved() > _EPS else 0.0
                    )
                else:
                    utilization[name] = ledger.reserved() / ledger.capacity
        return utilization

    def stats(self) -> dict:
        total = len(self._intra) + len(self._cross)
        return {
            "regions": self.shard_map.n_regions,
            "borders": len(self.shard_map.borders),
            "chains_intra": len(self._intra),
            "chains_cross": len(self._cross),
            "cross_shard_ratio": (len(self._cross) / total) if total else 0.0,
            "region_chains": {
                region: len(self.regionals[region].model.chains)
                for region in sorted(self.regionals)
            },
        }

    def sync_chains(self) -> dict[str, list[str]]:
        """Reconcile installed state against the shared full model."""
        want = set(self.model.chains)
        have = set(self._intra) | set(self._cross)
        removed = sorted(have - want)
        for name in removed:
            self.remove(name)
        added = sorted(want - have)
        for name in added:
            self.submit(self.model.chains[name])
        updated: list[str] = []
        for name in sorted(want & have):
            chain = self.model.chains[name]
            if name in self._intra:
                region = self._intra[name]
                if self.regionals[region].model.chains.get(name) is not chain:
                    self._refresh_intra(name, chain)
                    updated.append(name)
            else:
                if self._cross[name].chain is not chain:
                    self._refresh_segments(name, chain)
                    updated.append(name)
        return {"added": added, "removed": removed, "updated": updated}

    # -- internals ---------------------------------------------------------

    def _classify(self, chain: Chain) -> int | None:
        """Owning region when the chain is intra-shard, else ``None``."""
        ingress_region = self.shard_map.region_of(self.model, chain.ingress)
        egress_region = self.shard_map.region_of(self.model, chain.egress)
        if ingress_region != egress_region:
            return None
        regional = self.regionals[ingress_region]
        if all(vnf in regional.model.vnfs for vnf in chain.vnfs):
            return ingress_region
        return None

    def _assign_vnf_regions(self, chain: Chain) -> list[int]:
        """DP: per-VNF region assignment minimising border crossings
        along ingress-region -> r_1 -> ... -> r_L -> egress-region."""
        smap = self.shard_map
        ingress_region = smap.region_of(self.model, chain.ingress)
        egress_region = smap.region_of(self.model, chain.egress)
        candidates: list[list[int]] = []
        for vnf in chain.vnfs:
            options = sorted(
                region
                for region, regional in self.regionals.items()
                if vnf in regional.model.vnfs
            )
            if not options:
                raise FederationError(
                    f"chain {chain.name!r}: VNF {vnf!r} is deployed nowhere"
                )
            candidates.append(options)

        def crossings(a: int, b: int) -> int:
            return len(smap.region_path(a, b)) - 1

        # dp[r] = (cost, assignment-so-far ending in region r)
        dp: dict[int, tuple[int, tuple[int, ...]]] = {
            ingress_region: (0, ())
        }
        for options in candidates:
            nxt: dict[int, tuple[int, tuple[int, ...]]] = {}
            for region in options:
                best: tuple[int, tuple[int, ...]] | None = None
                for prev, (cost, path) in sorted(dp.items()):
                    total = cost + crossings(prev, region)
                    if best is None or total < best[0]:
                        best = (total, path + (region,))
                if best is not None:
                    nxt[region] = best
            if not nxt:
                raise FederationError(
                    f"chain {chain.name!r}: no reachable region for a VNF"
                )
            dp = nxt
        best: tuple[int, tuple[int, ...]] | None = None
        for region, (cost, path) in sorted(dp.items()):
            total = cost + crossings(region, egress_region)
            if best is None or total < best[0]:
                best = (total, path)
        assert best is not None
        return list(best[1])

    def _split(self, chain: Chain, choice: int) -> list[SegmentSpec]:
        """Cut a cross-shard chain into per-region segments.

        ``choice`` rotates the border pick between adjacent regions --
        the deterministic retry lever after a border-capacity
        rejection."""
        smap = self.shard_map
        ingress_region = smap.region_of(self.model, chain.ingress)
        egress_region = smap.region_of(self.model, chain.egress)
        assigned = self._assign_vnf_regions(chain)

        sequence: list[int] = [ingress_region]
        for region in [*assigned, egress_region]:
            sequence.extend(smap.region_path(sequence[-1], region)[1:])

        segment_vnfs: list[list[str]] = [[] for _ in sequence]
        pointer = 0
        for vnf, region in zip(chain.vnfs, assigned):
            while sequence[pointer] != region:
                pointer += 1
            segment_vnfs[pointer].append(vnf)

        crossings: list[BorderLink] = []
        for k in range(len(sequence) - 1):
            options = smap.borders_between(sequence[k], sequence[k + 1])
            if not options:  # pragma: no cover - region_path guarantees
                raise FederationError(
                    f"no border from region {sequence[k]} to {sequence[k + 1]}"
                )
            crossings.append(options[choice % len(options)])

        segments: list[SegmentSpec] = []
        stage_ptr = 1
        for k, region in enumerate(sequence):
            vnfs = segment_vnfs[k]
            forward = chain.forward_traffic[stage_ptr - 1 : stage_ptr + len(vnfs)]
            reverse = chain.reverse_traffic[stage_ptr - 1 : stage_ptr + len(vnfs)]
            ingress = chain.ingress if k == 0 else crossings[k - 1].dst
            egress = chain.egress if k == len(sequence) - 1 else crossings[k].src
            stage_ptr += len(vnfs)
            border_demands: tuple[tuple[str, float], ...] = ()
            if k < len(sequence) - 1:
                border_demands = (
                    (crossings[k].name, chain.stage_traffic(stage_ptr)),
                )
            segments.append(
                SegmentSpec(
                    origin=chain.name,
                    index=k,
                    region=region,
                    chain=Chain(
                        f"{chain.name}@s{k}",
                        ingress,
                        egress,
                        vnfs,
                        forward,
                        reverse,
                    ),
                    border_demands=border_demands,
                )
            )
        if stage_ptr != chain.num_stages:  # pragma: no cover - invariant
            raise FederationError(
                f"chain {chain.name!r}: stage accounting drift in split"
            )
        return segments

    def _install_cross(self, chain: Chain) -> CrossChainRecord:
        """2PC across every region the split touches: the direct-call
        driver of :class:`repro.controller.twopc.Install`, one prepare at
        a time in segment order; each attempt re-splits with the next
        border choice."""
        install = twopc.Install(
            MAX_ATTEMPTS, fan_out=False, attempts=self._attempts
        )
        while True:
            segments = self._split(chain, choice=install.attempt_no)
            verdict, _key, attempt = self._two_phase_commit(
                install, chain.name, segments
            )
            if verdict == twopc.INSTALLED:
                self._inc("federation.2pc.commits")
                record = CrossChainRecord(chain, tuple(segments), attempt)
                self._record_cross(record)
                return record
            self._inc("federation.2pc.aborts")
            if verdict == twopc.REJECTED:
                raise FederationError(
                    f"install of {chain.name!r} exhausted "
                    f"{MAX_ATTEMPTS} attempts"
                )

    def _two_phase_commit(
        self, install: "twopc.Install", name: str, segments: list[SegmentSpec]
    ) -> tuple:
        """One attempt against the regional switchboards.
        :class:`FaultPolicy` injection wraps each prepare call, consuming
        its seeded RNG once per prepare as before."""
        attempt_no = install.attempt_no
        policy = self.fault_policy
        by_key = {seg.chain.name: seg for seg in segments}
        prepared = 0

        def prepare(key: str, attempt: int) -> bool:
            nonlocal prepared
            seg = by_key[key]
            self._inc("federation.2pc.prepares")
            if (
                policy is not None
                and policy.reject_prepare(name, seg.region, attempt_no)
            ) or not self.regionals[seg.region].prepare(seg, attempt):
                self._inc("federation.2pc.rejections")
                return False
            prepared += 1
            if policy is not None:
                crash_after = policy.crash_after_prepares(name, attempt_no)
                if crash_after is not None and prepared >= crash_after:
                    # Crash mid-install: prepared residue stays behind
                    # (fenced by its attempt epoch) until sweep().
                    raise CoordinatorCrash(name)
            return True

        return twopc.run_attempt(
            install,
            by_key,
            prepare,
            commit=lambda k, a: self.regionals[by_key[k].region].commit(k, a),
            abort=lambda k, a: self.regionals[by_key[k].region].abort(k, a),
        )

    def _refresh_intra(self, name: str, chain: Chain) -> int:
        """Push an intra-shard chain's new demands into its region and
        re-record it; returns the region."""
        region = self._intra[name]
        self.regionals[region].update_demand(chain)
        self._record_intra(name, region, chain)
        return region

    def _refresh_segments(
        self, name: str, chain: Chain
    ) -> tuple[SegmentSpec, ...]:
        """Push new demands into a committed chain's segments (structure
        and border choices are kept; only demand slices change) and
        re-record it."""
        record = self._cross[name]
        stage_ptr = 1
        refreshed: list[SegmentSpec] = []
        for seg in record.segments:
            n_vnfs = len(seg.chain.vnfs)
            forward = chain.forward_traffic[stage_ptr - 1 : stage_ptr + n_vnfs]
            reverse = chain.reverse_traffic[stage_ptr - 1 : stage_ptr + n_vnfs]
            stage_ptr += n_vnfs
            border_demands = tuple(
                (link_name, chain.stage_traffic(stage_ptr))
                for link_name, _old in seg.border_demands
            )
            refreshed.append(
                SegmentSpec(
                    origin=name,
                    index=seg.index,
                    region=seg.region,
                    chain=Chain(
                        seg.chain.name,
                        seg.chain.ingress,
                        seg.chain.egress,
                        seg.chain.vnfs,
                        forward,
                        reverse,
                    ),
                    border_demands=border_demands,
                )
            )
        # Validate every border resize up front so the refresh is atomic
        # across segments (no partial demand push on failure).
        for seg in refreshed:
            for link_name, amount in seg.border_demands:
                ledger = self.regionals[seg.region].ledgers[link_name]
                if not ledger.fits_update(seg.chain.name, amount):
                    raise FederationError(
                        f"chain {name!r}: border {link_name!r} cannot fit "
                        f"the new demand of {seg.chain.name!r}"
                    )
        for seg in refreshed:
            self.regionals[seg.region].update_segment(seg)
        record.chain = chain
        record.segments = tuple(refreshed)
        self._record_cross(record)
        return record.segments

    def _merge(
        self,
        per_region: dict[int, FarmResult],
        objective: LpObjective,
        wall_seconds: float,
        resolved: tuple[int, ...],
    ) -> FederatedPlan:
        status = "optimal"
        for result in per_region.values():
            if not result.ok:
                status = result.status
                break
        objectives = [
            r.objective for r in per_region.values() if r.objective is not None
        ]
        if not objectives:
            merged_objective = None
        elif objective is LpObjective.MIN_MLU:
            merged_objective = max(objectives)
        else:
            merged_objective = sum(objectives)

        carried = 0.0
        offered = 0.0
        for name, region in self._intra.items():
            chain = self.model.chains[name]
            demand = chain.stage_traffic(1)
            offered += demand
            solution = per_region[region].solution
            if solution is not None:
                carried += solution.routed_fraction(name) * demand
        for name, record in self._cross.items():
            demand = record.chain.stage_traffic(1)
            offered += demand
            fraction = 1.0
            for seg in record.segments:
                if trivial_segment(seg.chain):
                    continue
                solution = per_region[seg.region].solution
                if solution is None:
                    fraction = 0.0
                    break
                fraction = min(
                    fraction, solution.routed_fraction(seg.chain.name)
                )
            carried += fraction * demand

        # A region's flows were certified where they were solved; the
        # multi-pass reference runs (and words the findings) only where
        # the certificates do not clear the region's capacities outright.
        violations: list[str] = []
        for region in sorted(per_region):
            result = per_region[region]
            solution = result.solution
            if solution is None or (
                result.certificate is not None
                and result.certificate.clears(solution.model.substrate_columns())
            ):
                continue
            violations.extend(
                f"region {region}: {problem}" for problem in solution.violations()
            )
        violations.extend(self.border_violations())
        return FederatedPlan(
            status=status,
            objective=merged_objective,
            per_region=per_region,
            wall_seconds=wall_seconds,
            carried_demand=carried,
            offered_demand=offered,
            violations=violations,
            resolved_regions=resolved,
        )

    def border_violations(self) -> list[str]:
        """Border-capacity contract: reservations within link headroom."""
        problems: list[str] = []
        for region in sorted(self.regionals):
            for name, ledger in sorted(self.regionals[region].ledgers.items()):
                reserved = ledger.reserved()
                if reserved > ledger.capacity + _BORDER_TOL:
                    problems.append(
                        f"border {name!r} (region {region}) over-reserved: "
                        f"{reserved:.6g} > {ledger.capacity:.6g}"
                    )
        return problems

    def _inc(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()
