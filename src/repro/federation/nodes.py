"""Deployed federation processes: coordinator and regional nodes.

``federation.coordinator`` installs cross-shard chains with *in-process*
calls into the regional switchboards; that is the right model for
benchmarks but useless for fault tolerance -- a partition cannot block
a Python method call.  This module deploys the same protocol onto the
simulated network:

- :class:`CoordinatorNode` subclasses
  :class:`~repro.federation.GlobalCoordinator` (so classification,
  splitting, planning, and the invariant probes work unchanged) but
  drives the shared 2PC core (:mod:`repro.controller.twopc`)
  **asynchronously over the at-least-once RPC transport**
  (:mod:`repro.resilience.rpc`): sequential prepares,
  a durable install-record flip at the decide point, commits that may go unacked
  into a partition, per-install :mod:`repro.resilience.deadline`
  timeouts, and install retries paced by the shared
  :class:`~repro.resilience.rpc.BackoffPolicy`.  A standby node shares
  the primary's shard map and regional switchboards; on takeover it
  :meth:`recovers <CoordinatorNode.recover>` from the
  :class:`~repro.federation.ha.FederationStore` checkpoints and
  install log.

- :class:`RegionalNode` is one region's deployed front end: it
  classifies submissions locally and **keeps admitting intra-region
  chains even when partitioned from every coordinator** (degraded-mode
  autonomy), while cross-shard requests queue and re-forward with
  seeded backoff until a coordinator answers.  It serves the 2PC
  participant ops (prepare/commit/abort/release) over RPC against its
  :class:`~repro.federation.regional.RegionalSwitchboard`, and applies
  the coordinator-driven **reconciliation** op that re-syncs committed
  segments, border ledgers, and intra chains after a partition heals
  or the region restarts.

All timers run on the simulated clock with seeded randomness, so a
chaos soak over these nodes replays byte-identically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.controller import twopc
from repro.core.model import Chain, NetworkModel
from repro.core.serialization import chain_from_dict, chain_to_dict
from repro.federation.coordinator import CrossChainRecord, GlobalCoordinator
from repro.federation.ha import FederationStore, segment_doc, segment_from_doc
from repro.federation.regional import RegionalSwitchboard, SegmentSpec
from repro.resilience.deadline import DeadlineManager
from repro.resilience.rpc import BackoffPolicy, RpcLayer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.federation.shard import ShardMap
    from repro.obs.registry import MetricsRegistry


class _Install:
    """One in-flight cross-shard install at the coordinator."""

    __slots__ = ("chain", "origin", "added", "machine", "segments")

    def __init__(self, chain: Chain, origin: int, added: bool, machine):
        self.chain = chain
        self.origin = origin
        #: Whether this install added the chain to the shared model
        #: (failure must deregister it again).
        self.added = added
        #: The 2PC state machine (:class:`repro.controller.twopc.Install`).
        self.machine = machine
        #: The current attempt's plan, keyed by segment name.
        self.segments: dict[str, SegmentSpec] = {}


class CoordinatorNode(GlobalCoordinator):
    """A deployed global coordinator: the sync protocol, made async,
    durable, and partition-tolerant."""

    def __init__(
        self,
        name: str,
        host: str,
        rpc: RpcLayer,
        store: FederationStore,
        model: NetworkModel,
        region_hosts: dict[int, str],
        *,
        shard_map: "ShardMap | None" = None,
        regionals: dict[int, RegionalSwitchboard] | None = None,
        n_regions: int = 4,
        partition_size: int | None = 16,
        max_attempts: int = 3,
        metrics: "MetricsRegistry | None" = None,
        retry_backoff: BackoffPolicy | None = None,
        install_deadline_s: float = 10.0,
    ):
        super().__init__(
            model,
            n_regions=n_regions,
            partition_size=partition_size,
            max_attempts=max_attempts,
            metrics=metrics,
            shard_map=shard_map,
            regionals=regionals,
            retry_backoff=retry_backoff,
        )
        self.name = name
        self.host = host
        self.rpc = rpc
        self.net = rpc.network
        self.sim = rpc.sim
        self.store = store
        self.region_hosts = dict(region_hosts)
        self.install_deadline_s = install_deadline_s
        self.deadlines = DeadlineManager(self.sim)
        self.endpoint = rpc.endpoint(host, self._handle)
        #: Only the lease holder acts; FederationFailover flips this.
        self.active = False
        self._req = 0
        self._waiting: dict[int, Callable[[dict], None]] = {}
        self._installs: dict[str, _Install] = {}
        #: Chains decided (committed) whose commit did not reach every
        #: region: origin name -> regions still owed the commit.  The
        #: install record stays until reconciliation settles them.
        self._unacked: dict[str, set[int]] = {}
        # Recovery accounting (surfaced in reports).
        self.aborted_recoveries = 0
        self.recovered_commits = 0
        self.reconciliations = 0

    # -- lifecycle ---------------------------------------------------------

    def activate(self, recover: bool) -> None:
        self.active = True
        if recover:
            self.recover()

    def deactivate(self) -> None:
        self.active = False

    def is_up(self) -> bool:
        return self.net.host_is_up(self.host)

    def in_flight(self) -> set[str]:
        """Origin chain names whose install state is legitimately
        transient (probes exclude them)."""
        return set(self._installs) | set(self._unacked)

    # -- durable-record hooks ---------------------------------------------

    def _record_intra(self, name: str, region: int, chain: Chain) -> None:
        super()._record_intra(name, region, chain)
        self.store.checkpoint_intra(name, region, chain)

    def _record_cross(self, record: CrossChainRecord) -> None:
        super()._record_cross(record)
        self.store.checkpoint_cross(record)
        self.store.checkpoint_ledgers(self._cross)

    def _unrecord(self, name: str) -> None:
        self.store.remove_chain(name)
        self.store.checkpoint_ledgers(self._cross)

    # -- message plumbing --------------------------------------------------

    def _handle(self, sender: str, message: Any) -> None:
        if not isinstance(message, dict) or "fed" not in message:
            return
        if not self.is_up():
            return
        kind = message["fed"]
        if kind == "reply":
            callback = self._waiting.pop(message["req"], None)
            if callback is not None and self.active:
                callback(message)
            return
        if not self.active:
            return  # a deactivated standby ignores protocol traffic
        if kind == "submit":
            self._remote_submit(
                chain_from_dict(message["chain"]), message["origin"]
            )
        elif kind == "notify_intra":
            self._remote_intra(
                chain_from_dict(message["chain"]), message["region"]
            )
        elif kind == "resync":
            self.reconcile_region(message["region"])

    def _request(
        self,
        region: int,
        payload: dict,
        on_reply: Callable[[dict], None],
        on_unreachable: Callable[[], None],
    ) -> None:
        self._req += 1
        rid = self._req
        self._waiting[rid] = on_reply

        def failed(_dst: str, _payload: Any) -> None:
            if self._waiting.pop(rid, None) is not None:
                on_unreachable()

        self.endpoint.send(
            self.region_hosts[region], dict(payload, req=rid),
            on_failure=failed,
        )

    def _notify(self, region: int, payload: dict) -> None:
        """Fire-and-forget (still at-least-once; give-up is silent --
        reconciliation is the backstop)."""
        self.endpoint.send(self.region_hosts[region], payload)

    def _send_outcome(self, origin: int, name: str, outcome: str) -> None:
        self._notify(
            origin, {"fed": "outcome", "name": name, "outcome": outcome}
        )

    # -- the async install driver -------------------------------------------
    #
    # The protocol itself is repro.controller.twopc.Install.  This driver
    # plans each attempt (_split), carries the machine's actions out as
    # requests over the at-least-once RPC layer (one prepare at a time),
    # feeds replies and give-ups back in as events, and owns the durable
    # records (install log, checkpoints) and timers (deadline, retry backoff).
    # Every event passes the deposed-coordinator guards first: a node
    # that is crashed, deactivated, or no longer owns the install must
    # not move it.

    def _remote_submit(self, chain: Chain, origin: int) -> None:
        name = chain.name
        if name in self._intra or name in self._cross:
            self._send_outcome(origin, name, "installed")
            return
        if name in self._installs:
            return  # duplicate of an in-flight request
        added = name not in self.model.chains
        if added:
            self.model.add_chain(chain)
        st = _Install(
            chain, origin, added,
            twopc.Install(
                self.max_attempts, fan_out=False, attempts=self._attempts
            ),
        )
        self._installs[name] = st
        self.deadlines.arm(
            f"fed:{name}", self.install_deadline_s, self._on_deadline
        )
        self._start_round(st)

    def _current(self, st: _Install) -> bool:
        return (
            self.active
            and self.is_up()
            and self._installs.get(st.chain.name) is st
        )

    def _start_round(self, st: _Install) -> None:
        if not self._current(st):
            return  # deposed while the retry backoff elapsed
        try:
            segments = self._split(st.chain, choice=st.machine.attempt_no)
        except Exception:
            self._finish(st, "rejected")
            return
        st.segments = {seg.chain.name: seg for seg in segments}
        actions = st.machine.start(st.segments)
        self.store.log.note_attempt(st.machine.attempt)
        self._log(st, twopc.PREPARING)
        self._perform(st, actions)

    def _log(self, st: _Install, phase: str) -> None:
        self.store.log.put(
            st.chain.name,
            phase,
            {key: segment_doc(seg) for key, seg in st.segments.items()},
            st.machine.attempt,
            st.origin,
        )

    def _perform(self, st: _Install, actions) -> None:
        name = st.chain.name
        for kind, arg, attempt in actions:
            if kind in (twopc.PREPARE, twopc.COMMIT, twopc.ABORT):
                for key in arg:
                    self._send(st, kind, key, attempt)
            elif kind == twopc.DECIDE:
                # The 2PC commit point: the install record and the
                # durable chain record land before any commit leaves.
                self._log(st, twopc.COMMITTING)
                self._record_cross(
                    CrossChainRecord(
                        st.chain, tuple(st.segments.values()), attempt
                    )
                )
                self._inc("federation.2pc.commits")
                self._inc("federation.chains.cross")
            elif kind == twopc.OWED:
                # Decided installs are installed regardless of unacked
                # commits: the commit is owed, and the install record
                # stays until reconciliation settles it.
                self._unacked.setdefault(name, set()).add(
                    st.segments[arg].region
                )
            elif kind == twopc.RETRY:
                self.sim.schedule(
                    self.retry_backoff.delay(st.machine.attempt_no),
                    self._start_round,
                    st,
                )
            elif kind == twopc.INSTALLED:
                if name not in self._unacked:
                    self.store.log.clear(name)
                self._finish(st, "installed", clear_log=False)
            else:
                # The remaining verdicts, "rejected" and "unavailable",
                # are the outcome names the origin region understands.
                self._finish(st, kind)

    def _send(self, st: _Install, kind: str, key: str, attempt: int) -> None:
        """One protocol message to the region of segment ``key``; its
        answer, or the transport giving up (``ok=None``), goes back into
        the machine -- past the deposed-coordinator guards."""
        seg = st.segments[key]
        payload = {"fed": kind, "key": key, "attempt": attempt}
        if kind == twopc.PREPARE:
            self._inc("federation.2pc.prepares")
            payload = {"fed": kind, "seg": segment_doc(seg), "attempt": attempt}

        def answered(ok: bool | None) -> None:
            if kind == twopc.PREPARE:
                if not self._current(st):
                    return
            elif kind == twopc.ABORT or self._installs.get(st.chain.name) is not st:
                return
            if ok is None:
                actions = st.machine.unreachable(key, attempt)
            else:
                # A region answers a commit ``not ok`` when it lost its
                # prepared entry (e.g. it restarted mid-install);
                # reconciliation re-adopts the segment.
                actions = st.machine.reply(kind, key, attempt, ok)
            if kind == twopc.PREPARE and actions and not ok:
                if ok is not None:
                    self._inc("federation.2pc.rejections")
                self._inc("federation.2pc.aborts")
            self._perform(st, actions)

        self._request(
            seg.region,
            payload,
            on_reply=lambda msg: answered(bool(msg.get("ok"))),
            on_unreachable=lambda: answered(None),
        )

    def _on_deadline(self, key: str) -> None:
        if not self.active or not self.is_up():
            # Fenced off (crashed or deposed) mid-install: the timer
            # must not touch the shared log or model -- settling the
            # round is the new leader's job now.
            return
        st = self._installs.get(key.split(":", 1)[1])
        if st is not None:
            # Decided: remaining acks are owed, not optional.  Still
            # undecided: drop the round and let the origin re-queue.
            self._perform(st, st.machine.timeout())

    def _finish(
        self, st: _Install, outcome: str, clear_log: bool = True
    ) -> None:
        name = st.chain.name
        self._installs.pop(name, None)
        self.deadlines.disarm(f"fed:{name}")
        # Drop any still-outstanding retransmits of this install's
        # protocol messages: the epoch fences make late copies no-ops.
        self.endpoint.cancel_matching(
            lambda payload: isinstance(payload, dict)
            and payload.get("fed") in ("prepare", "abort")
            and (
                payload.get("key", "").startswith(f"{name}@")
                or payload.get("seg", {}).get("origin") == name
            )
        )
        if clear_log:
            self.store.log.clear(name)
        if outcome != "installed":
            if st.added and name in self.model.chains:
                self.model.remove_chain(name)
        self._send_outcome(st.origin, name, outcome)

    # -- remote intra admissions ------------------------------------------

    def _remote_intra(self, chain: Chain, region: int) -> None:
        name = chain.name
        if name in self._intra or name in self._cross:
            return
        if name not in self.model.chains:
            self.model.add_chain(chain)
        self._record_intra(name, region, chain)
        self._inc("federation.chains.intra")

    # -- recovery and reconciliation ---------------------------------------

    def recover(self) -> None:
        """Standby takeover: restore the checkpoints, carry out
        :func:`twopc.recover` over the install log, then reconcile every
        region against the durable record."""
        intra, cross = self.store.restore()
        log = self.store.log
        # The synchronous install path checkpoints cross-shard chains
        # without raising the high water.
        high_water = max([log.high_water(), *(r.attempt for r in cross.values())])
        actions, resume = twopc.recover(log.pending(), high_water)
        # Resume the attempt counter above every epoch the previous
        # coordinator fenced with, so this node's new rounds are never
        # rejected as stale by the regions' epoch fences.
        self._attempts.last = max(self._attempts.last, resume)
        for name, (region, chain) in sorted(intra.items()):
            self._intra.setdefault(name, region)
            if name not in self.model.chains:
                self.model.add_chain(chain)
        for name, record in sorted(cross.items()):
            self._cross.setdefault(name, record)
            if name not in self.model.chains:
                self.model.add_chain(record.chain)
        for kind, name, record in actions:
            segments = record["participants"]
            if kind == twopc.RELEASE:
                # ``release`` drops whatever the regions hold without
                # tombstoning, so the origin's queued retry can
                # re-install the chain.
                self.aborted_recoveries += 1
                for key, seg in segments.items():
                    self._notify(seg["region"], {"fed": "release", "key": key})
                if (
                    name not in self._cross
                    and name not in self._intra
                    and name in self.model.chains
                ):
                    self.model.remove_chain(name)
                log.clear(name)
            else:
                # Re-drive the idempotent commits and let reconciliation
                # settle whatever stays unreachable.
                self.recovered_commits += 1
                self._unacked.setdefault(name, set()).update(
                    seg["region"] for seg in segments.values()
                )
                for key, seg in segments.items():
                    self._notify(
                        seg["region"],
                        {"fed": "commit", "key": key, "attempt": record["attempt"]},
                    )
                self._send_outcome(record["origin"], name, "installed")
        self.reconcile_all()

    def reconcile_all(self) -> None:
        for region in sorted(self.regionals):
            self.reconcile_region(region)

    def reconcile_region(self, region: int) -> None:
        """Push the authoritative state for one region: committed
        segments (with attempts), intra chains, and the keep-set of
        in-flight segments.  The region adopts/releases to match and
        reports intra chains it admitted in degraded mode."""
        committed = []
        covered: set[str] = set()
        for name in sorted(self._cross):
            record = self._cross[name]
            for seg in record.segments:
                if seg.region == region:
                    covered.add(name)
                    committed.append(
                        {
                            "seg": segment_doc(seg),
                            "attempt": record.attempt,
                        }
                    )
        intra_docs = [
            chain_to_dict(self.model.chains[name])
            for name in sorted(self._intra)
            if self._intra[name] == region
            and name in self.model.chains
        ]
        keep = sorted(
            seg.chain.name
            for st in self._installs.values()
            for seg in st.segments.values()
            if seg.region == region
        )
        self._request(
            region,
            {
                "fed": "reconcile",
                "committed": committed,
                "intra": intra_docs,
                "keep": keep,
                # Snapshot version: the region must not tear down or
                # release state from rounds fenced *after* this point
                # (a reconcile in flight races with live installs).
                "upto": self._attempts.last,
            },
            on_reply=lambda msg: self._on_reconciled(region, covered, msg),
            on_unreachable=lambda: None,
        )

    def _on_reconciled(
        self, region: int, covered: set[str], msg: dict
    ) -> None:
        self.reconciliations += 1
        for doc in msg.get("extra_intra", ()):
            chain = chain_from_dict(doc)
            if chain.name in self._intra or chain.name in self._cross:
                continue
            if chain.name not in self.model.chains:
                self.model.add_chain(chain)
            self._record_intra(chain.name, region, chain)
            self._inc("federation.chains.intra")
        # Commits owed to this region are settled -- but only for the
        # chains this reconcile actually pushed (a stale snapshot must
        # not vouch for commits it never carried).
        for name in sorted(self._unacked):
            if name not in covered:
                continue
            owed = self._unacked[name]
            owed.discard(region)
            if not owed:
                del self._unacked[name]
                self.store.log.clear(name)


class RegionalNode:
    """One region's deployed front end: local admission, cross-shard
    queueing, the 2PC participant surface, and reconciliation."""

    def __init__(
        self,
        region: int,
        host: str,
        rpc: RpcLayer,
        regional: RegionalSwitchboard,
        model: NetworkModel,
        shard_map: "ShardMap",
        coordinator_hosts: list[str],
        *,
        backoff: BackoffPolicy | None = None,
        retry_until: float = float("inf"),
        seed: int = 0,
    ):
        self.region = region
        self.host = host
        self.rpc = rpc
        self.net = rpc.network
        self.sim = rpc.sim
        self.regional = regional
        self.model = model
        self.shard_map = shard_map
        self.coordinator_hosts = list(coordinator_hosts)
        self.backoff = backoff or BackoffPolicy(
            seed=seed, name=f"fed-region-{region}"
        )
        #: Sim-clock horizon after which retry timers stop re-arming,
        #: so a drain run terminates.
        self.retry_until = retry_until
        self.endpoint = rpc.endpoint(host, self._handle)
        #: Every chain ever submitted at this node (the client log).
        self.submitted: dict[str, Chain] = {}
        #: name -> "installed" | "rejected".
        self.outcomes: dict[str, str] = {}
        #: Cross-shard chains awaiting a terminal outcome, FIFO.
        self.queue: list[str] = []
        self.queued_peak = 0
        self.degraded_admissions = 0
        self._degraded: set[str] = set()
        self._tries: dict[str, int] = {}
        self._coord_idx = 0
        #: Set after a restart wiped the switchboard; cleared once a
        #: reconcile lands.  Probes skip the region while set.
        self.needs_resync = False

    # -- submissions -------------------------------------------------------

    def submit(self, chain: Chain) -> None:
        """Admit locally (intra) or queue for the coordinator (cross)."""
        name = chain.name
        if name in self.submitted:
            return
        self.submitted[name] = chain
        if self._is_intra(chain):
            self._admit_intra(chain)
        else:
            self.queue.append(name)
            self.queued_peak = max(self.queued_peak, len(self.queue))
            self._forward(name)

    def queued(self) -> list[str]:
        return list(self.queue)

    def _is_intra(self, chain: Chain) -> bool:
        if (
            self.shard_map.region_of(self.model, chain.ingress)
            != self.region
            or self.shard_map.region_of(self.model, chain.egress)
            != self.region
        ):
            return False
        return all(vnf in self.regional.model.vnfs for vnf in chain.vnfs)

    def _admit_intra(self, chain: Chain) -> None:
        """Degraded-mode autonomy: intra admission never waits for a
        coordinator; the notification is asynchronous and survives
        partitions by retrying."""
        self.regional.adopt_intra(chain)
        self.outcomes[chain.name] = "installed"
        self._notify_intra(chain.name)

    def _notify_intra(self, name: str) -> None:
        if not self.net.host_is_up(self.host):
            return
        chain = self.submitted[name]

        def failed(_dst: str, _payload: Any) -> None:
            if name not in self._degraded:
                self._degraded.add(name)
                self.degraded_admissions += 1
            self._rotate_coordinator()
            self._rearm(f"intra:{name}", self._notify_intra, name)

        self.endpoint.send(
            self._coordinator_host(),
            {
                "fed": "notify_intra",
                "region": self.region,
                "chain": chain_to_dict(chain),
            },
            on_failure=failed,
        )

    def _forward(self, name: str) -> None:
        if name not in self.queue or not self.net.host_is_up(self.host):
            return
        chain = self.submitted[name]

        def failed(_dst: str, _payload: Any) -> None:
            self._rotate_coordinator()
            self._rearm(f"fwd:{name}", self._forward, name)

        self.endpoint.send(
            self._coordinator_host(),
            {
                "fed": "submit",
                "origin": self.region,
                "chain": chain_to_dict(chain),
            },
            on_failure=failed,
        )

    def _rearm(self, key: str, fn: Callable, *args: Any) -> None:
        """Seeded-backoff retry, bounded by the drain horizon."""
        tries = self._tries.get(key, 0)
        self._tries[key] = tries + 1
        if self.sim.now < self.retry_until:
            self.sim.schedule(self.backoff.delay(min(tries, 6)), fn, *args)

    def _coordinator_host(self) -> str:
        return self.coordinator_hosts[
            self._coord_idx % len(self.coordinator_hosts)
        ]

    def _rotate_coordinator(self) -> None:
        self._coord_idx += 1

    # -- restart -----------------------------------------------------------

    def restart(self) -> None:
        """The region's control process restarted: volatile switchboard
        state is gone; ask the coordinator for a full resync and start
        re-forwarding the queue."""
        self.regional.reset()
        self.needs_resync = True
        self._tries.clear()
        self._request_resync()
        for name in self.queue:
            self._forward(name)

    def _request_resync(self) -> None:
        if not self.needs_resync or not self.net.host_is_up(self.host):
            return

        def failed(_dst: str, _payload: Any) -> None:
            self._rotate_coordinator()
            self._rearm("resync", self._request_resync)

        self.endpoint.send(
            self._coordinator_host(),
            {"fed": "resync", "region": self.region},
            on_failure=failed,
        )

    # -- inbound protocol ---------------------------------------------------

    def _handle(self, sender: str, message: Any) -> None:
        if not isinstance(message, dict) or "fed" not in message:
            return
        if sender in self.coordinator_hosts:
            # Every protocol message comes from the acting coordinator:
            # learn it, so queued re-forwards go to the live one instead
            # of burning the retry budget on a crashed primary.
            self._coord_idx = self.coordinator_hosts.index(sender)
        kind = message["fed"]
        if kind == "prepare":
            seg = segment_from_doc(message["seg"])
            ok = self.regional.prepare(seg, message["attempt"])
            self._reply(sender, message, ok)
        elif kind == "commit":
            ok = self.regional.commit(message["key"], message["attempt"])
            self._reply(sender, message, ok)
        elif kind == "abort":
            ok = self.regional.abort(message["key"], message["attempt"])
            self._reply(sender, message, ok)
        elif kind == "release":
            self.regional.release(message["key"])
        elif kind == "reconcile":
            self._apply_reconcile(sender, message)
        elif kind == "outcome":
            self._on_outcome(message["name"], message["outcome"])

    def _reply(self, sender: str, message: dict, ok: bool, **extra: Any) -> None:
        if "req" not in message:
            # Fire-and-forget op (e.g. a commit re-driven from the log
            # during recovery): nobody is waiting on the answer.
            return
        self.endpoint.send(
            sender, {"fed": "reply", "req": message["req"], "ok": ok, **extra}
        )

    def _on_outcome(self, name: str, outcome: str) -> None:
        if name not in self.submitted:
            return
        if outcome == "unavailable":
            # The coordinator dropped the round (deadline/partition):
            # stay queued and try again later.
            if name in self.queue:
                self._rearm(f"fwd:{name}", self._forward, name)
            return
        self.outcomes[name] = outcome
        if name in self.queue:
            self.queue.remove(name)

    def _apply_reconcile(self, sender: str, message: dict) -> None:
        """Adopt the coordinator's authoritative state: committed
        segments and their ledger entries, intra chains, and the
        keep-set of live prepares; report degraded-mode admissions the
        coordinator has not recorded."""
        upto = message.get("upto", 1 << 62)
        keep = set(message["keep"])
        want: dict[str, tuple[SegmentSpec, int]] = {}
        for entry in message["committed"]:
            seg = segment_from_doc(entry["seg"])
            want[seg.chain.name] = (seg, entry["attempt"])
        for key in list(self.regional.committed_segments()):
            # Leave alone rounds fenced after the snapshot (epoch >
            # upto) *and* rounds the snapshot itself marked in flight
            # (keep): either can legitimately commit while this
            # reconcile is in transit.
            if (
                key not in want
                and key not in keep
                and self.regional.epoch_of(key) <= upto
            ):
                self.regional.teardown(key)
        for key in sorted(want):
            seg, attempt = want[key]
            self.regional.adopt_segment(seg, attempt)
        for key in list(self.regional.prepared_segments()):
            if key not in keep and self.regional.epoch_of(key) <= upto:
                self.regional.release(key)
        pushed = set()
        for doc in message["intra"]:
            chain = chain_from_dict(doc)
            pushed.add(chain.name)
            self.regional.adopt_intra(chain)
        if self.needs_resync:
            # Re-admit intra chains this node installed (client log)
            # that the restart wiped and the coordinator never learned
            # about (degraded-mode admissions lost mid-notify).
            for name, outcome in sorted(self.outcomes.items()):
                if outcome != "installed" or name in pushed:
                    continue
                chain = self.submitted[name]
                if self._is_intra(chain):
                    self.regional.adopt_intra(chain)
            self.needs_resync = False
        extra_intra = [
            chain_to_dict(self.submitted[name])
            for name in self.regional.intra_chains()
            if name not in pushed and name in self.submitted
        ]
        self._reply(sender, message, True, extra_intra=extra_intra)
        # The coordinator is clearly reachable: kick the queue.
        for name in self.queue:
            self._forward(name)
