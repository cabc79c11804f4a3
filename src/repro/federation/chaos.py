"""The federated chaos soak: real faults against the deployed stack.

``federation/soak.py`` injects faults by *scripted hook* (a policy
object telling the sync coordinator to reject or crash); this module
injects them into the *network*.  It deploys the full partition-tolerant
federation onto one simulated network -- a primary + standby
:class:`~repro.federation.nodes.CoordinatorNode` over the quorum store
and leader lease (:class:`~repro.federation.ha.FederationFailover`),
one :class:`~repro.federation.nodes.RegionalNode` per shard -- then
plays a seeded :class:`~repro.chaos.scenario.Scenario` of link flaps,
a coordinator<->region partition, a regional process restart, and a
coordinator crash against it while the unified
:func:`~repro.federation.invariants.federation_probes` registry runs on
the :class:`~repro.chaos.invariants.InvariantChecker` cadence.  It runs
on the harness of :mod:`repro.chaos.runner`: its engine extends
:class:`~repro.chaos.runner.FaultEngine`, its report
:class:`~repro.chaos.runner.SoakDoc`, and :func:`run_federation_chaos`
probes through :func:`~repro.chaos.runner.probe_run` and
:func:`~repro.chaos.runner.record_final`.

Everything derives from one integer seed -- the PoP-grid workload, the
submission times, the fault schedule, the RPC jitter, and the retry
backoffs -- so ``run_federation_chaos(config)`` twice with the same
config produces byte-identical :meth:`FederationChaosReport.to_json`
output (asserted by the tests and the CI smoke step).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar

from repro.chaos.invariants import LeaseMonitor, lease_safety, link_conservation
from repro.chaos.runner import FaultEngine, SoakDoc, probe_run, record_final
from repro.chaos.scenario import (
    FLAP_DOWN_S, FaultEvent, Scenario, check_duration, check_failover_fits,
)
from repro.controller.replication import ReplicatedStore
from repro.core.model import Chain, NetworkModel
from repro.federation.ha import FederationFailover, FederationStore
from repro.federation.invariants import federation_probes
from repro.federation.nodes import CoordinatorNode, RegionalNode
from repro.federation.shard import FederationError
from repro.resilience.rpc import BackoffPolicy, RpcConfig, RpcLayer
from repro.scale.partition import check_partition_size
from repro.simnet.events import Simulator
from repro.simnet.network import LinkSpec, SimNetwork
from repro.topology.pops import PopGridConfig, generate_federation_workload

#: Share of the chains installed before the clock starts.
_BASE_FRACTION = 0.5
#: How long the partition isolates its region, and how long the
#: restarted region stays down.
_PARTITION_S = 8.0
_REGION_DOWN_S = 2.0
#: Shares of the run the coordinator crash falls between.
COORDINATOR_CRASH_WINDOW = (0.25, 0.45)

#: Coordinator hosts, in failover priority order, on the core site.
COORDINATOR_HOSTS = ("fed.primary", "fed.standby")


@dataclass(frozen=True)
class FederationChaosConfig:
    """Knobs of one federated chaos run; everything derives from
    ``seed``.

    The workload is a generated clustered PoP grid
    (:func:`~repro.topology.pops.generate_federation_workload`); half
    of its chains are installed synchronously before the clock starts
    (the standing population the faults disturb), the rest arrive live
    at the regional nodes mid-run.  ``locality``
    controls how many submissions are cross-shard.
    """

    seed: int = 1
    duration_s: float = 40.0
    pops: int = 18
    regions: int = 3
    chains: int = 36
    locality: float = 0.6
    partition_size: int | None = 8
    # Fault mix.
    link_flaps: int = 2
    partition: bool = True
    coordinator_crash: bool = True
    region_restart: bool = True
    # Control-plane timing.
    lease_duration_s: float = 2.0
    check_interval_s: float = 0.5
    install_deadline_s: float = 6.0

    def __post_init__(self) -> None:
        check_duration(self.duration_s)
        self.grid()
        check_partition_size(self.partition_size)
        if self.coordinator_crash:
            failover_s = self.lease_duration_s + self.check_interval_s
            check_failover_fits(self.duration_s, COORDINATOR_CRASH_WINDOW[1], failover_s)

    def grid(self) -> PopGridConfig:
        """The PoP grid (its config checks the counts and the locality)."""
        return PopGridConfig(
            num_pops=self.pops, num_metros=self.regions, num_chains=self.chains,
            locality=self.locality, seed=self.seed,
        )


@dataclass
class FederationDeployment:
    """Handles the engine, the probes, and the tests need."""

    sim: Simulator
    net: SimNetwork
    model: NetworkModel
    store: ReplicatedStore
    monitor: LeaseMonitor
    rpc: RpcLayer
    fed_store: FederationStore
    primary: CoordinatorNode
    standby: CoordinatorNode
    failover: FederationFailover
    region_nodes: dict[int, RegionalNode]
    base_chains: list[Chain] = field(default_factory=list)
    live_chains: list[Chain] = field(default_factory=list)
    base_installed: int = 0

    @property
    def coordinators(self) -> tuple[CoordinatorNode, CoordinatorNode]:
        return (self.primary, self.standby)

    def active_coordinator(self) -> CoordinatorNode | None:
        """The acting coordinator, or ``None`` mid-failover."""
        node = self.failover.active
        if node.active and node.is_up():
            return node
        return None

    def skip_regions(self) -> set[int]:
        """Regions whose ground truth is legitimately stale: host down
        or restarted-and-not-yet-resynced."""
        return {
            region
            for region, node in self.region_nodes.items()
            if not self.net.host_is_up(node.host) or node.needs_resync
        }

    def in_flight(self) -> set[str]:
        flight: set[str] = set()
        for node in self.coordinators:
            flight |= node.in_flight()
        return flight


def build_federation_deployment(
    config: FederationChaosConfig,
) -> FederationDeployment:
    """One seeded federated deployment with its base population
    installed (sim clock still at zero)."""
    model, _metro_of = generate_federation_workload(config.grid())
    chains = [model.chains[name] for name in sorted(model.chains)]
    for chain in chains:
        model.remove_chain(chain.name)

    sim = Simulator()
    net = SimNetwork(sim)
    net.set_fault_rng(random.Random(f"fed-loss-{config.seed}"))

    for host in COORDINATOR_HOSTS:
        net.add_host(host, site="core")
    region_hosts = {r: f"region.{r}" for r in range(config.regions)}
    for region, host in region_hosts.items():
        net.add_host(host, site=f"region-{region}")
    net.connect(*COORDINATOR_HOSTS, LinkSpec(delay_s=0.005))
    for host in region_hosts.values():
        for coord in COORDINATOR_HOSTS:
            net.connect(coord, host, LinkSpec(delay_s=0.02))

    # The quorum store's replicas live on the core site (the MUSIC
    # deployment): coordinator<->region partitions never cost quorum.
    store = ReplicatedStore([f"fedstore.{i}" for i in range(3)])
    monitor = LeaseMonitor(store)
    fed_store = FederationStore(store)
    rpc = RpcLayer(net, RpcConfig(), seed=config.seed)

    primary = CoordinatorNode(
        COORDINATOR_HOSTS[0],
        COORDINATOR_HOSTS[0],
        rpc,
        fed_store,
        model,
        region_hosts,
        n_regions=config.regions,
        partition_size=config.partition_size,
        retry_backoff=BackoffPolicy(seed=config.seed, name="fed-install"),
        install_deadline_s=config.install_deadline_s,
    )
    standby = CoordinatorNode(
        COORDINATOR_HOSTS[1],
        COORDINATOR_HOSTS[1],
        rpc,
        fed_store,
        model,
        region_hosts,
        shard_map=primary.shard_map,
        regionals=primary.regionals,
        partition_size=config.partition_size,
        retry_backoff=BackoffPolicy(
            seed=config.seed, name="fed-install-standby"
        ),
        install_deadline_s=config.install_deadline_s,
    )
    failover = FederationFailover(
        {node.name: node for node in (primary, standby)},
        store,
        net,
        monitor=monitor,
        lease_duration_s=config.lease_duration_s,
        check_interval_s=config.check_interval_s,
    )

    region_nodes = {
        region: RegionalNode(
            region,
            host,
            rpc,
            primary.regionals[region],
            model,
            primary.shard_map,
            list(COORDINATOR_HOSTS),
            retry_until=config.duration_s,
            seed=config.seed,
        )
        for region, host in region_hosts.items()
    }

    deployment = FederationDeployment(
        sim=sim,
        net=net,
        model=model,
        store=store,
        monitor=monitor,
        rpc=rpc,
        fed_store=fed_store,
        primary=primary,
        standby=standby,
        failover=failover,
        region_nodes=region_nodes,
    )

    # Base population: installed synchronously (in-process protocol)
    # before the clock starts, durably checkpointed via the record
    # hooks -- exactly the state a takeover must be able to rebuild.
    split = max(1, int(len(chains) * _BASE_FRACTION))
    deployment.base_chains = chains[:split]
    deployment.live_chains = chains[split:]
    for chain in deployment.base_chains:
        try:
            primary.submit(chain)
            deployment.base_installed += 1
        except FederationError:
            continue  # infeasible under the border budget: skip
    return deployment


def generate_federation_scenario(
    config: FederationChaosConfig,
) -> Scenario:
    """The seeded fault schedule for one run.

    Link flaps hit coordinator<->region control links; the partition
    isolates one region's host from everything else (its intra traffic
    is unaffected -- the regional switchboard is local state); the
    region restart crashes a regional host and restarts its control
    process (volatile state loss); the coordinator crash kills the
    active coordinator for good (only failover brings the role back).
    Events never target the same chain twice by construction -- the
    schedule is pure network/process faults, so the tombstone-on-
    teardown semantics of removed chains is never in play.
    """
    rng = random.Random(f"fed-chaos-{config.seed}")
    duration = config.duration_s
    lo, hi = 0.1 * duration, 0.9 * duration
    region_hosts = [f"region.{r}" for r in range(config.regions)]
    pairs = [
        (coord, host)
        for coord in COORDINATOR_HOSTS
        for host in region_hosts
    ]
    events: list[FaultEvent] = []

    def window(length: float) -> tuple[float, float]:
        start = rng.uniform(lo, max(lo, hi - length))
        return start, min(start + length, hi)

    for _ in range(config.link_flaps):
        pair = rng.choice(pairs)
        start, end = window(FLAP_DOWN_S)
        events.append(FaultEvent(start, "link_down", tuple(pair)))
        events.append(FaultEvent(end, "link_up", tuple(pair)))

    if config.partition:
        isolated = rng.choice(region_hosts)
        rest = tuple(
            sorted(
                h for h in (*COORDINATOR_HOSTS, *region_hosts)
                if h != isolated
            )
        )
        start, end = window(_PARTITION_S)
        events.append(
            FaultEvent(start, "partition", ((isolated,), rest))
        )
        events.append(FaultEvent(end, "heal_partition"))

    if config.coordinator_crash:
        first, last = COORDINATOR_CRASH_WINDOW
        at = rng.uniform(first * duration, last * duration)
        events.append(FaultEvent(at, "gs_crash", (COORDINATOR_HOSTS[0],)))

    if config.region_restart:
        host = rng.choice(region_hosts)
        start, end = window(_REGION_DOWN_S)
        events.append(FaultEvent(start, "crash_host", (host,)))
        events.append(FaultEvent(end, "restart_host", (host,)))

    return Scenario(seed=config.seed, duration_s=duration, events=events)


class FederationChaosEngine(FaultEngine):
    """The federation's engine: host-group partitions, the coordinator
    crash, and the recovery work a heal (reconciliation) and a regional
    restart (volatile state loss) start."""

    def __init__(self, deployment: FederationDeployment):
        super().__init__(deployment)
        self.coordinator_crashes = 0
        self.region_restarts = 0
        self.crash_at: float | None = None

    def _on_partition(self, event: FaultEvent) -> None:
        self.d.net.partition([list(group) for group in event.target])

    def _on_heal_partition(self, event: FaultEvent) -> None:
        super()._on_heal_partition(event)
        # Heal-time reconciliation: the acting coordinator re-syncs
        # every region against the durable record (releasing orphaned
        # prepares, settling unacked commits, collecting degraded-mode
        # intra admissions); the reconcile replies kick the regions'
        # cross-shard queues.
        active = self.d.active_coordinator()
        if active is not None:
            active.reconcile_all()

    def _on_gs_crash(self, event: FaultEvent) -> None:
        self.coordinator_crashes += 1
        self.crash_at = self.d.sim.now
        self.d.failover.crash_active()

    def _on_restart_host(self, event: FaultEvent) -> None:
        super()._on_restart_host(event)
        for node in self.d.region_nodes.values():
            if node.host == event.target[0]:
                self.region_restarts += 1
                node.restart()

    HANDLERS = {
        **FaultEngine.HANDLERS,
        "partition": _on_partition,
        "heal_partition": _on_heal_partition,
        "gs_crash": _on_gs_crash,
        "restart_host": _on_restart_host,
    }


def _start_live_workload(
    d: FederationDeployment, config: FederationChaosConfig
) -> None:
    """Live submissions arrive at the ingress region's node in
    [0.05, 0.55] x duration -- early enough that every install resolves
    (or queues behind a fault and drains on heal) within the run."""
    rng = random.Random(f"fed-live-{config.seed}")
    lo, hi = 0.05 * config.duration_s, 0.55 * config.duration_s
    for chain in d.live_chains:
        region = d.primary.shard_map.region_of(d.model, chain.ingress)
        d.sim.schedule_at(
            rng.uniform(lo, hi), d.region_nodes[region].submit, chain
        )


@dataclass
class FederationChaosReport(SoakDoc):
    """Outcome of one federated chaos run; deterministic per seed."""

    HEADLINE: ClassVar[str] = (
        "federated chaos soak: seed={seed} duration={duration_s:g}s "
        "regions={regions}"
    )

    regions: int
    base_installed: int
    live_submitted: int
    outcomes: dict[str, int]
    installed_total: int
    queued: dict[str, int]
    degraded_admissions: int
    failover: dict
    reconciliations: int
    region_restarts: int
    rpc: dict[str, int]

    def _lines(self) -> list[str]:
        lines = [
            f"workload: {self.base_installed} base installed, "
            f"{self.live_submitted} live submitted -> outcomes "
            + ", ".join(
                f"{k}={v}" for k, v in sorted(self.outcomes.items())
            ),
            f"cross-shard queue: peak {self.queued['peak']}, "
            f"final {self.queued['final']}",
            f"degraded-mode intra admissions: {self.degraded_admissions}",
        ]
        f = self.failover
        if f["coordinator_crashes"]:
            recovery = "n/a" if f["recovery_s"] is None else f"{f['recovery_s']:.3f}s"
            lines.append(
                f"failover: {f['coordinator_crashes']} crash(es), "
                f"{f['takeovers']} takeover(s), recovery {recovery}; "
                f"WAL settle: {f['aborted_recoveries']} aborted, "
                f"{f['recovered_commits']} re-driven"
            )
        rpc = self.rpc
        lines += [
            f"reconciliations: {self.reconciliations}, "
            f"region restarts: {self.region_restarts}",
            f"rpc: {rpc['sent']} sent / {rpc['retries']} retries / "
            f"{rpc['timeouts']} timeouts / "
            f"{rpc['duplicates']} dups suppressed",
        ]
        return lines


def run_federation_chaos(
    config: FederationChaosConfig | None = None,
    deployment: FederationDeployment | None = None,
) -> FederationChaosReport:
    """Run one seeded federated chaos soak end to end: the fault
    schedule is generated from ``config.seed``.  ``deployment`` is
    ``build_federation_deployment(config)`` if the caller built it first.
    """
    config = config or FederationChaosConfig()
    d = deployment or build_federation_deployment(config)
    scenario = generate_federation_scenario(config)
    engine = FederationChaosEngine(d)
    engine.schedule(scenario)
    d.failover.start(config.duration_s)
    _start_live_workload(d, config)

    def probes(**final) -> dict:
        return federation_probes(
            d.active_coordinator,
            in_flight=d.in_flight,
            skip_regions=d.skip_regions,
            nodes=d.coordinators,
            net=d.net,
            region_nodes=list(d.region_nodes.values()),
            **final,
        )

    checker = probe_run(
        d,
        config,
        {
            "link_conservation": link_conservation(d.net),
            "lease_safety": lease_safety(d.monitor),
        },
        probes(),
    )

    # Final settle: the acting coordinator reconciles once more (all
    # faults healed except the crashed primary, which stays down) and
    # the regions re-drive whatever is still queued; then drain again.
    active = d.active_coordinator()
    if active is not None:
        active.reconcile_all()
    for node in d.region_nodes.values():
        if node.needs_resync:
            node._request_resync()
        for name in node.queued():
            node._forward(name)
    d.net.run()
    # Final probes: everything, now also quiescence, drained queues,
    # and no lingering network traffic.
    record_final(checker, d.net, probes(quiescent=True, final=True))

    recovery_s = None
    if engine.crash_at is not None:
        after = [t for t in d.failover.takeover_times if t >= engine.crash_at]
        if after:
            recovery_s = round(after[0] - engine.crash_at, 9)
    active = d.active_coordinator()
    regions = d.region_nodes.values()
    outcomes = Counter(o for node in regions for o in node.outcomes.values())
    return FederationChaosReport.of(
        config, scenario, engine, checker,
        regions=config.regions,
        base_installed=d.base_installed,
        live_submitted=len(d.live_chains),
        outcomes=dict(sorted(outcomes.items())),
        installed_total=len(active.installed()) if active is not None else 0,
        queued={
            "peak": sum(node.queued_peak for node in regions),
            "final": sum(len(node.queued()) for node in regions),
        },
        degraded_admissions=sum(node.degraded_admissions for node in regions),
        failover={
            "coordinator_crashes": engine.coordinator_crashes,
            "takeovers": d.failover.takeovers,
            "recovery_s": recovery_s,
            "aborted_recoveries": sum(n.aborted_recoveries for n in d.coordinators),
            "recovered_commits": sum(n.recovered_commits for n in d.coordinators),
        },
        reconciliations=sum(node.reconciliations for node in d.coordinators),
        region_restarts=engine.region_restarts,
        rpc={
            "sent": d.rpc.sent,
            "retries": d.rpc.retries,
            "timeouts": d.rpc.timeouts,
            "duplicates": d.rpc.duplicates_suppressed,
        },
    )
