"""Command-line interface: quick experiments without writing a script.

Usage::

    python -m repro topology [--cities N]
    python -m repro route [--chains N] [--coverage C] [--scheme all|dp|lp|anycast|compute-aware]
    python -m repro cache [--shared/--siloed both by default]
    python -m repro bus [--rate HZ] [--sites N]
    python -m repro timing
    python -m repro metrics [--publishes N] [--rate HZ] [--json]
    python -m repro federation [--pops N] [--chains N] [--regions K] [--soak OPS]
    python -m repro chaos [--seed N] [--duration S] [--json] [--out [FILE]]
    python -m repro fuzz [--seed N] [--cases N] [--budget S] [--plant] [--out [FILE]]
"""

from __future__ import annotations

import argparse
import sys
import time


def _default_out(out: "str | None", command: str, seed: int) -> "str | None":
    """A bare ``--out`` as ``<command>-report-seed<seed>.json`` (two
    seeds in one directory never collide); a path is used verbatim."""
    if out == "auto":
        return f"{command}-report-seed{seed}.json"
    return out


def _write_out(path: "str | None", text: str) -> None:
    """Write ``text`` and a newline to ``path`` (an ``--out`` file);
    nothing without a path."""
    if path:
        with open(path, "w") as handle:
            handle.write(text + "\n")


def _positive(kind):
    """An argparse ``type`` that parses with ``kind`` and rejects
    values that are not > 0 (argparse turns the error into exit 2)."""

    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value

    parse.__name__ = f"positive {kind.__name__}"
    return parse


def _cities(count: int):
    """The first ``count`` default cities: ``--cities`` slices a list,
    a count outside it is the CLI's to refuse."""
    from repro.core.errors import ReproError
    from repro.topology.cities import DEFAULT_CITIES

    if not 0 <= count <= len(DEFAULT_CITIES):
        raise ReproError(f"--cities must be in [0, {len(DEFAULT_CITIES)}], got {count}")
    return DEFAULT_CITIES[:count]


def _build_topology(args: argparse.Namespace):
    from repro.topology import build_backbone

    return build_backbone(_cities(args.cities))


def _cmd_topology(args: argparse.Namespace, backbone) -> int:
    lat = [v for v in backbone.latency.values() if v > 0]
    print(f"PoPs           : {len(backbone.nodes)}")
    print(f"directed links : {len(backbone.links)}")
    print(f"one-way delay  : {min(lat):.1f} - {max(lat):.1f} ms")
    tiers = sorted({link.bandwidth for link in backbone.links})
    print(f"link tiers     : {', '.join(f'{t:g}' for t in tiers)} Gbps")
    hub = max(backbone.graph, key=lambda n: len(backbone.graph[n]))
    print(f"highest degree : {hub} ({len(backbone.graph[hub])})")
    return 0


def _build_route(args: argparse.Namespace):
    from repro.topology import WorkloadConfig, build_backbone, generate_workload

    cities = _cities(args.cities)
    config = WorkloadConfig(
        num_chains=args.chains,
        num_vnfs=args.vnfs,
        coverage=args.coverage,
        total_traffic=args.traffic,
        site_capacity=args.site_capacity,
        cities=cities,
        seed=args.seed,
    )
    return generate_workload(config, build_backbone(cities))


def _cmd_route(args: argparse.Namespace, model) -> int:
    from repro.core.baselines import (
        route_anycast,
        route_compute_aware,
        scale_to_capacity,
    )
    from repro.core.dp import route_chains_dp
    from repro.core.lp import LpObjective, solve_chain_routing_lp

    offered = model.total_demand()
    print(f"workload: {len(model.chains)} chains, {offered:.0f} units offered")

    def report(name: str, solution, seconds: float) -> None:
        print(
            f"{name:<14} carried {solution.throughput():8.1f} "
            f"({solution.throughput() / offered:5.1%})  "
            f"latency {solution.mean_latency():6.1f} ms  "
            f"[{seconds:.2f}s]"
        )

    scheme = args.scheme
    if scheme in ("all", "dp"):
        start = time.perf_counter()
        dp = route_chains_dp(model)
        report("SB-DP", dp.solution, time.perf_counter() - start)
    if scheme in ("all", "lp"):
        start = time.perf_counter()
        lp = solve_chain_routing_lp(model, LpObjective.MAX_THROUGHPUT)
        if not lp.ok:
            print(f"SB-LP          {lp.status}")
        else:
            report("SB-LP", lp.solution, time.perf_counter() - start)
    if scheme in ("all", "anycast"):
        start = time.perf_counter()
        solution = scale_to_capacity(route_anycast(model))
        report("ANYCAST", solution, time.perf_counter() - start)
    if scheme in ("all", "compute-aware"):
        start = time.perf_counter()
        solution = scale_to_capacity(route_compute_aware(model))
        report("COMPUTE-AWARE", solution, time.perf_counter() - start)
    return 0


def _build_cache(args: argparse.Namespace):
    """The request streams of the shared run, then the siloed run's."""
    from repro.vnf.cache import LruCache, chain_workloads

    # The shared run's cache, which refuses a negative size (a siloed
    # cache is no larger).
    LruCache(args.cache_objects)
    return [
        chain_workloads(
            num_chains=args.chains,
            catalog_objects=args.catalog,
            popularity_spread=args.spread,
        )
        for _ in range(2)
    ]


def _cmd_cache(args: argparse.Namespace, workloads) -> int:
    from repro.vnf.cache import run_cache_experiment

    for shared, streams in zip((True, False), workloads):
        result = run_cache_experiment(
            streams,
            shared=shared,
            total_cache_objects=args.cache_objects,
        )
        print(
            f"{result.scheme:>7}: hit rate {result.hit_rate:6.2%}, "
            f"mean download {result.mean_download_ms:6.2f} ms "
            f"({result.requests} requests)"
        )
    return 0


def _build_bus(args: argparse.Namespace):
    """The bus and the full-mesh baseline, subscribed and loaded."""
    from repro.bus import Topic, make_bus, make_full_mesh_bus

    sites = [f"S{i}" for i in range(args.sites)]
    topic = Topic("c1", "e1", "G", "S0", "instances")
    buses = []
    for make in (make_bus, make_full_mesh_bus):
        bus = make(sites, wan_delay_s=0.025, uplink_bps=8e6, uplink_buffer_bytes=400_000)
        bus.attach("pub", "S0")
        for site in sites[1:]:
            for j in range(args.subscribers):
                name = f"sub-{site}-{j}"
                bus.attach(name, site)
                bus.subscribe(name, topic)
        for i in range(args.publishes):
            bus.network.sim.schedule(i / args.rate, bus.publish, "pub", topic, i)
        buses.append(bus)
    return buses


def _cmd_bus(args: argparse.Namespace, buses) -> int:
    for bus in buses:
        bus.network.run()
    proxy, mesh = (bus.stats for bus in buses)
    for name, stats in (("bus", proxy), ("broadcast", mesh)):
        print(
            f"{name:>9}: delivered {stats.delivered:6d}, "
            f"drops {stats.wan_drops:5d}, "
            f"mean latency {stats.mean_latency() * 1e3:7.1f} ms"
        )
    if mesh.delivered:
        print(
            f"bus advantage: {mesh.mean_latency() / proxy.mean_latency():.1f}x "
            f"latency, +{100 * (proxy.delivered / mesh.delivered - 1):.0f}% "
            f"delivery"
        )
    return 0


def _build_timing(args: argparse.Namespace):
    from repro.controller.timing import ControlPlaneLatencies

    return ControlPlaneLatencies()


def _cmd_timing(args: argparse.Namespace, latencies) -> int:
    from repro.controller.timing import (
        simulate_chain_route_update,
        simulate_edge_site_addition,
    )

    update = simulate_chain_route_update(latencies)
    print(f"chain route update: {update.total_s * 1e3:.0f} ms total")
    for m in update.milestones:
        print(f"  {m.operation:<45} {m.duration_s * 1e3:5.0f} ms")
    addition = simulate_edge_site_addition(latencies)
    print(f"\nedge site addition: {addition.summed_durations_s * 1e3:.0f} ms "
          f"(sum of operations)")
    for m in addition.milestones:
        print(f"  {m.operation:<48} {m.duration_s * 1e3:5.0f} ms")
    return 0


def _build_metrics(args: argparse.Namespace):
    """The three-site bus, on a simulator the metrics registry reads."""
    from repro.bus import make_bus
    from repro.obs import MetricsRegistry
    from repro.simnet.events import Simulator
    from repro.simnet.network import SimNetwork

    sim = Simulator()
    registry = MetricsRegistry.for_simulator(sim)
    return make_bus(
        ["A", "B", "C"],
        wan_delay_s=0.030,
        uplink_bps=args.uplink_bps,
        uplink_buffer_bytes=args.buffer_bytes,
        network=SimNetwork(sim, metrics=registry),
        metrics=registry,
    )


def _cmd_metrics(args: argparse.Namespace, bus) -> int:
    """Run an instrumented end-to-end experiment and print the report.

    Three phases share one simulator and one registry: a bus-driven
    chain installation (2PC stage timings), a pub/sub load phase that
    overloads site A's WAN uplink (queueing-delay histograms and
    WAN-drop counters), and one run of each solver (``solver.*`` /
    ``lp.*`` counters).
    """
    import random

    from repro.bus import Topic
    from repro.controller import (
        ChainSpecification,
        GlobalSwitchboard,
        LocalSwitchboard,
    )
    from repro.controller.protocol import BusDrivenInstaller
    from repro.core.dp import route_chains_dp
    from repro.core.lp import LpObjective, solve_chain_routing_lp
    from repro.core.model import CloudSite, NetworkModel, VNF
    from repro.dataplane import DataPlane, FiveTuple, Packet
    from repro.edge import EdgeController, EdgeInstance
    from repro.obs import (
        collect_bus,
        collect_dataplane,
        collect_federation,
        collect_network,
        collect_resilience,
        registry_to_json,
        render_report,
    )
    from repro.vnf import VnfService

    sites, net, sim, registry = bus.sites, bus.network, bus.network.sim, bus.metrics

    # Phase 1: install a chain through the bus-driven 2PC protocol.
    model = NetworkModel(
        ["a", "b", "c"],
        {("a", "b"): 10.0, ("a", "c"): 30.0, ("b", "c"): 15.0},
        [CloudSite(s, s.lower(), 100.0) for s in sites],
        [VNF("fw", 1.0, {"B": 40.0})],
    )
    dp = DataPlane(random.Random(0))
    gs = GlobalSwitchboard(model, dp, metrics=registry)
    for site in sites:
        gs.register_local_switchboard(LocalSwitchboard(site, dp))
    gs.register_vnf_service(VnfService("fw", 1.0, {"B": 40.0}))
    edge = EdgeController("vpn")
    ingress = EdgeInstance("edge.A", "A", dp)
    edge.register_instance(ingress)
    egress = EdgeInstance("edge.C", "C", dp)
    edge.register_instance(egress)
    edge.register_attachment("in", "A")
    edge.register_attachment("out", "C")
    gs.register_edge_service(edge)
    egress.attach_forwarder(gs.local_switchboard("C").forwarders[0].name)
    installer = BusDrivenInstaller(
        gs,
        bus,
        gs_site="A",
        edge_controller_site="A",
        vnf_controller_sites={"fw": "B"},
        metrics=registry,
    )
    timeline = installer.install(
        ChainSpecification(
            "corp", "vpn", "in", "out", ["fw"],
            forward_demand=5.0,
            src_prefix="10.0.0.0/24",
            dst_prefixes=["20.0.0.0/24"],
        )
    )
    net.run()
    if timeline.failed is not None:
        print(f"chain installation failed: {timeline.failed}", file=sys.stderr)
        return 1
    # A few connections through the installed chain: exercises the
    # forwarders' flow tables (misses on first packet, hits after).
    for i in range(4):
        flow = FiveTuple("10.0.0.5", "20.0.0.9", "tcp", 40_000 + i, 80)
        for _ in range(3):
            ingress.ingress(Packet(flow))

    # Phase 2: saturate A's uplink with pub/sub fan-out.  Two WAN
    # copies per publish (sites B and C) at the default rate offer
    # 2 * 8 kbit * rate = 16 Mbps against an 8 Mbps uplink: the queue
    # builds, then the buffer overflows and the proxy starts dropping.
    topic = Topic("load", "C", "L", "A", "instances")
    bus.attach("load.pub", "A")
    for site in ("B", "C"):
        for j in range(args.subscribers):
            name = f"load.sub-{site}-{j}"
            bus.attach(name, site)
            bus.subscribe(name, topic)
    for i in range(args.publishes):
        sim.schedule(i / args.rate, bus.publish, "load.pub", topic, {"seq": i})
    net.run()

    # Phase 3: one run of each solver against the registry.
    route_chains_dp(model, metrics=registry)
    solve_chain_routing_lp(model, LpObjective.MAX_THROUGHPUT, metrics=registry)

    # Phase 4: federated resilience micro-drill.  A tiny two-region
    # partition-tolerant deployment takes one coordinator crash while
    # live chains arrive at the regional front ends, so the report also
    # carries the federation resilience gauges: failovers, ledger
    # reconciliations, degraded-mode admissions, cross-shard queue
    # depth.
    from repro.federation import FederationChaosConfig
    from repro.federation.chaos import build_federation_deployment

    fed_config = FederationChaosConfig(
        seed=2,
        duration_s=12.0,
        pops=8,
        regions=2,
        chains=12,
        link_flaps=0,
        partition=False,
        region_restart=False,
        lease_duration_s=1.0,
        install_deadline_s=3.0,
    )
    fed = build_federation_deployment(fed_config)
    fed.failover.start(until=fed_config.duration_s)
    fed_rng = random.Random("metrics-fed")
    for chain in fed.live_chains:
        region = fed.primary.shard_map.region_of(fed.model, chain.ingress)
        fed.sim.schedule_at(
            fed_rng.uniform(0.5, 4.0), fed.region_nodes[region].submit, chain
        )
    fed.sim.schedule(2.0, fed.failover.crash_active)
    fed.net.run(until=fed_config.duration_s)
    fed.net.run()
    collect_federation(
        registry,
        fed.failover.active,
        failover=fed.failover,
        nodes=fed.region_nodes.values(),
    )

    collect_network(registry, net)
    collect_bus(registry, bus)
    collect_dataplane(registry, dp)
    collect_resilience(registry, installer)
    if args.json:
        print(registry_to_json(registry))
    else:
        print(render_report(registry, title="repro metrics: bus experiment"))
    return 0


def _build_federation(args: argparse.Namespace):
    """The chaos soak's config and deployment, or the workload's
    coordinator and the seconds the workload and the coordinator took
    to build."""
    from repro.federation import FaultPolicy, FederationChaosConfig, GlobalCoordinator
    from repro.federation.chaos import build_federation_deployment
    from repro.obs import MetricsRegistry
    from repro.topology.pops import PopGridConfig, generate_federation_workload

    if args.chaos_soak:
        config = FederationChaosConfig(
            seed=args.seed,
            duration_s=args.duration,
            pops=args.pops,
            regions=args.regions,
            chains=args.chains,
            locality=args.locality,
            partition_size=args.partition_size,
        )
        return config, build_federation_deployment(config)
    policy = FaultPolicy(args.seed, args.reject_rate, args.crash_rate)
    start = time.perf_counter()
    model, _metro_of = generate_federation_workload(PopGridConfig(
        num_pops=args.pops,
        num_metros=args.metros or args.regions,
        num_chains=args.chains,
        locality=args.locality,
        seed=args.seed,
    ))
    generate_s = time.perf_counter() - start
    start = time.perf_counter()
    coordinator = GlobalCoordinator(
        model,
        n_regions=args.regions,
        partition_size=args.partition_size,
        metrics=MetricsRegistry(),
        fault_policy=policy if args.soak else None,
    )
    return coordinator, generate_s, time.perf_counter() - start


def _cmd_federation(args: argparse.Namespace, inputs) -> int:
    """Federated two-level control plane on a generated PoP topology.

    Builds the clustered PoP workload, cuts it into regions, installs
    every chain through the :class:`GlobalCoordinator` (cross-shard
    chains via split + 2PC), then times a cold federated plan and an
    incremental re-plan (``bench_federation_scale`` compares it with
    the monolithic farm).  ``--soak N`` runs the seeded
    fault-injection soak instead; ``--chaos-soak`` runs the full
    partition-tolerant deployment (coordinator failover, durable
    ledgers, degraded-mode regions) against a seeded schedule of real
    link, partition, and crash faults.  Exit code 1 on any invariant
    violation.
    """
    import json
    import random

    from repro.core.lp import LpObjective
    from repro.federation import check_all, run_federation_chaos
    from repro.federation.soak import FederatedOps, install_base
    from repro.federation.soak import run_soak as run_federation_soak
    from repro.obs import collect_federation, registry_to_dict

    args.out = _default_out(args.out, "federation", args.seed)
    if args.chaos_soak:
        config, deployment = inputs
        report = run_federation_chaos(config, deployment=deployment)
        print(report.to_json() if args.json else report.render())
        _write_out(args.out, report.to_json())
        return 0 if report.passed else 1

    coordinator, generate_s, build_s = inputs
    model, registry = coordinator.model, coordinator.metrics
    print(
        f"workload: {args.pops} PoPs, {len(model.chains)} chains, "
        f"{model.total_demand():.0f} units offered "
        f"({generate_s:.1f}s to generate)"
    )
    stats = coordinator.stats()
    print(
        f"federation: {stats['regions']} regions, {stats['borders']} border "
        f"links ({build_s:.1f}s to build)"
    )

    # The soak installs the first 70 % in generation order and draws
    # its submits from the rest; the plain run installs every chain in
    # name order, as ``sync_chains`` would.
    chains = list(model.chains.values())
    if not args.soak:
        chains.sort(key=lambda chain: chain.name)
    for chain in chains:
        model.remove_chain(chain.name)
    split = max(1, int(len(chains) * 0.7)) if args.soak else len(chains)
    start = time.perf_counter()
    installed = install_base(coordinator, chains[:split])
    install_s = time.perf_counter() - start

    if args.soak:
        print(f"soak base: {installed}/{split} chains installed")
        report = run_federation_soak(
            model, coordinator, chains[split:], ops=args.soak, seed=args.seed
        )
        collect_federation(registry, coordinator)
        report["metrics"] = registry_to_dict(registry)
        doc = json.dumps(report, indent=1, sort_keys=True)
        if args.json:
            print(doc)
        else:
            print(
                f"soak: {report['ops']} ops, counts {report['counts']}, "
                f"final {report['final_status']} "
                f"({report['final_carried']:.0f}/"
                f"{report['final_offered']:.0f} carried)"
            )
            for violation in report["violations"][:10]:
                print(f"  VIOLATION [{violation['op']}] {violation['problem']}")
        _write_out(args.out, doc)
        return 0 if report["ok"] else 1

    stats = coordinator.stats()
    print(
        f"installed: {installed}/{split} chains in {install_s:.1f}s "
        f"({stats['chains_cross']} cross-shard, "
        f"{stats['cross_shard_ratio']:.1%})"
    )

    start = time.perf_counter()
    cold = coordinator.plan_all(LpObjective.MAX_THROUGHPUT)
    cold_s = time.perf_counter() - start
    print(
        f"federated cold:  {cold_s:7.2f}s  carried "
        f"{cold.carried_demand:9.1f}/{cold.offered_demand:.1f}  "
        f"status {cold.status}"
    )

    rng = random.Random(args.seed)
    changed = rng.sample(sorted(model.chains), min(8, len(model.chains)))
    start = time.perf_counter()
    incr = FederatedOps(model, coordinator).redemand(
        {name: 1.25 for name in changed}
    )
    incr_s = time.perf_counter() - start
    if incr is None:
        print(
            f"federated incr:  {incr_s:7.2f}s  a border cannot fit the "
            f"scaled demand: re-plan refused, demands restored"
        )
        incr = cold
    else:
        print(
            f"federated incr:  {incr_s:7.2f}s  carried "
            f"{incr.carried_demand:9.1f}  regions re-solved "
            f"{list(incr.resolved_regions)}"
        )

    problems = check_all(coordinator, incr)
    print(f"invariants: {len(problems)} violations")
    for problem in problems[:10]:
        print(f"  VIOLATION {problem}")

    report = {
        "pops": args.pops,
        "chains": len(model.chains),
        "regions": args.regions,
        "stats": stats,
        "federated_cold_s": round(cold_s, 3),
        "federated_incr_s": round(incr_s, 3),
        "carried": round(incr.carried_demand, 3),
        "offered": round(incr.offered_demand, 3),
        "violations": problems,
    }
    collect_federation(registry, coordinator)
    report["metrics"] = registry_to_dict(registry)
    doc = json.dumps(report, indent=1, sort_keys=True)
    if args.json:
        print(doc)
    _write_out(args.out, doc)
    return 0 if not problems else 1


def _build_chaos(args: argparse.Namespace):
    from repro.chaos import SoakConfig

    return SoakConfig(
        seed=args.seed,
        duration_s=args.duration,
        num_chains=args.chains,
        partition=args.partition,
        control_faults=args.control_faults,
        control_loss=args.control_loss,
    )


def _cmd_chaos(args: argparse.Namespace, config) -> int:
    """Seeded chaos soak: play a fault schedule against a deployment
    while invariants are probed.  Exit code 1 if any invariant was
    violated, so a failing seed turns into a failing CI step; rerunning
    with the same ``--seed`` replays the byte-identical schedule.

    ``--control-faults`` switches the soak to the control-plane mix:
    live 2PC installs run through the bus-driven installer while the
    schedule drops control-channel RPCs and crashes the active Global
    Switchboard mid-install, exercising the resilience stack (reliable
    RPC, deadlines, sweeper, lease failover).
    """
    from repro.chaos import run_soak

    args.out = _default_out(args.out, "chaos", args.seed)
    report = run_soak(config)
    print(report.to_json() if args.json else report.render())
    _write_out(args.out, report.to_json())
    return 0 if report.passed else 1


def _read_json(path: str, kind: str) -> dict:
    """The JSON object in ``path``; a missing, unreadable or malformed
    file, or one that holds no object, is a ``ReproError``."""
    import json

    from repro.core.errors import ReproError

    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ReproError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ReproError(f"{path}: unrecognized {kind} document")
    return doc


def _build_fuzz(args: argparse.Namespace):
    """The ``--scenario`` schedule (``generate`` names the known kinds
    when it refuses one), the ``--replay`` case, or the fuzz run's
    config with the ``--known-good`` digests (``None`` without one):
    both files are read and recognized before any case runs."""
    from repro.core.errors import ReproError
    from repro.scenarios import FuzzCase, FuzzConfig, generate

    if args.scenario:
        return generate(args.scenario, args.seed, duration_s=args.duration)
    if args.replay:
        # A whole fuzz report replays its first case; a case result or a
        # minimized block, its schedule; a saved case or repro, itself.
        doc = _read_json(args.replay, "replay")
        if isinstance(doc.get("cases"), list) and doc["cases"]:
            doc = doc["cases"][0]
        if isinstance(doc, dict) and isinstance(doc.get("schedule"), dict):
            doc = doc["schedule"]
        if isinstance(doc, dict) and "composed" in doc and "params" in doc:
            return FuzzCase.from_doc(doc)
        raise ReproError(f"{args.replay}: unrecognized replay document")
    expected = _read_json(args.known_good, "known-good") if args.known_good else None
    return FuzzConfig(
        seed=args.seed,
        cases=args.cases,
        budget_s=args.budget,
        duration_s=args.duration,
        stacks=("mono", "federation") if args.stack == "both" else (args.stack,),
        minimize=not args.no_minimize,
        plant=args.plant,
    ), expected


def _cmd_fuzz(args: argparse.Namespace, inputs) -> int:
    """Seeded scenario fuzzer: compose random workload + fault
    schedules, play them against the monolithic and federated stacks
    with invariant probes, and delta-debug any violation to a minimal
    replayable repro.

    Exit codes: 0 all green, 1 violations found (or a ``--plant``
    self-test failing to find/minimize its planted violation), 2
    ``--known-good`` digest mismatch.
    """
    import json

    from repro.scenarios import replay_case, run_fuzz

    args.out = _default_out(args.out, "fuzz", args.seed)

    if args.scenario:
        schedule = inputs
        if args.json:
            print(schedule.to_json())
        else:
            counts = ", ".join(f"{k}={v}" for k, v in sorted(schedule.counts().items()) if v)
            print(
                f"{schedule.kind}: seed={schedule.seed} "
                f"duration={schedule.duration_s:g}s "
                f"ops={len(schedule.ops)} ({counts})"
            )
            print(f"digest {schedule.digest()}")
        _write_out(args.out, schedule.to_json())
        return 0

    if args.replay:
        result = replay_case(inputs)
        print(
            f"replay case {result.index}: {'+'.join(result.kinds)} "
            f"digest {result.schedule_digest[:16]}..."
        )
        for stack in result.stacks:
            status = "PASS" if stack.passed else (
                f"FAIL ({len(stack.violations)} violation(s))"
            )
            print(f"  {stack.stack}: {status}")
        return 0 if result.passed else 1

    config, expected = inputs
    report = run_fuzz(config)
    print(report.to_json() if args.json else report.render())
    _write_out(args.out, report.to_json())
    if args.write_known_good:
        _write_out(args.write_known_good, json.dumps(
            report.known_good_doc(), indent=1, sort_keys=True
        ))
        print(f"known-good written: {args.write_known_good}")
    if expected is not None:
        actual = report.known_good_doc()
        if expected != actual:
            print("known-good MISMATCH:", file=sys.stderr)
            for key in sorted(set(expected) | set(actual)):
                if expected.get(key) != actual.get(key):
                    print(
                        f"  {key}: expected {expected.get(key)!r} "
                        f"got {actual.get(key)!r}",
                        file=sys.stderr,
                    )
            return 2
        print("known-good: match")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Switchboard reproduction: quick experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("topology", help="summarize the synthetic backbone")
    p.add_argument("--cities", type=int, default=25)
    p.set_defaults(func=_cmd_topology, build=_build_topology)

    p = sub.add_parser("route", help="compare TE schemes on a workload")
    p.add_argument("--chains", type=int, default=40)
    p.add_argument("--vnfs", type=int, default=12)
    p.add_argument("--coverage", type=float, default=0.5)
    p.add_argument("--traffic", type=float, default=6000.0)
    p.add_argument("--site-capacity", type=float, default=7200.0)
    p.add_argument("--cities", type=int, default=15)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument(
        "--scheme",
        choices=["all", "dp", "lp", "anycast", "compute-aware"],
        default="all",
    )
    p.set_defaults(func=_cmd_route, build=_build_route)

    p = sub.add_parser("cache", help="the Table 3 shared-vs-siloed cache")
    p.add_argument("--chains", type=int, default=5)
    p.add_argument("--cache-objects", type=int, default=600)
    p.add_argument("--catalog", type=int, default=6000)
    p.add_argument("--spread", type=int, default=100)
    p.set_defaults(func=_cmd_cache, build=_build_cache)

    p = sub.add_parser("bus", help="bus vs broadcast under load")
    p.add_argument("--sites", type=_positive(int), default=10)
    p.add_argument("--subscribers", type=_positive(int), default=5)
    p.add_argument("--publishes", type=_positive(int), default=700)
    p.add_argument("--rate", type=_positive(float), default=35.0)
    p.set_defaults(func=_cmd_bus, build=_build_bus)

    p = sub.add_parser("timing", help="control-plane latency breakdowns")
    p.set_defaults(func=_cmd_timing, build=_build_timing)

    p = sub.add_parser(
        "metrics", help="instrumented end-to-end run with a full obs report"
    )
    p.add_argument("--publishes", type=_positive(int), default=400)
    p.add_argument("--rate", type=_positive(float), default=1000.0)
    p.add_argument("--subscribers", type=_positive(int), default=3)
    p.add_argument("--uplink-bps", type=float, default=8e6)
    p.add_argument("--buffer-bytes", type=int, default=64_000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_metrics, build=_build_metrics)

    p = sub.add_parser(
        "federation",
        help="federated two-level control plane on a generated PoP topology",
    )
    p.add_argument("--pops", type=int, default=96,
                   help="generated PoPs (use 500 for the paper-scale run)")
    p.add_argument("--chains", type=int, default=384,
                   help="generated chains (use 100000 for full scale)")
    p.add_argument("--regions", type=int, default=4)
    p.add_argument("--metros", type=int, default=0,
                   help="metro clusters in the generator "
                   "(default: same as --regions)")
    p.add_argument("--locality", type=float, default=0.8,
                   help="probability a chain stays inside one metro")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--partition-size", type=int, default=16)
    p.add_argument("--chaos-soak", action="store_true",
                   help="run the partition-tolerant deployment against a "
                        "seeded schedule of real link/partition/crash "
                        "faults (coordinator failover, durable ledgers, "
                        "degraded-mode regions)")
    p.add_argument("--duration", type=float, default=40.0,
                   help="simulated seconds of chaos-soak fault schedule")
    p.add_argument("--soak", type=_positive(int), metavar="OPS",
                   help="run the seeded fault-injection soak for OPS "
                   "operations instead of the timing comparison")
    p.add_argument("--reject-rate", type=float, default=0.15,
                   help="soak: regional prepare rejection probability")
    p.add_argument("--crash-rate", type=float, default=0.1,
                   help="soak: coordinator mid-install crash probability")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", nargs="?", const="auto",
                   help="also write the JSON report to a file (bare --out "
                   "derives federation-report-seed<seed>.json)")
    p.set_defaults(func=_cmd_federation, build=_build_federation)

    p = sub.add_parser(
        "chaos", help="seeded fault-injection soak with invariant checking"
    )
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--chains", type=int, default=8)
    p.add_argument("--partition", action="store_true",
                   help="include a network partition in the schedule")
    p.add_argument("--control-faults", action="store_true",
                   help="control-plane mix: live 2PC installs under "
                   "control-message loss and a mid-install GS crash")
    p.add_argument("--control-loss", type=float, default=0.2,
                   help="per-link control-message loss probability "
                   "during control_loss windows (default 0.2)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", nargs="?", const="auto",
                   help="also write the JSON report to a file (bare --out "
                   "derives chaos-report-seed<seed>.json)")
    p.set_defaults(func=_cmd_chaos, build=_build_chaos)

    p = sub.add_parser(
        "fuzz",
        help="seeded scenario fuzzer with schedule minimization",
    )
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--cases", type=int, default=3,
                   help="composed cases to run (each derives from "
                   "--seed and its index)")
    p.add_argument("--budget", type=float, default=None, metavar="S",
                   help="wall-clock budget in seconds; no new case "
                   "starts once spent (nightly mode)")
    p.add_argument("--duration", type=float, default=16.0,
                   help="simulated seconds per composed schedule")
    p.add_argument("--stack", choices=("mono", "federation", "both"),
                   default="both")
    p.add_argument("--scenario",
                   help="print one library scenario schedule and exit")
    p.add_argument("--replay", metavar="FILE",
                   help="replay a saved case / minimized repro / report "
                   "instead of fuzzing")
    p.add_argument("--plant", action="store_true",
                   help="self-test: plant a violation the probes must "
                   "catch and the minimizer must isolate")
    p.add_argument("--no-minimize", action="store_true",
                   help="skip delta-debugging violating schedules")
    p.add_argument("--known-good", metavar="FILE",
                   help="compare the run's digests against a committed "
                   "known-good file; exit 2 on mismatch")
    p.add_argument("--write-known-good", metavar="FILE",
                   help="write this run's digest skeleton for the "
                   "replay gate")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", nargs="?", const="auto",
                   help="also write the JSON report to a file (bare "
                   "--out derives fuzz-report-seed<seed>.json)")
    p.set_defaults(func=_cmd_fuzz, build=_build_fuzz)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.core.errors import ReproError

    # The domain checks its own inputs: what the build step refuses is a
    # usage error (exit 2); an error while running stays a traceback.
    try:
        inputs = args.build(args)
    except ReproError as exc:
        parser.error(f"{args.command}: {exc}")
    return args.func(args, inputs)


if __name__ == "__main__":
    sys.exit(main())
