"""Command-line interface: quick experiments without writing a script.

Usage::

    python -m repro topology [--cities N]
    python -m repro route [--chains N] [--coverage C] [--scheme all|dp|lp|anycast|compute-aware]
    python -m repro cache [--shared/--siloed both by default]
    python -m repro bus [--rate HZ] [--sites N]
    python -m repro timing
    python -m repro metrics [--publishes N] [--rate HZ] [--json]
    python -m repro scale [--chains N] [--partition-size K] [--workers W]
    python -m repro federation [--pops N] [--chains N] [--regions K] [--soak OPS]
    python -m repro chaos [--seed N] [--duration S] [--json] [--out [FILE]]
    python -m repro fuzz [--seed N] [--cases N] [--budget S] [--plant] [--out [FILE]]
"""

from __future__ import annotations

import argparse
import sys
import time


def _default_out(out: "str | None", command: str, seed: int) -> "str | None":
    """Resolve a bare ``--out`` to a seed-derived filename.

    ``--out`` without a value used to be impossible; commands that
    hardcoded a name collided when two seeds ran in one directory
    (the second report overwrote the first).  A bare ``--out`` now
    yields ``<command>-report-seed<seed>.json``, unique per
    (command, seed) pair; an explicit path is used verbatim.
    """
    if out == "auto":
        return f"{command}-report-seed{seed}.json"
    return out


def _cmd_topology(args: argparse.Namespace) -> int:
    from repro.topology import build_backbone
    from repro.topology.cities import DEFAULT_CITIES

    cities = DEFAULT_CITIES[: args.cities]
    backbone = build_backbone(cities)
    lat = [v for v in backbone.latency.values() if v > 0]
    print(f"PoPs           : {len(backbone.nodes)}")
    print(f"directed links : {len(backbone.links)}")
    print(f"one-way delay  : {min(lat):.1f} - {max(lat):.1f} ms")
    tiers = sorted({link.bandwidth for link in backbone.links})
    print(f"link tiers     : {', '.join(f'{t:g}' for t in tiers)} Gbps")
    degrees = dict(backbone.graph.degree())
    hub = max(degrees, key=degrees.get)
    print(f"highest degree : {hub} ({degrees[hub]})")
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    from repro.core.baselines import (
        route_anycast,
        route_compute_aware,
        scale_to_capacity,
    )
    from repro.core.dp import route_chains_dp
    from repro.core.lp import LpObjective, solve_chain_routing_lp
    from repro.topology import WorkloadConfig, build_backbone, generate_workload
    from repro.topology.cities import DEFAULT_CITIES

    cities = DEFAULT_CITIES[: args.cities]
    config = WorkloadConfig(
        num_chains=args.chains,
        num_vnfs=args.vnfs,
        coverage=args.coverage,
        total_traffic=args.traffic,
        site_capacity=args.site_capacity,
        cities=cities,
        seed=args.seed,
    )
    model = generate_workload(config, build_backbone(cities))
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


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.vnf.cache import run_cache_experiment

    for shared in (True, False):
        result = run_cache_experiment(
            shared=shared,
            num_chains=args.chains,
            total_cache_objects=args.cache_objects,
            catalog_objects=args.catalog,
            popularity_spread=args.spread,
        )
        print(
            f"{result.scheme:>7}: hit rate {result.hit_rate:6.2%}, "
            f"mean download {result.mean_download_ms:6.2f} ms "
            f"({result.requests} requests)"
        )
    return 0


def _cmd_bus(args: argparse.Namespace) -> int:
    from repro.bus import Topic, make_bus, make_full_mesh_bus

    sites = [f"S{i}" for i in range(args.sites)]

    def drive(make):
        bus = make(sites, wan_delay_s=0.025, uplink_bps=8e6,
                   uplink_buffer_bytes=400_000)
        topic = Topic("c1", "e1", "G", "S0", "instances")
        bus.attach("pub", "S0")
        for site in sites[1:]:
            for j in range(args.subscribers):
                name = f"sub-{site}-{j}"
                bus.attach(name, site)
                bus.subscribe(name, topic)
        for i in range(args.publishes):
            bus.network.sim.schedule(
                i / args.rate, bus.publish, "pub", topic, i
            )
        bus.network.run()
        return bus.stats

    proxy = drive(make_bus)
    mesh = drive(make_full_mesh_bus)
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


def _cmd_timing(args: argparse.Namespace) -> int:
    from repro.controller.timing import (
        simulate_chain_route_update,
        simulate_edge_site_addition,
    )

    update = simulate_chain_route_update()
    print(f"chain route update: {update.total_s * 1e3:.0f} ms total")
    for m in update.milestones:
        print(f"  {m.operation:<45} {m.duration_s * 1e3:5.0f} ms")
    addition = simulate_edge_site_addition()
    print(f"\nedge site addition: {addition.summed_durations_s * 1e3:.0f} ms "
          f"(sum of operations)")
    for m in addition.milestones:
        print(f"  {m.operation:<48} {m.duration_s * 1e3:5.0f} ms")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Run an instrumented end-to-end experiment and print the report.

    Three phases share one simulator and one registry: a bus-driven
    chain installation (2PC stage timings), a pub/sub load phase that
    overloads site A's WAN uplink (queueing-delay histograms and
    WAN-drop counters), and one run of each solver (``solver.*`` /
    ``lp.*`` counters).
    """
    import random

    from repro.bus import Topic, make_bus
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
        MetricsRegistry,
        collect_bus,
        collect_dataplane,
        collect_federation,
        collect_network,
        collect_resilience,
        registry_to_json,
        render_report,
    )
    from repro.simnet.events import Simulator
    from repro.simnet.network import SimNetwork
    from repro.vnf import VnfService

    sites = ["A", "B", "C"]
    sim = Simulator()
    registry = MetricsRegistry.for_simulator(sim)
    net = SimNetwork(sim, metrics=registry)
    bus = make_bus(
        sites,
        wan_delay_s=0.030,
        uplink_bps=args.uplink_bps,
        uplink_buffer_bytes=args.buffer_bytes,
        network=net,
        metrics=registry,
    )

    # Phase 1: install a chain through the bus-driven 2PC protocol.
    model = NetworkModel(
        ["a", "b", "c"],
        {("a", "b"): 10.0, ("a", "c"): 30.0, ("b", "c"): 15.0},
        [CloudSite(s, s.lower(), 100.0) for s in sites],
        [VNF("fw", 1.0, {"B": 40.0})],
    )
    dp = DataPlane(random.Random(0), metrics=registry)
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


def _cmd_scale(args: argparse.Namespace) -> int:
    """Monolithic vs. solver-farm comparison on one workload.

    Three farm passes against one monolithic baseline: a cold solve
    (every partition a cache miss), a warm re-solve (every partition a
    hit), and an incremental ``resolve`` after scaling one chain's
    demand (only that chain's partition re-solves).
    """
    from repro.core.lp import LpObjective, solve_chain_routing_lp
    from repro.obs import MetricsRegistry
    from repro.scale import SolverFarm, optimality_gap
    from repro.topology import WorkloadConfig, build_backbone, generate_workload
    from repro.topology.cities import DEFAULT_CITIES

    cities = DEFAULT_CITIES[: args.cities]
    config = WorkloadConfig(
        num_chains=args.chains,
        num_vnfs=args.vnfs,
        coverage=args.coverage,
        total_traffic=args.traffic,
        site_capacity=args.site_capacity,
        cities=cities,
        seed=args.seed,
    )
    model = generate_workload(config, build_backbone(cities))
    print(
        f"workload: {len(model.chains)} chains, "
        f"{model.total_demand():.0f} units offered"
    )

    start = time.perf_counter()
    mono = solve_chain_routing_lp(model, LpObjective.MAX_THROUGHPUT)
    mono_s = time.perf_counter() - start
    if not mono.ok:
        print(f"monolithic solve failed: {mono.status}", file=sys.stderr)
        return 1

    registry = MetricsRegistry()
    farm = SolverFarm(
        partition_size=args.partition_size,
        max_workers=args.workers,
        metrics=registry,
    )

    def row(name: str, result, seconds: float) -> None:
        thr = result.solution.throughput() if result.solution else 0.0
        extra = ""
        if hasattr(result, "cache_hits"):
            extra = (
                f"  solved {len(result.solved)}/{result.partitions}"
                f"  hits {result.cache_hits}"
                f"  gap {optimality_gap(result, mono):.1%}"
                f"  speedup {mono_s / seconds:.1f}x"
            )
        print(f"{name:<12} {seconds:7.2f}s  carried {thr:8.1f}{extra}")

    row("monolithic", mono, mono_s)
    start = time.perf_counter()
    cold = farm.solve(model)
    row("farm cold", cold, time.perf_counter() - start)
    start = time.perf_counter()
    warm = farm.solve(model)
    row("farm warm", warm, time.perf_counter() - start)

    # Scale one chain's demand and re-solve incrementally.
    changed = sorted(model.chains)[0]
    chain = model.chains[changed]
    model.remove_chain(changed)
    model.add_chain(chain.scaled(1.5))
    start = time.perf_counter()
    incr = farm.resolve(model, [changed])
    row("incremental", incr, time.perf_counter() - start)

    stats = farm.cache.stats
    print(
        f"cache: {stats.hits} hits, {stats.misses} misses, "
        f"{stats.evictions} evictions ({stats.hit_rate:.0%} hit rate); "
        f"exact plan: {cold.exact}"
    )
    return 0


def _cmd_federation(args: argparse.Namespace) -> int:
    """Federated two-level control plane on a generated PoP topology.

    Builds the clustered PoP workload, cuts it into regions, installs
    every chain through the :class:`GlobalCoordinator` (cross-shard
    chains via split + 2PC), then times a cold federated plan and an
    incremental re-plan.  ``--compare-monolithic`` also runs the
    monolithic :class:`SolverFarm` on the same workload and reports
    speedups and the throughput gap; ``--soak N`` runs the seeded
    fault-injection soak instead; ``--chaos-soak`` runs the full
    partition-tolerant deployment (coordinator failover, durable
    ledgers, degraded-mode regions) against a seeded schedule of real
    link, partition, and crash faults.  Exit code 1 on any invariant
    violation.
    """
    import json
    import random

    from repro.core.lp import LpObjective
    from repro.federation import (
        CoordinatorCrash,
        FaultPolicy,
        FederationError,
        GlobalCoordinator,
        check_all,
    )
    from repro.federation import run_soak as run_federation_soak
    from repro.obs import MetricsRegistry, collect_federation, registry_to_dict
    from repro.topology.pops import PopGridConfig, generate_federation_workload

    args.out = _default_out(args.out, "federation", args.seed)
    if args.chaos_soak:
        from repro.federation import FederationChaosConfig, run_federation_chaos

        chaos_config = FederationChaosConfig(
            seed=args.seed,
            duration_s=args.duration,
            pops=args.pops,
            regions=args.regions,
            chains=args.chains,
            locality=args.locality,
            partition_size=args.partition_size,
        )
        report = run_federation_chaos(chaos_config)
        print(report.to_json() if args.json else report.render())
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(report.to_json() + "\n")
        return 0 if report.passed else 1

    config = PopGridConfig(
        num_pops=args.pops,
        num_metros=args.metros if args.metros else args.regions,
        num_chains=args.chains,
        locality=args.locality,
        seed=args.seed,
    )
    start = time.perf_counter()
    model, _metro_of = generate_federation_workload(config)
    print(
        f"workload: {args.pops} PoPs, {len(model.chains)} chains, "
        f"{model.total_demand():.0f} units offered "
        f"({time.perf_counter() - start:.1f}s to generate)"
    )

    registry = MetricsRegistry()
    policy = None
    if args.soak:
        policy = FaultPolicy(
            seed=args.seed,
            reject_rate=args.reject_rate,
            crash_rate=args.crash_rate,
        )
    start = time.perf_counter()
    coordinator = GlobalCoordinator(
        model,
        n_regions=args.regions,
        partition_size=args.partition_size,
        max_workers=args.workers,
        metrics=registry,
        fault_policy=policy,
    )
    build_s = time.perf_counter() - start
    stats = coordinator.stats()
    print(
        f"federation: {stats['regions']} regions, {stats['borders']} border "
        f"links ({build_s:.1f}s to build)"
    )

    if args.soak:
        chains = list(model.chains.values())
        split = max(1, int(len(chains) * 0.7))
        base, pool = chains[:split], chains[split:]
        for chain in chains:
            model.remove_chain(chain.name)
        installed = 0
        for chain in base:
            try:
                coordinator.submit(chain)
                installed += 1
            except (CoordinatorCrash, FederationError):
                coordinator.sweep()
        print(f"soak base: {installed}/{len(base)} chains installed")
        report = run_federation_soak(
            model, coordinator, pool, ops=args.soak, seed=args.seed
        )
        collect_federation(registry, coordinator)
        report["metrics"] = registry_to_dict(registry)
        if args.json:
            print(json.dumps(report, indent=1, sort_keys=True))
        else:
            print(
                f"soak: {report['ops']} ops, counts {report['counts']}, "
                f"final {report['final_status']} "
                f"({report['final_carried']:.0f}/"
                f"{report['final_offered']:.0f} carried)"
            )
            for violation in report["violations"][:10]:
                print(f"  VIOLATION [{violation['op']}] {violation['problem']}")
        if args.out:
            with open(args.out, "w") as handle:
                json.dump(report, handle, indent=1, sort_keys=True)
                handle.write("\n")
        return 0 if report["ok"] else 1

    start = time.perf_counter()
    sync = coordinator.sync_chains()
    install_s = time.perf_counter() - start
    stats = coordinator.stats()
    print(
        f"installed: {len(sync['added'])} chains in {install_s:.1f}s "
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
    for name in changed:
        chain = model.chains[name]
        model.remove_chain(name)
        model.add_chain(chain.scaled(1.25))
    start = time.perf_counter()
    incr = coordinator.resolve(model, changed, LpObjective.MAX_THROUGHPUT)
    incr_s = time.perf_counter() - start
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

    if args.compare_monolithic:
        from repro.scale import SolverFarm

        farm = SolverFarm(
            partition_size=args.partition_size, max_workers=args.workers
        )
        start = time.perf_counter()
        mono_cold = farm.solve(model, LpObjective.MAX_THROUGHPUT)
        mono_cold_s = time.perf_counter() - start
        mono_carried = (
            mono_cold.solution.throughput() if mono_cold.solution else 0.0
        )
        for name in changed:
            chain = model.chains[name]
            model.remove_chain(name)
            model.add_chain(chain.scaled(1.1))
        start = time.perf_counter()
        farm.resolve(model, changed, LpObjective.MAX_THROUGHPUT)
        mono_incr_s = time.perf_counter() - start
        denom = max(mono_carried, 1e-9)
        gap = abs(incr.carried_demand - mono_carried) / denom
        print(
            f"monolithic cold: {mono_cold_s:7.2f}s  carried "
            f"{mono_carried:9.1f}   (federated speedup "
            f"{mono_cold_s / max(cold_s, 1e-9):.1f}x)"
        )
        print(
            f"monolithic incr: {mono_incr_s:7.2f}s   (federated speedup "
            f"{mono_incr_s / max(incr_s, 1e-9):.1f}x)  carried gap {gap:.1%}"
        )
        report.update(
            monolithic_cold_s=round(mono_cold_s, 3),
            monolithic_incr_s=round(mono_incr_s, 3),
            cold_speedup=round(mono_cold_s / max(cold_s, 1e-9), 2),
            incr_speedup=round(mono_incr_s / max(incr_s, 1e-9), 2),
            carried_gap=round(gap, 4),
        )

    collect_federation(registry, coordinator)
    if args.json:
        report["metrics"] = registry_to_dict(registry)
        print(json.dumps(report, indent=1, sort_keys=True))
    if args.out:
        report.setdefault("metrics", registry_to_dict(registry))
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if not problems else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
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
    from repro.chaos import SoakConfig, run_soak

    args.out = _default_out(args.out, "chaos", args.seed)
    config = SoakConfig(
        seed=args.seed,
        duration_s=args.duration,
        num_chains=args.chains,
        partition=args.partition,
        control_faults=args.control_faults,
        control_loss=args.control_loss,
    )
    report = run_soak(config)
    output = report.to_json() if args.json else report.render()
    print(output)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report.to_json() + "\n")
    return 0 if report.passed else 1


#: Library scenario kinds, duplicated here so building the parser does
#: not import the (heavy) scenarios package; test_cli pins this tuple
#: against ``repro.scenarios.SCENARIO_KINDS``.
FUZZ_SCENARIO_KINDS = (
    "adversarial_matrix",
    "diurnal_wave",
    "evacuation_cascade",
    "flash_crowd",
    "site_churn",
    "zipf_mix",
)


def _cmd_fuzz(args: argparse.Namespace) -> int:
    """Seeded scenario fuzzer: compose random workload + fault
    schedules, play them against the monolithic and federated stacks
    with invariant probes, and delta-debug any violation to a minimal
    replayable repro.

    Exit codes: 0 all green, 1 violations found (or a ``--plant``
    self-test failing to find/minimize its planted violation), 2
    ``--known-good`` digest mismatch.
    """
    import json

    from repro.scenarios import FuzzConfig, generate, replay_case, run_fuzz

    args.out = _default_out(args.out, "fuzz", args.seed)

    if args.scenario:
        schedule = generate(args.scenario, args.seed,
                            duration_s=args.duration)
        if args.json:
            print(schedule.to_json())
        else:
            counts = ", ".join(
                f"{k}={v}" for k, v in sorted(schedule.counts().items()) if v
            )
            print(
                f"{schedule.kind}: seed={schedule.seed} "
                f"duration={schedule.duration_s:g}s "
                f"ops={len(schedule.ops)} ({counts})"
            )
            print(f"digest {schedule.digest()}")
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(schedule.to_json() + "\n")
        return 0

    if args.replay:
        with open(args.replay) as handle:
            doc = json.load(handle)
        if "composed" in doc and "params" in doc:
            case_doc = doc  # a saved case / minimized repro
        elif isinstance(doc.get("schedule"), dict) and (
            "composed" in doc["schedule"]
        ):
            case_doc = doc["schedule"]  # a case result / minimized block
        elif doc.get("cases"):
            case_doc = doc["cases"][0]["schedule"]  # a whole fuzz report
        else:
            print("fuzz: unrecognized replay document", file=sys.stderr)
            return 2
        result = replay_case(case_doc)
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

    stacks = (
        ("mono", "federation") if args.stack == "both" else (args.stack,)
    )
    config = FuzzConfig(
        seed=args.seed,
        cases=args.cases,
        budget_s=args.budget,
        duration_s=args.duration,
        stacks=stacks,
        minimize=not args.no_minimize,
        plant=args.plant,
    )
    report = run_fuzz(config)
    print(report.to_json() if args.json else report.render())
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report.to_json() + "\n")
    if args.write_known_good:
        with open(args.write_known_good, "w") as handle:
            json.dump(report.known_good_doc(), handle, indent=1,
                      sort_keys=True)
            handle.write("\n")
        print(f"known-good written: {args.write_known_good}")
    if args.known_good:
        with open(args.known_good) as handle:
            expected = json.load(handle)
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
    p.set_defaults(func=_cmd_topology)

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
    p.set_defaults(func=_cmd_route)

    p = sub.add_parser("cache", help="the Table 3 shared-vs-siloed cache")
    p.add_argument("--chains", type=int, default=5)
    p.add_argument("--cache-objects", type=int, default=600)
    p.add_argument("--catalog", type=int, default=6000)
    p.add_argument("--spread", type=int, default=100)
    p.set_defaults(func=_cmd_cache)

    p = sub.add_parser("bus", help="bus vs broadcast under load")
    p.add_argument("--sites", type=int, default=10)
    p.add_argument("--subscribers", type=int, default=5)
    p.add_argument("--publishes", type=int, default=700)
    p.add_argument("--rate", type=float, default=35.0)
    p.set_defaults(func=_cmd_bus)

    p = sub.add_parser("timing", help="control-plane latency breakdowns")
    p.set_defaults(func=_cmd_timing)

    p = sub.add_parser(
        "metrics", help="instrumented end-to-end run with a full obs report"
    )
    p.add_argument("--publishes", type=int, default=400)
    p.add_argument("--rate", type=float, default=1000.0)
    p.add_argument("--subscribers", type=int, default=3)
    p.add_argument("--uplink-bps", type=float, default=8e6)
    p.add_argument("--buffer-bytes", type=int, default=64_000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser(
        "scale", help="monolithic vs. solver-farm TE solve comparison"
    )
    p.add_argument("--chains", type=int, default=64)
    p.add_argument("--vnfs", type=int, default=10)
    p.add_argument("--coverage", type=float, default=0.5)
    p.add_argument("--traffic", type=float, default=6000.0)
    p.add_argument("--site-capacity", type=float, default=20000.0)
    p.add_argument("--cities", type=int, default=14)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--partition-size", type=int, default=16)
    p.add_argument(
        "--workers", type=int, default=1,
        help="process-pool width (1 = serial; decomposition alone "
        "already beats the monolithic solve)",
    )
    p.set_defaults(func=_cmd_scale)

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
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool width inside each regional farm")
    p.add_argument("--compare-monolithic", action="store_true",
                   help="also run the monolithic SolverFarm for "
                   "speedup and gap numbers")
    p.add_argument("--chaos-soak", action="store_true",
                   help="run the partition-tolerant deployment against a "
                        "seeded schedule of real link/partition/crash "
                        "faults (coordinator failover, durable ledgers, "
                        "degraded-mode regions)")
    p.add_argument("--duration", type=float, default=40.0,
                   help="simulated seconds of chaos-soak fault schedule")
    p.add_argument("--soak", type=int, default=0, metavar="OPS",
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
    p.set_defaults(func=_cmd_federation)

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
    p.set_defaults(func=_cmd_chaos)

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
    p.add_argument("--scenario", choices=FUZZ_SCENARIO_KINDS,
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
    p.set_defaults(func=_cmd_fuzz)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
