"""Extension: periodic re-optimization under diurnal traffic.

The paper's first future-work item (Section 7.3) is time-varying traffic
matrices.  This bench drives an installed chain population through a
24-hour diurnal cycle (per-ingress local-time demand factors from the
timezone-aware model) and re-optimizes each hour.

The ablated design choice is the re-route *churn threshold*: demand
changes smaller than the threshold keep their routes.  A low threshold
tracks demand tightly but re-routes constantly; a high threshold is
calm but risks carrying less when demand surges past the stale routes'
capacity.  The bench reports carried share and total re-routes per
threshold over the day.
"""

import random

from _common import emit, fmt, format_table

from repro.controller import (
    ChainSpecification,
    GlobalSwitchboard,
    LocalSwitchboard,
    reoptimize,
)
from repro.core.model import CloudSite, NetworkModel, VNF
from repro.dataplane.forwarder import DataPlane
from repro.edge import EdgeController, EdgeInstance
from repro.topology.cities import DEFAULT_CITIES
from repro.topology.timeseries import TimeVaryingTrafficMatrix
from repro.topology.traffic import gravity_traffic_matrix
from repro.vnf import VnfService

CITIES = {c.name: c for c in DEFAULT_CITIES}
SITES = ("NYC", "CHI", "DEN", "SFO")
NUM_CHAINS = 8
PEAK_DEMAND = 5.0
THRESHOLDS = (0.0, 0.1, 0.3)
HOURS = range(0, 24, 2)


def build():
    cities = [CITIES[n] for n in SITES]
    nodes = list(SITES)
    latency = {}
    from repro.topology.cities import fibre_delay_ms

    for i, a in enumerate(cities):
        for b in cities[i + 1:]:
            latency[(a.name, b.name)] = fibre_delay_ms(a, b)
    sites = [CloudSite(f"S-{n}", n, 10_000.0) for n in nodes]
    # Capacity sized to the *peak*: every chain fits at the peak hour.
    capacity = {
        f"S-{n}": NUM_CHAINS * 2 * PEAK_DEMAND * 1.25 / 2 for n in nodes
    }
    vnfs = [VNF("fw", 1.0, capacity)]
    model = NetworkModel(nodes, latency, sites, vnfs)
    dp = DataPlane(random.Random(0))
    gs = GlobalSwitchboard(model, dp)
    for site in capacity:
        gs.register_local_switchboard(LocalSwitchboard(site, dp))
    gs.register_vnf_service(VnfService("fw", 1.0, dict(capacity)))
    edge = EdgeController("vpn")
    for n in nodes:
        edge.register_instance(EdgeInstance(f"edge.{n}", f"S-{n}", dp))
        edge.register_attachment(f"att-{n}", f"S-{n}")
    gs.register_edge_service(edge)

    rng = random.Random(4)
    ingress_of = {}
    for i in range(NUM_CHAINS):
        ingress, egress = rng.sample(nodes, 2)
        name = f"chain{i}"
        gs.create_chain(
            ChainSpecification(
                name, "vpn", f"att-{ingress}", f"att-{egress}", ["fw"],
                forward_demand=PEAK_DEMAND,
                reverse_demand=PEAK_DEMAND * 0.25,
                dst_prefixes=[f"20.0.{i}.0/24"],
            )
        )
        ingress_of[name] = ingress
    tvm = TimeVaryingTrafficMatrix(
        gravity_traffic_matrix([CITIES[n] for n in SITES], 100.0),
        [CITIES[n] for n in SITES],
    )
    return gs, tvm, ingress_of


def run_day(threshold: float):
    gs, tvm, ingress_of = build()
    reroutes = 0
    carried_shares = []
    current_factor = {name: 1.0 for name in ingress_of}
    for hour in HOURS:
        target = tvm.chain_demand_factors(ingress_of, float(hour))
        relative = {
            name: target[name] / current_factor[name] for name in target
        }
        report = reoptimize(gs, relative, threshold=threshold)
        for name in report.rerouted:
            current_factor[name] = target[name]
        reroutes += len(report.rerouted)
        carried_shares.append(report.carried_share)
    return reroutes, min(carried_shares), sum(carried_shares) / len(carried_shares)


def run_bench():
    return {t: run_day(t) for t in THRESHOLDS}


def test_ext_diurnal_reoptimization(benchmark):
    results = benchmark.pedantic(run_bench, iterations=1, rounds=1)
    rows = [
        (
            fmt(threshold, 2),
            reroutes,
            fmt(100 * worst, 1) + "%",
            fmt(100 * mean, 1) + "%",
        )
        for threshold, (reroutes, worst, mean) in results.items()
    ]
    emit(
        "ext_diurnal_reoptimization",
        format_table(
            "Extension -- diurnal re-optimization: churn threshold ablation "
            f"({NUM_CHAINS} chains, 24h cycle, 2h epochs)",
            ["churn threshold", "total re-routes", "worst-hour carried",
             "mean carried"],
            rows,
            notes=[
                "threshold 0 tracks demand exactly at maximal churn; "
                "looser thresholds trade a little carried traffic for "
                "far fewer route changes",
            ],
        ),
    )

    zero, loose = results[0.0], results[THRESHOLDS[-1]]
    # Tight tracking carries everything all day.
    assert zero[1] >= 0.999
    # Looser thresholds re-route strictly less.
    reroute_counts = [results[t][0] for t in THRESHOLDS]
    assert reroute_counts == sorted(reroute_counts, reverse=True)
    # And still carry nearly everything (capacity is peak-sized).
    assert loose[2] >= 0.95
