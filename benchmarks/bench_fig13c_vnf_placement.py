"""Figure 13c: VNF capacity planning (placement hints).

Paper result: when VNF providers add deployments at y_f new sites,
Switchboard's placement MIP picks sites that give up to 27% lower
chain latency than selecting the new sites at random.
"""

import random

from _common import emit, fmt, format_table

from repro.core.capacity import plan_vnf_placement, random_vnf_placement
from repro.core.lp import LpObjective, solve_chain_routing_lp
from repro.topology import WorkloadConfig, build_backbone, generate_workload
from repro.topology.cities import DEFAULT_CITIES

CITIES = DEFAULT_CITIES[:10]
NEW_SITES_PER_VNF = 2
NEW_SITE_CAPACITY = 60.0
RANDOM_TRIALS = 5


def make_model():
    config = WorkloadConfig(
        num_chains=15,
        num_vnfs=4,
        coverage=0.3,
        min_chain_length=2,
        max_chain_length=3,
        total_traffic=300.0,
        site_capacity=240.0,
        cities=CITIES,
        seed=23,
    )
    return generate_workload(config, build_backbone(CITIES))


def weighted_latency(model) -> float:
    result = solve_chain_routing_lp(model, LpObjective.MIN_LATENCY)
    assert result.ok, "placement evaluation LP must be feasible"
    return result.objective


def run_figure13c():
    model = make_model()
    quotas = {name: NEW_SITES_PER_VNF for name in model.vnfs}
    baseline = weighted_latency(model)

    optimal = plan_vnf_placement(
        model, quotas, new_site_capacity=NEW_SITE_CAPACITY, time_limit=120.0
    )
    optimal_latency = weighted_latency(optimal.apply(model))

    rng = random.Random(99)
    random_latencies = []
    for _ in range(RANDOM_TRIALS):
        plan = random_vnf_placement(model, quotas, NEW_SITE_CAPACITY, rng)
        random_latencies.append(weighted_latency(plan.apply(model)))
    return baseline, optimal, optimal_latency, random_latencies


def test_fig13c_vnf_placement(benchmark):
    baseline, optimal, optimal_latency, random_latencies = benchmark.pedantic(
        run_figure13c, iterations=1, rounds=1
    )
    mean_random = sum(random_latencies) / len(random_latencies)
    reduction = 1 - optimal_latency / mean_random
    rows = [
        ("no new sites", fmt(baseline, 1), "--"),
        (
            "random placement (mean of "
            f"{len(random_latencies)} trials)",
            fmt(mean_random, 1),
            "--",
        ),
        (
            "Switchboard MIP placement",
            fmt(optimal_latency, 1),
            "-" + fmt(100 * reduction, 0) + "% vs random",
        ),
    ]
    emit(
        "fig13c_vnf_placement",
        format_table(
            "Figure 13c -- VNF placement hints "
            "(weighted chain latency, Equation 3)",
            ["scheme", "weighted latency", "delta"],
            rows,
            notes=[
                f"MIP status: {optimal.status}; new sites: "
                + "; ".join(
                    f"{vnf}:{','.join(sites)}"
                    for vnf, sites in sorted(optimal.new_sites.items())
                ),
                "paper: up to 27% lower latency than random site selection",
            ],
        ),
    )

    assert optimal.status in ("optimal", "feasible")
    # New sites always help, and the MIP beats every random draw.
    assert optimal_latency <= baseline + 1e-6
    assert all(optimal_latency <= r + 1e-6 for r in random_latencies)
    # Material improvement over random (paper: up to 27%).
    assert reduction > 0.08
