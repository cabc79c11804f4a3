"""Figure 13a: why SB-DP works -- cost-function and holism ablations.

Paper result: SB-DP improves throughput by up to 6x over DP-LATENCY
(same holistic DP but latency-only cost) and up to 2.3x over ONEHOP
(same cost function applied greedily per hop).  DP-LATENCY approaches
SB-DP only at high coverage (>= 0.75), where the shortest-latency site
is usually good enough; ONEHOP stays behind at every coverage.
"""

from _common import emit, fmt, format_table

from repro.core.dp import DpConfig, route_chains_dp
from repro.topology import WorkloadConfig, build_backbone, generate_workload
from repro.topology.cities import DEFAULT_CITIES

CITIES = DEFAULT_CITIES[:15]
COVERAGES = (0.25, 0.5, 0.75, 1.0)


def make_model(coverage):
    config = WorkloadConfig(
        num_chains=40,
        num_vnfs=12,
        coverage=coverage,
        total_traffic=6000.0,
        site_capacity=7200.0,
        cities=CITIES,
        seed=42,
    )
    return generate_workload(config, build_backbone(CITIES))


def run_figure13a():
    rows = []
    for coverage in COVERAGES:
        model = make_model(coverage)
        full = route_chains_dp(model).solution.throughput()
        latency_only = route_chains_dp(
            model, DpConfig.latency_only()
        ).solution.throughput()
        one_hop = route_chains_dp(
            model, DpConfig.one_hop()
        ).solution.throughput()
        rows.append((coverage, full, latency_only, one_hop))
    return rows


def test_fig13a_dp_ablation(benchmark):
    rows = benchmark.pedantic(run_figure13a, iterations=1, rounds=1)
    formatted = [
        (
            cov,
            fmt(full, 0),
            fmt(lat, 0),
            fmt(hop, 0),
            fmt(full / lat, 2) + "x",
            fmt(full / hop, 2) + "x",
        )
        for cov, full, lat, hop in rows
    ]
    emit(
        "fig13a_dp_ablation",
        format_table(
            "Figure 13a -- SB-DP vs its ablations (throughput)",
            ["coverage", "SB-DP", "DP-LATENCY", "ONEHOP",
             "vs DP-LATENCY", "vs ONEHOP"],
            formatted,
            notes=[
                "paper: SB-DP up to 6x over DP-LATENCY and 2.3x over "
                "ONEHOP; DP-LATENCY catches up at coverage >= 0.75",
            ],
        ),
    )

    for _cov, full, lat, hop in rows:
        assert full >= lat - 1e-6
        assert full >= hop - 1e-6
    # Both ablation gaps are material somewhere in the sweep.
    assert max(full / lat for _c, full, lat, _h in rows) > 1.3
    assert max(full / hop for _c, full, _l, hop in rows) > 1.15
    # DP-LATENCY's gap shrinks as coverage grows (the paper's crossover
    # observation near coverage 0.75).
    gaps = [full / lat for _cov, full, lat, _hop in rows]
    assert gaps[-1] < gaps[0]
