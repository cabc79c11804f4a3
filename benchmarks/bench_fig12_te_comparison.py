"""Figure 12: wide-area routing comparison on the tier-1-style dataset.

Paper results (AT&T backbone, 10 000 chains, 100 VNFs):

(a) throughput vs VNF coverage -- SB-LP and SB-DP improve with coverage
    and sit within 0-11% of each other; ANYCAST is more than an order of
    magnitude worse and cannot exploit coverage;
(b) throughput vs CPU/byte -- SB schemes vastly outperform ANYCAST both
    when the network is the bottleneck (low CPU/byte) and when compute
    is (high CPU/byte); SB-DP within 11-36% of SB-LP;
(c) latency vs load -- ANYCAST's latency is >40% higher than SB-LP even
    at low load and it cannot handle loads beyond a small fraction of
    what SB-LP sustains; SB-DP stays within ~8% of SB-LP.

Scale note: this harness runs the identical formulations on a synthetic
15-PoP backbone with 40 chains and 12 VNF services so that SB-LP (3 h
with CPLEX for the authors) completes in seconds.  Orderings and trends
are the reproduction target.
"""

import os
from functools import lru_cache

from _common import emit, fmt, format_table

from repro.core.baselines import route_anycast, scale_to_capacity
from repro.core.dp import route_chains_dp
from repro.core.lp import LpObjective, solve_chain_routing_lp
from repro.topology import WorkloadConfig, build_backbone, generate_workload
from repro.topology.cities import DEFAULT_CITIES

# REPRO_FULL_SCALE=1 runs the sweep on the full 25-PoP backbone with a
# 4x chain count -- SB-LP then takes minutes per point (the paper's
# CPLEX runs took hours at 10 000 chains), so the default stays small.
_FULL = os.environ.get("REPRO_FULL_SCALE") == "1"
CITIES = DEFAULT_CITIES if _FULL else DEFAULT_CITIES[:15]
NUM_CHAINS = 160 if _FULL else 40
NUM_VNFS = 20 if _FULL else 12
TOTAL_TRAFFIC = 12000.0 if _FULL else 6000.0
SITE_CAPACITY = 14400.0 if _FULL else 7200.0
COVERAGES = (0.25, 0.5, 0.75, 1.0)
CPU_PER_BYTE = (0.25, 0.5, 1.0, 2.0, 4.0)
LOAD_FACTORS = (0.1, 0.2, 0.4, 0.7, 1.0)


@lru_cache(maxsize=1)
def backbone():
    return build_backbone(CITIES)


def make_model(coverage=0.5, cpu_per_byte=1.0, traffic=TOTAL_TRAFFIC):
    config = WorkloadConfig(
        num_chains=NUM_CHAINS,
        num_vnfs=NUM_VNFS,
        coverage=coverage,
        cpu_per_byte=cpu_per_byte,
        total_traffic=traffic,
        site_capacity=SITE_CAPACITY,
        cities=CITIES,
        seed=42,
    )
    return generate_workload(config, backbone())


def throughputs(model):
    lp = solve_chain_routing_lp(model, LpObjective.MAX_THROUGHPUT)
    dp = route_chains_dp(model)
    anycast = scale_to_capacity(route_anycast(model))
    return (
        lp.solution.throughput(),
        dp.solution.throughput(),
        anycast.throughput(),
    )


def run_figure12a():
    rows = []
    for coverage in COVERAGES:
        model = make_model(coverage=coverage)
        lp, dp, anycast = throughputs(model)
        rows.append((coverage, model.total_demand(), lp, dp, anycast))
    return rows


def run_figure12b():
    rows = []
    for cpu in CPU_PER_BYTE:
        model = make_model(cpu_per_byte=cpu)
        lp, dp, anycast = throughputs(model)
        rows.append((cpu, model.total_demand(), lp, dp, anycast))
    return rows


def run_figure12c():
    """Latency vs uniform load scaling (SB-LP objective: min latency)."""
    rows = []
    for factor in LOAD_FACTORS:
        model = make_model(traffic=TOTAL_TRAFFIC * factor)
        lp = solve_chain_routing_lp(model, LpObjective.MIN_LATENCY)
        lp_latency = lp.solution.mean_latency() if lp.ok else None
        dp = route_chains_dp(model)
        dp_latency = (
            dp.solution.mean_latency() if dp.fully_routed else None
        )
        anycast = scale_to_capacity(route_anycast(model))
        offered = model.total_demand()
        anycast_ok = anycast.throughput() >= 0.999 * offered
        anycast_latency = anycast.mean_latency() if anycast_ok else None
        rows.append((factor, lp_latency, dp_latency, anycast_latency))
    return rows


def run_figure12():
    return run_figure12a(), run_figure12b(), run_figure12c()


def _tp_table(title, x_label, rows):
    formatted = [
        (
            x,
            fmt(offered, 0),
            fmt(lp, 0),
            fmt(dp, 0),
            fmt(anycast, 0),
            fmt(dp / lp, 2),
            fmt(lp / anycast, 1) + "x",
        )
        for x, offered, lp, dp, anycast in rows
    ]
    return format_table(
        title,
        [x_label, "offered", "SB-LP", "SB-DP", "ANYCAST",
         "DP/LP", "LP/ANY"],
        formatted,
    )


def test_fig12_te_comparison(benchmark):
    fig_a, fig_b, fig_c = benchmark.pedantic(
        run_figure12, iterations=1, rounds=1
    )
    latency_rows = [
        (
            factor,
            fmt(lp, 1) if lp is not None else "infeasible",
            fmt(dp, 1) if dp is not None else "partial",
            fmt(anycast, 1) if anycast is not None else "overloaded",
        )
        for factor, lp, dp, anycast in fig_c
    ]
    emit(
        "fig12_te_comparison",
        _tp_table(
            "Figure 12a -- throughput vs VNF coverage", "coverage", fig_a
        )
        + _tp_table(
            "Figure 12b -- throughput vs CPU/byte", "CPU/byte", fig_b
        )
        + format_table(
            "Figure 12c -- mean chain latency (ms) vs load factor",
            ["load factor", "SB-LP (min-latency)", "SB-DP", "ANYCAST"],
            latency_rows,
            notes=[
                "'overloaded' = ANYCAST cannot carry the offered load; "
                "'infeasible' = no full routing exists",
                "paper: ANYCAST fails above 10% of SB-LP's sustainable "
                "load and is >40% worse at low load; SB-DP within 8% of "
                "SB-LP",
            ],
        ),
    )

    # (a) Coverage helps the SB schemes...
    assert fig_a[2][2] > fig_a[0][2] * 1.15  # LP, cov 0.75 vs 0.25
    assert fig_a[2][3] > fig_a[0][3] * 1.15  # DP
    # ...while ANYCAST stays behind everywhere (the gap narrows at full
    # coverage, where every VNF is local to its ingress).
    for cov, _offered, lp, dp, anycast in fig_a:
        assert lp >= dp - 1e-6
        assert anycast < 0.8 * lp
        if cov <= 0.5:
            assert anycast < 0.5 * lp
    assert fig_a[0][2] / fig_a[0][4] > 3.0  # low coverage: LP >> ANYCAST

    # (b) SB beats ANYCAST across the bottleneck spectrum; DP tracks LP.
    # Paper: SB-DP within 11-36% of SB-LP; we allow a slightly wider band
    # at the extreme compute-bound point on the scaled-down workload.
    for _cpu, _offered, lp, dp, anycast in fig_b:
        assert anycast < 0.8 * lp
        assert dp >= 0.55 * lp

    # (c) ANYCAST saturates at a much lower load than SB-LP.
    lp_feasible = [f for f, lp, _dp, _a in fig_c if lp is not None]
    anycast_feasible = [f for f, _lp, _dp, a in fig_c if a is not None]
    assert max(anycast_feasible, default=0.0) < max(lp_feasible)
    # At the lowest load, ANYCAST's latency exceeds SB-LP's.
    factor0, lp0, dp0, any0 = fig_c[0]
    assert any0 is None or any0 > lp0
    # SB-DP's latency within a modest factor of SB-LP (paper: 8%).
    assert dp0 is not None and dp0 <= 1.25 * lp0
