"""Figure 8: DPDK forwarder horizontal scaling in cores and flows.

Paper result: ~7 Mpps on one core with few flows; each added forwarder
core contributes 3-4 Mpps at the 512K-flows-per-core operating point;
six cores with 3M total flows exceed 20 Mpps (80 Gbps at 500-byte
packets); per-core throughput settles above 3 Mpps when the flow table
far exceeds the CPU cache; 1 ms latency at peak load, tens of
microseconds otherwise.
"""

from _common import emit, fmt, format_table

from repro.dataplane.perfmodel import DpdkForwarderModel, pps_to_gbps


def run_figure8():
    model = DpdkForwarderModel()
    core_rows = []
    for cores in range(1, 7):
        small = model.throughput_pps(cores, 10_000)
        big = model.throughput_pps(cores, 512_000)
        core_rows.append(
            (
                cores,
                cores * 512_000,
                fmt(small / 1e6),
                fmt(big / 1e6),
                fmt(pps_to_gbps(big, 500), 1),
            )
        )
    flow_rows = []
    for flows in (10_000, 128_000, 256_000, 512_000, 2_000_000, 50_000_000):
        flow_rows.append(
            (
                flows,
                fmt(model.miss_rate(flows), 3),
                fmt(model.per_core_pps(flows) / 1e6),
            )
        )
    latency_rows = [
        (fmt(u, 2), fmt(model.latency_us(u), 1))
        for u in (0.1, 0.5, 0.9, 0.99, 1.0)
    ]
    return model, core_rows, flow_rows, latency_rows


def test_fig8_dpdk_scaling(benchmark):
    model, core_rows, flow_rows, latency_rows = benchmark.pedantic(
        run_figure8, iterations=1, rounds=1
    )
    emit(
        "fig8_dpdk_scaling",
        format_table(
            "Figure 8 -- DPDK forwarder scale-out",
            ["cores", "total flows", "Mpps (10K flows/core)",
             "Mpps (512K flows/core)", "Gbps@500B"],
            core_rows,
            notes=[
                "paper: 7 Mpps @ 1 core; >20 Mpps @ 6 cores with 3M flows",
            ],
        )
        + format_table(
            "Figure 8 (cont.) -- per-core rate vs flow-table size",
            ["flows/core", "cache miss rate", "Mpps/core"],
            flow_rows,
            notes=["paper: steady state 'in excess of 3 Mpps' per core"],
        )
        + format_table(
            "Figure 8 (cont.) -- forwarding latency vs load",
            ["load fraction", "latency (us)"],
            latency_rows,
            notes=["paper: 1 ms at max throughput, tens of us at low load"],
        ),
    )

    assert model.throughput_pps(1, 10_000) > 7e6
    assert model.throughput_pps(6, 512_000) > 20e6
    assert pps_to_gbps(model.throughput_pps(6, 512_000), 500) > 80.0
    assert model.steady_state_pps() > 3e6
    one = model.throughput_pps(1, 512_000)
    two = model.throughput_pps(2, 512_000)
    assert 3e6 <= two - one <= 4.6e6
    assert model.latency_us(1.0) == 1000.0
    assert model.latency_us(0.1) < 50.0
