"""Figure 7: OVS forwarder overhead vs a plain bridge.

Paper result: relative to a normal bridge, overlay labels (VXLAN+MPLS)
cost 19-29% of throughput and flow-affinity rules a further 33-44%, the
overhead shrinking as concurrent flows grow from 1 to 50; beyond that,
OVS scales poorly in the number of flows.
"""

from _common import emit, fmt, format_table

from repro.dataplane.perfmodel import OvsForwarderModel

FLOW_POINTS = (1, 2, 5, 10, 20, 50)


def run_figure7():
    model = OvsForwarderModel()
    rows = []
    for flows in FLOW_POINTS:
        bridge = model.throughput_pps("bridge", flows)
        labels = model.throughput_pps("labels", flows)
        affinity = model.throughput_pps("labels+affinity", flows)
        rows.append(
            (
                flows,
                fmt(bridge / 1e6),
                fmt(labels / 1e6),
                fmt(affinity / 1e6),
                fmt(100 * (1 - labels / bridge), 1) + "%",
                fmt(100 * (1 - affinity / labels), 1) + "%",
            )
        )
    scaling = [
        (flows, fmt(model.throughput_pps("labels+affinity", flows) / 1e6))
        for flows in (50, 1000, 5000, 20000, 50000)
    ]
    return model, rows, scaling


def test_fig7_ovs_overhead(benchmark):
    model, rows, scaling = benchmark.pedantic(
        run_figure7, iterations=1, rounds=1
    )
    emit(
        "fig7_ovs_overhead",
        format_table(
            "Figure 7 -- OVS forwarder throughput (Mpps) by pipeline config",
            ["flows", "(c) bridge", "(b) +labels", "(a) +affinity",
             "label ovh", "affinity ovh"],
            rows,
            notes=[
                "paper: labels add 19-29% overhead, affinity a further "
                "33-44%, shrinking with more flows",
            ],
        )
        + format_table(
            "Figure 7 (cont.) -- flow-count scalability of the full pipeline",
            ["flows", "Mpps"],
            scaling,
            notes=["paper: 'poor scalability upon increasing the number of "
                   "flows' motivates the DPDK forwarder"],
        ),
    )

    # Paper bands at the endpoints.
    assert 0.27 <= model.label_overhead(1) <= 0.29
    assert 0.19 <= model.label_overhead(50) <= 0.21
    assert 0.42 <= model.affinity_overhead(1) <= 0.44
    assert 0.33 <= model.affinity_overhead(50) <= 0.35
    # Overheads shrink with flows; full pipeline collapses at high counts.
    assert model.throughput_pps("labels+affinity", 50_000) < (
        model.throughput_pps("labels+affinity", 50) / 5
    )
