"""Figure 9: global message bus vs full-mesh broadcast.

Paper result: on a multi-site testbed with emulated WAN delays, the
proxy-topology bus achieves 57% higher throughput and more than 10x
lower latency than full-mesh broadcast, because broadcast serializes one
copy per *subscriber* through the publisher site's uplink (queueing) and
overflows its buffers (drops), while the bus sends one copy per
subscribed *site*.
"""

from _common import emit, fmt, format_table

from repro.bus import Topic, make_bus, make_full_mesh_bus

SITES = [f"S{i}" for i in range(10)]
SUBSCRIBERS_PER_SITE = 5
PUBLISHES = 700
PUBLISH_INTERVAL_S = 1 / 35  # ~35 msg/s: bus at ~31% uplink, mesh at ~157%
WAN_DELAY_S = 0.025
UPLINK_BPS = 8e6  # 1000 msgs/s of 1000 B
BUFFER_BYTES = 400_000


def run_bus(make, metrics=None):
    bus = make(
        SITES,
        wan_delay_s=WAN_DELAY_S,
        uplink_bps=UPLINK_BPS,
        uplink_buffer_bytes=BUFFER_BYTES,
        metrics=metrics,
    )
    topic = Topic(chain="c1", egress="e3", vnf="G", site="S0", kind="instances")
    bus.attach("pub", "S0")
    for site in SITES[1:]:
        for j in range(SUBSCRIBERS_PER_SITE):
            name = f"sub-{site}-{j}"
            bus.attach(name, site)
            bus.subscribe(name, topic)
    for i in range(PUBLISHES):
        bus.network.sim.schedule(
            i * PUBLISH_INTERVAL_S, bus.publish, "pub", topic, {"seq": i}
        )
    bus.network.run()
    return bus.stats


def run_figure9(metrics=None):
    return run_bus(make_bus, metrics), run_bus(make_full_mesh_bus, metrics)


def test_fig9_message_bus(benchmark, obs_registry):
    proxy, mesh = benchmark.pedantic(
        run_figure9, args=(obs_registry,), iterations=1, rounds=1
    )
    latency_ratio = mesh.mean_latency() / proxy.mean_latency()
    throughput_gain = proxy.delivered / mesh.delivered - 1
    rows = [
        (
            name,
            stats.published,
            stats.wan_messages,
            stats.wan_drops,
            stats.delivered,
            fmt(stats.mean_latency() * 1e3, 1),
            fmt(stats.p99_latency() * 1e3, 1),
        )
        for name, stats in (("Switchboard bus", proxy), ("full-mesh", mesh))
    ]
    emit(
        "fig9_message_bus",
        format_table(
            "Figure 9 -- message bus vs full-mesh broadcast "
            f"({len(SITES)} sites, {SUBSCRIBERS_PER_SITE} subs/site)",
            ["scheme", "published", "wan msgs", "wan drops", "delivered",
             "mean lat (ms)", "p99 lat (ms)"],
            rows,
            notes=[
                f"latency ratio (mesh/bus): {fmt(latency_ratio, 1)}x "
                "(paper: >10x)",
                f"bus throughput gain: {fmt(100 * throughput_gain, 0)}% "
                "(paper: 57%)",
            ],
        ),
    )

    # One copy per site vs one per subscriber.
    assert proxy.wan_messages == PUBLISHES * (len(SITES) - 1)
    assert mesh.wan_messages == PUBLISHES * (len(SITES) - 1) * SUBSCRIBERS_PER_SITE
    # The paper's two headline effects.
    assert latency_ratio > 10.0
    assert mesh.wan_drops > 0 and proxy.wan_drops == 0
    assert 0.3 <= throughput_gain <= 0.9  # paper: 0.57
