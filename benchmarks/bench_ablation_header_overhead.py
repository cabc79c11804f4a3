"""Ablation: label switching vs source routing header overhead.

Section 8: "Segment Routing and Network Services Headers use source
routing for service chaining.  However, source routing can inflate
packet header sizes, especially when using IPv6 headers or when routing
through long chains of VNFs.  In contrast, Switchboard's data plane
uses label switching whose data plane overhead remains low even for
longer chains."

The bench tabulates per-packet header bytes for the three encodings as
chains grow, and goodput efficiency at the paper's two reference packet
sizes (64 B minimum and 500 B average).
"""

from _common import emit, fmt, format_table

from repro.dataplane.headers import compare_overheads

CHAIN_LENGTHS = (1, 2, 3, 5, 8, 12)


def run_bench():
    return [compare_overheads(n) for n in CHAIN_LENGTHS]


def test_ablation_header_overhead(benchmark):
    comparisons = benchmark.pedantic(run_bench, iterations=1, rounds=1)
    rows = [
        (
            c.chain_length,
            c.switchboard_bytes,
            c.nsh_bytes,
            c.srv6_bytes,
            fmt(100 * c.efficiency(64)["switchboard"], 1) + "%",
            fmt(100 * c.efficiency(64)["srv6"], 1) + "%",
        )
        for c in comparisons
    ]
    emit(
        "ablation_header_overhead",
        format_table(
            "Ablation -- per-packet header overhead by encoding (bytes)",
            ["chain length", "Switchboard (labels)", "NSH", "SRv6",
             "SB 64B efficiency", "SRv6 64B efficiency"],
            rows,
            notes=[
                "label switching is constant in chain length; SRv6 grows "
                "16 B per VNF (the Section 8 argument)",
            ],
        ),
    )

    sb = [c.switchboard_bytes for c in comparisons]
    srv6 = [c.srv6_bytes for c in comparisons]
    assert len(set(sb)) == 1                      # constant
    assert srv6 == sorted(srv6) and srv6[-1] > srv6[0]  # strictly grows
    for c in comparisons:
        assert c.switchboard_bytes < c.srv6_bytes
        eff = c.efficiency(64)
        assert eff["switchboard"] > eff["srv6"]
    # At chain length 12, SRv6 headers dwarf a minimum-size payload.
    long = comparisons[-1]
    assert long.srv6_bytes > 64 * 3
