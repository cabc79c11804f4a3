"""Table 3: sharing a cache VNF instance across chains.

Paper setup: five service chains fetch web objects (Zipf exponent 1,
50 KB mean size) through Squid caches, with a 60 ms RTT to the origin
site.  One *shared* cache instance for all chains is compared against
five vertically siloed instances of one-fifth the size.

Paper result: sharing yields a 57.45% hit rate vs 44.25% (a ~30%
relative improvement) and a 56.49 ms vs 70.02 ms mean download time
(19% better).
"""

from _common import emit, fmt, format_table

from repro.vnf.cache import run_cache_experiment

PAPER = {
    "shared": (57.45, 56.49),
    "siloed": (44.25, 70.02),
}

# Calibrated so absolute hit rates land near the paper's Squid numbers:
# a catalog an order of magnitude larger than the cache, Zipf(1).
PARAMS = dict(
    num_chains=5,
    total_cache_objects=600,
    requests_per_chain=4000,
    catalog_objects=6000,
    zipf_exponent=1.0,
    mean_file_kb=50.0,
    client_cache_rtt_ms=2.0,
    cache_origin_rtt_ms=60.0,
    bandwidth_mbps=100.0,
    seed=7,
    # Each customer's popularity ranking is rotated, so hot sets overlap
    # only partially -- calibrated to the paper's Squid hit rates.
    popularity_spread=100,
)


def run_table3():
    shared = run_cache_experiment(shared=True, **PARAMS)
    siloed = run_cache_experiment(shared=False, **PARAMS)
    return shared, siloed


def test_table3_cache_sharing(benchmark):
    shared, siloed = benchmark.pedantic(run_table3, iterations=1, rounds=1)
    rows = [
        (
            "Shared cache inst.",
            fmt(100 * shared.hit_rate, 2) + "%",
            fmt(shared.mean_download_ms, 2),
            f"{PAPER['shared'][0]}%",
            PAPER["shared"][1],
        ),
        (
            "Vertically siloed cache inst.",
            fmt(100 * siloed.hit_rate, 2) + "%",
            fmt(siloed.mean_download_ms, 2),
            f"{PAPER['siloed'][0]}%",
            PAPER["siloed"][1],
        ),
    ]
    hit_gain = (shared.hit_rate - siloed.hit_rate) / siloed.hit_rate
    dl_gain = 1 - shared.mean_download_ms / siloed.mean_download_ms
    emit(
        "table3_cache_sharing",
        format_table(
            "Table 3 -- advantage of sharing a cache across chains",
            ["scheme", "hit rate", "download (ms)",
             "paper hit rate", "paper dl (ms)"],
            rows,
            notes=[
                f"relative hit-rate gain: {fmt(100 * hit_gain, 0)}% "
                "(paper: 30%)",
                f"download-time improvement: {fmt(100 * dl_gain, 0)}% "
                "(paper: 19%)",
            ],
        ),
    )

    # Absolute values near the paper's Squid measurements.
    assert abs(shared.hit_rate - 0.5745) < 0.08
    assert abs(siloed.hit_rate - 0.4425) < 0.08
    # Relative effects: the paper's 30% hit gain and 19% download gain.
    assert 0.15 <= hit_gain <= 0.50
    assert 0.10 <= dl_gain <= 0.30
    assert shared.mean_download_ms < siloed.mean_download_ms
