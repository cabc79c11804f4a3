"""Solver farm vs. monolithic SB-LP (the Section 7 scalability story).

The paper reports SB-LP solve times that grow superlinearly with the
chain count (up to three hours at 10 000 chains on CPLEX).  The
``repro.scale`` farm attacks that curve by partitioning the chain set,
solving partitions independently (optionally across processes), caching
partition solutions by model digest, and re-solving only changed
partitions on re-optimization.

Measured here on a 128-chain workload.  With the column-generation
direct-HiGHS backend the *monolithic* solve is no longer superlinearly
slow at this size, so the farm's edge is amortization, not raw cold
wall time:

- cold farm solve stays within ``COLD_OVERHEAD_FACTOR`` (6x) of
  monolithic: the decomposition overhead -- partitioning plus eight
  per-partition solver set-ups -- is bounded.  The factor was 3x while
  the monolithic solve took ~0.4 s; column generation over route
  columns (DESIGN.md section 9) cut that to ~0.05 s and the cold farm
  solve only to ~0.2 s, so the ratio rose to 3.2-4.2x over twenty runs
  on a 2-vCPU Xeon, and 6x leaves ~1.4x headroom over the worst;
- merged-objective optimality gap vs. the documented
  ``DEFAULT_GAP_TOLERANCE`` contract;
- warm-cache re-solve (every partition a cache hit) beats monolithic
  by >= 2x;
- incremental ``resolve`` after one chain's demand changes (exactly one
  partition re-solved, asserted via the ``scale.*`` obs counters)
  beats a full monolithic re-solve by >= 2x.

Each invocation clears the module-global LP matrix cache first so
every repeat measures a cold monolithic solve against a cold farm
solve -- otherwise the cache populated by repeat N makes repeat N+1
incomparable.
"""

import time

from _common import emit, fmt, format_table

from repro.core.lp import (
    LpObjective,
    clear_matrix_cache,
    solve_chain_routing_lp,
)
from repro.obs import MetricsRegistry
from repro.scale import DEFAULT_GAP_TOLERANCE, SolverFarm
from repro.topology import WorkloadConfig, build_backbone, generate_workload
from repro.topology.cities import DEFAULT_CITIES

CITIES = DEFAULT_CITIES[:14]
NUM_CHAINS = 128
PARTITION_SIZE = 16
COLD_OVERHEAD_FACTOR = 6.0


def make_model():
    config = WorkloadConfig(
        num_chains=NUM_CHAINS,
        num_vnfs=10,
        coverage=0.5,
        total_traffic=8000.0,
        site_capacity=26000.0,
        cities=CITIES,
        seed=11,
    )
    return generate_workload(config, build_backbone(CITIES))


def run_solver_farm():
    clear_matrix_cache()
    model = make_model()
    registry = MetricsRegistry()

    start = time.perf_counter()
    mono = solve_chain_routing_lp(model, LpObjective.MAX_THROUGHPUT)
    mono_s = time.perf_counter() - start
    assert mono.ok

    farm = SolverFarm(
        partition_size=PARTITION_SIZE, max_workers=1, metrics=registry
    )
    start = time.perf_counter()
    cold = farm.solve(model)
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    warm = farm.solve(model)
    warm_s = time.perf_counter() - start
    # Validate now: the solution references the live model, which the
    # incremental step below mutates.
    cold_violations = cold.solution.violations()

    # Scale one chain's demand by 1.5x and re-solve incrementally.
    solves_before = registry.value("scale.partition_solves")
    changed = sorted(model.chains)[0]
    chain = model.chains[changed]
    model.remove_chain(changed)
    model.add_chain(chain.scaled(1.5))
    start = time.perf_counter()
    incr = farm.resolve(model, [changed])
    incr_s = time.perf_counter() - start
    incr_solves = registry.value("scale.partition_solves") - solves_before

    rows = [
        ("monolithic", mono_s, mono.solution.throughput(), None, None),
        ("farm cold", cold_s, cold.solution.throughput(), cold, mono_s),
        ("farm warm", warm_s, warm.solution.throughput(), warm, mono_s),
        ("incremental", incr_s, incr.solution.throughput(), incr, mono_s),
    ]
    return rows, incr_solves, cold_violations, incr, registry


def test_scale_solver_farm(benchmark):
    rows, incr_solves, cold_violations, incr, registry = benchmark.pedantic(
        run_solver_farm, iterations=1, rounds=1
    )
    (_, mono_s, mono_thr, _, _) = rows[0]
    formatted = []
    for name, seconds, thr, result, base_s in rows:
        if result is None:
            formatted.append(
                (name, fmt(seconds), fmt(thr, 1), "-", "-", "-")
            )
        else:
            formatted.append(
                (
                    name,
                    fmt(seconds),
                    fmt(thr, 1),
                    f"{len(result.solved)}/{result.partitions}",
                    str(result.cache_hits),
                    fmt(base_s / seconds, 1) + "x",
                )
            )
    gap = abs(rows[1][2] - mono_thr) / mono_thr
    emit(
        "scale_solver_farm",
        format_table(
            f"repro.scale -- solver farm vs. monolithic SB-LP "
            f"({NUM_CHAINS} chains, partition size {PARTITION_SIZE})",
            ["solver", "wall s", "carried", "solved", "cache hits",
             "speedup"],
            formatted,
            notes=[
                f"merged-objective gap {fmt(100 * gap, 1)}% "
                f"(documented tolerance "
                f"{fmt(100 * DEFAULT_GAP_TOLERANCE, 0)}%)",
                "single process, cold LP matrix cache: the farm's edge "
                "is warm/incremental amortization; a pool multiplies "
                "partition solves by core count",
                f"incremental resolve after 1 chain changed: "
                f"{incr_solves:.0f} partition solve(s), rest from cache",
            ],
        ),
    )

    cold_s, warm_s, incr_s = rows[1][1], rows[2][1], rows[3][1]
    # Acceptance: decomposition overhead bounded on the cold solve, gap
    # within the documented tolerance, zero constraint violations.
    assert cold_s <= COLD_OVERHEAD_FACTOR * mono_s
    assert gap <= DEFAULT_GAP_TOLERANCE
    assert not cold_violations
    assert not incr.solution.violations()
    # Warm cache: nothing solved, everything served.
    assert mono_s / warm_s >= 2.0
    # Incremental resolve beats a full monolithic re-solve.
    assert mono_s / incr_s >= 2.0
    # Incremental: exactly one partition re-solved (obs counters).
    assert incr_solves == 1
    assert len(incr.solved) == 1
    assert incr.cache_hits == incr.partitions - 1
    assert registry.value("scale.cache.hits") >= incr.partitions - 1
