"""Federated two-level control plane vs. monolithic solver farm.

The federation's scalability claim: cutting the substrate into regions
and planning each region independently (with only cross-shard chains
going through the global coordinator's split + 2PC install) beats the
monolithic ``SolverFarm`` on the same workload -- because each regional
LP sees a fraction of the substrate *and* a fraction of the chains, the
partitioner and the per-partition pre-route DP shrink superlinearly.

Measured on a generated clustered PoP topology
(:func:`repro.topology.pops.generate_federation_workload`) at a
CI-sized scale; ``python -m repro federation --pops 500
--chains 100000`` runs the same comparison at paper scale.

Acceptance (checked every CI run):

- federated cold plan beats the monolithic farm's cold solve by
  ``COLD_SPEEDUP_MIN`` (1.25x);
- federated incremental re-plan after demand changes beats the
  monolithic farm's incremental resolve by ``INCR_SPEEDUP_MIN`` (1.5x).
  Both were 3x while the monolithic farm's cold solve took ~14 s;
  column generation over route columns (DESIGN.md section 9) cut it to
  ~0.6 s and its incremental resolve to ~0.05 s, and over twenty runs
  on a 2-vCPU Xeon the speedups read 1.9-4.8x cold and 2.4-11.7x
  incremental, so the minima leave ~1.5x headroom under the worst;
- carried-throughput gap vs. monolithic within the documented 15%
  partition tolerance;
- zero capacity-safety / atomicity / stitching invariant violations.
"""

import time

from _common import emit, fmt, format_table

from repro.core.lp import LpObjective, clear_matrix_cache
from repro.federation import GlobalCoordinator, check_all
from repro.scale import DEFAULT_GAP_TOLERANCE, SolverFarm
from repro.topology.pops import PopGridConfig, generate_federation_workload

NUM_POPS = 36
NUM_REGIONS = 3
NUM_CHAINS = 144
PARTITION_SIZE = 16
NUM_CHANGED = 6
COLD_SPEEDUP_MIN = 1.25
INCR_SPEEDUP_MIN = 1.5


def make_model():
    config = PopGridConfig(
        num_pops=NUM_POPS,
        num_metros=NUM_REGIONS,
        num_chains=NUM_CHAINS,
        seed=7,
    )
    model, _metro_of = generate_federation_workload(config)
    return model


def _scale_chains(model, names, factor):
    for name in names:
        chain = model.chains[name]
        model.remove_chain(name)
        model.add_chain(chain.scaled(factor))


def run_federation_scale():
    clear_matrix_cache()
    model = make_model()

    coordinator = GlobalCoordinator(
        model,
        n_regions=NUM_REGIONS,
        partition_size=PARTITION_SIZE,
        max_workers=1,
    )
    coordinator.sync_chains()
    stats = coordinator.stats()

    start = time.perf_counter()
    fed_cold = coordinator.plan_all(LpObjective.MAX_THROUGHPUT)
    fed_cold_s = time.perf_counter() - start

    changed = sorted(model.chains)[:NUM_CHANGED]
    _scale_chains(model, changed, 1.25)
    start = time.perf_counter()
    fed_incr = coordinator.resolve(model, changed)
    fed_incr_s = time.perf_counter() - start
    violations = check_all(coordinator, fed_incr)
    _scale_chains(model, changed, 1.0 / 1.25)
    coordinator.sync_chains()

    # Monolithic farm on the identical workload (fresh matrix cache so
    # the comparison is cold-vs-cold).
    clear_matrix_cache()
    farm = SolverFarm(partition_size=PARTITION_SIZE, max_workers=1)
    start = time.perf_counter()
    mono_cold = farm.solve(model, LpObjective.MAX_THROUGHPUT)
    mono_cold_s = time.perf_counter() - start
    _scale_chains(model, changed, 1.25)
    start = time.perf_counter()
    mono_incr = farm.resolve(model, changed)
    mono_incr_s = time.perf_counter() - start

    return {
        "stats": stats,
        "fed_cold_s": fed_cold_s,
        "fed_incr_s": fed_incr_s,
        "fed_cold": fed_cold,
        "fed_incr": fed_incr,
        "mono_cold_s": mono_cold_s,
        "mono_incr_s": mono_incr_s,
        "mono_cold": mono_cold,
        "mono_incr": mono_incr,
        "violations": violations,
    }


def test_federation_scale(benchmark):
    r = benchmark.pedantic(run_federation_scale, iterations=1, rounds=1)
    stats = r["stats"]
    mono_carried = (
        r["mono_cold"].solution.throughput() if r["mono_cold"].solution else 0.0
    )
    fed_carried = r["fed_cold"].carried_demand
    gap = abs(fed_carried - mono_carried) / max(mono_carried, 1e-9)
    cold_speedup = r["mono_cold_s"] / max(r["fed_cold_s"], 1e-9)
    incr_speedup = r["mono_incr_s"] / max(r["fed_incr_s"], 1e-9)

    rows = [
        (
            "monolithic cold",
            fmt(r["mono_cold_s"]),
            fmt(mono_carried, 1),
            "-",
        ),
        (
            "federated cold",
            fmt(r["fed_cold_s"]),
            fmt(fed_carried, 1),
            fmt(cold_speedup, 1) + "x",
        ),
        (
            "monolithic incr",
            fmt(r["mono_incr_s"]),
            "-",
            "-",
        ),
        (
            "federated incr",
            fmt(r["fed_incr_s"]),
            fmt(r["fed_incr"].carried_demand, 1),
            fmt(incr_speedup, 1) + "x",
        ),
    ]
    emit(
        "federation_scale",
        format_table(
            f"repro.federation -- two-level federated plan vs. monolithic "
            f"farm ({NUM_POPS} PoPs, {NUM_CHAINS} chains, "
            f"{NUM_REGIONS} regions)",
            ["plan", "wall s", "carried", "speedup"],
            rows,
            notes=[
                f"{stats['chains_cross']} cross-shard chains "
                f"({stats['cross_shard_ratio']:.1%}) across "
                f"{stats['borders']} border links",
                f"carried-throughput gap vs. monolithic "
                f"{fmt(100 * gap, 1)}% (tolerance "
                f"{fmt(100 * DEFAULT_GAP_TOLERANCE, 0)}%)",
                f"incremental: {NUM_CHANGED} chains re-scaled; regions "
                f"re-solved {list(r['fed_incr'].resolved_regions)}",
            ],
        ),
    )

    # Acceptance: the federation contract of the module docstring.
    assert r["fed_cold"].ok and r["fed_incr"].ok
    assert r["mono_cold"].ok and r["mono_incr"].ok
    assert cold_speedup >= COLD_SPEEDUP_MIN
    assert incr_speedup >= INCR_SPEEDUP_MIN
    assert gap <= DEFAULT_GAP_TOLERANCE
    assert not r["violations"]
    # Only regions actually hosting a changed chain re-solved.
    assert 0 < len(r["fed_incr"].resolved_regions) <= NUM_REGIONS
