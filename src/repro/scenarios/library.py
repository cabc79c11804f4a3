"""The workload-scenario library: seeded generators for the ROADMAP's
scenario-diversity mix.

Each generator is a pure function ``(seed, ctx, duration_s) ->``
:class:`~repro.scenarios.schedule.WorkloadSchedule`: every random draw
comes from ``random.Random`` seeded on ``(kind, seed)``, so one integer
seed reproduces the schedule byte-identically (asserted by the scenario
tests and surfaced as the schedule digest in fuzz reports).

The six kinds, generalizing the hand-picked workloads the benches
already drive:

- **diurnal_wave** -- per-site phase-offset demand waves (the
  ``ext_diurnal_reoptimization`` bench generalized to any deployment):
  periodic ``redemand`` ops walk every base chain through a day curve,
  with each logical site in its own timezone phase.
- **flash_crowd** -- a sudden crowd on one hot site: a burst of
  short-lived high-demand chains ramps up within seconds, holds, then
  drains.
- **evacuation_cascade** -- a regional evacuation: every chain homed at
  the evacuated site is torn down and re-created elsewhere, site after
  site, the wave overlapping with the next site's drain.
- **site_churn** -- mobile-CPE churn: a steady arrival process of
  short-lived, low-demand chains at random sites, each with its own
  departure.
- **zipf_mix** -- multi-tenant Zipf mix: tenants hold Zipf-distributed
  shares of chains and demand, arriving throughout the run with a tail
  of removals, so a few heavy tenants dominate while many small ones
  churn.
- **adversarial_matrix** -- worst-case matrix: every create targets the
  same site pair with maximal chain length and capacity-edge demands,
  and every base chain surges at once -- built to sit on admission and
  capacity boundaries.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from repro.scenarios.schedule import (
    ScheduleError,
    WorkloadOp,
    WorkloadSchedule,
)


@dataclass(frozen=True)
class WorkloadContext:
    """What a generator may assume about the target deployment.

    Matches the chaos soak defaults (:mod:`repro.chaos.runner`): sites
    are addressed as logical indices ``0 .. num_sites-1``, the
    pre-installed population is ``chain0 .. chain<num_base_chains-1>``
    with ``base_demand`` forward units each, and created chains may use
    up to ``max_stages`` VNFs.
    """

    num_sites: int = 4
    num_base_chains: int = 8
    base_demand: float = 3.0
    max_stages: int = 2

    def base_chain(self, i: int) -> str:
        return f"chain{i % max(1, self.num_base_chains)}"


#: Run length of a schedule nobody asked a duration for.
DEFAULT_DURATION_S = 24.0


def _rng(kind: str, seed: int) -> random.Random:
    return random.Random(f"scenario-{kind}-{seed}")


def _pick_pair(rng: random.Random, ctx: WorkloadContext) -> tuple[int, int]:
    ingress = rng.randrange(ctx.num_sites)
    egress = rng.randrange(ctx.num_sites - 1)
    if egress >= ingress:
        egress += 1
    return ingress, egress


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


_DIURNAL_EPOCHS = 6
_DIURNAL_AMPLITUDE = 0.5  # peak-to-mean demand swing
_DIURNAL_MIN_FACTOR = 0.25  # relative-step clamp


def diurnal_wave(
    seed: int, ctx: WorkloadContext, duration_s: float
) -> WorkloadSchedule:
    """Multi-region diurnal demand waves over the base population.

    Each base chain follows a sinusoidal day curve whose phase is set by
    its home site (``i % num_sites``), so peaks roll around the regions
    the way evening traffic rolls around timezones.  Ops carry
    *relative* factors (new demand / current demand), matching
    :func:`repro.controller.reoptimize.reoptimize` semantics.
    """
    rng = _rng("diurnal_wave", seed)
    ops: list[WorkloadOp] = []
    jitter = [rng.uniform(-0.05, 0.05) for _ in range(ctx.num_base_chains)]
    current = [1.0] * ctx.num_base_chains
    for epoch in range(1, _DIURNAL_EPOCHS + 1):
        at = duration_s * epoch / (_DIURNAL_EPOCHS + 1)
        day_angle = 2 * math.pi * epoch / (_DIURNAL_EPOCHS + 1)
        for i in range(ctx.num_base_chains):
            phase = 2 * math.pi * (i % ctx.num_sites) / ctx.num_sites
            target = 1.0 + _DIURNAL_AMPLITUDE * math.sin(
                day_angle + phase
            ) + jitter[i]
            target = max(_DIURNAL_MIN_FACTOR, target)
            step = target / current[i]
            if abs(step - 1.0) < 1e-3:
                continue
            current[i] = target
            ops.append(
                WorkloadOp(
                    at=at, op="redemand", chain=ctx.base_chain(i),
                    value=round(step, 6),
                )
            )
    return WorkloadSchedule(
        kind="diurnal_wave", seed=seed, duration_s=duration_s, ops=ops
    )


_CROWD_CHAINS = 6
_CROWD_RAMP_S = 2.0
_CROWD_HOLD_S = 6.0
_CROWD_DEMAND_FACTOR = 1.5  # per-crowd-chain demand vs base


def flash_crowd(
    seed: int, ctx: WorkloadContext, duration_s: float
) -> WorkloadSchedule:
    """A flash crowd converging on one hot site, then draining."""
    rng = _rng("flash_crowd", seed)
    hot = rng.randrange(ctx.num_sites)
    start = rng.uniform(0.2, 0.5) * duration_s
    ops: list[WorkloadOp] = []
    for i in range(_CROWD_CHAINS):
        ingress = rng.randrange(ctx.num_sites - 1)
        if ingress >= hot:
            ingress += 1
        born = start + _CROWD_RAMP_S * i / _CROWD_CHAINS
        died = min(
            born + _CROWD_HOLD_S + rng.uniform(0.0, _CROWD_RAMP_S),
            0.95 * duration_s,
        )
        name = f"wl-flash-{i}"
        demand = round(_CROWD_DEMAND_FACTOR * ctx.base_demand, 6)
        ops.append(
            WorkloadOp(
                at=born, op="create", chain=name,
                ingress=ingress, egress=hot,
                stages=1 + rng.randrange(ctx.max_stages),
                value=demand,
            )
        )
        ops.append(WorkloadOp(at=died, op="remove", chain=name))
    return WorkloadSchedule(
        kind="flash_crowd", seed=seed, duration_s=duration_s, ops=ops
    )


_EVACUATED_SITES = 2
_EVACUATION_WAVE_S = 4.0


def evacuation_cascade(
    seed: int, ctx: WorkloadContext, duration_s: float
) -> WorkloadSchedule:
    """Regional evacuation cascade: drain one site onto the others,
    then the next, the waves overlapping."""
    rng = _rng("evacuation_cascade", seed)
    order = list(range(ctx.num_sites))
    rng.shuffle(order)
    evacuated = order[: max(1, min(_EVACUATED_SITES, ctx.num_sites - 1))]
    survivors = [s for s in range(ctx.num_sites) if s not in evacuated]
    ops: list[WorkloadOp] = []
    start = rng.uniform(0.15, 0.3) * duration_s
    serial = 0
    for wave, site in enumerate(evacuated):
        wave_start = start + wave * 0.6 * _EVACUATION_WAVE_S
        homed = [
            i for i in range(ctx.num_base_chains) if i % ctx.num_sites == site
        ]
        for k, i in enumerate(homed):
            at = wave_start + _EVACUATION_WAVE_S * (k + 1) / (len(homed) + 1)
            ops.append(
                WorkloadOp(at=at, op="remove", chain=ctx.base_chain(i))
            )
            refuge = rng.choice(survivors)
            egress = rng.choice(
                [s for s in range(ctx.num_sites) if s != refuge]
            )
            ops.append(
                WorkloadOp(
                    at=at + 0.5, op="create",
                    chain=f"wl-evac-{serial}",
                    ingress=refuge, egress=egress,
                    stages=1 + rng.randrange(ctx.max_stages),
                    value=round(ctx.base_demand, 6),
                )
            )
            serial += 1
    return WorkloadSchedule(
        kind="evacuation_cascade", seed=seed, duration_s=duration_s,
        ops=ops,
    )


_CHURN_ARRIVALS = 10
_CHURN_LIFE_S = (2.0, 8.0)
_CHURN_DEMAND_FACTOR = 0.4  # CPE chains are small


def site_churn(
    seed: int, ctx: WorkloadContext, duration_s: float
) -> WorkloadSchedule:
    """Mobile-CPE site churn: short-lived small chains arriving and
    departing at random sites throughout the run."""
    rng = _rng("site_churn", seed)
    ops: list[WorkloadOp] = []
    for i in range(_CHURN_ARRIVALS):
        born = rng.uniform(0.05, 0.8) * duration_s
        life = rng.uniform(*_CHURN_LIFE_S)
        died = min(born + life, 0.95 * duration_s)
        ingress, egress = _pick_pair(rng, ctx)
        name = f"wl-cpe-{i}"
        ops.append(
            WorkloadOp(
                at=born, op="create", chain=name,
                ingress=ingress, egress=egress, stages=1,
                value=round(_CHURN_DEMAND_FACTOR * ctx.base_demand, 6),
            )
        )
        ops.append(WorkloadOp(at=died, op="remove", chain=name))
    return WorkloadSchedule(
        kind="site_churn", seed=seed, duration_s=duration_s, ops=ops
    )


_ZIPF_TENANTS = 5
_ZIPF_CHAINS = 12
_ZIPF_ALPHA = 1.1
_ZIPF_REMOVE_SHARE = 0.25


def zipf_mix(
    seed: int, ctx: WorkloadContext, duration_s: float
) -> WorkloadSchedule:
    """Multi-tenant Zipf chain mix: tenant ``t`` gets a
    ``1/(t+1)^alpha`` share of chains and demand, with a tail of
    removals late in the run."""
    rng = _rng("zipf_mix", seed)
    weights = [1.0 / (t + 1) ** _ZIPF_ALPHA for t in range(_ZIPF_TENANTS)]
    total = sum(weights)
    shares = [w / total for w in weights]
    ops: list[WorkloadOp] = []
    created: list[str] = []
    for i in range(_ZIPF_CHAINS):
        tenant = rng.choices(range(_ZIPF_TENANTS), weights=shares)[0]
        born = rng.uniform(0.05, 0.7) * duration_s
        ingress, egress = _pick_pair(rng, ctx)
        name = f"wl-zipf-t{tenant}-{i}"
        demand = ctx.base_demand * (0.3 + 2.0 * shares[tenant])
        ops.append(
            WorkloadOp(
                at=born, op="create", chain=name,
                ingress=ingress, egress=egress,
                stages=1 + (tenant % ctx.max_stages),
                value=round(demand, 6),
            )
        )
        created.append(name)
    removals = int(_ZIPF_REMOVE_SHARE * len(created))
    for name in rng.sample(created, removals):
        at = rng.uniform(0.75, 0.95) * duration_s
        ops.append(WorkloadOp(at=at, op="remove", chain=name))
    return WorkloadSchedule(
        kind="zipf_mix", seed=seed, duration_s=duration_s, ops=ops
    )


_HOSTILE_CHAINS = 5
_SURGE_FACTOR = 2.0  # simultaneous base-population surge
_OVERLOAD_FACTOR = 2.5  # hostile demand vs base


def adversarial_matrix(
    seed: int, ctx: WorkloadContext, duration_s: float
) -> WorkloadSchedule:
    """Adversarial worst-case matrix: concentrate everything.

    All hostile creates target one site pair with maximal chain length
    and over-capacity demands, arriving back to back, while the whole
    base population surges at the same instant -- the schedule is built
    to pin admission and capacity accounting to their boundaries (the
    invariants must hold even while most of it is being rejected).
    """
    rng = _rng("adversarial_matrix", seed)
    ingress, egress = _pick_pair(rng, ctx)
    surge_at = rng.uniform(0.3, 0.5) * duration_s
    ops: list[WorkloadOp] = [
        WorkloadOp(
            at=surge_at, op="redemand", chain=ctx.base_chain(i),
            value=_SURGE_FACTOR,
        )
        for i in range(ctx.num_base_chains)
    ]
    for i in range(_HOSTILE_CHAINS):
        at = surge_at + 0.5 + 0.25 * i
        ops.append(
            WorkloadOp(
                at=at, op="create", chain=f"wl-adv-{i}",
                ingress=ingress, egress=egress, stages=ctx.max_stages,
                value=round(_OVERLOAD_FACTOR * ctx.base_demand, 6),
            )
        )
    # Relax late so the run can settle back under capacity.
    relax_at = min(surge_at + 0.35 * duration_s, 0.9 * duration_s)
    for i in range(ctx.num_base_chains):
        ops.append(
            WorkloadOp(
                at=relax_at, op="redemand", chain=ctx.base_chain(i),
                value=round(1.0 / _SURGE_FACTOR, 6),
            )
        )
    return WorkloadSchedule(
        kind="adversarial_matrix", seed=seed, duration_s=duration_s,
        ops=ops,
    )


#: Scenario kind -> generator, the registry the fuzzer samples from and
#: ``--scenario`` resolves against.
SCENARIO_KINDS: dict[
    str, Callable[[int, WorkloadContext, float], WorkloadSchedule]
] = {
    "diurnal_wave": diurnal_wave,
    "flash_crowd": flash_crowd,
    "evacuation_cascade": evacuation_cascade,
    "site_churn": site_churn,
    "zipf_mix": zipf_mix,
    "adversarial_matrix": adversarial_matrix,
}


def generate(
    kind: str,
    seed: int,
    ctx: WorkloadContext | None = None,
    duration_s: float = DEFAULT_DURATION_S,
) -> WorkloadSchedule:
    """Generate one library scenario by kind name."""
    try:
        factory = SCENARIO_KINDS[kind]
    except KeyError:
        raise ScheduleError(
            f"unknown scenario kind {kind!r} "
            f"(have: {', '.join(sorted(SCENARIO_KINDS))})"
        ) from None
    return factory(seed, ctx or WorkloadContext(), duration_s)
