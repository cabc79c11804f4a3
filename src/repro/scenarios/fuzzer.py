"""The seeded scenario fuzzer.

``python -m repro fuzz --seed N`` composes random workload schedules
(drawn from the :mod:`repro.scenarios.library` kinds) with random fault
schedules (:func:`repro.chaos.scenario.generate_scenario`) and plays
each composition against two stacks:

- **mono** -- the full monolithic soak deployment
  (:func:`repro.chaos.runner.run_soak`): simulated network, proxy bus,
  2PC installer, the whole invariant-probe registry on the sim clock;
- **federation** -- a :class:`~repro.federation.GlobalCoordinator`
  driven op by op with a seeded
  :class:`~repro.federation.soak.FaultPolicy`, probing the federation
  invariants after every op.

Everything derives from one integer seed, so a run replays
byte-identically; when a stack violates, the composed schedule is
delta-debugged (:mod:`repro.scenarios.minimize`) down to a 1-minimal
repro whose digest and full document land in the report.  An escaped
exception is a finding too -- it is recorded as a ``crash`` violation
and minimized like any other.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.chaos.scenario import check_duration
from repro.scenarios.library import (
    SCENARIO_KINDS,
    WorkloadContext,
    generate,
)
from repro.scenarios.minimize import ddmin
from repro.scenarios.report import CaseResult, FuzzReport, StackResult
from repro.scenarios.schedule import (
    ComposedSchedule,
    ScheduleError,
    WorkloadOp,
    WorkloadSchedule,
    compose,
    merge_workloads,
)

#: Redemand factor at or above which the planted probe fires (the
#: self-test violation the minimizer must be able to isolate).
PLANT_THRESHOLD = 2.5
_PLANT_FACTOR = 3.0
#: Stack runs one delta-debugging minimization may spend.
_MINIMIZE_TESTS = 80

#: Stacks the fuzzer knows how to drive.
STACKS = ("mono", "federation")


@dataclass(frozen=True)
class FuzzConfig:
    """Knobs of one fuzz run.  Everything random derives from ``seed``."""

    seed: int = 1
    cases: int = 3
    #: Wall-clock budget in seconds; when set, no *new* case starts
    #: after it is spent (the in-flight case always completes).  Budget
    #: mode trades byte-identical reports for bounded runtime -- the
    #: nightly lane uses it, the replay gate never does.
    budget_s: float | None = None
    duration_s: float = 16.0
    stacks: tuple[str, ...] = STACKS
    minimize: bool = True
    #: Self-test mode: plant a violation the probes must detect and the
    #: minimizer must isolate (run passes iff that happens).
    plant: bool = False

    def __post_init__(self) -> None:
        check_duration(self.duration_s)
        if self.cases < 1:
            raise ScheduleError(f"cases must be positive, got {self.cases}")
        if self.budget_s is not None and not self.budget_s >= 0:
            raise ScheduleError(f"budget_s must be non-negative, got {self.budget_s}")


@dataclass(frozen=True)
class FuzzCase:
    """One composed schedule plus the stack parameters to replay it."""

    index: int
    kinds: tuple[str, ...]
    composed: ComposedSchedule
    deployment_seed: int
    fed_seed: int
    fed_reject_rate: float
    fed_crash_rate: float
    fed_pops: int = 10
    fed_regions: int = 2
    fed_chains: int = 16
    planted: bool = False

    def to_doc(self) -> dict:
        return {
            "composed": self.composed.to_doc(),
            "params": {
                "index": self.index,
                "kinds": list(self.kinds),
                "deployment_seed": self.deployment_seed,
                "fed_seed": self.fed_seed,
                "fed_reject_rate": round(self.fed_reject_rate, 9),
                "fed_crash_rate": round(self.fed_crash_rate, 9),
                "fed_pops": self.fed_pops,
                "fed_regions": self.fed_regions,
                "fed_chains": self.fed_chains,
                "planted": self.planted,
            },
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "FuzzCase":
        """The case ``to_doc`` wrote; a document it cannot read is a ``ScheduleError``."""
        try:
            params = doc["params"]
            return cls(
                index=params["index"],
                kinds=tuple(params["kinds"]),
                composed=ComposedSchedule.from_doc(doc["composed"]),
                deployment_seed=params["deployment_seed"],
                fed_seed=params["fed_seed"],
                fed_reject_rate=params["fed_reject_rate"],
                fed_crash_rate=params["fed_crash_rate"],
                fed_pops=params["fed_pops"],
                fed_regions=params["fed_regions"],
                fed_chains=params["fed_chains"],
                planted=params["planted"],
            )
        except (AttributeError, KeyError, TypeError) as exc:
            raise ScheduleError(f"malformed case document: {exc!r}") from exc

    def horizon_s(self) -> float:
        return max(self.composed.workload.duration_s,
                   self.composed.faults.duration_s)


# ---------------------------------------------------------------------------
# Case generation
# ---------------------------------------------------------------------------


def build_case(config: FuzzConfig, index: int) -> FuzzCase:
    """Draw one random-but-reproducible composed case."""
    rng = random.Random(f"fuzz-{config.seed}-{index}")
    ctx = WorkloadContext()
    n_kinds = 1 + (rng.random() < 0.5)
    kinds = tuple(rng.sample(sorted(SCENARIO_KINDS), n_kinds))
    schedules = [
        generate(kind, config.seed * 1000 + index, ctx,
                 duration_s=config.duration_s)
        for kind in kinds
    ]
    workload = (
        schedules[0] if len(schedules) == 1
        else merge_workloads("+".join(kinds), schedules)
    )
    faults = _draw_fault_scenario(rng, config.duration_s)
    return FuzzCase(
        index=index,
        kinds=kinds,
        composed=compose(workload, faults),
        deployment_seed=rng.randrange(1_000_000),
        fed_seed=rng.randrange(1_000_000),
        fed_reject_rate=round(rng.uniform(0.0, 0.3), 6),
        fed_crash_rate=round(rng.uniform(0.0, 0.25), 6),
    )


def build_planted_case(config: FuzzConfig, index: int) -> FuzzCase:
    """A self-test case: churn workload + one planted surge op the
    planted probe is guaranteed to flag."""
    base = generate("site_churn", config.seed * 1000 + index,
                    WorkloadContext(), duration_s=config.duration_s)
    planted = WorkloadSchedule(
        kind="planted_surge", seed=config.seed,
        duration_s=config.duration_s,
        ops=[
            WorkloadOp(
                at=0.6 * config.duration_s, op="redemand", chain="chain0",
                value=_PLANT_FACTOR,
            )
        ],
    )
    workload = merge_workloads("site_churn+planted_surge", [base, planted])
    rng = random.Random(f"fuzz-plant-{config.seed}-{index}")
    faults = _draw_fault_scenario(rng, config.duration_s, quiet=True)
    return FuzzCase(
        index=index,
        kinds=("site_churn", "planted_surge"),
        composed=compose(workload, faults),
        deployment_seed=rng.randrange(1_000_000),
        fed_seed=rng.randrange(1_000_000),
        fed_reject_rate=0.0,
        fed_crash_rate=0.0,
        planted=True,
    )


def _draw_fault_scenario(rng: random.Random, duration_s: float,
                         quiet: bool = False):
    from repro.bus.bus import proxy_name
    from repro.chaos.runner import SITES
    from repro.chaos.scenario import ScenarioConfig, generate_scenario

    if quiet:
        scenario_config = ScenarioConfig(
            duration_s=duration_s, link_flaps=1, loss_windows=0,
            degrade_windows=0, site_outage=False, proxy_crash=False,
            leader_kill=False,
        )
    else:
        scenario_config = ScenarioConfig(
            duration_s=duration_s,
            link_flaps=rng.randrange(0, 4),
            loss_windows=rng.randrange(0, 2),
            degrade_windows=rng.randrange(0, 2),
            site_outage=rng.random() < 0.5,
            proxy_crash=rng.random() < 0.5,
            leader_kill=rng.random() < 0.5,
            partition=rng.random() < 0.25,
        )
    wan_pairs = [
        (f"wan.{a}", proxy_name(b))
        for a in SITES for b in SITES if a != b
    ]
    return generate_scenario(
        rng.randrange(1_000_000), SITES, wan_pairs, scenario_config
    )


# ---------------------------------------------------------------------------
# Stack runners
# ---------------------------------------------------------------------------


def _planted_probes(engine) -> dict:
    def probe() -> list[str]:
        if engine.max_redemand_factor >= PLANT_THRESHOLD:
            return [
                f"planted: redemand factor "
                f"{engine.max_redemand_factor:g} >= {PLANT_THRESHOLD:g}"
            ]
        return []

    return {"planted_redemand_surge": probe}


def run_case_mono(
    case: FuzzCase, composed: ComposedSchedule | None = None
) -> StackResult:
    """Play one composition against the monolithic soak deployment."""
    from repro.chaos.runner import SoakConfig, run_soak

    composed = composed if composed is not None else case.composed
    soak_config = SoakConfig(
        seed=case.deployment_seed,
        duration_s=case.horizon_s(),
    )
    try:
        soak = run_soak(
            soak_config,
            scenario=composed.faults,
            workload=composed.workload,
            workload_probes=_planted_probes if case.planted else None,
        )
    except Exception as exc:  # an escaped exception IS a finding
        return StackResult(
            stack="mono",
            violations=[{
                "at": -1.0,
                "invariant": "crash",
                "detail": f"{type(exc).__name__}: {exc}",
            }],
        )
    return StackResult(
        stack="mono",
        violations=[v.to_doc() for v in soak.violations],
        counts={
            **soak.workload["counts"],
            "workload_ops_applied": soak.workload["ops_applied"],
            "fault_events_applied": len(soak.events_applied),
        },
    )


def run_case_federation(
    case: FuzzCase, composed: ComposedSchedule | None = None
) -> StackResult:
    """Drive the workload half op by op against a federated coordinator
    under a seeded fault policy, probing invariants after every op.

    Fault events of the composition do not apply here (there is no
    simulated network under this stack); the federated fault dimension
    is the seeded reject/crash policy instead, and both are covered by
    the case parameters so a replay is exact.
    """
    from repro.core.model import Chain
    from repro.federation.coordinator import GlobalCoordinator
    from repro.federation.soak import FaultPolicy, FederatedOps
    from repro.topology.pops import PopGridConfig, generate_federation_workload

    try:
        model, _metro_of = generate_federation_workload(
            PopGridConfig(
                num_pops=case.fed_pops,
                num_metros=case.fed_regions,
                num_chains=case.fed_chains,
                num_vnfs=6,
                seed=case.fed_seed,
            )
        )
        coordinator = GlobalCoordinator(
            model,
            n_regions=case.fed_regions,
            partition_size=8,
            fault_policy=FaultPolicy(
                seed=case.fed_seed,
                reject_rate=case.fed_reject_rate,
                crash_rate=case.fed_crash_rate,
            ),
        )

        # Installed base: every generated chain, minus what the policy
        # rejects/crashes on the way in.
        base_chains = sorted(model.chains.values(), key=lambda c: c.name)
        for chain in base_chains:
            model.remove_chain(chain.name)
        driver = FederatedOps(model, coordinator)
        counts = {
            "created": 0, "create_rejected": 0, "removed": 0,
            "remove_skipped": 0, "redemanded": 0, "redemand_skipped": 0,
            "crashes": 0, "swept": 0,
        }
        for chain in base_chains:
            driver.submit(chain)

        base = sorted(coordinator.installed())
        nodes = list(model.nodes)
        vnf_names = sorted(model.vnfs)

        def resolve_chain_id(chain_id: str) -> str:
            # Logical soak ids ("chain<i>") map onto the installed
            # base; schedule-created ("wl-*") ids are used verbatim.
            if chain_id.startswith("chain") and base:
                try:
                    i = int(chain_id[len("chain"):])
                except ValueError:
                    return chain_id
                return base[i % len(base)]
            return chain_id

        composed = composed if composed is not None else case.composed
        for op in composed.workload.ops:
            name = resolve_chain_id(op.chain)
            label = f"{op.op}:{name}"
            if op.op == "create":
                ingress = nodes[op.ingress % len(nodes)]
                egress = nodes[op.egress % len(nodes)]
                if egress == ingress:
                    egress = nodes[(op.egress + 1) % len(nodes)]
                stages = max(1, min(op.stages, len(vnf_names)))
                vnfs = [
                    vnf_names[(op.ingress + j) % len(vnf_names)]
                    for j in range(stages)
                ]
                vnfs = list(dict.fromkeys(vnfs))
                chain = Chain(name, ingress, egress, vnfs,
                              op.value, op.value * 0.25)
                outcome = driver.submit(chain)
                if outcome == "installed":
                    counts["created"] += 1
                elif outcome == "rejected":
                    counts["create_rejected"] += 1
            elif op.op == "remove":
                if name not in set(coordinator.installed()):
                    counts["remove_skipped"] += 1
                    continue
                driver.remove(name)
                counts["removed"] += 1
            elif op.op == "redemand":
                if (name not in set(coordinator.installed())
                        or name not in model.chains):
                    counts["redemand_skipped"] += 1
                    continue
                if driver.redemand({name: op.value}) is not None:
                    counts["redemanded"] += 1
                else:
                    counts["redemand_skipped"] += 1
            driver.probe(label)

        driver.finish()
        counts["crashes"], counts["swept"] = driver.crashes, driver.swept
        violations = [
            {"op": v["op"], "invariant": v["invariant"], "detail": v["problem"]}
            for v in driver.violations
        ]
    except Exception as exc:  # an escaped exception IS a finding
        return StackResult(
            stack="federation",
            violations=[{
                "op": "crash",
                "invariant": "crash",
                "detail": f"{type(exc).__name__}: {exc}",
            }],
        )
    return StackResult(
        stack="federation", violations=violations, counts=counts
    )


_STACK_RUNNERS = {
    "mono": run_case_mono,
    "federation": run_case_federation,
}


# ---------------------------------------------------------------------------
# Fuzz loop
# ---------------------------------------------------------------------------


def run_case(case: FuzzCase, config: FuzzConfig) -> CaseResult:
    """Run one case on every configured stack, minimizing on failure."""
    composed = case.composed
    result = CaseResult(
        index=case.index,
        kinds=case.kinds,
        schedule_digest=composed.digest(),
        schedule_doc=case.to_doc(),
        workload_ops=len(composed.workload.ops),
        fault_events=len(composed.faults.events),
    )
    stacks = ("mono",) if case.planted else config.stacks
    for stack in stacks:
        result.stacks.append(_STACK_RUNNERS[stack](case))

    failing = next((s for s in result.stacks if not s.passed), None)
    if failing is not None and config.minimize:
        result.minimized = minimize_case(case, failing.stack)
    return result


def minimize_case(case: FuzzCase, stack: str) -> dict:
    """Delta-debug the case's composed schedule on the failing stack."""
    runner = _STACK_RUNNERS[stack]
    composed = case.composed

    def violates(items: list) -> bool:
        candidate = composed.with_items(items)
        return not runner(case, candidate).passed

    outcome = ddmin(composed.items(), violates, max_tests=_MINIMIZE_TESTS)
    minimal = composed.with_items(outcome.items)
    # The minimized repro embeds the case params so it feeds straight
    # back through ``replay_case`` / ``python -m repro fuzz --replay``.
    return {
        "stack": stack,
        "digest": minimal.digest(),
        "schedule": {
            "composed": minimal.to_doc(),
            "params": case.to_doc()["params"],
        },
        "items": outcome.length,
        "original_items": outcome.original_length,
        "workload_ops": len(minimal.workload.ops),
        "fault_events": len(minimal.faults.events),
        "tests_run": outcome.tests_run,
        "one_minimal": outcome.one_minimal,
    }


def run_fuzz(config: FuzzConfig | None = None) -> FuzzReport:
    """Run one seeded fuzz campaign end to end."""
    config = config or FuzzConfig()
    report = FuzzReport(
        seed=config.seed,
        duration_s=config.duration_s,
        stacks=config.stacks,
        cases_planned=config.cases,
        planted=config.plant,
    )
    started = time.monotonic()
    for index in range(config.cases):
        if (
            config.budget_s is not None
            and index > 0
            and time.monotonic() - started >= config.budget_s
        ):
            report.budget_exhausted = True
            break
        case = (
            build_planted_case(config, index) if config.plant
            else build_case(config, index)
        )
        report.cases.append(run_case(case, config))
    return report


def replay_case(case: FuzzCase) -> CaseResult:
    """Replay a saved case (e.g. a minimized repro) exactly."""
    return run_case(case, FuzzConfig(minimize=False))
