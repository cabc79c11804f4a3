"""Seeded fault-injection soak for the federated control plane.

A lightweight `repro.chaos`-style soak specialised to the federation:
a seeded operation mix (cross-shard submits, removals, demand changes
with incremental re-plans) runs against a live
:class:`~repro.federation.GlobalCoordinator` while a
:class:`FaultPolicy` injects regional prepare rejections and
coordinator crashes mid-install.  After every operation the invariant
probes from ``federation.invariants`` run -- border capacity safety,
2PC all-or-nothing atomicity, stitching continuity, and (after each
sweep) quiescence.  The soak is fully deterministic per seed and
returns a machine-readable report, so the CI smoke step and
``python -m repro federation --soak`` share one code path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.lp import LpObjective
from repro.core.model import Chain, NetworkModel
from repro.federation.coordinator import (
    CoordinatorCrash,
    GlobalCoordinator,
)
from repro.federation.invariants import federation_probes
from repro.federation.shard import FederationError
from repro.resilience.rpc import BackoffPolicy


@dataclass
class FaultPolicy:
    """Seeded fault injection hooks consumed by the coordinator.

    ``reject_rate`` is the probability a regional prepare is refused
    outright (a regional switchboard saying no); ``crash_rate`` the
    probability a coordinator crashes mid-install, after a random
    number of successful prepares (leaving fenced residue for
    :meth:`~repro.federation.GlobalCoordinator.sweep`).  Faults only
    fire on the first attempt of an install so retries can converge.

    The policy also carries the ``retry_backoff``
    :class:`~repro.resilience.rpc.BackoffPolicy` the coordinator paces
    its install retries with, so scripted soaks and the RPC transport
    share one seeded backoff implementation.
    """

    seed: int = 0
    reject_rate: float = 0.0
    crash_rate: float = 0.0

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        self._crash_plan: dict[str, int] = {}
        self.retry_backoff = BackoffPolicy(seed=self.seed, name="fed-install")

    def reject_prepare(self, chain: str, region: int, attempt_no: int) -> bool:
        if attempt_no > 0:
            return False
        return self._rng.random() < self.reject_rate

    def crash_after_prepares(self, chain: str, attempt_no: int) -> int | None:
        if attempt_no > 0:
            return None
        if chain not in self._crash_plan:
            if self._rng.random() < self.crash_rate:
                self._crash_plan[chain] = 1 + self._rng.randrange(3)
            else:
                self._crash_plan[chain] = 0
        planned = self._crash_plan[chain]
        return planned if planned > 0 else None


def run_soak(
    model: NetworkModel,
    coordinator: GlobalCoordinator,
    pending: list[Chain],
    ops: int = 60,
    seed: int = 0,
    objective: LpObjective = LpObjective.MAX_THROUGHPUT,
) -> dict:
    """Drive a seeded operation mix with invariant probes after each op.

    ``pending`` is the pool of not-yet-installed chains the soak draws
    submits from; removed chains return to it.  The coordinator should
    already hold an installed base (so removals and demand changes have
    targets) and carry a :class:`FaultPolicy` for injection.
    """
    rng = random.Random(seed)
    pending = list(pending)
    counts = {
        "submit": 0,
        "submit_rejected": 0,
        "crash": 0,
        "sweep_released": 0,
        "remove": 0,
        "demand_change": 0,
        "resolve": 0,
    }
    violations: list[dict] = []
    last_plan = None

    # ``last_plan`` is only consulted while still current: a
    # submit/remove invalidates its RoutingSolutions (they hold the
    # regional models by reference), so mutation probes fall back to
    # the ledger-only capacity check.
    probes = federation_probes(
        lambda: coordinator,
        plan_of=lambda: last_plan,
        quiescent=True,
    )

    def probe(op: str, quiescent: bool) -> None:
        for invariant, check in probes.items():
            if invariant == "fed_quiescence" and not quiescent:
                continue
            for problem in check():
                violations.append(
                    {"op": op, "invariant": invariant, "problem": problem}
                )

    for step in range(ops):
        roll = rng.random()
        if roll < 0.45 and pending:
            chain = pending.pop(rng.randrange(len(pending)))
            counts["submit"] += 1
            try:
                coordinator.submit(chain)
            except CoordinatorCrash:
                counts["crash"] += 1
                # The "restarted" coordinator only runs its sweep; the
                # abandoned install is simply gone.
                counts["sweep_released"] += len(coordinator.sweep())
            except FederationError:
                counts["submit_rejected"] += 1
            last_plan = None
            probe("submit", quiescent=True)
        elif roll < 0.65 and coordinator.installed():
            name = rng.choice(coordinator.installed())
            coordinator.remove(name)
            counts["remove"] += 1
            last_plan = None
            probe("remove", quiescent=True)
        elif coordinator.installed():
            names = rng.sample(
                coordinator.installed(),
                k=min(3, len(coordinator.installed())),
            )
            for name in names:
                chain = model.chains[name]
                factor = rng.uniform(0.5, 1.5)
                scaled = chain.scaled(factor)
                model.remove_chain(name)
                model.add_chain(scaled)
                counts["demand_change"] += 1
            last_plan = None
            try:
                last_plan = coordinator.resolve(model, names, objective)
                counts["resolve"] += 1
            except FederationError:
                # A border cannot fit the scaled demand: revert.
                for name in names:
                    original = coordinator.installed_chain(name)
                    if original is not None:
                        model.remove_chain(name)
                        model.add_chain(original)
            probe("resolve", quiescent=True)

    final_plan = coordinator.plan_all(objective)
    last_plan = final_plan
    probe("final_plan", quiescent=True)

    stats = coordinator.stats()
    return {
        "ops": ops,
        "seed": seed,
        "counts": counts,
        "stats": stats,
        "final_status": final_plan.status,
        "final_carried": round(final_plan.carried_demand, 6),
        "final_offered": round(final_plan.offered_demand, 6),
        "violations": violations,
        "ok": not violations and final_plan.ok,
    }


__all__ = ["FaultPolicy", "run_soak"]
