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

from repro.core.model import Chain, NetworkModel
from repro.federation.coordinator import (
    CoordinatorCrash,
    FederatedPlan,
    GlobalCoordinator,
)
from repro.federation.invariants import federation_probes
from repro.federation.shard import FederationError


@dataclass
class FaultPolicy:
    """Seeded fault injection hooks consumed by the coordinator.

    ``reject_rate`` is the probability a regional prepare is refused
    outright (a regional switchboard saying no); ``crash_rate`` the
    probability a coordinator crashes mid-install, after a random
    number of successful prepares (leaving fenced residue for
    :meth:`~repro.federation.GlobalCoordinator.sweep`).  Faults only
    fire on the first attempt of an install so retries can converge.
    """

    seed: int = 0
    reject_rate: float = 0.0
    crash_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("reject_rate", "crash_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise FederationError(
                    f"{name} out of range, must be in [0, 1]: {getattr(self, name)}"
                )
        self._rng = random.Random(self.seed)
        self._crash_plan: dict[str, int] = {}

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


class FederatedOps:
    """The synchronous op loop of the federated drivers (this module's
    :func:`run_soak`, the scenario fuzzer's federation stack): tolerant
    submit / remove / redemand against one live coordinator, every
    federation probe after every op, one final ``plan_all``.  Callers
    decide where ops come from and how to count them.
    """

    def __init__(
        self,
        model: NetworkModel,
        coordinator: GlobalCoordinator,
    ):
        self.model = model
        self.coordinator = coordinator
        self.crashes = 0
        self.swept = 0
        self.violations: list[dict] = []
        # ``_last_plan`` is only consulted while still current: a
        # submit/remove invalidates its RoutingSolutions (they hold the
        # regional models by reference), so mutation probes fall back to
        # the ledger-only capacity check.
        self._last_plan = None
        self._probes = federation_probes(
            lambda: coordinator,
            plan_of=lambda: self._last_plan,
            quiescent=True,
        )

    def submit(self, chain: Chain) -> str:
        """``"installed"``, ``"rejected"`` or ``"crashed"``."""
        self._last_plan = None
        try:
            self.coordinator.submit(chain)
        except CoordinatorCrash:
            # The "restarted" coordinator only runs its sweep; the
            # abandoned install is simply gone.
            self.crashes += 1
            self.swept += len(self.coordinator.sweep())
            return "crashed"
        except FederationError:
            return "rejected"
        return "installed"

    def remove(self, name: str) -> None:
        self.coordinator.remove(name)
        self._last_plan = None

    def redemand(self, factors: dict[str, float]) -> FederatedPlan | None:
        """Scale the named installed chains and re-plan incrementally;
        ``None`` (and the demands restored) when a border cannot fit."""
        model = self.model
        originals = {name: model.chains[name] for name in factors}
        for name, factor in factors.items():
            model.remove_chain(name)
            model.add_chain(originals[name].scaled(factor))
        self._last_plan = None
        try:
            self._last_plan = self.coordinator.resolve(model, list(factors))
        except FederationError:
            for name, original in originals.items():
                model.remove_chain(name)
                model.add_chain(original)
        return self._last_plan

    def probe(self, label: str) -> None:
        for invariant, check in self._probes.items():
            for problem in check():
                self.violations.append(
                    {"op": label, "invariant": invariant, "problem": problem}
                )

    def finish(self):
        """The final full plan, probed like any other op."""
        self._last_plan = plan = self.coordinator.plan_all()
        self.probe("final_plan")
        return plan


def install_base(coordinator: GlobalCoordinator, chains: list[Chain]) -> int:
    """Submit ``chains`` (none of them in the coordinator's model) in
    order; returns how many installed.  A rejected or crashed install is
    swept and skipped, so one chain the borders cannot fit does not stop
    the rest."""
    installed = 0
    for chain in chains:
        try:
            coordinator.submit(chain)
            installed += 1
        except (CoordinatorCrash, FederationError):
            coordinator.sweep()
    return installed


def run_soak(
    model: NetworkModel,
    coordinator: GlobalCoordinator,
    pending: list[Chain],
    ops: int = 60,
    seed: int = 0,
) -> dict:
    """Drive a seeded operation mix with invariant probes after each op.

    ``pending`` is the pool of not-yet-installed chains the soak draws
    submits from; removed chains return to it.  The coordinator should
    already hold an installed base (so removals and demand changes have
    targets) and carry a :class:`FaultPolicy` for injection.
    """
    rng = random.Random(seed)
    pending = list(pending)
    driver = FederatedOps(model, coordinator)
    counts = {
        "submit": 0,
        "submit_rejected": 0,
        "crash": 0,
        "sweep_released": 0,
        "remove": 0,
        "demand_change": 0,
        "resolve": 0,
    }

    for _step in range(ops):
        roll = rng.random()
        if roll < 0.45 and pending:
            chain = pending.pop(rng.randrange(len(pending)))
            counts["submit"] += 1
            if driver.submit(chain) == "rejected":
                counts["submit_rejected"] += 1
            driver.probe("submit")
        elif roll < 0.65 and coordinator.installed():
            driver.remove(rng.choice(coordinator.installed()))
            counts["remove"] += 1
            driver.probe("remove")
        elif coordinator.installed():
            names = rng.sample(
                coordinator.installed(),
                k=min(3, len(coordinator.installed())),
            )
            factors = {name: rng.uniform(0.5, 1.5) for name in names}
            counts["demand_change"] += len(names)
            counts["resolve"] += driver.redemand(factors) is not None
            driver.probe("resolve")

    final_plan = driver.finish()
    counts["crash"], counts["sweep_released"] = driver.crashes, driver.swept
    return {
        "ops": ops,
        "seed": seed,
        "counts": counts,
        "stats": coordinator.stats(),
        "final_status": final_plan.status,
        "final_carried": round(final_plan.carried_demand, 6),
        "final_offered": round(final_plan.offered_demand, 6),
        "violations": driver.violations,
        "ok": not driver.violations and final_plan.ok,
    }
