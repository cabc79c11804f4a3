"""Apply a workload schedule to the monolithic soak deployment.

The :class:`WorkloadEngine` is the workload-side twin of
:class:`repro.chaos.runner.ChaosEngine`: it maps timed
:class:`~repro.scenarios.schedule.WorkloadOp`\\ s onto the Global
Switchboard's chain lifecycle entry points on the simulated clock.

The engine is deliberately *tolerant*: a create that the controller
rejects (capacity, failed site) is recorded as a rejection, and a
remove/redemand whose chain is not installed is recorded as a skip --
never an exception.  Tolerance is what makes delta-debugging sound:
the minimizer may drop a ``create`` while keeping its ``remove``, and
the subset must still run to completion so the violation predicate is
meaningful.  Anything *else* that escapes an op is a genuine finding
and propagates to the fuzzer, which records it as a crash violation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, ClassVar

from repro.controller import ChainSpecification
from repro.controller.chainspec import SpecError
from repro.controller.global_switchboard import InstallationError
from repro.controller.reoptimize import reoptimize
from repro.scenarios.schedule import ScheduleError, WorkloadOp, WorkloadSchedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chaos.runner import Deployment

#: VNF services every soak deployment registers (see
#: ``repro.chaos.runner.build_deployment``).
DEPLOYMENT_VNFS = ("fw", "nat")


class WorkloadEngine:
    """Timed application of workload ops against a soak deployment."""

    def __init__(self, deployment: "Deployment"):
        self.d = deployment
        self.applied: list[tuple[float, str, str]] = []
        self.counts: dict[str, int] = {
            "created": 0,
            "create_rejected": 0,
            "removed": 0,
            "remove_skipped": 0,
            "redemanded": 0,
            "redemand_skipped": 0,
        }
        #: Largest redemand factor actually applied; the planted-probe
        #: self-tests key off this so the fuzz pipeline is provably
        #: non-vacuous.
        self.max_redemand_factor = 0.0
        self._prefix_serial = 0

    # -- scheduling -----------------------------------------------------

    def schedule(self, workload: WorkloadSchedule) -> None:
        unhandled = {op.op for op in workload.ops} - self.HANDLERS.keys()
        if unhandled:
            raise ScheduleError(f"no handler for workload ops {sorted(unhandled)}")
        for op in workload.ops:
            self.d.sim.schedule_at(op.at, self._apply, op)

    # -- op application -------------------------------------------------

    def _site(self, index: int) -> str:
        return self.d.sites[index % len(self.d.sites)]

    def _apply(self, op: WorkloadOp) -> None:
        self.HANDLERS[op.op](self, op)
        self.applied.append((round(self.d.sim.now, 9), op.op, op.chain))

    def _on_create(self, op: WorkloadOp) -> None:
        ingress = self._site(op.ingress)
        egress = self._site(op.egress)
        if egress == ingress:
            egress = self._site(op.egress + 1)
        self._prefix_serial += 1
        serial = self._prefix_serial
        try:
            spec = ChainSpecification(
                op.chain, "vpn", f"att-{ingress}", f"att-{egress}",
                DEPLOYMENT_VNFS[: max(1, min(op.stages,
                                             len(DEPLOYMENT_VNFS)))],
                forward_demand=op.value,
                reverse_demand=op.value * 0.25,
                dst_prefixes=[f"23.{serial // 256}.{serial % 256}.0/24"],
            )
            self.d.gs.create_chain(spec)
        except (InstallationError, SpecError):
            self.counts["create_rejected"] += 1
            return
        self.counts["created"] += 1

    def _on_remove(self, op: WorkloadOp) -> None:
        if op.chain not in self.d.gs.installations:
            self.counts["remove_skipped"] += 1
            return
        self.d.gs.remove_chain(op.chain)
        self.counts["removed"] += 1

    def _on_redemand(self, op: WorkloadOp) -> None:
        if op.chain not in self.d.gs.installations:
            self.counts["redemand_skipped"] += 1
            return
        reoptimize(self.d.gs, {op.chain: op.value}, threshold=0.0)
        self.counts["redemanded"] += 1
        self.max_redemand_factor = max(self.max_redemand_factor, op.value)

    #: ``op kind -> handler`` for every op this engine applies.
    HANDLERS: ClassVar[dict[str, Callable]] = {
        "create": _on_create,
        "remove": _on_remove,
        "redemand": _on_redemand,
    }
