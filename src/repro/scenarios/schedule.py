"""Seeded workload schedules: the workload-side twin of
:mod:`repro.chaos.scenario`.

A :class:`WorkloadSchedule` is a plain list of timed
:class:`WorkloadOp`\\ s -- chain creates, removes, and demand changes --
with no callbacks and no hidden state, so it serializes, diffs, and
replays byte-identically, exactly like a fault
:class:`~repro.chaos.scenario.Scenario`.  Ops reference *logical* site
indices and chain ids rather than concrete deployment names; each stack
(the monolithic soak deployment, the federated coordinator) maps them
onto its own sites, so one schedule exercises both.

A :class:`ComposedSchedule` pairs one workload schedule with one fault
scenario on a shared timeline.  Its digest covers both halves, which is
what the fuzzer minimizes over and what a replay is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.chaos.scenario import FaultEvent, Scenario, ScenarioError
from repro.core import canonical
from repro.core.errors import ReproError

#: Operation kinds understood by the workload engines.
WORKLOAD_OPS = ("create", "remove", "redemand")


class ScheduleError(ReproError):
    """Raised on invalid workload-schedule construction."""


@dataclass(frozen=True)
class WorkloadOp:
    """One timed workload operation.

    ``chain`` is a logical chain id: pre-installed soak chains are
    addressed as ``chain<i>``; schedule-created chains use fresh
    ``wl-*`` ids.  ``ingress``/``egress`` are logical site indices
    (mapped modulo the deployment's site count); ``stages`` is the VNF
    count of a created chain.  ``value`` is the forward demand for
    ``create`` and the multiplicative demand factor (relative to the
    chain's current demand) for ``redemand``.
    """

    at: float
    op: str
    chain: str
    ingress: int = 0
    egress: int = 1
    stages: int = 1
    value: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.at < math.inf:
            raise ScheduleError(f"op time not finite and non-negative: {self.at}")
        if self.op not in WORKLOAD_OPS:
            raise ScheduleError(f"unknown workload op {self.op!r}")
        if not self.chain:
            raise ScheduleError("op needs a chain id")
        if self.op == "create" and not 0 < self.value < math.inf:
            raise ScheduleError(f"create {self.chain!r}: demand not finite and positive")
        if self.op == "redemand" and not 0 < self.value < math.inf:
            raise ScheduleError(f"redemand {self.chain!r}: factor not finite and positive")
        if self.stages < 1:
            raise ScheduleError(f"{self.chain!r}: chain needs >= 1 stage")

    def to_doc(self) -> dict:
        return {
            "at": round(self.at, 9),
            "op": self.op,
            "chain": self.chain,
            "ingress": self.ingress,
            "egress": self.egress,
            "stages": self.stages,
            "value": round(self.value, 9),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "WorkloadOp":
        return cls(
            at=doc["at"],
            op=doc["op"],
            chain=doc["chain"],
            ingress=doc["ingress"],
            egress=doc["egress"],
            stages=doc["stages"],
            value=doc["value"],
        )


@dataclass
class WorkloadSchedule:
    """A reproducible workload schedule (ops sorted by time)."""

    kind: str
    seed: int
    duration_s: float
    ops: list[WorkloadOp] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0 < self.duration_s < math.inf:
            raise ScheduleError("schedule duration not finite and positive")
        self.ops.sort(key=lambda o: (o.at, o.op, o.chain))

    def to_doc(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "ops": [op.to_doc() for op in self.ops],
        }

    def to_json(self) -> str:
        """Deterministic serialization: same seed -> same bytes."""
        return canonical.encode(self.to_doc())

    @classmethod
    def from_doc(cls, doc: dict) -> "WorkloadSchedule":
        return cls(
            kind=doc["kind"],
            seed=doc["seed"],
            duration_s=doc["duration_s"],
            ops=[WorkloadOp.from_doc(d) for d in doc["ops"]],
        )

    def digest(self) -> str:
        """Stable content hash of the schedule (hex SHA-256)."""
        return canonical.sha256_hex(self.to_json())

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for op in self.ops:
            out[op.op] = out.get(op.op, 0) + 1
        return out

    def with_ops(self, ops: Iterable[WorkloadOp]) -> "WorkloadSchedule":
        """Same identity, different op list (minimization subsets)."""
        return WorkloadSchedule(
            kind=self.kind, seed=self.seed, duration_s=self.duration_s,
            ops=list(ops),
        )


def merge_workloads(
    kind: str, schedules: Sequence[WorkloadSchedule]
) -> WorkloadSchedule:
    """Union the ops of several schedules onto one timeline.

    The merged schedule takes the first schedule's seed and the longest
    duration; chain ids must not collide across inputs (generators
    namespace their created chains by kind, so they never do).
    """
    if not schedules:
        raise ScheduleError("nothing to merge")
    created: dict[str, str] = {}
    ops: list[WorkloadOp] = []
    for schedule in schedules:
        for op in schedule.ops:
            if op.op == "create":
                owner = created.get(op.chain)
                if owner is not None and owner != schedule.kind:
                    raise ScheduleError(
                        f"chain id {op.chain!r} created by both "
                        f"{owner!r} and {schedule.kind!r}"
                    )
                created[op.chain] = schedule.kind
            ops.append(op)
    return WorkloadSchedule(
        kind=kind,
        seed=schedules[0].seed,
        duration_s=max(s.duration_s for s in schedules),
        ops=ops,
    )


@dataclass
class ComposedSchedule:
    """One workload schedule + one fault scenario on a shared timeline.

    This is the unit the fuzzer generates, replays, and minimizes: the
    digest covers both halves, and :meth:`with_items` rebuilds a
    composition from any subset of its tagged items (the delta-debugging
    subset operation).
    """

    workload: WorkloadSchedule
    faults: Scenario

    def to_doc(self) -> dict:
        return {"workload": self.workload.to_doc(), "faults": self.faults.to_doc()}

    def to_json(self) -> str:
        return canonical.encode(self.to_doc())

    @classmethod
    def from_doc(cls, doc: dict) -> "ComposedSchedule":
        return cls(
            workload=WorkloadSchedule.from_doc(doc["workload"]),
            faults=Scenario.from_doc(doc["faults"]),
        )

    def digest(self) -> str:
        return canonical.sha256_hex(self.to_json())

    # -- minimization support -------------------------------------------

    def items(self) -> list[tuple[str, object]]:
        """Tagged union of every schedulable item, time-ordered."""
        tagged: list[tuple[str, object]] = [
            ("workload", op) for op in self.workload.ops
        ]
        tagged.extend(("fault", event) for event in self.faults.events)
        tagged.sort(key=lambda pair: (_item_at(pair), pair[0]))
        return tagged

    def with_items(
        self, items: Iterable[tuple[str, object]]
    ) -> "ComposedSchedule":
        """Rebuild a composition holding only ``items``."""
        ops: list[WorkloadOp] = []
        events: list[FaultEvent] = []
        for tag, item in items:
            if tag == "workload":
                ops.append(item)  # type: ignore[arg-type]
            elif tag == "fault":
                events.append(item)  # type: ignore[arg-type]
            else:
                raise ScheduleError(f"unknown item tag {tag!r}")
        return ComposedSchedule(
            workload=self.workload.with_ops(ops),
            faults=Scenario(
                seed=self.faults.seed,
                duration_s=self.faults.duration_s,
                events=events,
            ),
        )


def _item_at(pair: tuple[str, object]) -> float:
    tag, item = pair
    return item.at  # type: ignore[union-attr]


def compose(workload: WorkloadSchedule, faults: Scenario) -> ComposedSchedule:
    """Pair a workload schedule with a fault scenario.

    Durations may differ (the soak runs to the longer horizon); both
    must be positive, which their constructors already enforce.
    """
    if not isinstance(faults, Scenario):  # defensive: common call-order slip
        raise ScenarioError("compose(workload, faults) takes a Scenario")
    return ComposedSchedule(workload=workload, faults=faults)
