"""Fuzz reports: deterministic, replayable documents.

Like :class:`repro.chaos.runner.SoakReport`, a :class:`FuzzReport`
serializes only simulation-derived values -- never wall-clock timings
-- so two runs of the same seed produce byte-identical JSON.  The
report embeds each case's full composed schedule document, which is
what makes a violation *replayable*: feed the saved case back through
``python -m repro fuzz --replay FILE`` and the digest (and outcome)
must match.

``known_good_doc`` extracts the digest skeleton the CI replay gate
commits: per-case schedule digests plus the digest of the whole
report.  A code change that alters any generated schedule or any
case outcome flips those digests and fails the gate -- the committed
file is the regression net for the generator machinery itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import canonical


@dataclass
class StackResult:
    """Outcome of one composed schedule against one stack."""

    stack: str
    violations: list[dict] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_doc(self) -> dict:
        return {
            "stack": self.stack,
            "violations": self.violations,
            "counts": {k: v for k, v in sorted(self.counts.items())},
            "passed": self.passed,
        }


@dataclass
class CaseResult:
    """One fuzz case: its schedule, per-stack outcomes, and (when a
    stack violated) the minimized repro."""

    index: int
    kinds: tuple[str, ...]
    schedule_digest: str
    schedule_doc: dict
    workload_ops: int
    fault_events: int
    stacks: list[StackResult] = field(default_factory=list)
    #: Populated when minimization ran: stack, minimized digest + doc,
    #: item counts, predicate invocations.
    minimized: dict | None = None

    @property
    def passed(self) -> bool:
        return all(stack.passed for stack in self.stacks)

    def to_doc(self) -> dict:
        return {
            "index": self.index,
            "kinds": list(self.kinds),
            "schedule_digest": self.schedule_digest,
            "schedule": self.schedule_doc,
            "workload_ops": self.workload_ops,
            "fault_events": self.fault_events,
            "stacks": [stack.to_doc() for stack in self.stacks],
            "minimized": self.minimized,
            "passed": self.passed,
        }


@dataclass
class FuzzReport:
    """Outcome of one ``python -m repro fuzz`` run."""

    seed: int
    duration_s: float
    stacks: tuple[str, ...]
    cases_planned: int
    cases: list[CaseResult] = field(default_factory=list)
    budget_exhausted: bool = False
    planted: bool = False

    @property
    def cases_run(self) -> int:
        return len(self.cases)

    @property
    def passed(self) -> bool:
        """Green iff no case violated on any stack.

        A *planted* run inverts expectations -- it must find and
        minimize its planted violation -- so it passes iff every case
        failed and carries a minimized repro.
        """
        if self.planted:
            return bool(self.cases) and all(
                not case.passed and case.minimized is not None
                for case in self.cases
            )
        return all(case.passed for case in self.cases)

    def to_doc(self) -> dict:
        """Deterministic document: simulation-derived values only."""
        return {
            "seed": self.seed,
            "duration_s": self.duration_s,
            "stacks": list(self.stacks),
            "cases_planned": self.cases_planned,
            "cases_run": self.cases_run,
            "budget_exhausted": self.budget_exhausted,
            "planted": self.planted,
            "cases": [case.to_doc() for case in self.cases],
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return canonical.encode(self.to_doc())

    def digest(self) -> str:
        return canonical.sha256_hex(self.to_json())

    def known_good_doc(self) -> dict:
        """The digest skeleton the CI replay gate commits and checks."""
        return {
            "seed": self.seed,
            "cases": self.cases_run,
            "duration_s": self.duration_s,
            "stacks": list(self.stacks),
            "case_digests": {
                str(case.index): case.schedule_digest for case in self.cases
            },
            "report_digest": self.digest(),
        }

    def render(self) -> str:
        lines = [
            f"scenario fuzz: seed={self.seed} cases={self.cases_run}"
            f"/{self.cases_planned} duration={self.duration_s:g}s "
            f"stacks={','.join(self.stacks)}"
            + (" [planted]" if self.planted else ""),
        ]
        if self.budget_exhausted:
            lines.append(
                f"budget exhausted after {self.cases_run} case(s)"
            )
        for case in self.cases:
            lines.append(
                f"case {case.index}: {'+'.join(case.kinds)} "
                f"({case.workload_ops} ops, {case.fault_events} faults) "
                f"digest {case.schedule_digest[:16]}..."
            )
            for stack in case.stacks:
                if stack.passed:
                    lines.append(f"  {stack.stack}: PASS")
                else:
                    lines.append(
                        f"  {stack.stack}: FAIL "
                        f"({len(stack.violations)} violation(s))"
                    )
                    for violation in stack.violations[:5]:
                        lines.append(
                            f"    {violation.get('invariant', '?')}: "
                            f"{violation.get('detail', '')[:100]}"
                        )
            if case.minimized is not None:
                lines.append(
                    f"  minimized [{case.minimized['stack']}]: "
                    f"{case.minimized['items']} item(s) of "
                    f"{case.minimized['original_items']} "
                    f"({case.minimized['tests_run']} replays) -> "
                    f"digest {case.minimized['digest'][:16]}..."
                )
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)
