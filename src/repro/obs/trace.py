"""Lightweight tracing spans over a pluggable clock.

A span measures the duration of one named operation, optionally carrying
labels (``span("2pc.prepare", chain="corp")``).  Spans read time from
whatever clock their registry was built with, so the same code measures
wall-clock seconds in a live benchmark and *simulated* seconds when the
registry's clock is a :class:`~repro.simnet.events.Simulator`'s ``now``.

Two usage styles, matching the two shapes of instrumented code:

- synchronous code nests spans as context managers; the registry keeps
  the active-span stack, so children record their parent automatically;
- event-driven code (the bus-driven 2PC of
  :mod:`repro.controller.protocol`) starts a *detached* span when a
  stage's first message goes out and finishes it from the handler that
  observes the stage complete, possibly many simulated seconds and many
  unrelated events later.

Every finished span also feeds its duration into the histogram
``span.<name>`` on the owning registry, so repeated operations get
percentile summaries for free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.registry import MetricsRegistry


class TraceError(ReproError):
    """Raised on invalid span lifecycle transitions."""


class Span:
    """One timed operation.  Created via ``registry.span(...)`` (nested,
    context-manager) or ``registry.start_span(...)`` (detached)."""

    __slots__ = (
        "name", "labels", "registry", "start", "end",
        "parent", "depth", "_on_stack",
    )

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        labels: dict[str, object],
        on_stack: bool,
    ):
        self.registry = registry
        self.name = name
        self.labels = labels
        self.start = registry.clock()
        self.end: float | None = None
        self.parent: Span | None = None
        self.depth = 0
        self._on_stack = on_stack
        if on_stack:
            registry._push_span(self)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise TraceError(f"span {self.name!r} is still open")
        return self.end - self.start

    def finish(self) -> "Span":
        """Close the span, recording its duration.  Not idempotent --
        finishing twice is a lifecycle bug worth surfacing."""
        if self.end is not None:
            raise TraceError(f"span {self.name!r} finished twice")
        self.end = self.registry.clock()
        if self._on_stack:
            self.registry._pop_span(self)
        self.registry._record_span(self)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finish()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "labels": {k: str(v) for k, v in sorted(self.labels.items())},
            "start": self.start,
            "end": self.end,
            "duration": self.duration if self.finished else None,
            "parent": self.parent.name if self.parent else None,
            "depth": self.depth,
        }

    def __repr__(self) -> str:
        state = f"{self.duration:.6g}s" if self.finished else "open"
        return f"Span({self.name!r}, {state})"
