"""``repro.obs`` -- simulated-time-aware observability.

The measurement substrate the rest of the repo reports through: a
:class:`MetricsRegistry` holding counters, gauges, and log-linear
histograms; tracing :class:`~repro.obs.trace.Span` objects that nest and
record durations against a pluggable clock (wall or simulated); and a
plain-text/JSON reporter.

Wiring model: every instrumented subsystem takes an optional
``metrics=`` registry and does nothing when it is ``None`` -- there is
deliberately no process-global registry, so experiments compose and the
un-instrumented configuration stays free.  ``python -m repro metrics``
runs a full bus + two-phase-commit experiment against one registry and
prints the report; benchmarks opt in via the ``obs_registry`` fixture in
``benchmarks/_common.py`` (set ``REPRO_METRICS=1``).
"""

from repro.obs.collect import (
    collect_bus,
    collect_dataplane,
    collect_federation,
    collect_fuzz,
    collect_network,
    collect_resilience,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsError,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.report import registry_to_dict, registry_to_json, render_report
from repro.obs.trace import Span, TraceError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "Span",
    "TraceError",
    "collect_bus",
    "collect_dataplane",
    "collect_federation",
    "collect_fuzz",
    "collect_network",
    "collect_resilience",
    "registry_to_dict",
    "registry_to_json",
    "render_report",
]
