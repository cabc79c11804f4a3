"""Plain-text and JSON rendering of a metrics registry.

The text report groups metrics by kind (counters, gauges, histograms)
and appends the span summary -- per-span-name duration percentiles plus
the most recent individual spans indented by nesting depth.  The JSON
form (``registry_to_dict``) is the machine-readable twin, used by
``python -m repro metrics --json`` and by tests.
"""

from __future__ import annotations

import json
from typing import Any

from repro.obs.metrics import Counter, Gauge, Histogram, format_labels
from repro.obs.registry import MetricsRegistry

#: How many individual spans the text report shows (newest last).
SPAN_TAIL = 40


def registry_to_dict(registry: MetricsRegistry) -> dict[str, Any]:
    out: dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
    for metric in registry.metrics():
        series = f"{metric.name}{format_labels(metric.labels)}"
        if isinstance(metric, Counter):
            out["counters"][series] = metric.value
        elif isinstance(metric, Gauge):
            out["gauges"][series] = metric.value
        elif isinstance(metric, Histogram):
            out["histograms"][series] = metric.to_dict()
    out["spans"] = [span.to_dict() for span in registry.spans]
    out["spans_dropped"] = registry.spans_dropped
    return out


def registry_to_json(registry: MetricsRegistry) -> str:
    def default(value: Any) -> Any:
        if value != value or value in (float("inf"), float("-inf")):
            return None
        return str(value)

    return json.dumps(
        registry_to_dict(registry), indent=2, default=default,
        allow_nan=False,
    )


def render_report(registry: MetricsRegistry, title: str = "metrics") -> str:
    counters = [m for m in registry.metrics() if isinstance(m, Counter)]
    gauges = [m for m in registry.metrics() if isinstance(m, Gauge)]
    histograms = [m for m in registry.metrics() if isinstance(m, Histogram)]

    lines = [f"== {title} =="]
    if counters:
        lines.append("-- counters --")
        lines.extend(m.render() for m in counters)
    if gauges:
        lines.append("-- gauges --")
        lines.extend(m.render() for m in gauges)
    if histograms:
        lines.append("-- histograms --")
        lines.extend(m.render() for m in histograms)
    if registry.spans:
        lines.append("-- spans (newest last) --")
        for span in registry.spans[-SPAN_TAIL:]:
            indent = "  " * span.depth
            lines.append(
                f"{indent}{span.name}{format_labels(tuple(sorted((k, str(v)) for k, v in span.labels.items())))}"
                f" {span.duration * 1e3:.3f} ms"
            )
        if registry.spans_dropped:
            lines.append(f"({registry.spans_dropped} older spans dropped)")
    return "\n".join(lines) + "\n"
