"""Counters, gauges, and log-linear histograms.

The histogram is HDR-style log-linear: values are bucketed by binary
exponent, with ``SUBBUCKETS`` linear subdivisions per octave, so the
relative quantization error is bounded by ``1 / (2 * SUBBUCKETS)``
(~3% at the default 16) across the full dynamic range.  That is the
standard trick for latency distributions whose interesting mass spans
microseconds to seconds -- exactly the spread between a LAN hop and a
congested WAN uplink in the simulator.

Metrics are identified by ``(name, labels)`` where labels is a sorted
tuple of ``(key, value)`` pairs; the :class:`MetricsRegistry` in
:mod:`repro.obs.registry` interns one instance per identity so hot
paths can cache the handle and skip the registry lookup.
"""

from __future__ import annotations

import math

from repro.core.errors import ReproError


class MetricsError(ReproError):
    """Raised on invalid metric construction or use."""


LabelPairs = tuple[tuple[str, str], ...]


def label_pairs(labels: dict[str, object]) -> LabelPairs:
    """Normalize a labels dict into a hashable, sorted identity."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_labels(labels: LabelPairs) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing count (messages, drops, rule installs)."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelPairs = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricsError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def to_dict(self) -> dict:
        return {"value": self.value}

    def render(self) -> str:
        value = int(self.value) if self.value == int(self.value) else self.value
        return f"{self.name}{format_labels(self.labels)} {value}"


class Gauge:
    """A value that can go up and down (queue occupancy, table size)."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelPairs = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, amount: float) -> None:
        self.value += amount

    def to_dict(self) -> dict:
        return {"value": self.value}

    def render(self) -> str:
        value = int(self.value) if self.value == int(self.value) else self.value
        return f"{self.name}{format_labels(self.labels)} {value}"


class Histogram:
    """A log-linear histogram of non-negative values.

    Buckets are keyed by ``(exponent, subbucket)`` flattened into one
    integer; zero (and anything below the smallest representable
    positive float) lands in a dedicated underflow bucket.  Quantiles
    are estimated from bucket midpoints, so they carry the bounded
    ~1/(2*SUBBUCKETS) relative error but never require storing samples.
    """

    SUBBUCKETS = 16

    __slots__ = ("name", "labels", "buckets", "count", "total", "min", "max")

    kind = "histogram"

    def __init__(self, name: str, labels: LabelPairs = ()):
        self.name = name
        self.labels = labels
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        if value < 0 or value != value:  # negative or NaN
            raise MetricsError(
                f"histogram {self.name!r} cannot observe {value!r}"
            )
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = self._index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @classmethod
    def _index(cls, value: float) -> int:
        if value <= 0.0:
            return -(1 << 30)  # underflow bucket
        mantissa, exponent = math.frexp(value)  # mantissa in [0.5, 1)
        sub = int((mantissa - 0.5) * 2 * cls.SUBBUCKETS)
        return exponent * cls.SUBBUCKETS + sub

    @classmethod
    def _midpoint(cls, index: int) -> float:
        if index == -(1 << 30):
            return 0.0
        exponent, sub = divmod(index, cls.SUBBUCKETS)
        lo = math.ldexp(0.5 + sub / (2 * cls.SUBBUCKETS), exponent)
        hi = math.ldexp(0.5 + (sub + 1) / (2 * cls.SUBBUCKETS), exponent)
        return (lo + hi) / 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (``q`` in [0, 100])."""
        if not 0 <= q <= 100:
            raise MetricsError(f"percentile {q} outside [0, 100]")
        if not self.count:
            return math.nan
        # Rank of the target sample, 1-based, clamped to the population.
        rank = max(1, min(self.count, math.ceil(q / 100 * self.count)))
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                # Clamp the midpoint estimate to the observed extremes so
                # single-bucket tails cannot report values never seen.
                return min(max(self._midpoint(index), self.min), self.max)
        return self.max

    def quantiles(self) -> dict[str, float]:
        return {
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    def to_dict(self) -> dict:
        out = {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }
        out.update(self.quantiles())
        return out

    def render(self) -> str:
        head = f"{self.name}{format_labels(self.labels)}"
        if not self.count:
            return f"{head} count=0"
        q = self.quantiles()
        return (
            f"{head} count={self.count} mean={self.mean:.6g} "
            f"p50={q['p50']:.6g} p90={q['p90']:.6g} p99={q['p99']:.6g} "
            f"min={self.min:.6g} max={self.max:.6g}"
        )


Metric = Counter | Gauge | Histogram
