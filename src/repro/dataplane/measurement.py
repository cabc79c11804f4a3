"""Demand estimation from forwarder traffic counters (Section 4.1).

"The forward (reverse) traffic for chain c at stage z ... is obtained
based on measurements by Switchboard forwarders for existing chains and
on customer estimates for the initial chain deployment."

Every forwarder keeps per-(chain label, egress site, direction) byte
counters; this module turns epoch-to-epoch counter deltas into smoothed
demand-rate estimates (EWMA) and into the demand factors consumed by
:func:`repro.controller.reoptimize.reoptimize` -- closing the
measure -> estimate -> re-optimize loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.errors import ReproError
from repro.dataplane.forwarder import Forwarder

#: The least demand factor: a chain momentarily idle is not re-routed to
#: zero capacity.
FACTOR_FLOOR = 0.1


class MeasurementError(ReproError):
    """Raised on invalid measurement operations."""


def chain_byte_counts(
    forwarders: Iterable[Forwarder], chain_label: int
) -> dict[str, int]:
    """Total bytes seen for a chain, by direction, at the *ingress-most*
    counting point.

    Every forwarder on the path counts the same packet once, so summing
    across forwarders would multiply-count by path length; instead the
    per-direction maximum over forwarders is the offered volume (the
    ingress forwarder sees all of it; downstream forwarders see at most
    that much after drops).
    """
    totals: dict[str, int] = {"forward": 0, "reverse": 0}
    for fwd in forwarders:
        for (label, _egress, direction), count in fwd.traffic_bytes.items():
            if label != chain_label:
                continue
            totals[direction] = max(totals.get(direction, 0), count)
    return totals


@dataclass
class DemandEstimate:
    """Smoothed per-direction rate estimate for one chain."""

    forward_rate: float = 0.0
    reverse_rate: float = 0.0

    @property
    def total_rate(self) -> float:
        return self.forward_rate + self.reverse_rate


@dataclass
class DemandEstimator:
    """EWMA demand estimator over per-epoch counter snapshots.

    Usage: call :meth:`observe` once per measurement epoch with the
    current cumulative counters; the estimator differences them against
    the previous snapshot and smooths the rates with factor ``alpha``
    (higher alpha reacts faster).
    """

    alpha: float = 0.3
    estimates: dict[int, DemandEstimate] = field(default_factory=dict)
    _previous: dict[int, dict[str, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise MeasurementError(f"alpha out of range: {self.alpha}")

    def observe(
        self,
        forwarders: Iterable[Forwarder],
        chain_labels: Iterable[int],
        epoch_seconds: float,
    ) -> dict[int, DemandEstimate]:
        """Ingest one epoch of counters; returns the updated estimates."""
        if epoch_seconds <= 0:
            raise MeasurementError(f"non-positive epoch {epoch_seconds}")
        forwarders = list(forwarders)
        for label in chain_labels:
            counts = chain_byte_counts(forwarders, label)
            previous = self._previous.get(label, {"forward": 0, "reverse": 0})
            fwd_rate = max(0, counts["forward"] - previous["forward"]) / epoch_seconds
            rev_rate = max(0, counts["reverse"] - previous["reverse"]) / epoch_seconds
            estimate = self.estimates.setdefault(label, DemandEstimate())
            if label in self._previous:
                estimate.forward_rate += self.alpha * (
                    fwd_rate - estimate.forward_rate
                )
                estimate.reverse_rate += self.alpha * (
                    rev_rate - estimate.reverse_rate
                )
            else:
                # First epoch: seed directly rather than smoothing from 0.
                estimate.forward_rate = fwd_rate
                estimate.reverse_rate = rev_rate
            self._previous[label] = counts
        return self.estimates

    def demand_factors(
        self, installed: dict[str, tuple[int, float]]
    ) -> dict[str, float]:
        """Demand factors for re-optimization.

        ``installed`` maps chain name -> (label, installed demand in
        bytes/s).  The factor is measured-rate / installed-demand, at
        least :data:`FACTOR_FLOOR`.
        """
        factors = {}
        for name, (label, installed_demand) in installed.items():
            if installed_demand <= 0:
                raise MeasurementError(
                    f"chain {name!r}: non-positive installed demand"
                )
            estimate = self.estimates.get(label)
            if estimate is None:
                continue
            factors[name] = max(FACTOR_FLOOR, estimate.total_rate / installed_demand)
        return factors
