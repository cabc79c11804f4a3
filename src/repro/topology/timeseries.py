"""Time-varying traffic matrices (the paper's first future-work item).

Section 7.3: "we plan to extend our network model to include
time-varying traffic matrices and design routing algorithms for it."

Backbone traffic follows a diurnal cycle in each node's *local* time:
demand peaks in the evening and bottoms out before dawn.  This module
provides the standard sinusoidal diurnal profile, per-city timezone
offsets derived from longitude, and a :class:`TimeVaryingTrafficMatrix`
that yields the gravity matrix modulated by each endpoint's local hour.
The re-optimization loop in :mod:`repro.controller.reoptimize` consumes
the resulting per-hour chain demand factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.errors import ReproError
from repro.topology.cities import City
from repro.topology.traffic import TrafficMatrix


def diurnal_factor(
    local_hour: float, peak_hour: float = 20.0, trough_ratio: float = 0.3
) -> float:
    """Demand multiplier at a local hour.

    A raised cosine peaking at ``peak_hour`` (multiplier 1.0) and
    bottoming out twelve hours later at ``trough_ratio``.
    """
    if not 0.0 < trough_ratio <= 1.0:
        raise ReproError(f"trough_ratio out of range: {trough_ratio}")
    phase = 2 * math.pi * (local_hour - peak_hour) / 24.0
    # cos(phase) is 1 at the peak and -1 at the trough.
    mid = (1.0 + trough_ratio) / 2.0
    amplitude = (1.0 - trough_ratio) / 2.0
    return mid + amplitude * math.cos(phase)


def timezone_offset_hours(city: City) -> float:
    """Approximate UTC offset from longitude (15 degrees per hour)."""
    return city.lon / 15.0


@dataclass
class TimeVaryingTrafficMatrix:
    """A base gravity matrix modulated by per-endpoint local time.

    The demand between two nodes at UTC hour ``h`` scales with the
    geometric mean of the two endpoints' diurnal factors -- traffic needs
    both ends awake.
    """

    base: TrafficMatrix
    cities: Sequence[City]
    peak_hour: float = 20.0
    trough_ratio: float = 0.3

    def __post_init__(self) -> None:
        self._offsets = {c.name: timezone_offset_hours(c) for c in self.cities}
        missing = set(self.base.nodes) - set(self._offsets)
        if missing:
            raise ReproError(f"no city data for nodes: {sorted(missing)}")

    def factor_at(self, node: str, utc_hour: float) -> float:
        """The diurnal factor of one node at a UTC hour."""
        local = (utc_hour + self._offsets[node]) % 24.0
        return diurnal_factor(local, self.peak_hour, self.trough_ratio)

    def chain_demand_factors(
        self, ingress_nodes: dict[str, str], utc_hour: float
    ) -> dict[str, float]:
        """Per-chain demand multipliers at a UTC hour.

        The paper scales a chain's traffic with the traffic at its
        ingress site, so the factor is the ingress node's diurnal factor.
        """
        return {
            chain: self.factor_at(node, utc_hour)
            for chain, node in ingress_nodes.items()
        }
