"""Gravity-model traffic matrices.

The paper derives chain traffic volumes from a tier-1 backbone traffic
matrix snapshot and splits total traffic 4:1 between Switchboard chains
and background (transit) traffic.  We synthesize the matrix with the
standard gravity model: ``T[i][j] proportional to mass_i * mass_j``,
where the masses are metro populations.  The resulting matrix has the
heavy-tailed row sums the evaluation's "traffic proportional to the
traffic at the ingress site" rule depends on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.errors import ReproError
from repro.core.model import Link
from repro.topology.backbone import Backbone
from repro.topology.cities import City


@dataclass
class TrafficMatrix:
    """A demand matrix over named nodes (same units as link bandwidth)."""

    nodes: list[str]
    demand: dict[tuple[str, str], float]

    def row_sum(self, node: str) -> float:
        """Total traffic originating at ``node`` (the ingress weight)."""
        return sum(
            volume for (src, _dst), volume in self.demand.items() if src == node
        )

    def total(self) -> float:
        return sum(self.demand.values())

    def scaled(self, factor: float) -> "TrafficMatrix":
        return TrafficMatrix(
            list(self.nodes),
            {pair: v * factor for pair, v in self.demand.items()},
        )


def gravity_traffic_matrix(
    cities: Sequence[City], total_volume: float
) -> TrafficMatrix:
    """Build a gravity-model matrix normalized to ``total_volume``."""
    if total_volume < 0:
        raise ReproError(f"negative total volume {total_volume}")
    masses = {c.name: c.population_m for c in cities}
    raw: dict[tuple[str, str], float] = {}
    for a in cities:
        for b in cities:
            if a.name == b.name:
                continue
            raw[(a.name, b.name)] = masses[a.name] * masses[b.name]
    norm = sum(raw.values())
    demand = {pair: total_volume * v / norm for pair, v in raw.items()}
    return TrafficMatrix([c.name for c in cities], demand)


def split_switchboard_background(
    matrix: TrafficMatrix, switchboard_share: float = 0.8
) -> tuple[TrafficMatrix, TrafficMatrix]:
    """Split a matrix into Switchboard and background components.

    The paper divides traffic 4:1 (Switchboard:background), i.e. a 0.8
    Switchboard share.
    """
    if not 0.0 <= switchboard_share <= 1.0:
        raise ReproError(f"share out of range: {switchboard_share}")
    return (
        matrix.scaled(switchboard_share),
        matrix.scaled(1.0 - switchboard_share),
    )


def route_background(
    backbone: Backbone, background: TrafficMatrix
) -> dict[str, float]:
    """Route a background matrix over the backbone's ECMP fractions,
    returning per-link background volumes ``g_e``."""
    loads: dict[str, float] = {}
    for (n1, n2), volume in background.demand.items():
        for link_name, frac in backbone.routing.get((n1, n2), {}).items():
            loads[link_name] = loads.get(link_name, 0.0) + volume * frac
    return loads


def apply_background(
    backbone: Backbone,
    background: TrafficMatrix,
    clip_fraction: float | None = 0.6,
) -> list[Link]:
    """Backbone links with ``g_e`` filled in from a background matrix.

    ``clip_fraction`` caps each link's background at that fraction of its
    bandwidth -- a real operator's transit traffic is itself engineered
    to fit the network, whereas a raw gravity matrix is not.  Pass None
    to disable clipping.
    """
    loads = route_background(backbone, background)
    links = []
    for link in backbone.links:
        g = loads.get(link.name, 0.0)
        if clip_fraction is not None:
            g = min(g, clip_fraction * link.bandwidth)
        links.append(Link(link.name, link.src, link.dst, link.bandwidth, g))
    return links
