"""Utilization cost functions for the dynamic-programming heuristic.

Section 4.4: "Utilization-dependent costs are based on a piecewise-linear
convex function that increases exponentially with utilization at values
above 0.5 [Fortz & Thorup 2000]."

SB-DP prices every route with the one Fortz--Thorup penalty below (its
ablations turn the utilization terms off or route greedily; none swaps
the shape); the class is the piecewise-linear convex function it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.errors import ReproError


class CostError(ReproError):
    """Raised on invalid cost-function construction or evaluation."""


@dataclass(frozen=True)
class PiecewiseLinearCost:
    """A convex piecewise-linear function defined by breakpoints and slopes.

    ``breakpoints[i]`` is where slope ``slopes[i]`` begins; the first
    breakpoint must be 0.  Convexity requires strictly increasing
    breakpoints and non-decreasing slopes.  The function is continuous
    with ``f(0) = 0``.
    """

    breakpoints: tuple[float, ...]
    slopes: tuple[float, ...]

    def __init__(self, breakpoints: Sequence[float], slopes: Sequence[float]):
        breakpoints = tuple(float(b) for b in breakpoints)
        slopes = tuple(float(s) for s in slopes)
        if len(breakpoints) != len(slopes):
            raise CostError("breakpoints and slopes must have equal length")
        if not breakpoints or breakpoints[0] != 0.0:
            raise CostError("first breakpoint must be 0")
        if any(b2 <= b1 for b1, b2 in zip(breakpoints, breakpoints[1:])):
            raise CostError("breakpoints must be strictly increasing")
        if any(s2 < s1 for s1, s2 in zip(slopes, slopes[1:])):
            raise CostError("slopes must be non-decreasing (convexity)")
        object.__setattr__(self, "breakpoints", breakpoints)
        object.__setattr__(self, "slopes", slopes)
        # Segment starts, ends and slopes as columns, for ``batch``.
        ends = breakpoints[1:] + (float("inf"),)
        object.__setattr__(
            self,
            "_segments",
            tuple(np.array(part).reshape(-1, 1) for part in (breakpoints, ends, slopes)),
        )

    def __call__(self, utilization: float) -> float:
        """Evaluate the penalty at the given utilization (>= 0)."""
        if utilization < 0:
            raise CostError(f"negative utilization {utilization}")
        total = 0.0
        for i, (start, slope) in enumerate(zip(self.breakpoints, self.slopes)):
            end = (
                self.breakpoints[i + 1]
                if i + 1 < len(self.breakpoints)
                else float("inf")
            )
            if utilization <= start:
                break
            total += slope * (min(utilization, end) - start)
        return total

    def batch(self, utilization: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`__call__` over an array of utilizations.

        All segments at once, as one ``(segments x n)`` expression: each
        contributes ``slope * (min(u, end) - start)``, the difference
        clamped at 0 so a segment the utilization has not reached adds
        ``+ 0.0``.  The segments are then added one after another from
        0.0 in the scalar evaluation's order (not ``np.add.reduce``:
        over a single element it sums eight or more terms pairwise), so
        batch and scalar results are bitwise equal.
        """
        u = np.asarray(utilization, dtype=float)
        starts, ends, slopes = self._segments
        total = np.zeros(u.size)
        for term in slopes * np.maximum(np.minimum(u.reshape(1, -1), ends) - starts, 0.0):
            total += term
        return total.reshape(u.shape)


#: The Fortz--Thorup link-cost function from "Internet traffic engineering
#: by optimizing OSPF weights" (INFOCOM 2000): slope 1 below 1/3
#: utilization, then 3, 10, 70, 500, and 5000 above 110%.  This is the
#: function the paper cites for its utilization-dependent costs.
FORTZ_THORUP = PiecewiseLinearCost(
    breakpoints=(0.0, 1.0 / 3.0, 2.0 / 3.0, 0.9, 1.0, 1.1),
    slopes=(1.0, 3.0, 10.0, 70.0, 500.0, 5000.0),
)
