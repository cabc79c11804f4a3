"""End-to-end testbed model for the Figure 10/11 experiments.

The paper's end-to-end comparisons run TCP traffic over two-site
testbeds (AWS with 150 ms inter-site RTT; a private cloud with 80 ms).
What determines the published numbers is (a) which VNF instances each
scheme's routing shares or saturates, (b) the wide-area RTT of each
route, (c) queueing delay at saturated instances, and (d) TCP's
throughput sensitivity to RTT and loss on wide-area paths.  This module
models exactly those four effects:

- routes receive **max-min fair** shares of every VNF instance capacity
  they traverse (progressive filling), additionally capped by their
  offered demand and by the Mathis TCP bound ``1.22 * MSS / (RTT *
  sqrt(loss))`` when a lossy wide-area hop is on the path;
- route RTT adds M/M/1-style queueing delay at each VNF instance as its
  utilization approaches 1.

The same model evaluates both phases of the Figure 10 dynamic-route
experiment (one route, then two).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import ReproError


class E2EError(ReproError):
    """Raised on invalid testbed construction."""


_MSS_BYTES = 1460
_MATHIS_CONSTANT = 1.22
#: An instance's M/M/1 service time, and the cap on its queueing delay.
_SERVICE_MS = 0.5
MAX_QUEUE_MS = 25.0


@dataclass
class VnfInstanceSpec:
    """A VNF instance in the testbed with a processing capacity in Mbps."""

    name: str
    site: str
    capacity_mbps: float

    def __post_init__(self) -> None:
        if self.capacity_mbps <= 0:
            raise E2EError(f"instance {self.name!r}: non-positive capacity")


@dataclass
class E2ERoute:
    """One chain route: an ordered list of sites with the VNF instances
    visited along the way, plus the route's offered demand."""

    name: str
    sites: list[str]
    instances: list[str]
    demand_mbps: float

    def __post_init__(self) -> None:
        if len(self.sites) < 2:
            raise E2EError(f"route {self.name!r}: needs ingress and egress")
        if self.demand_mbps <= 0:
            raise E2EError(f"route {self.name!r}: non-positive demand")


@dataclass
class RouteMetrics:
    """Evaluated performance of one route."""

    throughput_mbps: float
    rtt_ms: float
    bottleneck: str | None


@dataclass
class E2EResult:
    """Evaluated performance of the whole testbed."""

    routes: dict[str, RouteMetrics]
    utilization: dict[str, float] = field(default_factory=dict)

    @property
    def total_throughput_mbps(self) -> float:
        return sum(m.throughput_mbps for m in self.routes.values())

    @property
    def mean_rtt_ms(self) -> float:
        """Throughput-weighted mean RTT across routes."""
        total = self.total_throughput_mbps
        if total <= 0:
            return float("inf")
        return (
            sum(m.throughput_mbps * m.rtt_ms for m in self.routes.values()) / total
        )


class E2ETestbed:
    """A small wide-area testbed: sites, RTTs, instances, and routes."""

    def __init__(self, rtt_ms: dict[tuple[str, str], float]):
        self._rtt: dict[tuple[str, str], float] = {}
        for (a, b), rtt in rtt_ms.items():
            if rtt < 0:
                raise E2EError(f"negative RTT for ({a}, {b})")
            self._rtt[(a, b)] = rtt
            self._rtt[(b, a)] = rtt
        self.instances: dict[str, VnfInstanceSpec] = {}
        self.routes: dict[str, E2ERoute] = {}
        self.loss: dict[tuple[str, str], float] = {}

    # -- construction -----------------------------------------------------

    def add_instance(self, spec: VnfInstanceSpec) -> None:
        if spec.name in self.instances:
            raise E2EError(f"duplicate instance {spec.name!r}")
        self.instances[spec.name] = spec

    def set_loss(self, a: str, b: str, loss_rate: float) -> None:
        """Configure a packet-loss rate on the wide-area path a<->b."""
        if not 0 <= loss_rate < 1:
            raise E2EError(f"loss rate out of range: {loss_rate}")
        self.loss[(a, b)] = loss_rate
        self.loss[(b, a)] = loss_rate

    def add_route(self, route: E2ERoute) -> None:
        if route.name in self.routes:
            raise E2EError(f"duplicate route {route.name!r}")
        for inst in route.instances:
            if inst not in self.instances:
                raise E2EError(f"route {route.name!r}: unknown instance {inst!r}")
        for a, b in zip(route.sites, route.sites[1:]):
            if a != b and (a, b) not in self._rtt:
                raise E2EError(f"route {route.name!r}: no RTT for ({a}, {b})")
        self.routes[route.name] = route

    def remove_route(self, name: str) -> None:
        self.routes.pop(name, None)

    # -- helpers --------------------------------------------------------------

    def rtt(self, a: str, b: str) -> float:
        if a == b:
            return 0.0
        return self._rtt[(a, b)]

    def base_rtt(self, route: E2ERoute) -> float:
        """Propagation RTT of a route (no queueing)."""
        return sum(self.rtt(a, b) for a, b in zip(route.sites, route.sites[1:]))

    def path_loss(self, route: E2ERoute) -> float:
        """Aggregate loss probability across the route's lossy hops."""
        keep = 1.0
        for a, b in zip(route.sites, route.sites[1:]):
            keep *= 1.0 - self.loss.get((a, b), 0.0)
        return 1.0 - keep

    def tcp_cap_mbps(self, route: E2ERoute) -> float:
        """Mathis bound for the route, or +inf without loss."""
        loss = self.path_loss(route)
        rtt_s = self.base_rtt(route) / 1e3
        if loss <= 0 or rtt_s <= 0:
            return float("inf")
        bps = _MATHIS_CONSTANT * _MSS_BYTES * 8 / (rtt_s * loss**0.5)
        return bps / 1e6

    # -- evaluation ----------------------------------------------------------------

    def evaluate(self) -> E2EResult:
        """Allocate max-min fair throughput and compute per-route RTTs.

        The allocation is a vectorized water-filling over numpy
        route/instance incidence arrays: each round computes the largest
        uniform increment over all active routes at once, then freezes
        every route bound by the binding instance (or its own cap) in one
        mask operation.  The scalar progressive-filling loop it replaced
        is its oracle (``tests/reference/e2e_scalar.py``).
        """
        route_names = list(self.routes)
        inst_names = list(self.instances)
        n_routes = len(route_names)
        n_inst = len(inst_names)
        if n_routes == 0:
            return E2EResult({}, {name: 0.0 for name in inst_names})

        inst_index = {name: i for i, name in enumerate(inst_names)}
        route_list = list(self.routes.values())
        demands = np.array([route.demand_mbps for route in route_list])
        caps = np.array(
            [
                min(route.demand_mbps, self.tcp_cap_mbps(route))
                for route in route_list
            ]
        )
        # membership[i, j] = 1.0 if instance i is on route j; occurrence
        # counts multiplicity (a route may visit an instance twice).
        membership = np.zeros((n_inst, n_routes))
        occurrences = np.zeros((n_inst, n_routes))
        for j, route in enumerate(route_list):
            for inst_name in route.instances:
                i = inst_index[inst_name]
                membership[i, j] = 1.0
                occurrences[i, j] += 1.0

        capacity = np.array(
            [spec.capacity_mbps for spec in self.instances.values()]
        )
        residual = capacity.copy()
        rates = np.zeros(n_routes)
        active = np.ones(n_routes, dtype=bool)
        bottleneck: list[str | None] = [None] * n_routes

        while active.any():
            active_f = active.astype(float)
            # Largest uniform increment before a route cap binds.
            increment = float(np.min(caps[active] - rates[active]))
            binding = -1
            if n_inst:
                users = membership @ active_f
                inst_increment = np.full(n_inst, np.inf)
                np.divide(
                    residual, users, out=inst_increment, where=users > 0.0
                )
                tightest = float(inst_increment.min())
                # Strict < replicates the scalar tie-break: a route cap
                # that ties an instance wins, and the first instance (in
                # insertion order) achieving the minimum is the binder.
                if tightest < increment:
                    increment = tightest
                    binding = int(np.argmin(inst_increment))
            increment = max(0.0, increment)

            rates[active] += increment
            residual -= increment * (occurrences @ active_f)
            # Clamp: repeated subtraction may drift a fully used instance
            # a few ulps below zero, which would report utilization > 1.
            np.maximum(residual, 0.0, out=residual)

            if binding < 0:
                # A route cap bound first: freeze every route at its cap.
                hit = active & (rates >= caps - 1e-9)
                for j in np.flatnonzero(hit):
                    bottleneck[j] = "tcp" if caps[j] < demands[j] else "demand"
            else:
                hit = active & (membership[binding] > 0.0)
                for j in np.flatnonzero(hit):
                    bottleneck[j] = inst_names[binding]
            active &= ~hit

        utilization_arr = np.divide(
            capacity - residual,
            capacity,
            out=np.zeros(n_inst),
            where=capacity > 0.0,
        )
        assert np.all(residual >= 0.0), "residual capacity drifted negative"
        assert np.all(utilization_arr <= 1.0), "instance utilization above 1"
        utilization = dict(zip(inst_names, utilization_arr.tolist()))

        queue_delay = np.array(
            [2.0 * self._queue_delay(u) for u in utilization_arr]
        )
        base_rtts = np.array([self.base_rtt(route) for route in route_list])
        rtts = base_rtts + queue_delay @ occurrences
        metrics = {
            name: RouteMetrics(float(rates[j]), float(rtts[j]), bottleneck[j])
            for j, name in enumerate(route_names)
        }
        return E2EResult(metrics, utilization)

    def _queue_delay(self, utilization: float) -> float:
        u = min(utilization, 0.999)
        delay = _SERVICE_MS * u / (1.0 - u)
        return min(delay, MAX_QUEUE_MS)
