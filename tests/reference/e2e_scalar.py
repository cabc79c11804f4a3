"""The scalar progressive-filling allocator ``E2ETestbed.evaluate`` ran
before its water-filling was vectorized: the oracle the numpy version is
property-tested against (``tests/test_vectorized_equivalence.py``);
nothing under ``src/`` reaches it.
"""

from __future__ import annotations

from repro.dataplane.e2e import E2EResult, E2ETestbed, RouteMetrics


def evaluate_reference(bed: E2ETestbed) -> E2EResult:
    """``bed.evaluate()`` by scalar progressive filling."""
    caps = {
        name: min(route.demand_mbps, bed.tcp_cap_mbps(route))
        for name, route in bed.routes.items()
    }
    rates = {name: 0.0 for name in bed.routes}
    frozen: set[str] = set()
    bottleneck: dict[str, str | None] = {name: None for name in bed.routes}
    residual = {name: spec.capacity_mbps for name, spec in bed.instances.items()}

    while len(frozen) < len(bed.routes):
        active = [name for name in bed.routes if name not in frozen]
        # Largest uniform increment before a route cap or an instance
        # capacity binds.
        increment = min(caps[name] - rates[name] for name in active)
        binding_instance = None
        for inst_name, left in residual.items():
            users = [
                r for r in active
                if inst_name in bed.routes[r].instances
            ]
            if not users:
                continue
            inst_increment = left / len(users)
            if inst_increment < increment:
                increment = inst_increment
                binding_instance = inst_name
        increment = max(0.0, increment)

        for name in active:
            rates[name] += increment
            for inst_name in bed.routes[name].instances:
                residual[inst_name] = max(
                    0.0, residual[inst_name] - increment
                )

        if binding_instance is None:
            # A route cap bound first: freeze every route at its cap.
            for name in active:
                if rates[name] >= caps[name] - 1e-9:
                    frozen.add(name)
                    bottleneck[name] = (
                        "tcp"
                        if caps[name] < bed.routes[name].demand_mbps
                        else "demand"
                    )
        else:
            for name in active:
                if binding_instance in bed.routes[name].instances:
                    frozen.add(name)
                    bottleneck[name] = binding_instance

    utilization = {
        name: (spec.capacity_mbps - residual[name]) / spec.capacity_mbps
        for name, spec in bed.instances.items()
    }
    metrics = {}
    for name, route in bed.routes.items():
        rtt = bed.base_rtt(route)
        for inst_name in route.instances:
            rtt += 2 * bed._queue_delay(utilization[inst_name])
        metrics[name] = RouteMetrics(rates[name], rtt, bottleneck[name])
    return E2EResult(metrics, utilization)
