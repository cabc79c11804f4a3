"""Span recording from outside the program.

For the traced lap only, :class:`Tracer` replaces the public callables
listed in ``TARGETS`` with wrappers that record a span (name, start,
end, parent, op id) and puts the originals back on exit.  Nothing under
``src/`` is edited and an untraced lap runs the program untouched.

Two kinds of layer boundary exist in this program:

- direct calls (``installer.install(spec)``, ``flow_table.lookup(...)``),
  covered by wrapping the callee;
- callbacks a layer registers with another layer and that run later from
  the simulator's dispatch loop (``sim.schedule(delay, handler)``,
  ``host.on_receive(handler)``, ``rpc.endpoint(host, handler)``,
  ``bus.subscribe(client, topic, handler)``).  ``REGISTRARS`` wraps the
  registering call so the handler itself records a span, named after the
  module that defines it.  Without this every protocol, rpc and bus
  handler would be billed to ``Simulator.run``.

A span's self time is its duration minus the time covered by its child
spans, so self times of all spans add up to the time spent inside any
span at all; the rest of the timed section is the benchmark's own loop.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

#: module -> layer.  Also decides which registered callbacks get spans.
LAYER_OF_MODULE = {
    "repro.topology.backbone": "topology",
    "repro.topology.workload": "topology",
    "repro.topology.pops": "topology",
    "repro.core.model": "core.model",
    "repro.core.lp": "core.lp",
    "repro.core.highs": "core.highs",
    "repro.core.dp": "core.dp",
    "repro.scale.partition": "scale.partition",
    "repro.scale.farm": "scale.farm",
    "repro.scale.cache": "scale.cache",
    "repro.federation.shard": "federation.shard",
    "repro.federation.coordinator": "federation.coordinator",
    "repro.federation.regional": "federation.regional",
    "repro.controller.global_switchboard": "controller.global_switchboard",
    "repro.controller.protocol": "controller.protocol",
    "repro.controller.local_switchboard": "controller.local_switchboard",
    "repro.controller.replication": "controller.replication",
    "repro.bus.bus": "bus",
    "repro.simnet.events": "simnet",
    "repro.simnet.network": "simnet",
    "repro.resilience.rpc": "resilience.rpc",
    "repro.resilience.deadline": "resilience.deadline",
    "repro.resilience.failover": "resilience.failover",
    "repro.resilience.sweeper": "resilience.sweeper",
    "repro.chaos.invariants": "chaos.invariants",
    "repro.vnf.service": "vnf",
    "repro.edge.controller": "edge",
    "repro.edge.instance": "edge",
    "repro.dataplane.forwarder": "dataplane",
    "repro.dataplane.flowtable": "dataplane",
}

#: (module, dotted attribute[, layer override]) of every wrapped callable.
TARGETS = [
    ("repro.topology.backbone", "build_backbone"),
    ("repro.topology.workload", "generate_workload"),
    ("repro.topology.pops", "generate_federation_workload"),
    ("repro.core.model", "NetworkModel.add_chain"),
    ("repro.core.model", "NetworkModel.remove_chain"),
    ("repro.core.model", "NetworkModel.copy_with_chains"),
    ("repro.core.model", "NetworkModel.substrate_columns"),
    ("repro.core.model", "NetworkModel.chain_columns"),
    ("repro.core.model", "NetworkModel.variable_columns"),
    ("repro.core.model", "NetworkModel.digest"),
    ("repro.core.model", "NetworkModel.structure_digest"),
    ("repro.core.lp", "solve_chain_routing_lp"),
    ("repro.core.highs", "ColumnGenSolver.solve"),
    ("repro.core.dp", "route_chains_dp"),
    ("repro.core.dp", "IncrementalDpRouter.route"),
    ("repro.core.dp", "IncrementalDpRouter.rollback"),
    ("repro.scale.partition", "partition_chains"),
    ("repro.scale.partition", "coupling_groups"),
    ("repro.scale.farm", "SolverFarm.solve"),
    ("repro.scale.farm", "SolverFarm.resolve"),
    ("repro.scale.cache", "SolutionCache.get"),
    ("repro.scale.cache", "SolutionCache.put"),
    ("repro.federation.shard", "build_shards"),
    ("repro.federation.shard", "ShardMap.regional_model"),
    ("repro.federation.coordinator", "GlobalCoordinator.submit"),
    ("repro.federation.coordinator", "GlobalCoordinator.remove"),
    ("repro.federation.coordinator", "GlobalCoordinator.plan_all"),
    ("repro.federation.coordinator", "GlobalCoordinator.resolve"),
    ("repro.federation.regional", "RegionalSwitchboard.admit"),
    ("repro.federation.regional", "RegionalSwitchboard.evict"),
    ("repro.federation.regional", "RegionalSwitchboard.update_demand"),
    ("repro.federation.regional", "RegionalSwitchboard.update_segment"),
    ("repro.federation.regional", "RegionalSwitchboard.prepare"),
    ("repro.federation.regional", "RegionalSwitchboard.commit"),
    ("repro.federation.regional", "RegionalSwitchboard.abort"),
    ("repro.federation.regional", "RegionalSwitchboard.teardown"),
    ("repro.federation.regional", "RegionalSwitchboard.plan"),
    ("repro.federation.regional", "RegionalSwitchboard.reoptimize"),
    ("repro.controller.global_switchboard", "GlobalSwitchboard.create_chain"),
    ("repro.controller.global_switchboard", "GlobalSwitchboard.remove_chain"),
    ("repro.controller.global_switchboard", "GlobalSwitchboard.plan_routes"),
    ("repro.controller.protocol", "BusDrivenInstaller.install"),
    ("repro.controller.protocol", "BusDrivenInstaller.abort_install"),
    ("repro.controller.protocol", "BusDrivenInstaller.redrive"),
    ("repro.controller.protocol", "BusDrivenInstaller.send_teardown"),
    ("repro.controller.local_switchboard", "LocalSwitchboard.install_chain_rules"),
    ("repro.controller.local_switchboard", "LocalSwitchboard.install_edge_rule"),
    ("repro.controller.local_switchboard", "LocalSwitchboard.remove_chain_rules"),
    ("repro.controller.local_switchboard", "LocalSwitchboard.assign_instance"),
    ("repro.controller.replication", "ReplicatedStore.put"),
    ("repro.controller.replication", "ReplicatedStore.get"),
    ("repro.controller.replication", "ReplicatedStore.delete"),
    ("repro.controller.replication", "ReplicatedStore.keys"),
    ("repro.bus.bus", "GlobalMessageBus.publish"),
    ("repro.bus.bus", "GlobalMessageBus.unsubscribe"),
    ("repro.simnet.events", "Simulator.run"),
    ("repro.simnet.network", "SimNetwork.send"),
    ("repro.resilience.rpc", "RpcEndpoint.send"),
    ("repro.resilience.rpc", "RpcEndpoint.cancel_matching"),
    ("repro.resilience.failover", "FailoverManager.check"),
    ("repro.resilience.failover", "FailoverManager.take_over"),
    ("repro.resilience.sweeper", "ReconciliationSweeper.sweep"),
    ("repro.chaos.invariants", "InvariantChecker.check_now"),
    ("repro.vnf.service", "VnfService.prepare"),
    ("repro.vnf.service", "VnfService.commit"),
    ("repro.vnf.service", "VnfService.abort"),
    ("repro.vnf.service", "VnfService.release"),
    ("repro.vnf.service", "VnfService.teardown"),
    ("repro.dataplane.forwarder", "VnfInstance.process", "vnf"),
    ("repro.edge.controller", "EdgeController.install_chain"),
    ("repro.edge.controller", "EdgeController.remove_chain"),
    ("repro.edge.instance", "EdgeInstance.ingress"),
    ("repro.edge.instance", "EdgeInstance.send_reverse"),
    ("repro.edge.instance", "EdgeInstance.receive_from_chain"),
    ("repro.dataplane.forwarder", "DataPlane.send_forward"),
    ("repro.dataplane.forwarder", "DataPlane.send_reverse"),
    ("repro.dataplane.forwarder", "Forwarder.install_rule"),
    ("repro.dataplane.forwarder", "Forwarder.remove_rule"),
    ("repro.dataplane.flowtable", "FlowTable.lookup"),
    ("repro.dataplane.flowtable", "FlowTable.insert"),
]

#: (module, dotted attribute, position of the callback among the
#: arguments after ``self``, its keyword name).
REGISTRARS = [
    ("repro.simnet.events", "Simulator.schedule_at", 1, "callback"),
    ("repro.simnet.network", "Host.on_receive", 0, "callback"),
    ("repro.resilience.rpc", "RpcLayer.endpoint", 1, "handler"),
    ("repro.bus.bus", "GlobalMessageBus.subscribe", 2, "callback"),
]

_TRACED = "_ledger_traced"


class Tracer:
    """In-memory span store with running per-name aggregates."""

    def __init__(self, keep_spans: int = 100_000, contexts: tuple[str, ...] = ()):
        self._clock = time.perf_counter
        self._stack: list[list] = []
        #: phase -> span name -> [calls, self seconds, total seconds,
        #: calls that returned False]
        self.totals: dict[str, dict[str, list]] = {}
        #: Span names whose extent is a counting context, and
        #: (context, span name) -> calls made while that context was open.
        self._contexts = frozenset(contexts)
        self._context: str | None = None
        self.within: dict[tuple[str, str], int] = {}
        self._phase_totals: dict[str, list] | None = None
        #: (name, start, end, parent index or -1, op id), first
        #: ``keep_spans`` only; the aggregates cover every span.
        self.spans: list[tuple] = []
        self.keep_spans = keep_spans
        self.count = 0
        #: Set by the workload loop: the op the next spans belong to.
        self.op = -1
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------

    @contextmanager
    def phase(self, name: str):
        """Record spans while the block runs, into ``totals[name]``."""
        self._phase_totals = self.totals.setdefault(name, {})
        try:
            yield
        finally:
            self._phase_totals = None

    @contextmanager
    def paused(self):
        """Record nothing while the block runs (output checks)."""
        totals, self._phase_totals = self._phase_totals, None
        try:
            yield
        finally:
            self._phase_totals = totals

    def wrap(self, name: str, fn):
        clock, stack = self._clock, self._stack
        is_context = name in self._contexts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            totals = self._phase_totals
            if totals is None:
                return fn(*args, **kwargs)
            if self._context is not None:
                key = (self._context, name)
                self.within[key] = self.within.get(key, 0) + 1
            if is_context:
                self._context = name
            index = -1
            if self.count < self.keep_spans:
                index = len(self.spans)
                self.spans.append(None)
            self.count += 1
            # frame: span index, time covered by children
            frame = [index, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if is_context:
                    self._context = None
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                row = totals.get(name)
                if row is None:
                    row = totals[name] = [0, 0.0, 0.0, 0]
                row[0] += 1
                row[1] += duration - frame[1]
                row[2] += duration
                if result is False:
                    row[3] += 1
                if index >= 0:
                    self.spans[index] = (
                        name, start, end,
                        parent[0] if parent is not None else -1, self.op,
                    )

        setattr(traced, _TRACED, True)
        return traced

    def _wrap_callback(self, callback):
        """A span-recording stand-in for a registered callback, named
        after its defining module; callbacks from outside the program
        (or already wrapped) pass through unchanged."""
        fn = getattr(callback, "__func__", callback)
        layer = LAYER_OF_MODULE.get(getattr(fn, "__module__", None))
        if layer is None or getattr(fn, _TRACED, False):
            return callback
        leaf = getattr(fn, "__qualname__", "callback").rsplit(".", 1)[-1]
        return self.wrap(f"{layer}:{leaf}", callback)

    def _wrap_registrar(self, fn, position: int, keyword: str):
        @functools.wraps(fn)
        def registering(owner, *args, **kwargs):
            if self._phase_totals is not None:
                if keyword in kwargs:
                    if kwargs[keyword] is not None:
                        kwargs[keyword] = self._wrap_callback(kwargs[keyword])
                elif len(args) > position and args[position] is not None:
                    args = list(args)
                    args[position] = self._wrap_callback(args[position])
            return fn(owner, *args, **kwargs)

        return registering

    # -- install / restore -----------------------------------------------

    def __enter__(self) -> "Tracer":
        for module_name, path, *layer in TARGETS:
            layer_name = layer[0] if layer else LAYER_OF_MODULE[module_name]
            leaf = path.rsplit(".", 1)[-1]
            self._replace(
                module_name, path, functools.partial(self.wrap, f"{layer_name}:{leaf}")
            )
        for module_name, path, position, keyword in REGISTRARS:
            self._replace(
                module_name, path,
                functools.partial(
                    self._wrap_registrar, position=position, keyword=keyword
                ),
            )
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace(self, module_name: str, path: str, make) -> None:
        module = importlib.import_module(module_name)
        owner = module
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        replacement = make(original)
        owners = [owner]
        if not parents:
            # A module-level function: other modules hold their own
            # reference from ``from x import f``; replace those too.
            owners += [
                m for m in list(sys.modules.values())
                if m is not None and m is not module
                and vars(m).get(attr) is original
            ]
        for each in owners:
            self._undo.append((each, attr, original))
            setattr(each, attr, replacement)

    # -- reading -----------------------------------------------------------

    def _sum(self, column: int, names) -> float:
        return sum(
            rows[name][column]
            for rows in self.totals.values() for name in names if name in rows
        )

    def calls(self, *names: str) -> int:
        """Calls of the named spans over the whole lap."""
        return self._sum(0, names)

    def self_s(self, *names: str) -> float:
        """Self seconds of the named spans over the whole lap."""
        return self._sum(1, names)

    def returned_false(self, *names: str) -> int:
        return self._sum(3, names)

    def layer_s(self, layer: str) -> float:
        """Self seconds of one layer over the whole lap."""
        return sum(self.layer_self_s(p).get(layer, 0.0) for p in self.totals)

    def layer_self_s(self, phase: str = "timed") -> dict[str, float]:
        """Self seconds per layer (the part of the span name before the
        colon), largest first."""
        layers: dict[str, float] = {}
        for name, (_calls, self_s, _total, _false) in self.totals.get(phase, {}).items():
            layer = name.split(":", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + self_s
        return dict(sorted(layers.items(), key=lambda kv: -kv[1]))

    def largest_gap(self, t0: float, t1: float) -> tuple[float, int]:
        """(seconds, op id after it) of the longest stretch of
        [t0, t1] covered by no recorded top-level span."""
        tops = sorted(
            (s for s in self.spans if s is not None and s[3] == -1
             and s[1] >= t0 and s[2] <= t1),
            key=lambda s: s[1],
        )
        best, cursor, at_op = 0.0, t0, -1
        for _name, start, end, _parent, op in tops:
            if start - cursor > best:
                best, at_op = start - cursor, op
            cursor = max(cursor, end)
        if t1 - cursor > best:
            best, at_op = t1 - cursor, -1
        return best, at_op

    def chrome_trace(self) -> dict:
        """The kept spans as Chrome trace-event JSON (``chrome://tracing``,
        Perfetto): nested complete events in microseconds, the layer as
        the event category."""
        kept = [s for s in self.spans if s is not None]
        origin = min((s[1] for s in kept), default=0.0)
        return {
            "displayTimeUnit": "ms",
            "otherData": {
                "spans_recorded": self.count,
                "spans_exported": len(kept),
            },
            "traceEvents": [
                {
                    "name": name.split(":", 1)[1],
                    "cat": name.split(":", 1)[0],
                    "ph": "X",
                    "ts": round((start - origin) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "pid": 1,
                    "tid": 1,
                    "args": {"op": op, "parent": parent},
                }
                for name, start, end, parent, op in kept
            ],
        }
