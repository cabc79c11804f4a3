"""The solver farm: parallel, caching, incremental SB-LP solving.

``SolverFarm`` sits between the controller and
:func:`repro.core.lp.solve_chain_routing_lp`:

- :func:`~repro.scale.partition.partition_chains` splits the chain set
  into independent solve requests (see that module for the
  optimality-gap contract);
- a ``concurrent.futures.ProcessPoolExecutor`` fans the requests out
  across cores (requests and results are plain picklable dataclasses;
  a serial path is used for single-worker configurations and as an
  automatic fallback when no pool can be spawned);
- a :class:`~repro.scale.cache.SolutionCache` keyed by the sub-model
  digest serves repeated and unchanged partitions without a solve; the
  plan hands out the key (:meth:`PartitionPlan.key`, carried while the
  partition's chains are the same objects), so a sub-model is built only
  for a partition that missed;
- :meth:`SolverFarm.resolve` is the incremental entry point used by
  :func:`repro.controller.reoptimize.reoptimize`: it reuses the stored
  partition plan, so only partitions containing changed-demand chains
  miss the cache and are re-solved, and merges fresh results with
  cached ones into a single :class:`~repro.core.routes.RoutingSolution`;
- a run costs what it re-solved: every :class:`SolveResult` holds its
  flows as the piece of a merged solution they contribute (``table``)
  and their feasibility certificate, both taken from the solver's
  arrays once, where they were solved (here or in a pool worker); the
  merged solution is assembled from the pieces without
  re-adding a flow and is bound to the chains as they were solved, so a
  :class:`FarmResult` stays a value when the model moves on, and its
  ``certificate`` is the partitions' added up;
- a chain-set change re-plans what changed: the stored plan is handed to
  the partitioner as ``previous``, which carries every unchanged chain's
  facts, pre-route and seat, so a partition nothing joined or left keeps
  its chain list and re-solves warm under its new shares.

``MonolithicSolver`` wraps the plain whole-network solve behind the same
strategy interface, so ``GlobalSwitchboard(solver=...)`` can switch
between the two without the controller caring which it got.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterable, TYPE_CHECKING

from repro.core.lp import LpObjective, LpResult, solve_chain_routing_lp
from repro.core.model import NetworkModel
from repro.core.routes import Certificate, RoutingSolution
from repro.core.serialization import model_from_dict, model_to_dict
from repro.scale.cache import SolutionCache
from repro.scale.partition import PartitionPlan, partition_chains

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

_EPS = 1e-9


@dataclass(frozen=True)
class SolveRequest:
    """A picklable solve order for one partition."""

    partition_index: int
    chains: tuple[str, ...]
    objective: str
    enforce_mlu: bool
    #: The partition sub-model as its serialization document (plain
    #: JSON-compatible containers, safe to ship across processes).
    model_document: dict = field(hash=False)


@dataclass(frozen=True)
class SolveResult:
    """A picklable solve outcome for one partition."""

    partition_index: int
    chains: tuple[str, ...]
    status: str
    objective: float | None
    #: Non-zero flows as ``(chain, stage) -> {(src, dst): fraction}``, in
    #: variable order: the piece of a merged solution this result
    #: contributes (:meth:`RoutingSolution.assemble`); never edited.
    table: dict = field(hash=False, repr=False)
    num_variables: int
    num_constraints: int
    solve_seconds: float
    #: What the flows say about their own feasibility, by name order of
    #: the substrate (``None``: check them the long way).
    certificate: Certificate | None = field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        return self.status == "optimal"

    @property
    def flows(self) -> tuple[tuple[str, int, str, str, float], ...]:
        """``table`` as ``(chain, stage, src, dst, fraction)`` rows."""
        return tuple(
            (chain, stage, src, dst, fraction)
            for (chain, stage), pairs in self.table.items()
            for (src, dst), fraction in pairs.items()
        )


def _result_from_lp(
    index: int, chains: tuple[str, ...], lp: LpResult
) -> SolveResult:
    return SolveResult(
        partition_index=index,
        chains=chains,
        status=lp.status,
        objective=lp.objective,
        table={} if lp.solution is None else lp.solution.table(),
        num_variables=lp.num_variables,
        num_constraints=lp.num_constraints,
        solve_seconds=lp.solve_seconds,
        certificate=lp.certificate,
    )


def _solve_submodel(
    submodel: NetworkModel,
    index: int,
    chains: tuple[str, ...],
    objective: LpObjective,
    enforce_mlu: bool,
) -> SolveResult:
    lp = solve_chain_routing_lp(submodel, objective, enforce_mlu=enforce_mlu)
    return _result_from_lp(index, chains, lp)


def solve_request(request: SolveRequest) -> SolveResult:
    """Pool worker: rebuild the sub-model and solve it.

    Module-level so ``ProcessPoolExecutor`` can pickle a reference to it.
    """
    submodel = model_from_dict(request.model_document)
    return _solve_submodel(
        submodel,
        request.partition_index,
        request.chains,
        LpObjective(request.objective),
        request.enforce_mlu,
    )


@dataclass
class FarmResult:
    """Outcome of a farm solve, merged back onto the full model.

    Duck-types the fields of :class:`repro.core.lp.LpResult` that
    callers read (``status``, ``objective``, ``solution``, ``ok``), plus
    farm-specific accounting.
    """

    status: str
    objective: float | None
    solution: RoutingSolution | None
    #: Total partitions in the plan.
    partitions: int
    #: Partition indices actually solved on this call (cache misses).
    solved: tuple[int, ...]
    cache_hits: int
    wall_seconds: float
    #: True when the merged objective is provably equal to the
    #: monolithic optimum (every partition a full coupling group).
    exact: bool
    #: True when the farm fell back to one monolithic solve (a split
    #: partition came back infeasible).
    fallback: bool = False
    results: dict[int, SolveResult] = field(default_factory=dict)
    #: The partitions' certificates added up (``None`` on the fallback).
    certificate: Certificate | None = None

    @property
    def ok(self) -> bool:
        return self.status == "optimal"

    @property
    def solve_seconds(self) -> float:
        return self.wall_seconds


def optimality_gap(farm: FarmResult, monolithic: LpResult) -> float:
    """Relative objective gap of a farm solve vs. the monolithic solve.

    Uses carried throughput for ``MAX_THROUGHPUT``-style solutions (the
    raw LP objective mixes in the latency tiebreak, whose scaling is
    partition-dependent) and the objective value otherwise.  Returns
    ``inf`` when either solve failed.
    """
    if not (farm.ok and monolithic.ok):
        return float("inf")
    if farm.objective is None or monolithic.objective is None:
        return float("inf")
    a, b = farm.objective, monolithic.objective
    if a <= 0 and b <= 0 and farm.solution is not None:
        # Max-throughput objectives are negated carried demand.
        a = farm.solution.throughput()
        b = monolithic.solution.throughput()
    denom = max(abs(b), _EPS)
    return abs(a - b) / denom


class SolverFarm:
    """Partitioned, cached, parallel chain-routing solver.

    Parameters
    ----------
    partition_size:
        Maximum chains per partition (``None`` keeps coupling groups
        whole -- always exact, but no speedup on coupled workloads).
        The default of 16 keeps the proportional-split optimality gap
        well inside :data:`~repro.scale.partition.DEFAULT_GAP_TOLERANCE`
        on the benchmark workloads while the per-partition LPs stay
        small enough for a >2x wall-clock win.
    max_workers:
        Process-pool width; ``None`` uses ``os.cpu_count()`` and ``1``
        forces the serial path.
    cache:
        A shared :class:`SolutionCache`; one is created when omitted.
    enforce_mlu:
        Passed through to :func:`solve_chain_routing_lp`.
    """

    def __init__(
        self,
        partition_size: int | None = 16,
        max_workers: int | None = None,
        cache: SolutionCache | None = None,
        enforce_mlu: bool = True,
        metrics: "MetricsRegistry | None" = None,
    ):
        self.partition_size = partition_size
        self.max_workers = (
            max_workers if max_workers is not None else (os.cpu_count() or 1)
        )
        self.metrics = metrics
        self.cache = (
            cache if cache is not None else SolutionCache(metrics=metrics)
        )
        self.enforce_mlu = enforce_mlu
        self.plan: PartitionPlan | None = None
        self._plan_key: tuple[str, int | None] | None = None

    # -- public entry points --------------------------------------------

    def solve(
        self,
        model: NetworkModel,
        objective: LpObjective = LpObjective.MAX_THROUGHPUT,
    ) -> FarmResult:
        """Partition (shares as of this model's demands) and solve
        everything.

        Identical back-to-back calls reuse the stored plan and are
        served from the solution cache.  Any other model is planned
        *from* the stored plan (:func:`partition_chains` carries what
        did not change; the first call, or another substrate, carries
        nothing and is the same code); after a demand-only change prefer
        :meth:`resolve`, which keeps the stored plan as it is so
        unchanged partitions keep their cache keys.
        """
        plan_key = (model.digest(), self.partition_size)
        if self.plan is None or self._plan_key != plan_key:
            self.plan = partition_chains(model, self.partition_size, self.plan)
            self._plan_key = plan_key
        return self._run(model, objective, self.plan, mode="full")

    def resolve(
        self,
        model: NetworkModel,
        changed_chains: Iterable[str],
        objective: LpObjective = LpObjective.MAX_THROUGHPUT,
    ) -> FarmResult:
        """Incremental re-solve after a demand change.

        Reuses the stored partition plan (structure and capacity shares
        are demand-independent).  What makes an untouched partition free
        is its unchanged cache key: the plan carries it while the
        partition's chains are the same objects (else only the new
        chains are encoded, into the substrate document the plan holds
        per partition), and a hit merges straight from the cache.  ``changed_chains`` is checked against the plan
        (:class:`PartitionError` for a chain it does not know) but does
        not select what re-solves; the keys do.  Falls back to
        :meth:`solve` when no compatible plan exists: first call, the
        chain set / a chain's shape or demand pattern changed (the plan
        is then maintained, not rebuilt), or the *substrate* changed
        underneath the plan (``fail_link``/``restore_link`` mutate
        latencies in place and call ``invalidate_substrate()``; the
        plan's stored substrate digest then no longer matches, so
        nothing of it is carried).
        """
        if self.plan is None or not self.plan.compatible_with(model):
            return self.solve(model, objective)
        self.plan.partitions_for(changed_chains)
        return self._run(model, objective, self.plan, mode="incremental")

    # -- machinery -------------------------------------------------------

    def _run(
        self,
        model: NetworkModel,
        objective: LpObjective,
        plan: PartitionPlan,
        mode: str,
    ) -> FarmResult:
        start = time.perf_counter()
        keys: dict[int, str] = {}
        results: dict[int, SolveResult] = {}
        misses: list[int] = []
        cache_hits = 0
        options = f":{objective.value}:mlu={self.enforce_mlu}"
        for part in plan.partitions:
            key = keys[part.index] = plan.key(model, part.index) + options
            cached = self.cache.get(key)
            if cached is None:
                misses.append(part.index)
                continue
            if cached.partition_index != part.index:
                # Solved under another index (a re-plan, or a cache
                # shared between farms).
                cached = replace(cached, partition_index=part.index)
            results[part.index] = cached
            cache_hits += 1

        for result in self._execute(model, misses, plan, objective):
            results[result.partition_index] = result
            if result.ok:
                self.cache.put(keys[result.partition_index], result)

        farm = self._merge(model, objective, plan, results, misses)
        farm.cache_hits = cache_hits
        farm.wall_seconds = time.perf_counter() - start
        if self.metrics is not None:
            self.metrics.counter("scale.solves", mode=mode).inc()
            self.metrics.counter("scale.partition_solves").inc(len(misses))
            self.metrics.gauge("scale.partitions").set(len(plan.partitions))
            self.metrics.histogram("scale.solve_s", mode=mode).observe(
                farm.wall_seconds
            )
        return farm

    def _execute(
        self,
        model: NetworkModel,
        indices: list[int],
        plan: PartitionPlan,
        objective: LpObjective,
    ) -> list[SolveResult]:
        """Solve the partitions that missed the cache: the only ones a
        sub-model is built for."""
        if not indices:
            return []
        chains = {i: plan.partitions[i].chains for i in indices}
        submodels = {i: plan.submodel(model, i) for i in indices}
        workers = min(self.max_workers, len(indices))
        if workers > 1:
            requests = [
                SolveRequest(
                    partition_index=i,
                    chains=chains[i],
                    objective=objective.value,
                    enforce_mlu=self.enforce_mlu,
                    model_document=model_to_dict(submodels[i]),
                )
                for i in indices
            ]
            try:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    return list(pool.map(solve_request, requests))
            except (OSError, PermissionError):
                # No pool available (restricted environments): degrade
                # to the serial path rather than failing the solve.
                if self.metrics is not None:
                    self.metrics.counter("scale.pool_failures").inc()
        return [
            _solve_submodel(
                submodels[i], i, chains[i], objective, self.enforce_mlu
            )
            for i in indices
        ]

    def _merge(
        self,
        model: NetworkModel,
        objective: LpObjective,
        plan: PartitionPlan,
        results: dict[int, SolveResult],
        misses: list[int],
    ) -> FarmResult:
        bad = [r for r in results.values() if not r.ok]
        if bad:
            # A split partition can be infeasible even when the joint
            # program is not (its capacity slice was too small for a
            # must-route objective).  Solve monolithically instead.
            if self.metrics is not None:
                self.metrics.counter("scale.fallbacks").inc()
            lp = solve_chain_routing_lp(
                model, objective, enforce_mlu=self.enforce_mlu,
                metrics=self.metrics,
            )
            solution = lp.solution
            if solution is not None:
                solution = RoutingSolution.assemble(
                    model, [solution.table()], dict(model.chains)
                )
            return FarmResult(
                status=lp.status,
                objective=lp.objective,
                solution=solution,
                partitions=len(plan.partitions),
                solved=tuple(misses),
                cache_hits=0,
                wall_seconds=0.0,
                exact=True,
                fallback=True,
                results=results,
            )

        # Bound to the chains as solved, not to the live model: the
        # result stays a value when a chain is later removed or re-scaled.
        solution = RoutingSolution.assemble(
            model, (r.table for r in results.values()), dict(model.chains)
        )
        objectives = [
            r.objective for r in results.values() if r.objective is not None
        ]
        if objective is LpObjective.MIN_MLU:
            merged = max(objectives) if objectives else None
        else:
            merged = sum(objectives) if objectives else None
        return FarmResult(
            status="optimal",
            objective=merged,
            solution=solution,
            partitions=len(plan.partitions),
            solved=tuple(misses),
            cache_hits=0,
            wall_seconds=0.0,
            exact=plan.exact,
            results=results,
            certificate=Certificate.total(
                r.certificate for r in results.values()
            ),
        )


class MonolithicSolver:
    """The plain whole-network solve behind the strategy interface.

    ``GlobalSwitchboard(solver=MonolithicSolver())`` behaves exactly
    like passing the model to :func:`solve_chain_routing_lp` yourself;
    it exists so farm and monolithic solving are interchangeable.
    """

    def __init__(
        self,
        enforce_mlu: bool = True,
        metrics: "MetricsRegistry | None" = None,
    ):
        self.enforce_mlu = enforce_mlu
        self.metrics = metrics

    def solve(
        self,
        model: NetworkModel,
        objective: LpObjective = LpObjective.MAX_THROUGHPUT,
    ) -> LpResult:
        return solve_chain_routing_lp(
            model, objective, enforce_mlu=self.enforce_mlu,
            metrics=self.metrics,
        )

    def resolve(
        self,
        model: NetworkModel,
        changed_chains: Iterable[str],
        objective: LpObjective = LpObjective.MAX_THROUGHPUT,
    ) -> LpResult:
        """No incremental path: every re-solve is a full solve."""
        return self.solve(model, objective)


__all__ = [
    "FarmResult",
    "MonolithicSolver",
    "SolveRequest",
    "SolveResult",
    "SolverFarm",
    "optimality_gap",
    "solve_request",
]
