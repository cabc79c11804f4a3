"""The solver farm: partitioned, caching, incremental SB-LP solving.

``SolverFarm`` sits between the controller and
:func:`repro.core.lp.solve_chain_routing_lp`:

- :func:`~repro.scale.partition.partition_chains` splits the chain set
  into independent partitions (see that module for the optimality-gap
  contract), which are solved one after another in this process, so the
  LP structures a solve builds stay warm for the next one;
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
  arrays once, where they were solved; the merged solution is
  assembled from the pieces without re-adding a flow and is bound to
  the chains as they were solved, so a :class:`FarmResult` stays a
  value when the model moves on, and its ``certificate`` is the
  partitions' added up;
- a chain-set change re-plans what changed: the stored plan is handed to
  the partitioner as ``previous``, which carries every unchanged chain's
  facts, pre-route and seat, so a partition nothing joined or left keeps
  its chain list and re-solves warm under its new shares.

The plain whole-network solve needs no wrapper: ``GlobalSwitchboard``
with ``solver=None`` calls :func:`solve_chain_routing_lp` directly, and
``SolverFarm(partition_size=None)`` is the exact farm.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Iterable, TYPE_CHECKING

from repro.core.lp import LpObjective, solve_chain_routing_lp
from repro.core.model import NetworkModel
from repro.core.routes import Certificate, RoutingSolution
from repro.scale.cache import SolutionCache
from repro.scale.partition import PartitionPlan, check_partition_size, partition_chains

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry


@dataclass(frozen=True)
class SolveResult:
    """The solve outcome for one partition, as the cache holds it."""

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


class SolverFarm:
    """Partitioned, cached chain-routing solver.

    Parameters
    ----------
    partition_size:
        Maximum chains per partition (``None`` keeps coupling groups
        whole -- always exact, but no speedup on coupled workloads).
        The default of 16 keeps the proportional-split optimality gap
        well inside :data:`~repro.scale.partition.DEFAULT_GAP_TOLERANCE`
        on the benchmark workloads while the per-partition LPs stay
        small enough for a >2x wall-clock win.
    cache:
        A shared :class:`SolutionCache`; one is created when omitted.
    enforce_mlu:
        Passed through to :func:`solve_chain_routing_lp`.
    """

    def __init__(
        self,
        partition_size: int | None = 16,
        cache: SolutionCache | None = None,
        enforce_mlu: bool = True,
        metrics: "MetricsRegistry | None" = None,
    ):
        check_partition_size(partition_size)
        self.partition_size = partition_size
        self.metrics = metrics
        self.cache = cache if cache is not None else SolutionCache()
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

        for index in misses:
            # A sub-model is built only for a partition that missed.
            result = self._solve_partition(model, plan, index, objective)
            results[index] = result
            if result.ok:
                self.cache.put(keys[index], result)

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

    def _solve_partition(
        self,
        model: NetworkModel,
        plan: PartitionPlan,
        index: int,
        objective: LpObjective,
    ) -> SolveResult:
        lp = solve_chain_routing_lp(
            plan.submodel(model, index), objective,
            enforce_mlu=self.enforce_mlu,
        )
        return SolveResult(
            partition_index=index,
            chains=plan.partitions[index].chains,
            status=lp.status,
            objective=lp.objective,
            table={} if lp.solution is None else lp.solution.table(),
            num_variables=lp.num_variables,
            num_constraints=lp.num_constraints,
            solve_seconds=lp.solve_seconds,
            certificate=lp.certificate,
        )

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
