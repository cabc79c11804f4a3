"""``repro.scale`` -- a caching, incremental solver farm.

The paper's scalability pain point (Section 7: SB-LP solve time vs.
number of chains) is addressed here the way wide-area chain-mapping
systems usually do it: decompose the program per chain partition, solve
the partitions one after another, and on re-optimization (Section 5.3
semantics) re-solve only the partitions whose chains' demand actually
moved.

Entry points:

- :func:`partition_chains` / :class:`PartitionPlan` -- split a model's
  chain set into independent solve requests;
- :class:`SolverFarm` -- partition + solution cache + incremental
  :meth:`~SolverFarm.resolve`; ``GlobalSwitchboard(solver=...)``
  accepts it, and ``solver=None`` is the plain whole-network solve;
- :class:`SolutionCache` -- digest-keyed LRU; its hit, miss and
  eviction counts are :class:`CacheStats`.
"""

from repro.scale.cache import CacheStats, SolutionCache
from repro.scale.farm import (
    FarmResult,
    SolveResult,
    SolverFarm,
)
from repro.scale.partition import (
    DEFAULT_GAP_TOLERANCE,
    Partition,
    PartitionError,
    PartitionPlan,
    coupling_groups,
    partition_chains,
    shard_map,
)

__all__ = [
    "CacheStats",
    "DEFAULT_GAP_TOLERANCE",
    "FarmResult",
    "Partition",
    "PartitionError",
    "PartitionPlan",
    "SolutionCache",
    "SolveResult",
    "SolverFarm",
    "coupling_groups",
    "partition_chains",
    "shard_map",
]
