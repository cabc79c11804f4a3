"""LRU cache of partition solve results, keyed by model digests.

Cache keys are built from :meth:`repro.core.model.NetworkModel.digest`
of the exact sub-model handed to the solver plus the solve options, so a
hit is only possible when topology, capacities (including the
partitioner's proportional shares), chain set, per-stage demands, and
objective are all bit-identical.  That makes the cache safe to share
across solver-farm instances and across re-optimization rounds: a
partition whose chains' demand did not move hashes to the same key and
is served without a solve.

Hit/miss/eviction counts are kept in :class:`CacheStats`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scale.farm import SolveResult

#: Partition results an LRU holds.
MAX_ENTRIES = 256


@dataclass
class CacheStats:
    """The cache's hit, miss and eviction counts."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0


class SolutionCache:
    """A bounded LRU of :class:`~repro.scale.farm.SolveResult` objects."""

    def __init__(self):
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, SolveResult]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> "SolveResult | None":
        result = self._entries.get(key)
        if result is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return result

    def put(self, key: str, result: "SolveResult") -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = result
        while len(self._entries) > MAX_ENTRIES:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
