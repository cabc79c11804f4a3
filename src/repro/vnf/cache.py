"""The web-cache VNF and the Table 3 shared-vs-siloed experiment.

Section 7.2 ("E2E comparison vs. unified approach"): five service chains
fetch objects through a Squid cache; the paper compares one cache
instance *shared* across all chains against five *vertically siloed*
instances of one-fifth the size.  The workload is Zipf(exponent 1) with
a 50 KB mean object size and a 60 ms RTT between the cache site and the
origin site.

Sharing wins for two reasons the model reproduces: the shared cache is
five times larger, and objects fetched by one chain hit for the others
(cross-chain reuse).  Download time follows from hit rate: a hit costs
the client-cache RTT plus transfer, a miss adds the cache-origin RTT.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass

from repro.core.errors import ReproError


class CacheError(ReproError):
    """Raised on invalid cache configuration."""


class LruCache:
    """An LRU object cache with capacity counted in objects (Squid's
    behaviour for a homogeneous object-size workload)."""

    def __init__(self, capacity: int):
        if capacity < 0:
            raise CacheError(f"negative capacity {capacity}")
        self.capacity = capacity
        self._store: OrderedDict[str, bool] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: str) -> bool:
        return key in self._store

    def get(self, key: str) -> bool:
        """Look up an object, inserting it on a miss.  True on a hit."""
        if key in self._store:
            self._store.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        if self.capacity == 0:
            return False
        if len(self._store) >= self.capacity:
            self._store.popitem(last=False)
        self._store[key] = True
        return False

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ZipfWorkload:
    """Zipf-distributed object requests over a catalog.

    ``sample()`` returns object ranks (1 = most popular) with
    ``P(rank) proportional to rank**-exponent``.
    """

    def __init__(
        self,
        num_objects: int,
        exponent: float,
        rng: random.Random,
        rank_offset: int = 0,
    ):
        if num_objects < 1:
            raise CacheError(f"need at least one object, got {num_objects}")
        if exponent <= 0:
            raise CacheError(f"non-positive Zipf exponent {exponent}")
        self.num_objects = num_objects
        self.rank_offset = rank_offset
        self._rng = rng
        weights = [rank ** -exponent for rank in range(1, num_objects + 1)]
        total = sum(weights)
        self._cumulative: list[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cumulative.append(acc)

    def sample(self) -> int:
        """Draw an object id (1-based).

        With a non-zero ``rank_offset`` the Zipf ranking is rotated over
        the catalog, modelling a customer whose popularity ordering only
        partially overlaps other customers' (their hot sets differ).
        """
        point = self._rng.random()
        lo, hi = 0, self.num_objects - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cumulative[mid] < point:
                lo = mid + 1
            else:
                hi = mid
        return (lo + self.rank_offset) % self.num_objects + 1


@dataclass
class CacheExperimentResult:
    """Aggregate outcome of one cache configuration."""

    scheme: str
    hit_rate: float
    mean_download_ms: float
    requests: int


def _download_ms(
    hit: bool,
    client_cache_rtt_ms: float,
    cache_origin_rtt_ms: float,
    mean_file_kb: float,
    bandwidth_mbps: float,
) -> float:
    transfer_ms = mean_file_kb * 8 / bandwidth_mbps  # KB over Mbps -> ms
    if hit:
        return client_cache_rtt_ms + transfer_ms
    # Miss: fetch across the wide area first (the paper's 60 ms RTT) --
    # roughly a TCP handshake plus the request/response exchange, with
    # partial pipelining (~1.85 RTTs for a 50 KB object), and a transfer
    # that pays the wide-area leg as well as the local one.
    return (
        client_cache_rtt_ms
        + cache_origin_rtt_ms * 1.85
        + transfer_ms * 2
    )


def chain_workloads(
    num_chains: int = 5,
    catalog_objects: int = 10_000,
    zipf_exponent: float = 1.0,
    seed: int = 7,
    popularity_spread: int = 0,
) -> list[ZipfWorkload]:
    """The request streams of the Table 3 experiment, one per chain.

    All chains draw from the same catalog with independent Zipf streams,
    modelling distinct customers browsing the same popular web content;
    ``popularity_spread`` rotates each chain's ranking by ``chain index *
    spread`` objects so the customers' hot sets only partially overlap.
    """
    if num_chains < 1:
        raise CacheError(f"need at least one chain, got {num_chains}")
    rng = random.Random(seed)
    return [
        ZipfWorkload(
            catalog_objects,
            zipf_exponent,
            random.Random(rng.random()),
            rank_offset=i * popularity_spread,
        )
        for i in range(num_chains)
    ]


def run_cache_experiment(
    workloads: list[ZipfWorkload],
    shared: bool = True,
    total_cache_objects: int = 500,
    requests_per_chain: int = 4000,
    mean_file_kb: float = 50.0,
    client_cache_rtt_ms: float = 2.0,
    cache_origin_rtt_ms: float = 60.0,
    bandwidth_mbps: float = 100.0,
) -> CacheExperimentResult:
    """Run one configuration of the Table 3 experiment on ``workloads``
    (:func:`chain_workloads`; the run draws from them).

    ``shared=True`` uses one cache of ``total_cache_objects`` for all
    chains; ``shared=False`` gives each chain a private cache of
    ``total_cache_objects / num_chains`` (the paper's one-fifth sizing).
    """
    num_chains = len(workloads)
    if shared:
        caches = [LruCache(total_cache_objects)] * num_chains
    else:
        per_chain = total_cache_objects // num_chains
        caches = [LruCache(per_chain) for _ in range(num_chains)]

    total_ms = 0.0
    hits = 0
    requests = 0
    for _ in range(requests_per_chain):
        for chain_idx in range(num_chains):
            obj = f"obj-{workloads[chain_idx].sample()}"
            hit = caches[chain_idx].get(obj)
            hits += hit
            requests += 1
            total_ms += _download_ms(
                hit,
                client_cache_rtt_ms,
                cache_origin_rtt_ms,
                mean_file_kb,
                bandwidth_mbps,
            )

    return CacheExperimentResult(
        scheme="shared" if shared else "siloed",
        hit_rate=hits / requests,
        mean_download_ms=total_ms / requests,
        requests=requests,
    )
