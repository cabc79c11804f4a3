"""Routing solutions: the ``x_{c z n1 n2}`` variables and derived metrics.

Every traffic-engineering scheme in this repository -- SB-LP, SB-DP,
ANYCAST, COMPUTE-AWARE, and the ablations -- produces a
:class:`RoutingSolution`.  All evaluation metrics (the weighted-latency
objective of Equation 3, site and VNF loads of Equation 4, link traffic of
Equations 6-7, carried throughput) are computed here so that schemes are
compared on identical accounting.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.errors import ReproError
from repro.core.model import Chain, ModelError, NetworkModel


class RoutingError(ReproError):
    """Raised on malformed routing solutions."""


@dataclass(frozen=True)
class StageFlow:
    """One routing assignment: a fraction of a chain's stage-``z`` traffic
    sent from ``src`` to ``dst`` (site names, or the raw ingress/egress
    node at the chain ends)."""

    chain: str
    stage: int
    src: str
    dst: str
    fraction: float


#: How much of a check's tolerance the certificate may use up before it
#: defers to :meth:`RoutingSolution.violations` -- the two add the same
#: terms in another order --, and the relative error allowed on a load.
_CERTIFIED_SHARE = 0.5
_LOAD_ROUNDING = 1e-9
#: The tolerance of every feasibility check.
_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class Certificate:
    """What a solved program says about its own feasibility, taken from
    its flow values while they are still an array
    (:func:`repro.core.formulation.certify`) and cheap to add up across
    programs that route disjoint chains over one substrate.

    ``loads`` holds, in *name* order (so two models of equal content but
    another insertion order agree on it), the (VNF, site) loads of
    Equation 4 VNF-major, the site loads, and the link traffic of
    Equation 6.  ``excess`` is the worst a single chain does: by how much
    it routes more than 1, breaks Equation 5 at a site or goes negative;
    infinite for a flow at a site its VNF is not deployed at.
    """

    excess: float
    loads: np.ndarray

    @staticmethod
    def total(parts: "Iterable[Certificate | None]") -> "Certificate | None":
        """The certificate of the union (``None`` if a part has none)."""
        parts = list(parts)
        if not parts or any(part is None for part in parts):
            return None
        return Certificate(
            max(part.excess for part in parts),
            np.sum([part.loads for part in parts], axis=0),
        )

    def clears(self, sub) -> bool:
        """True only if ``violations()`` of the certified flows on a
        model with the substrate columns ``sub`` is certainly empty.

        Conservative: whatever comes within half of the tolerance of
        failing a check is left to the reference to decide (and to word).
        """
        margin = _CERTIFIED_SHARE * _TOL
        vnfs, sites, links = (
            np.argsort(rank) for rank in (sub.vnf_rank, sub.site_rank, sub.link_rank)
        )
        # A VNF carries nothing where it is not deployed.
        pairs = np.nan_to_num(sub.vnf_cap[np.ix_(vnfs, sites)].ravel(), nan=0.0)
        bandwidth = sub.link_bandwidth[links]
        bounds = np.concatenate([
            pairs + margin,
            sub.site_capacity[sites] + margin,
            (sub.mlu_limit + margin) * bandwidth - sub.link_background[links],
        ])
        return bool(
            self.excess <= margin
            and self.loads.shape == bounds.shape
            and (self.loads * (1.0 + _LOAD_ROUNDING) <= bounds).all()
        )


class RoutingSolution:
    """A (possibly partial) routing for every chain in a model.

    ``fraction(c, z, n1, n2)`` is the paper's ``x_{c z n1 n2}``: the share
    of chain ``c``'s stage-``z`` demand routed from ``n1`` to ``n2``.
    Fractions below ``EPSILON`` are treated as zero and dropped.

    A solution may intentionally route less than the full demand of a
    chain (the max-throughput LP and the capacity-limited heuristics do
    this); :meth:`routed_fraction` exposes how much was carried.
    """

    EPSILON = 1e-9

    def __init__(self, model: NetworkModel):
        self.model = model
        #: The chains this routing is for: the model's own (live) map
        #: unless :meth:`assemble` bound a snapshot.
        self.chains: Mapping[str, Chain] = model.chains
        # (chain, stage) -> {(src, dst): fraction}
        self._flows: dict[tuple[str, int], dict[tuple[str, str], float]] = (
            defaultdict(dict)
        )

    # -- construction ---------------------------------------------------

    @classmethod
    def assemble(
        cls,
        model: NetworkModel,
        tables: Iterable[Mapping],
        chains: Mapping[str, Chain] | None = None,
    ) -> "RoutingSolution":
        """The solution holding the flows of every one of ``tables``
        (each what :meth:`table` returns; between them at most one per
        chain and stage), in that order.  The per-stage flows are shared
        with the tables, not copied: assembling costs one entry per
        (chain, stage), and neither side may be edited afterwards.

        ``chains`` is the chain set the flows were solved for, where
        that must outlive edits of ``model`` (a plan handed to a caller
        stays a value when a chain is later removed or re-scaled)."""
        solution = cls(model)
        if chains is not None:
            solution.chains = chains
        for table in tables:
            solution._flows.update(table)
        return solution

    def table(self) -> Mapping[tuple[str, int], Mapping[tuple[str, str], float]]:
        """The flows as stored, per (chain, stage) -- for :meth:`assemble`."""
        return self._flows

    def add_flow(
        self, chain: str, stage: int, src: str, dst: str, fraction: float
    ) -> None:
        """Accumulate ``fraction`` of stage traffic onto the (src, dst) pair."""
        if chain not in self.chains:
            raise RoutingError(f"unknown chain {chain!r}")
        c = self.chains[chain]
        if not 1 <= stage <= c.num_stages:
            raise RoutingError(f"chain {chain!r}: stage {stage} out of range")
        if fraction < -self.EPSILON:
            raise RoutingError(f"negative flow fraction {fraction}")
        if fraction <= self.EPSILON:
            return
        key = (src, dst)
        stage_flows = self._flows[(chain, stage)]
        stage_flows[key] = stage_flows.get(key, 0.0) + fraction

    def add_path(self, chain: str, sites: Sequence[str], fraction: float) -> None:
        """Add a full chain path (ingress, site_1, ..., site_k, egress).

        ``sites`` must have one entry per chain node, i.e.
        ``len(chain.vnfs) + 2`` entries; consecutive entries become one
        stage flow each.  This is how the DP heuristic and the per-hop
        baselines emit their routes.
        """
        c = self.chains[chain]
        expected = len(c.vnfs) + 2
        if len(sites) != expected:
            raise RoutingError(
                f"chain {chain!r}: path needs {expected} hops, got {len(sites)}"
            )
        for z, (src, dst) in enumerate(zip(sites, sites[1:]), start=1):
            self.add_flow(chain, z, src, dst, fraction)

    def set_flow(
        self, chain: str, stage: int, src: str, dst: str, fraction: float
    ) -> None:
        """Overwrite (or remove, when ~0) a single stage flow."""
        if chain not in self.chains:
            raise RoutingError(f"unknown chain {chain!r}")
        if fraction < -self.EPSILON:
            raise RoutingError(f"negative flow fraction {fraction}")
        stage_flows = self._flows[(chain, stage)]
        if fraction <= self.EPSILON:
            stage_flows.pop((src, dst), None)
        else:
            stage_flows[(src, dst)] = fraction

    # -- lookups ----------------------------------------------------------

    def fraction(self, chain: str, stage: int, src: str, dst: str) -> float:
        return self._flows.get((chain, stage), {}).get((src, dst), 0.0)

    def stage_flows(self, chain: str, stage: int) -> dict[tuple[str, str], float]:
        return dict(self._flows.get((chain, stage), {}))

    def flows(self) -> Iterator[StageFlow]:
        """Iterate every non-zero stage flow."""
        for (chain, stage), pairs in self._flows.items():
            for (src, dst), fraction in pairs.items():
                yield StageFlow(chain, stage, src, dst, fraction)

    def routed_fraction(self, chain: str) -> float:
        """Share of the chain's demand actually carried (stage-1 flow sum)."""
        return sum(self._flows.get((chain, 1), {}).values())

    # -- metrics ------------------------------------------------------------

    def total_weighted_latency(self) -> float:
        """The Equation 3 objective: sum over flows of
        ``(w_cz + v_cz) * d_{n1 n2} * x``."""
        total = 0.0
        for flow in self.flows():
            c = self.chains[flow.chain]
            demand = c.stage_traffic(flow.stage)
            total += demand * self.model.site_latency(flow.src, flow.dst) * flow.fraction
        return total

    def chain_latency(self, chain: str) -> float:
        """Expected one-way path latency of a chain's carried traffic.

        Per stage, the expected hop delay weighted by flow fractions
        (normalized by the carried fraction), summed over stages.  Returns
        ``inf`` for a chain carrying no traffic.
        """
        routed = self.routed_fraction(chain)
        if routed <= self.EPSILON:
            return float("inf")
        c = self.chains[chain]
        total = 0.0
        for z in range(1, c.num_stages + 1):
            stage_total = 0.0
            for (src, dst), frac in self._flows.get((chain, z), {}).items():
                stage_total += self.model.site_latency(src, dst) * frac
            total += stage_total / routed
        return total

    def mean_latency(self) -> float:
        """Traffic-weighted mean chain latency over carried traffic."""
        num, den = 0.0, 0.0
        for name, chain in self.chains.items():
            routed = self.routed_fraction(name)
            if routed <= self.EPSILON:
                continue
            carried = routed * chain.stage_traffic(1)
            num += carried * self.chain_latency(name)
            den += carried
        return num / den if den > 0 else float("inf")

    def throughput(self) -> float:
        """Total chain demand carried (stage-1 forward+reverse traffic)."""
        return sum(
            self.routed_fraction(name) * chain.stage_traffic(1)
            for name, chain in self.chains.items()
        )

    def _accumulate(self) -> tuple[dict, dict, dict, dict]:
        """One pass over the flows: (VNF, site) loads (Equation 4), site
        loads, node-pair traffic (Equation 7) and link traffic (the
        summand of Equation 6), each keyed in first-use order."""
        model = self.model
        loads: dict[tuple[str, str], float] = defaultdict(float)
        traffic: dict[tuple[str, str], float] = defaultdict(float)
        for (chain, stage), pairs in self._flows.items():
            c = self.chains[chain]
            total = c.stage_traffic(stage)
            forward = c.forward_traffic[stage - 1]
            reverse = c.reverse_traffic[stage - 1]
            # The VNF terminating stage z receives its traffic (unless z
            # is the egress stage); the VNF originating it sends it
            # (unless z is the ingress stage).
            into = c.vnfs[stage - 1] if stage < c.num_stages else None
            out_of = c.vnfs[stage - 2] if stage > 1 else None
            for (src, dst), fraction in pairs.items():
                demand = total * fraction
                if into is not None:
                    loads[(into, dst)] += model.vnfs[into].load_per_unit * demand
                if out_of is not None:
                    loads[(out_of, src)] += model.vnfs[out_of].load_per_unit * demand
                fwd = forward * fraction
                rev = reverse * fraction
                n1 = model.endpoint_node(src)
                n2 = model.endpoint_node(dst)
                if fwd > 0:
                    traffic[(n1, n2)] += fwd
                if rev > 0:
                    traffic[(n2, n1)] += rev
        sites: dict[str, float] = defaultdict(float)
        for (_vnf, site), load in loads.items():
            sites[site] += load
        per_link: dict[str, float] = defaultdict(float)
        for pair, volume in traffic.items():
            for link_name, frac in model.routing.get(pair, {}).items():
                per_link[link_name] += volume * frac
        return dict(loads), dict(sites), dict(traffic), dict(per_link)

    def vnf_site_loads(self) -> dict[tuple[str, str], float]:
        """Load of each (VNF, site): ``l_f`` times traffic received at the
        VNF's stage plus traffic sent at the following stage (Equation 4)."""
        return self._accumulate()[0]

    def site_loads(self) -> dict[str, float]:
        """Total load per cloud site, summed across VNFs."""
        return self._accumulate()[1]

    def pair_traffic(self) -> dict[tuple[str, str], float]:
        """``sum_c T_{c n1 n2}`` of Equation 7: total Switchboard traffic
        between node pairs, combining forward and reverse directions.

        Reverse-direction traffic for a stage flow ``n1 -> n2`` travels
        ``n2 -> n1``.  Keys are network *nodes* (sites resolved).
        """
        return self._accumulate()[2]

    def link_traffic(self) -> dict[str, float]:
        """Switchboard traffic per physical link via routing fractions
        ``r_{n1 n2 e}`` (the summand of Equation 6)."""
        return self._accumulate()[3]

    def link_utilization(self) -> dict[str, float]:
        """Utilization (background + Switchboard) of every physical link."""
        return self._link_utilization(self.link_traffic())

    def _link_utilization(self, traffic) -> dict[str, float]:
        """Load over bandwidth per link; a blocked (zero-bandwidth) link
        reads 0 while nothing crosses it and +inf once anything does."""
        utils = {}
        for name, link in self.model.links.items():
            load = link.background + traffic.get(name, 0.0)
            if link.bandwidth > 0:
                utils[name] = load / link.bandwidth
            else:
                utils[name] = float("inf") if load > 0 else 0.0
        return utils

    def max_link_utilization(self) -> float:
        """The network cost metric the MLU budget ``beta`` constrains."""
        utils = self.link_utilization()
        return max(utils.values()) if utils else 0.0

    # -- validation -----------------------------------------------------------

    def violations(self) -> list[str]:
        """Check structural and capacity invariants; return human-readable
        descriptions of violations (empty list == valid).

        Checks: endpoint validity per stage (Equations 1-2), flow
        conservation (Equation 5), routed fraction <= 1, site capacity,
        VNF-site capacity (Equation 4), and the MLU budget (Equation 6)
        when links are modelled.
        """
        problems: list[str] = []
        for name, chain in self.chains.items():
            problems.extend(self._check_chain(name, chain))

        loads, site_loads, _pairs, link_traffic = self._accumulate()
        for site_name, load in site_loads.items():
            site = self.model.sites.get(site_name)
            if site is None:
                problems.append(f"load on unknown site {site_name!r}")
            elif load > site.capacity + _TOL:
                problems.append(
                    f"site {site_name!r} overloaded: {load:.6g} > {site.capacity:.6g}"
                )

        for (vnf_name, site_name), load in loads.items():
            cap = self.model.vnfs[vnf_name].site_capacity.get(site_name)
            if cap is None:
                problems.append(
                    f"VNF {vnf_name!r} routed at non-deployment site {site_name!r}"
                )
            elif load > cap + _TOL:
                problems.append(
                    f"VNF {vnf_name!r} at {site_name!r} overloaded: "
                    f"{load:.6g} > {cap:.6g}"
                )

        if self.model.links:
            for link_name, util in self._link_utilization(link_traffic).items():
                if util > self.model.mlu_limit + _TOL:
                    problems.append(
                        f"link {link_name!r} exceeds MLU budget: "
                        f"{util:.6g} > {self.model.mlu_limit:.6g}"
                    )
        return problems

    def _check_chain(self, name: str, chain: Chain) -> Iterable[str]:
        problems: list[str] = []
        routed = self.routed_fraction(name)
        if routed > 1 + _TOL:
            problems.append(f"chain {name!r} routes {routed:.6g} > 1 of its demand")

        for z in range(1, chain.num_stages + 1):
            try:
                sources = set(self.model.stage_sources(chain, z))
                dests = set(self.model.stage_destinations(chain, z))
            except ModelError as exc:
                problems.append(str(exc))
                continue
            for (src, dst), frac in self._flows.get((name, z), {}).items():
                if src not in sources:
                    problems.append(
                        f"chain {name!r} stage {z}: invalid source {src!r}"
                    )
                if dst not in dests:
                    problems.append(
                        f"chain {name!r} stage {z}: invalid destination {dst!r}"
                    )
                if frac < -_TOL:
                    problems.append(
                        f"chain {name!r} stage {z}: negative fraction {frac:.6g}"
                    )

        # Flow conservation (Equation 5) at every intermediate VNF site.
        for z in range(1, chain.num_stages):
            incoming: dict[str, float] = defaultdict(float)
            outgoing: dict[str, float] = defaultdict(float)
            for (_src, dst), frac in self._flows.get((name, z), {}).items():
                incoming[dst] += frac
            for (src, _dst), frac in self._flows.get((name, z + 1), {}).items():
                outgoing[src] += frac
            for site in set(incoming) | set(outgoing):
                if abs(incoming[site] - outgoing[site]) > _TOL:
                    problems.append(
                        f"chain {name!r}: flow conservation broken at stage "
                        f"{z}->{z + 1}, site {site!r}: in={incoming[site]:.6g} "
                        f"out={outgoing[site]:.6g}"
                    )
        return problems

    def validate(self) -> None:
        """Raise :class:`RoutingError` listing all violations, if any."""
        problems = self.violations()
        if problems:
            raise RoutingError("; ".join(problems))

    def __repr__(self) -> str:
        n_flows = sum(len(p) for p in self._flows.values())
        return (
            f"RoutingSolution(chains={len(self.chains)}, flows={n_flows}, "
            f"throughput={self.throughput():.6g})"
        )
