"""Invariant probes for the federated control plane.

These are the checks the chaos soak (and the tests) run after every
operation; each returns a list of human-readable problem strings
(empty == invariant holds).

- :func:`check_capacity_safety` -- the composition argument from
  ``federation.shard``: per-region LP feasibility (the regional
  solution's own :meth:`~repro.core.routes.RoutingSolution.violations`)
  plus the border contract (no ledger reserved beyond its link's
  headroom).
- :func:`check_atomicity` -- 2PC all-or-nothing: every installed
  cross-shard chain has *all* of its segments committed in their
  regions, and no region holds a committed segment whose origin chain
  the coordinator does not consider installed (no partial installs in
  either direction).
- :func:`check_quiescence` -- with no install in flight, no region
  holds prepared-but-uncommitted residue (a crashed coordinator's
  leftovers must be gone after :meth:`GlobalCoordinator.sweep`).
- :func:`check_stitching` -- stitched cross-shard paths are
  continuous (segment egress == border source, border destination ==
  next segment ingress, regions match) and conserve demand (each
  crossing reserves exactly the stage demand at the cut).
- :func:`check_ledger_consistency` -- every border-ledger entry is
  backed by a live segment with a matching reservation amount, and
  vice versa (the durable-checkpoint/reconciliation analogue of
  atomicity, at the ledger granularity).
- :func:`check_single_active` -- at most one coordinator believes it
  is active on a live host (lease safety at the federation layer).
- :func:`check_no_lost_requests` -- every chain submitted to a
  regional node is either still queued or has a recorded outcome;
  nothing silently vanishes across partitions and failovers.

:func:`federation_probes` packages all of them as the zero-argument
probes the chaos :class:`~repro.chaos.invariants.InvariantChecker`
(and ``federation/soak.py``) consume, with ``in_flight`` /
``skip_regions`` exclusions so mid-2PC state and partitioned or
restarting regions are not flagged as violations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.federation.coordinator import FederatedPlan, GlobalCoordinator
    from repro.simnet.network import SimNetwork

_EPS = 1e-6


def _origin_of(segment_key: str) -> str:
    """Origin chain name of a segment key (``"c3@s1"`` -> ``"c3"``)."""
    return segment_key.split("@", 1)[0]


def check_capacity_safety(
    coordinator: "GlobalCoordinator", plan: "FederatedPlan | None" = None
) -> list[str]:
    problems = list(coordinator.border_violations())
    if plan is not None:
        for region in sorted(plan.per_region):
            solution = plan.per_region[region].solution
            if solution is None:
                continue
            problems.extend(
                f"region {region}: {p}" for p in solution.violations()
            )
    return problems


def check_atomicity(
    coordinator: "GlobalCoordinator",
    in_flight: Iterable[str] = (),
    skip_regions: Iterable[int] = (),
) -> list[str]:
    problems: list[str] = []
    in_flight = set(in_flight)
    skip_regions = set(skip_regions)
    committed_by_region = {
        region: set(regional.committed_segments())
        for region, regional in coordinator.regionals.items()
        if region not in skip_regions
    }
    seen: dict[int, set[str]] = {r: set() for r in committed_by_region}
    for name, record in coordinator._cross.items():
        if name in in_flight:
            continue
        for seg in record.segments:
            key = seg.chain.name
            if seg.region not in committed_by_region:
                continue  # partitioned/restarting region: unverifiable
            if key not in committed_by_region[seg.region]:
                problems.append(
                    f"chain {name!r}: segment {key!r} not committed in "
                    f"region {seg.region} (partial install)"
                )
            else:
                seen[seg.region].add(key)
    for region, committed in committed_by_region.items():
        for key in sorted(committed - seen[region]):
            if _origin_of(key) in in_flight:
                continue
            problems.append(
                f"region {region}: committed segment {key!r} belongs to no "
                f"installed chain (orphan commit)"
            )
    return problems


def check_quiescence(
    coordinator: "GlobalCoordinator",
    in_flight: Iterable[str] = (),
    skip_regions: Iterable[int] = (),
) -> list[str]:
    problems: list[str] = []
    in_flight = set(in_flight)
    skip_regions = set(skip_regions)
    for region, regional in sorted(coordinator.regionals.items()):
        if region in skip_regions:
            continue
        for key in regional.prepared_segments():
            if _origin_of(key) in in_flight:
                continue
            problems.append(
                f"region {region}: prepared residue {key!r} at quiescence"
            )
        for name, ledger in sorted(regional.ledgers.items()):
            for key in sorted(ledger.prepared):
                if _origin_of(key) in in_flight:
                    continue
                problems.append(
                    f"border {name!r}: prepared reservation {key!r} "
                    f"at quiescence"
                )
    return problems


def check_ledger_consistency(
    coordinator: "GlobalCoordinator",
    in_flight: Iterable[str] = (),
    skip_regions: Iterable[int] = (),
) -> list[str]:
    """Border ledgers match the segments they account for.

    Every committed ledger entry is backed by a committed segment whose
    ``border_demands`` names that ledger with the same amount, and
    every committed segment's demand is present in the ledger; prepared
    entries likewise back prepared segments.  This is the check that
    catches reconciliation bugs: a ledger entry surviving its segment
    (leak) or a segment whose reservation went missing (unsafe)."""
    problems: list[str] = []
    in_flight = set(in_flight)
    skip_regions = set(skip_regions)
    for region, regional in sorted(coordinator.regionals.items()):
        if region in skip_regions:
            continue
        for kind, specs in (
            ("committed", regional._committed),
            ("prepared", regional._prepared),
        ):
            expected: dict[tuple[str, str], float] = {}
            for key, seg in specs.items():
                for link_name, amount in seg.border_demands:
                    expected[(link_name, key)] = amount
            actual: dict[tuple[str, str], float] = {}
            for link_name, ledger in regional.ledgers.items():
                entries = getattr(ledger, kind)
                for key, amount in entries.items():
                    actual[(link_name, key)] = amount
            for (link_name, key), amount in sorted(expected.items()):
                if _origin_of(key) in in_flight:
                    continue
                got = actual.pop((link_name, key), None)
                if got is None:
                    problems.append(
                        f"region {region}: {kind} segment {key!r} has no "
                        f"ledger entry on {link_name!r}"
                    )
                elif abs(got - amount) > _EPS:
                    problems.append(
                        f"region {region}: ledger {link_name!r} holds "
                        f"{got:.6g} for {kind} {key!r}, segment says "
                        f"{amount:.6g}"
                    )
            for (link_name, key) in sorted(actual):
                if _origin_of(key) in in_flight:
                    continue
                problems.append(
                    f"region {region}: ledger {link_name!r} {kind} entry "
                    f"{key!r} backs no {kind} segment (leak)"
                )
    return problems


def check_single_active(nodes: Iterable, net: "SimNetwork") -> list[str]:
    """At most one coordinator is active on a live host."""
    active = [
        node.name
        for node in nodes
        if node.active and net.host_is_up(node.host)
    ]
    if len(active) > 1:
        return [f"multiple active coordinators: {sorted(active)}"]
    return []


def check_no_lost_requests(
    region_nodes: Iterable,
    coordinator_of: "Callable[[], GlobalCoordinator | None] | None" = None,
    final: bool = False,
) -> list[str]:
    """Every submitted chain is queued or has an outcome; at the end of
    a run the queues are drained and installed outcomes are real."""
    problems: list[str] = []
    coordinator = coordinator_of() if coordinator_of is not None else None
    installed = set(coordinator.installed()) if coordinator is not None else None
    for node in region_nodes:
        queued = set(node.queued())
        for name in sorted(node.submitted):
            if name not in queued and name not in node.outcomes:
                problems.append(
                    f"region node {node.region}: submitted chain {name!r} "
                    f"neither queued nor resolved (lost request)"
                )
        if final:
            for name in sorted(queued):
                problems.append(
                    f"region node {node.region}: chain {name!r} still "
                    f"queued after drain"
                )
            if installed is not None:
                for name, outcome in sorted(node.outcomes.items()):
                    if outcome == "installed" and name not in installed:
                        problems.append(
                            f"region node {node.region}: chain {name!r} "
                            f"reported installed but coordinator does not "
                            f"carry it"
                        )
    return problems


def check_stitching(coordinator: "GlobalCoordinator") -> list[str]:
    problems: list[str] = []
    for name in sorted(coordinator._cross):
        record = coordinator._cross[name]
        chain = record.chain
        hops = coordinator.end_to_end_route(name)
        segments = [h for h in hops if h["kind"] == "segment"]
        if segments[0]["ingress"] != chain.ingress:
            problems.append(f"chain {name!r}: stitched ingress mismatch")
        if segments[-1]["egress"] != chain.egress:
            problems.append(f"chain {name!r}: stitched egress mismatch")
        stitched_vnfs = [v for s in segments for v in s["vnfs"]]
        if tuple(stitched_vnfs) != chain.vnfs:
            problems.append(
                f"chain {name!r}: stitched VNF order "
                f"{tuple(stitched_vnfs)} != {chain.vnfs}"
            )
        for i in range(len(hops) - 1):
            a, b = hops[i], hops[i + 1]
            if a["kind"] == "segment" and b["kind"] == "border":
                if a["egress"] != b["src"] or a["region"] != b["src_region"]:
                    problems.append(
                        f"chain {name!r}: segment {a['name']!r} does not "
                        f"hand off at border {b['name']!r}"
                    )
            if a["kind"] == "border" and b["kind"] == "segment":
                if b["ingress"] != a["dst"] or b["region"] != a["dst_region"]:
                    problems.append(
                        f"chain {name!r}: border {a['name']!r} does not "
                        f"land on segment {b['name']!r}"
                    )
        # Demand conservation at the cuts: each crossing carries the
        # original chain's stage demand at the cut stage.
        stage_ptr = 1
        border_iter = iter(h for h in hops if h["kind"] == "border")
        for seg_hop in segments[:-1]:
            stage_ptr += len(seg_hop["vnfs"])
            border = next(border_iter)
            expected = chain.stage_traffic(stage_ptr)
            if abs(border["demand"] - expected) > _EPS:
                problems.append(
                    f"chain {name!r}: border {border['name']!r} reserves "
                    f"{border['demand']:.6g}, stage demand is {expected:.6g}"
                )
    return problems


def check_all(
    coordinator: "GlobalCoordinator",
    plan: "FederatedPlan | None" = None,
    quiescent: bool = True,
) -> list[str]:
    problems = check_capacity_safety(coordinator, plan)
    problems += check_atomicity(coordinator)
    problems += check_stitching(coordinator)
    problems += check_ledger_consistency(coordinator)
    if quiescent:
        problems += check_quiescence(coordinator)
    return problems


def federation_probes(
    coordinator_of: "Callable[[], GlobalCoordinator | None]",
    *,
    plan_of: "Callable[[], FederatedPlan | None] | None" = None,
    in_flight: Callable[[], set[str]] | None = None,
    skip_regions: Callable[[], set[int]] | None = None,
    quiescent: bool = False,
    nodes: Iterable | None = None,
    net: "SimNetwork | None" = None,
    region_nodes: Iterable | None = None,
    final: bool = False,
) -> dict[str, Callable[[], list[str]]]:
    """The unified probe registry over the federated control plane.

    Returns ``{name: probe}`` where each probe takes no arguments and
    returns problem strings -- the contract of
    :class:`repro.chaos.invariants.InvariantChecker` probes, so the
    same registry plugs into the chaos soak runner, the federation
    chaos engine, and the scripted ``federation/soak.py`` loop.

    ``coordinator_of`` resolves the *active* coordinator at probe time
    (``None`` during a failover window skips coordinator-side checks);
    ``in_flight`` / ``skip_regions`` resolve the exclusion sets
    (chains mid-2PC, regions partitioned from the coordinator or
    awaiting resync) so legitimate transients are not violations.
    """
    def _flight() -> set[str]:
        return in_flight() if in_flight is not None else set()

    def _skips() -> set[int]:
        return skip_regions() if skip_regions is not None else set()

    def on_active(check) -> Callable[[], list[str]]:
        """``check`` on the active coordinator; nothing mid-failover."""

        def probe() -> list[str]:
            coordinator = coordinator_of()
            return [] if coordinator is None else check(coordinator)

        return probe

    probes: dict[str, Callable[[], list[str]]] = {
        "fed_capacity_safety": on_active(lambda c: check_capacity_safety(
            c, plan_of() if plan_of is not None else None
        )),
        "fed_atomicity": on_active(
            lambda c: check_atomicity(c, _flight(), _skips())
        ),
        "fed_stitching": on_active(check_stitching),
        "fed_ledger_consistency": on_active(
            lambda c: check_ledger_consistency(c, _flight(), _skips())
        ),
    }
    if quiescent:
        probes["fed_quiescence"] = on_active(
            lambda c: check_quiescence(c, _flight(), _skips())
        )
    if nodes is not None and net is not None:
        node_list = list(nodes)
        probes["fed_single_active"] = (
            lambda: check_single_active(node_list, net)
        )
    if region_nodes is not None:
        region_list = list(region_nodes)
        probes["fed_no_lost_requests"] = lambda: check_no_lost_requests(
            region_list, coordinator_of, final=final
        )
    return probes
