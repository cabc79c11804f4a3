"""Declarative, seeded fault schedules.

A :class:`Scenario` is a plain list of timed :class:`FaultEvent`\\ s --
no callbacks, no hidden state -- so it can be serialized, diffed, and
replayed byte-identically.  :func:`generate_scenario` builds one from a
single integer seed: random link flaps on the WAN, optional loss and
delay-degradation windows, one site outage, one bus-proxy crash, and one
controller leader kill, all with times and targets drawn from
``random.Random(seed)``.  Two calls with the same seed and config
produce the same JSON document (that is asserted by the chaos tests and
surfaced as the schedule digest in the soak report).

The schedule is *applied* by a :class:`repro.chaos.runner.FaultEngine`
(the monolithic soak's ``ChaosEngine``, the federated soak's
``FederationChaosEngine``), which maps each event kind onto the simnet
fault primitives, the controller's recovery entry points, and the
replicated store's lease machinery.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.core import canonical
from repro.core.errors import ReproError


class ScenarioError(ReproError):
    """Raised on invalid scenario construction."""


def check_duration(duration_s: float) -> None:
    """Refuse a run length that is not finite and positive."""
    if not 0 < duration_s < math.inf:
        raise ScenarioError(f"duration_s must be positive and finite, got {duration_s}")


#: Event kinds understood by the chaos engine.
EVENT_KINDS = (
    "link_down",
    "link_up",
    "link_loss",
    "link_degrade",
    "partition",
    "heal_partition",
    "crash_host",
    "restart_host",
    "fail_site",
    "restore_site",
    "kill_leader",
    "control_loss",
    "gs_crash",
)


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault or heal action.

    ``target`` is kind-dependent: a host pair for link events, a host
    name for crash/restart, a site name for site events, the partition
    groups (as a tuple of sorted site tuples) for ``partition``, and
    empty for ``heal_partition`` / ``kill_leader``.  ``value`` carries
    the loss probability or delay multiplier where applicable.
    """

    at: float
    kind: str
    target: tuple = ()
    value: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.at < math.inf:
            raise ScenarioError(f"event time not finite and non-negative: {self.at}")
        if self.kind not in EVENT_KINDS:
            raise ScenarioError(f"unknown event kind {self.kind!r}")

    def to_doc(self) -> dict:
        return {
            "at": round(self.at, 9),
            "kind": self.kind,
            "target": list(self.target),
            "value": self.value,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "FaultEvent":
        """Inverse of :meth:`to_doc` (replay from a saved report)."""
        return cls(
            at=doc["at"],
            kind=doc["kind"],
            target=tuple(
                tuple(t) if isinstance(t, list) else t
                for t in doc["target"]
            ),
            value=doc["value"],
        )


@dataclass
class Scenario:
    """A reproducible fault schedule (events sorted by time)."""

    seed: int
    duration_s: float
    events: list[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_duration(self.duration_s)
        self.events.sort(key=lambda e: (e.at, e.kind, e.target))

    def to_doc(self) -> dict:
        return {
            "seed": self.seed,
            "duration_s": self.duration_s,
            "events": [e.to_doc() for e in self.events],
        }

    def to_json(self) -> str:
        """Deterministic serialization: same seed -> same bytes."""
        return canonical.encode(self.to_doc())

    @classmethod
    def from_doc(cls, doc: dict) -> "Scenario":
        return cls(
            seed=doc["seed"],
            duration_s=doc["duration_s"],
            events=[FaultEvent.from_doc(e) for e in doc["events"]],
        )

    def digest(self) -> str:
        """Stable content hash of the schedule (hex SHA-256)."""
        return canonical.sha256_hex(self.to_json())

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out


#: How long a flapped link stays down (the federated soak's too).
FLAP_DOWN_S = 3.0
#: Loss probability of a data-link loss window, and its delay factor
#: in a degrade window.
_LOSS_PROBABILITY = 0.2
_DEGRADE_MULTIPLIER = 4.0
#: Length of a loss, degrade or control-loss window.
_WINDOW_S = 5.0
_SITE_OUTAGE_S = 10.0
_PROXY_CRASH_S = 6.0
_PARTITION_S = 5.0
#: Shares of the run a GS crash falls between: early, so in-flight
#: installs get crashed on and the failover still has time to settle.
GS_CRASH_WINDOW = (0.2, 0.4)


def check_failover_fits(duration_s: float, crash_by: float, failover_s: float) -> None:
    """Refuse a run in which a crash by share ``crash_by`` of it is not
    taken over (``failover_s`` later) before the lease loop and the
    sweeper stop at the horizon: its installs would be stranded."""
    if crash_by * duration_s + failover_s > duration_s:
        raise ScenarioError(
            f"duration_s must be at least {failover_s / (1 - crash_by):.2f} for a crash "
            f"by {crash_by:g} of the run to be taken over, got {duration_s}"
        )


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs for :func:`generate_scenario`.

    The defaults produce the acceptance mix: several link flaps, one
    site outage, one bus-proxy crash, and one leader kill, all inside
    the middle 80% of the run so recovery has time to settle.
    """

    duration_s: float = 60.0
    link_flaps: int = 3
    loss_windows: int = 1
    degrade_windows: int = 1
    site_outage: bool = True
    proxy_crash: bool = True
    leader_kill: bool = True
    partition: bool = False
    #: Windows of probabilistic loss applied to *every* cross-site
    #: control link at once (the 2PC/RPC channels), exercising the
    #: resilience stack rather than the data path.
    control_loss_windows: int = 0
    control_loss_probability: float = 0.2
    #: Crash the active Global Switchboard process mid-run (its host
    #: goes down and stays down until the standby's failover takeover
    #: restarts it -- there is no scheduled heal event).
    gs_crash: bool = False


def generate_scenario(
    seed: int,
    sites: Sequence[str],
    wan_pairs: Sequence[tuple[str, str]],
    config: ScenarioConfig | None = None,
) -> Scenario:
    """Build a random-but-reproducible schedule from one seed.

    ``sites`` are the deployment sites (site outages, proxy crashes and
    partitions pick from them); ``wan_pairs`` are the simnet host pairs
    whose links flap/degrade (typically gateway->proxy pairs).
    """
    config = config or ScenarioConfig()
    if not sites:
        raise ScenarioError("need at least one site")
    rng = random.Random(seed)
    events: list[FaultEvent] = []
    lo = 0.1 * config.duration_s
    hi = 0.9 * config.duration_s

    def window(length: float) -> tuple[float, float]:
        start = rng.uniform(lo, max(lo, hi - length))
        return start, min(start + length, hi)

    for _ in range(config.link_flaps):
        if not wan_pairs:
            break
        pair = rng.choice(list(wan_pairs))
        start, end = window(FLAP_DOWN_S)
        events.append(FaultEvent(start, "link_down", tuple(pair)))
        events.append(FaultEvent(end, "link_up", tuple(pair)))

    for _ in range(config.loss_windows):
        if not wan_pairs:
            break
        pair = rng.choice(list(wan_pairs))
        start, end = window(_WINDOW_S)
        events.append(
            FaultEvent(start, "link_loss", tuple(pair), _LOSS_PROBABILITY)
        )
        events.append(FaultEvent(end, "link_loss", tuple(pair), 0.0))

    for _ in range(config.degrade_windows):
        if not wan_pairs:
            break
        pair = rng.choice(list(wan_pairs))
        start, end = window(_WINDOW_S)
        events.append(
            FaultEvent(start, "link_degrade", tuple(pair), _DEGRADE_MULTIPLIER)
        )
        events.append(FaultEvent(end, "link_degrade", tuple(pair), 1.0))

    if config.site_outage:
        site = rng.choice(list(sites))
        start, end = window(_SITE_OUTAGE_S)
        events.append(FaultEvent(start, "fail_site", (site,)))
        events.append(FaultEvent(end, "restore_site", (site,)))

    if config.proxy_crash:
        site = rng.choice(list(sites))
        start, end = window(_PROXY_CRASH_S)
        events.append(FaultEvent(start, "crash_host", (f"proxy.{site}",)))
        events.append(FaultEvent(end, "restart_host", (f"proxy.{site}",)))

    if config.partition and len(sites) >= 2:
        shuffled = list(sites)
        rng.shuffle(shuffled)
        cut = max(1, len(shuffled) // 2)
        groups = (
            tuple(sorted(shuffled[:cut])),
            tuple(sorted(shuffled[cut:])),
        )
        start, end = window(_PARTITION_S)
        events.append(FaultEvent(start, "partition", groups))
        events.append(FaultEvent(end, "heal_partition"))

    if config.leader_kill:
        at = rng.uniform(lo, hi)
        events.append(FaultEvent(at, "kill_leader"))

    for _ in range(config.control_loss_windows):
        start, end = window(_WINDOW_S)
        events.append(
            FaultEvent(start, "control_loss", ("control",),
                       config.control_loss_probability)
        )
        events.append(FaultEvent(end, "control_loss", ("control",), 0.0))

    if config.gs_crash:
        first, last = GS_CRASH_WINDOW
        at = rng.uniform(first * config.duration_s, last * config.duration_s)
        events.append(FaultEvent(at, "gs_crash", ("ctrl.gs",)))

    return Scenario(seed=seed, duration_s=config.duration_s, events=events)
