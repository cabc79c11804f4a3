"""Weighted load-balancing rules and hierarchical weights (Section 5.2).

A forwarder installs, per (chain label, egress label):

1. a rule over the VNF instances it fronts at its site,
2. a rule over the forwarders adjoining the *next* VNF in the chain.

The paper's third set, over the forwarders of the *previous* VNF, has
no reader here: a reverse packet retraces the previous hop its flow-table
entry recorded on the way out (flow affinity, Section 5.3).

Weights are hierarchical: the product of the site-level traffic-
engineering fraction (the ``x_{c z n1 n2}`` variable) with the weight of
the instance or forwarder at that site.  A VNF instance publishes its own
weight on the message bus; a forwarder's weight is the sum of the weights
of the VNF instances it fronts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.errors import ReproError


class RuleError(ReproError):
    """Raised on malformed load-balancing rules."""


class WeightedChoice:
    """A weighted set of targets with deterministic selection.

    Selection uses an explicit ``random.Random`` so experiments are
    reproducible; weights of zero make a target ineligible without
    removing it from the rule.
    """

    def __init__(self, weights: Mapping[str, float] | None = None):
        self._weights: dict[str, float] = {}
        #: ``sum(self._weights.values())``, or None after an edit.
        self._total: float | None = None
        if weights:
            for target, weight in weights.items():
                self.set_weight(target, weight)

    def set_weight(self, target: str, weight: float) -> None:
        if weight < 0:
            raise RuleError(f"negative weight for {target!r}")
        self._weights[target] = float(weight)
        self._total = None

    def remove(self, target: str) -> None:
        self._weights.pop(target, None)
        self._total = None

    @property
    def targets(self) -> list[str]:
        return list(self._weights)

    @property
    def total_weight(self) -> float:
        if self._total is None:
            self._total = sum(self._weights.values())
        return self._total

    def weight(self, target: str) -> float:
        return self._weights.get(target, 0.0)

    def pick(self, rng: random.Random) -> str:
        """Pick a target with probability proportional to its weight."""
        total = self.total_weight
        if total <= 0:
            raise RuleError("no eligible targets (all weights zero)")
        point = rng.uniform(0.0, total)
        acc = 0.0
        chosen = None
        for target, weight in self._weights.items():
            if weight <= 0:
                continue
            acc += weight
            chosen = target
            if point <= acc:
                break
        assert chosen is not None
        return chosen

    def __len__(self) -> int:
        return len(self._weights)

    def __repr__(self) -> str:
        return f"WeightedChoice({self._weights!r})"


@dataclass
class LoadBalancingRule:
    """The two weighted rule sets for one (chain, egress) at a forwarder;
    the reverse path follows flow-table state, not a rule set."""

    local_instances: WeightedChoice = field(default_factory=WeightedChoice)
    next_forwarders: WeightedChoice = field(default_factory=WeightedChoice)


def forwarder_weight(vnf_instance_weights: Mapping[str, float]) -> float:
    """A forwarder's published weight: the sum of the weights of the VNF
    instances it fronts (Section 5.2's example: weight of F2 = weight of
    O1 + weight of O2)."""
    if any(w < 0 for w in vnf_instance_weights.values()):
        raise RuleError("negative VNF instance weight")
    return sum(vnf_instance_weights.values())
