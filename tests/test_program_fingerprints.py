"""Bit-for-bit pins of the three Section 4.3 programs.

Every solve is intercepted at the solver boundary -- the arguments of
``ColumnGenSolver.solve`` and ``milp`` -- and reduced to a SHA-256 over
dtype + shape + bytes of the canonical (duplicates summed, indices
sorted) CSC ``data / indices / indptr``, the row and column bounds, the
cost vector and the integrality vector (not the first restricted
master: column generation may start where it likes).  The
``MIN_LATENCY`` / ``MIN_MLU`` digests were recorded when those programs
went to ``linprog``, hashed in the form ``ColumnGenSolver.solve`` takes
them.  Nothing is solved: the interceptor raises as soon
as it has the arguments.  The digests in ``program_fingerprints.json``
were recorded on the tree *before* the chain-flow formulation got its
one home, so a refactor of the assembly code must leave every one of
them alone; ``python tests/test_program_fingerprints.py --write``
re-records them, on purpose only.

Each program is pinned cold and again after a demand-only change (the
structure-cache hit path), on three models: the equivalence tests'
``make_model()``, the ledger's ``te_replan`` instance shape and one
regional sub-model of ``generate_federation_workload``.  The routing
program is pinned after three chain-set changes as well, each a cache
miss built while the program before it is cached: the first chain
removed and one appended (``te_replan``'s churn), one middle chain
replaced, and one stage demand of a chain set to zero.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csc_matrix

from repro.core import capacity as capacity_mod
from repro.core import highs as highs_backend
from repro.core.capacity import (
    CapacityPlanningError,
    plan_cloud_capacity,
    plan_vnf_placement,
)
from repro.core.lp import (
    LpObjective,
    clear_matrix_cache,
    matrix_cache_stats,
    solve_chain_routing_lp,
)
from repro.core.model import Chain
from repro.federation.shard import build_shards
from repro.topology import WorkloadConfig, build_backbone, generate_workload
from repro.topology.cities import DEFAULT_CITIES
from repro.topology.pops import PopGridConfig, generate_federation_workload

PINNED = Path(__file__).with_name("program_fingerprints.json")


class _Captured(Exception):
    """Raised by the interceptors once the solver arguments are hashed."""

    def __init__(self, digest: str):
        super().__init__(digest)
        self.digest = digest


def _digest(*parts) -> str:
    sha = hashlib.sha256()
    for part in parts:
        if part is None:
            sha.update(b"<none>")
            continue
        if hasattr(part, "tocsc"):
            matrix = csc_matrix(part, copy=True)
            matrix.sum_duplicates()
            matrix.sort_indices()
            sha.update(repr(matrix.shape).encode())
            part = (matrix.data, matrix.indices, matrix.indptr)
        for array in part if isinstance(part, tuple) else (part,):
            array = np.ascontiguousarray(array)
            sha.update(array.dtype.str.encode())
            sha.update(repr(array.shape).encode())
            sha.update(array.tobytes())
    return sha.hexdigest()


def _cg_solve(self, cost, matrix, row_lower, row_upper, col_lower, col_upper):
    raise _Captured(_digest(
        cost, matrix, row_lower, row_upper, col_lower, col_upper,
    ))


def _milp(c, constraints=None, integrality=None, bounds=None, **_options):
    (constraint,) = constraints
    raise _Captured(_digest(
        c, constraint.A, np.asarray(constraint.lb, dtype=float),
        np.asarray(constraint.ub, dtype=float),
        np.asarray(integrality, dtype=float),
        np.asarray(bounds.lb, dtype=float), np.asarray(bounds.ub, dtype=float),
    ))


def _intercept(patcher) -> None:
    """Swap every solver entry point for its hashing interceptor."""
    patcher.setattr(highs_backend.ColumnGenSolver, "solve", _cg_solve)
    patcher.setattr(capacity_mod, "milp", _milp)
    clear_matrix_cache()


@pytest.fixture
def intercepted(monkeypatch):
    _intercept(monkeypatch)
    yield monkeypatch
    clear_matrix_cache()


def _capture(solve) -> str:
    with pytest.raises(_Captured) as caught:
        solve()
    return caught.value.digest


# -- the three models ------------------------------------------------------


def equivalence_model():
    from tests.test_vectorized_equivalence import make_model

    return make_model()


def te_replan_model():
    """The ledger's ``te_replan`` instance shape."""
    config = WorkloadConfig(
        num_chains=16, num_vnfs=12, coverage=0.5, seed=7, total_traffic=500.0
    )
    return generate_workload(config, build_backbone(DEFAULT_CITIES))


def regional_model():
    """Region 0 of a generated federation with its intra-region chains."""
    model, _metros = generate_federation_workload(
        PopGridConfig(num_pops=24, num_metros=3, num_chains=60, num_vnfs=8)
    )
    shards = build_shards(model, 3)
    regional = shards.regional_model(model, 0)
    nodes = set(regional.nodes)
    chains = [
        c for c in model.chains.values()
        if c.ingress in nodes and c.egress in nodes
        and all(v in regional.vnfs for v in c.vnfs)
    ]
    assert len(chains) >= 4
    return regional.copy_with_chains(chains[:12])


MODELS = {
    "equivalence": equivalence_model,
    "te_replan": te_replan_model,
    "regional": regional_model,
}


def _rescale_last_chain(model) -> None:
    """Demand-only change that keeps the variable order (last chain)."""
    name = list(model.chains)[-1]
    chain = model.chains[name]
    model.remove_chain(name)
    model.add_chain(chain.scaled(1.7))


def _turned(chain: Chain, name: str) -> Chain:
    """Another chain shape: ``chain`` run backwards, under ``name``."""
    return Chain(
        name, chain.egress, chain.ingress, chain.vnfs[::-1],
        chain.forward_traffic[::-1], chain.reverse_traffic[::-1],
    )


def _replace_from(model, position: int, chains: list) -> None:
    """Put ``chains`` in place of the model's chains from ``position`` on."""
    for name in list(model.chains)[position:]:
        model.remove_chain(name)
    for chain in chains:
        model.add_chain(chain)


def _churn(model) -> None:
    """The first chain removed and another appended."""
    first = next(iter(model.chains.values()))
    model.remove_chain(first.name)
    model.add_chain(_turned(first, f"{first.name}.appended"))


def _replace_middle(model) -> None:
    chains = list(model.chains.values())
    middle = len(chains) // 2
    _replace_from(model, middle, [
        _turned(chains[middle], f"{chains[middle].name}.replaced"),
        *chains[middle + 1:],
    ])


def _zero_a_stage(model) -> None:
    """The middle stage of the second chain carries no forward demand."""
    chains = list(model.chains.values())
    chain = chains[1]
    forward = list(chain.forward_traffic)
    forward[len(forward) // 2] = 0.0
    zeroed = Chain(
        chain.name, chain.ingress, chain.egress, chain.vnfs, forward,
        chain.reverse_traffic,
    )
    _replace_from(model, 1, [zeroed, *chains[2:]])


#: Chain-set changes after the demand-only one, applied in turn.
CHURN = {"churn": _churn, "replaced": _replace_middle, "zeroed": _zero_a_stage}


def _programs(model) -> dict:
    """name -> zero-argument solve of every pinned program."""
    total = sum(s.capacity for s in model.sites.values())
    quotas = {name: 1 for name in list(model.vnfs)[:3]}
    programs = {
        f"routing.{objective.value}": (
            lambda objective=objective: solve_chain_routing_lp(model, objective)
        )
        for objective in LpObjective
    }
    programs["cloud.budget0"] = lambda: plan_cloud_capacity(model, 0.0)
    programs["cloud.budget25"] = lambda: plan_cloud_capacity(model, 0.25 * total)
    programs["placement"] = lambda: plan_vnf_placement(model, quotas, 80.0)
    return programs


def fingerprints() -> dict:
    """Every pinned digest, keyed ``model/program/state``."""
    out = {}
    for model_name, build in MODELS.items():
        model = build()
        for state in ("cold", "demand"):
            if state == "demand":
                rebuilds = matrix_cache_stats()["matrix_rebuilds"]
                _rescale_last_chain(model)
            for name, solve in _programs(model).items():
                out[f"{model_name}/{name}/{state}"] = _capture(solve)
            if state == "demand":
                # The second pass ran on the cached structures.
                assert matrix_cache_stats()["matrix_rebuilds"] == rebuilds
        for state, change in CHURN.items():
            change(model)
            for objective in LpObjective:
                out[f"{model_name}/routing.{objective.value}/{state}"] = _capture(
                    lambda m=model, o=objective: solve_chain_routing_lp(m, o)
                )
    return out


def test_every_program_matches_its_pin(intercepted):
    pinned = json.loads(PINNED.read_text())
    got = fingerprints()
    assert sorted(got) == sorted(pinned)
    moved = [key for key in sorted(got) if got[key] != pinned[key]]
    assert not moved, f"programs changed: {moved}"


def test_interceptor_sees_a_changed_coefficient(intercepted):
    """The pin is not vacuous: one capacity edit moves the digest."""
    model = equivalence_model()
    before = _capture(lambda: plan_cloud_capacity(model, 10.0))
    assert before == _capture(lambda: plan_cloud_capacity(model, 10.0))
    assert before != _capture(lambda: plan_cloud_capacity(model, 11.0))
    with pytest.raises(CapacityPlanningError):
        plan_cloud_capacity(model, -1.0)


if __name__ == "__main__":  # pragma: no cover - re-recording tool
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_program_fingerprints.py --write")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    with pytest.MonkeyPatch.context() as patcher:
        _intercept(patcher)
        PINNED.write_text(
            json.dumps(fingerprints(), indent=1, sort_keys=True) + "\n"
        )
    clear_matrix_cache()
