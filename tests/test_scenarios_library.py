"""Scenario library: generator determinism and digest stability.

The hardcoded digests below are the cross-run / cross-interpreter
stability net: ``random.Random(str)``, ``round``, and canonical JSON
are all version-stable across CPython 3.11/3.12, so these exact hashes
must reproduce everywhere.  If a generator intentionally changes,
update the snapshot *and* regenerate
``benchmarks/baselines/fuzz_known_good.json``.
"""

import inspect
import json

import pytest

from repro.scenarios import (
    SCENARIO_KINDS,
    WorkloadContext,
    generate,
)
from repro.scenarios.library import DEFAULT_DURATION_S
from repro.scenarios.schedule import ScheduleError

SNAPSHOT_SEED = 42
SNAPSHOT_DURATION = 16.0
SNAPSHOT_DIGESTS = {
    "adversarial_matrix":
        "b9518bbb24540004f08e4890d50a5f21a7120105ccd61f06e57b1df2dea66680",
    "diurnal_wave":
        "d059f36f6050bc80890ce6b6f78f629dc0975fbd2dca376d5442dd7ee9228e02",
    "evacuation_cascade":
        "b5baa4c9fb9b29c033a2171e3ede12689054d7c8264bb9e97cf2caa203f92dbc",
    "flash_crowd":
        "90611fc0884dd95b0c3020fd792c25b0231cc8dc99d10aeb00ec339856816750",
    "site_churn":
        "0e3039d61a73a51b58f1a1c69d5388cd2da40e94319befdeb23455f594e5653b",
    "zipf_mix":
        "1946583220ecb927fab2be644be1d564b38676df7422d04afe02859faf43429b",
}


class TestRegistry:
    def test_every_kind_is_a_function_of_seed_and_duration(self):
        for factory in SCENARIO_KINDS.values():
            assert list(inspect.signature(factory).parameters) == [
                "seed", "ctx", "duration_s"
            ]

    def test_snapshot_covers_every_kind(self):
        assert set(SNAPSHOT_DIGESTS) == set(SCENARIO_KINDS)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScheduleError):
            generate("rush_hour", 1)


@pytest.mark.parametrize("kind", sorted(SCENARIO_KINDS))
class TestGenerators:
    def test_digest_snapshot(self, kind):
        schedule = generate(kind, SNAPSHOT_SEED,
                            duration_s=SNAPSHOT_DURATION)
        assert schedule.digest() == SNAPSHOT_DIGESTS[kind], (
            f"{kind} schedule changed; update the snapshot AND "
            f"benchmarks/baselines/fuzz_known_good.json"
        )

    def test_two_runs_byte_identical(self, kind):
        a = generate(kind, 7, duration_s=SNAPSHOT_DURATION)
        b = generate(kind, 7, duration_s=SNAPSHOT_DURATION)
        assert a.to_json() == b.to_json()

    def test_seed_changes_schedule(self, kind):
        a = generate(kind, 7, duration_s=SNAPSHOT_DURATION)
        b = generate(kind, 8, duration_s=SNAPSHOT_DURATION)
        assert a.digest() != b.digest()

    def test_nonempty_and_inside_horizon(self, kind):
        schedule = generate(kind, 7, duration_s=SNAPSHOT_DURATION)
        assert schedule.ops
        assert schedule.duration_s == SNAPSHOT_DURATION
        for op in schedule.ops:
            assert 0.0 <= op.at <= SNAPSHOT_DURATION

    def test_created_chains_are_namespaced(self, kind):
        schedule = generate(kind, 7, duration_s=SNAPSHOT_DURATION)
        for op in schedule.ops:
            if op.op == "create":
                assert op.chain.startswith("wl-"), op.chain

    def test_json_round_trip(self, kind):
        schedule = generate(kind, 7, duration_s=SNAPSHOT_DURATION)
        from repro.scenarios import WorkloadSchedule

        clone = WorkloadSchedule.from_doc(json.loads(schedule.to_json()))
        assert clone.to_json() == schedule.to_json()


class TestContext:
    def test_base_chain_wraps(self):
        ctx = WorkloadContext(num_base_chains=8)
        assert ctx.base_chain(0) == "chain0"
        assert ctx.base_chain(9) == "chain1"

    def test_default_duration_used_without_override(self):
        schedule = generate("site_churn", 3)
        assert schedule.duration_s == DEFAULT_DURATION_S
