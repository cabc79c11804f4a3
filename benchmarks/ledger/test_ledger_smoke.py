"""A shrunken pass over the whole ledger (under ten seconds).

Run explicitly -- tier-1 collects ``tests/`` only:

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger_smoke.py -q

Checks that every workload emits every metric ``BENCHMARK.json`` names,
that the catalogue and ``BENCHMARK.json`` agree, and that the
correctness checks really fire: a planted fault must turn a run
incorrect, otherwise the benchmark could be timing the drop path.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SCALE = 0.02
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_matches_the_catalogue():
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]
    ] == catalog.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == [row[:3] for row in catalog.PER_LAYER]
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert BENCHMARK["paths"] == ["benchmarks/ledger"]
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_is_correct_and_emits_every_metric(name):
    for trace, declared in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_one(name, seed=3, seconds=0.0, trace=trace, scale=SCALE)["result"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {
            metric: entry["unit"] for metric, entry in result["metrics"].items()
        } == {m["name"]: m["unit"] for m in BENCHMARK[declared]}
        assert all(isinstance(e["value"], (int, float)) for e in result["metrics"].values())
        if not trace:
            assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_lap_attributes_the_wall_and_changes_nothing():
    document = run.run_one("chain_install", seed=3, seconds=0.0, trace=True, scale=SCALE)
    # run_one compares the traced lap's facts and counters with the plain
    # lap's; "correct" therefore also says the wrappers are transparent.
    assert document["result"]["correct"]
    layers = document["layers"]
    assert layers["attributed_share"] >= 0.90
    total = sum(row["self_s"] for row in layers["rows"]) + layers["unattributed_s"]
    assert total == pytest.approx(layers["wall_s"])
    assert document["chrome_trace"]["traceEvents"]


def _planted(monkeypatch, plant):
    """Make every deployment the workloads build carry a planted fault."""
    build = workloads.build_deployment

    def faulty(*args, **kwargs):
        deployment = build(*args, **kwargs)
        plant(deployment)
        return deployment

    monkeypatch.setattr(workloads, "build_deployment", faulty)


@pytest.mark.parametrize("name", ["chain_install", "install_faulty", "packet_forward"])
def test_planted_missing_edge_rule_fails_the_packet_check(monkeypatch, name):
    def plant(deployment):
        # One site's ingress rule silently never lands on its edge
        # forwarder: packets entering there are dropped, no exception.
        local = deployment.gs.locals[deployment.sites[0]]
        local.install_edge_rule = lambda *args, **kwargs: local.edge_forwarder()

    _planted(monkeypatch, plant)
    document = run.run_one(name, seed=3, seconds=0.0, trace=False, scale=SCALE)
    assert not document["result"]["correct"]
    assert document["result"]["failed"] > 0
    assert any("dropped" in line or "ended at" in line for line in document["failures"])


def test_planted_zero_capacity_shows_as_failed_ops(monkeypatch):
    def plant(deployment):
        service = deployment.gs.vnf_services["ids"]
        service.site_capacity = {site: 0.0 for site in service.site_capacity}

    _planted(monkeypatch, plant)
    result = run.run_one("chain_install", seed=3, seconds=0.0, trace=False, scale=SCALE)["result"]
    assert not result["correct"]
    assert result["metrics"]["success_share"]["value"] < 1.0
    assert 0 < result["failed"] <= result["attempted"]


def test_agree_reads_bounds_and_flags_a_regression(tmp_path, capsys):
    def write(directory, ops_per_s):
        directory.mkdir()
        for k, value in enumerate(ops_per_s):
            document = {
                "workload": "te_replan", "seed": 1, "traced": False,
                "result": {"metrics": {"ops_per_s": {"value": value, "unit": "1/s"}}},
            }
            (directory / f"ledger-te_replan-seed1-run{k}.json").write_text(json.dumps(document))

    write(tmp_path / "a", [10.0, 10.1, 9.9, 10.0, 10.05])
    write(tmp_path / "same", [10.02, 9.95, 10.0, 10.1, 9.98])
    write(tmp_path / "slow", [7.0, 7.1, 6.9, 7.0, 7.05])
    assert run.main(["--agree", str(tmp_path / "a"), str(tmp_path / "same")]) == 0
    assert run.main(["--agree", str(tmp_path / "a"), str(tmp_path / "slow")]) == 1
    assert "DISAGREE" in capsys.readouterr().out
