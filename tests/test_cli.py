"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_route_defaults(self):
        args = build_parser().parse_args(["route"])
        assert args.chains == 40
        assert args.scheme == "all"

    def test_route_scheme_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["route", "--scheme", "magic"])


class TestCommands:
    def test_topology(self, capsys):
        assert main(["topology", "--cities", "8"]) == 0
        out = capsys.readouterr().out
        assert "PoPs           : 8" in out
        assert "directed links" in out

    def test_route_single_scheme(self, capsys):
        assert main([
            "route", "--chains", "5", "--cities", "8", "--scheme", "dp",
        ]) == 0
        out = capsys.readouterr().out
        assert "SB-DP" in out
        assert "ANYCAST" not in out

    def test_route_baselines(self, capsys):
        assert main([
            "route", "--chains", "5", "--cities", "8",
            "--scheme", "anycast",
        ]) == 0
        assert "ANYCAST" in capsys.readouterr().out

    def test_cache(self, capsys):
        assert main(["cache", "--chains", "3"]) == 0
        out = capsys.readouterr().out
        assert "shared" in out and "siloed" in out

    def test_bus(self, capsys):
        assert main([
            "bus", "--sites", "4", "--publishes", "50", "--rate", "50",
        ]) == 0
        out = capsys.readouterr().out
        assert "broadcast" in out

    def test_timing(self, capsys):
        assert main(["timing"]) == 0
        out = capsys.readouterr().out
        assert "chain route update: 594 ms total" in out
        assert "edge site addition: 567 ms" in out

    def test_metrics(self, capsys):
        assert main(["metrics", "--publishes", "100"]) == 0
        out = capsys.readouterr().out
        # The three headline sections of the acceptance criterion:
        # queueing-delay histograms, WAN-drop counters, 2PC timings.
        assert "link.queue_delay_s{link=proxy.A->wan.A}" in out
        assert "bus.wan_drops" in out
        assert "span.2pc.prepare{chain=corp}" in out
        assert "span.2pc.commit{chain=corp}" in out

    def test_metrics_json(self, capsys):
        import json

        assert main(["metrics", "--publishes", "50", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["counters"]["install.completed"] == 1
        assert any(k.startswith("span.2pc.") for k in data["histograms"])
        # Phase 3 runs each solver once against the registry: its
        # counters stay in the report, and no bench.* timing gauge does.
        counters = data["counters"]
        assert counters["solver.dp_paths_computed"] > 0
        assert any(k.startswith("solver.lp_solves") for k in counters)
        keys = [k for section in ("counters", "gauges", "histograms")
                for k in data[section]]
        assert not [k for k in keys if k.startswith("bench.")]


class TestFuzzParser:
    def test_fuzz_defaults(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.seed == 1
        assert args.cases == 3
        assert args.budget is None
        assert args.stack == "both"
        assert args.out is None
        assert not args.plant and not args.no_minimize

    def test_bare_out_derives_seeded_filename(self):
        args = build_parser().parse_args(["fuzz", "--seed", "4", "--out"])
        assert args.out == "auto"

    def test_stack_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--stack", "quantum"])

    def test_scenario_choices_match_registry(self):
        from repro.cli import FUZZ_SCENARIO_KINDS
        from repro.scenarios import SCENARIO_KINDS

        assert set(FUZZ_SCENARIO_KINDS) == set(SCENARIO_KINDS)


class TestSeededOutPaths:
    """Bare ``--out`` derives a per-(command, seed) filename, fixing the
    report collision when several seeds run in one directory."""

    def test_chaos_out_unique_per_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for seed in (1, 2):
            assert main([
                "chaos", "--seed", str(seed), "--duration", "8", "--out",
            ]) == 0
        capsys.readouterr()
        names = sorted(p.name for p in tmp_path.glob("*.json"))
        assert names == [
            "chaos-report-seed1.json", "chaos-report-seed2.json",
        ]

    def test_commands_never_collide(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["chaos", "--seed", "3", "--duration", "8", "--out"]) == 0
        assert main([
            "fuzz", "--seed", "3", "--cases", "1", "--duration", "8",
            "--stack", "mono", "--out",
        ]) == 0
        capsys.readouterr()
        names = sorted(p.name for p in tmp_path.glob("*.json"))
        assert names == [
            "chaos-report-seed3.json", "fuzz-report-seed3.json",
        ]

    def test_explicit_out_path_respected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([
            "chaos", "--seed", "1", "--duration", "8",
            "--out", "mine.json",
        ]) == 0
        capsys.readouterr()
        assert (tmp_path / "mine.json").exists()


class TestFuzzCommand:
    def test_scenario_mode_prints_digest(self, capsys):
        assert main([
            "fuzz", "--scenario", "zipf_mix", "--seed", "9",
        ]) == 0
        out = capsys.readouterr().out
        assert "zipf_mix" in out and "digest" in out

    def test_fuzz_mono_green(self, capsys):
        assert main([
            "fuzz", "--seed", "1", "--cases", "1", "--duration", "10",
            "--stack", "mono", "--json",
        ]) == 0
        import json

        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert doc["cases_run"] == 1

    def test_plant_self_test_exits_zero(self, capsys):
        assert main([
            "fuzz", "--seed", "1", "--cases", "1", "--duration", "10",
            "--plant",
        ]) == 0
        assert "minimized" in capsys.readouterr().out

    def test_known_good_mismatch_exits_two(self, tmp_path, capsys):
        bogus = tmp_path / "kg.json"
        bogus.write_text('{"seed": 1, "cases": 99}')
        assert main([
            "fuzz", "--seed", "1", "--cases", "1", "--duration", "10",
            "--stack", "mono", "--known-good", str(bogus),
        ]) == 2
