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

    @pytest.mark.parametrize("argv", [
        ["scale"],
        ["federation", "--workers", "2"],
        ["federation", "--compare-monolithic"],
    ])
    def test_bench_tables_and_pool_width_are_not_commands(self, argv):
        # bench_scale_solver_farm and bench_federation_scale print these
        # comparisons; the farm has no pool to size.
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv", [
        ["bus", "--rate", "0"],
        ["bus", "--rate", "-5"],
        ["bus", "--sites", "0"],
        ["metrics", "--rate", "0"],
        ["chaos", "--duration", "-5"],
        ["chaos", "--duration", "nan"],
        ["federation", "--chaos-soak", "--duration", "0"],
        ["fuzz", "--duration", "nan"],
    ])
    def test_non_positive_rate_and_sites_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["route", "--coverage", "1.5"], "must be in (0, 1]"),
        (["route", "--coverage", "nan"], "must be in (0, 1]"),
        (["route", "--coverage", "0"], "coverage must be in (0, 1]"),
        (["federation", "--locality", "2"], "must be in [0, 1]"),
        (["federation", "--soak", "2", "--reject-rate", "2"], "must be in [0, 1]"),
        (["federation", "--soak", "2", "--crash-rate", "-0.1"], "must be in [0, 1]"),
        (["chaos", "--control-faults", "--control-loss", "1.5"], "must be in [0, 1]"),
        (["chaos", "--control-faults", "--control-loss", "nan"], "must be in [0, 1]"),
        (["bus", "--subscribers", "-1"], "must be positive"),
        (["route", "--chains", "0"], "must be positive"),
        (["federation", "--chains", "0"], "must be positive"),
        (["federation", "--regions", "0"], "must be positive"),
        (["federation", "--pops", "8", "--regions", "20"], "need at least one PoP per metro"),
        (["federation", "--pops", "8", "--metros", "9"], "need at least one PoP per metro"),
        (["route", "--vnfs", "2"], "chains cannot be longer than the VNF catalog"),
        (["route", "--cities", "1"], "backbone needs at least two cities"),
        (["topology", "--cities", "0"], "backbone needs at least two cities"),
        (["cache", "--chains", "0"], "need at least one chain"),
        (["cache", "--cache-objects", "-1"], "negative capacity -1"),
    ])
    def test_out_of_range_fractions_and_counts_are_usage_errors(
        self, argv, message, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err


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
        # A count kept as a plain attribute is reported once, by the
        # collected gauge, never by a live counter as well.
        gauge_families = {k.split("{")[0] for k in data["gauges"]}
        counter_families = {k.split("{")[0] for k in counters}
        gauge_of = {
            "rpc.sent": "rpc.sent_total",
            "rpc.acked": "rpc.acked_total",
            "rpc.retries": "rpc.retries_total",
            "rpc.timeouts": "rpc.timeouts_total",
            "rpc.duplicates_suppressed": "rpc.duplicates_suppressed_total",
            "deadline.expired": "deadline.expired_total",
            "install.aborted": "install.aborted_total",
            "install.deadline_aborts": "install.deadline_aborts_total",
            "link.delivered": "link.delivered_total",
            "link.dropped": "link.dropped_total",
            "link.bytes_dropped": "link.bytes_dropped_total",
            "dataplane.packet_hops": "forwarder.packets_forwarded_total",
            "dataplane.packet_drops": "forwarder.packets_dropped_total",
        }
        assert not counter_families & gauge_of.keys()
        assert set(gauge_of.values()) <= gauge_families
        hops = sum(
            value for key, value in data["gauges"].items()
            if key.startswith("forwarder.packets_forwarded_total")
        )
        assert hops > 0


class TestFederationCommand:
    """The plain ``federation`` path: install every chain, plan cold,
    re-plan incrementally, ``check_all``."""

    def test_plain_run_is_clean(self, capsys):
        import json

        assert main([
            "federation", "--pops", "24", "--chains", "96", "--regions", "3",
            "--json",
        ]) == 0
        out = capsys.readouterr().out
        report = json.loads(out[out.index("{"):])
        assert report["violations"] == []
        assert report["stats"]["chains_intra"] == 77
        assert report["stats"]["chains_cross"] == 19
        # After the re-plan: eight chains' demand scaled by 1.25.
        assert report["offered"] == 3287.44
        assert report["carried"] == 2693.208

    @pytest.mark.parametrize("pops, chains", [(12, 24), (24, 48)])
    def test_small_shapes_are_clean(self, pops, chains, capsys):
        # A cross-shard install (12 / 24) or a re-plan (24 / 48) the
        # border budget does not fit is counted, not raised.
        import json

        assert main([
            "federation", "--pops", str(pops), "--chains", str(chains),
            "--regions", "3", "--json",
        ]) == 0
        out = capsys.readouterr().out
        report = json.loads(out[out.index("{"):])
        assert report["violations"] == []


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

    @pytest.mark.parametrize("flag, content, message", [
        (flag, content, message)
        for flag in ("--replay", "--known-good")
        for content, message in [
            (None, "No such file or directory"),
            ("{not json", "Expecting property name"),
            (b"\xff\xfe", "can't decode byte"),
            ("[1, 2]", f"unrecognized {flag[2:]} document"),
        ]
    ] + [
        ("--replay", '{"seed": 1, "cases": 2}', "unrecognized replay document"),
        ("--replay", '{"composed": {}, "params": {}}', "malformed case document"),
    ])
    def test_a_bad_input_file_is_refused_before_any_case_runs(
        self, flag, content, message, tmp_path, capsys
    ):
        path = tmp_path / "doc.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        assert exit_code([
            "fuzz", "--seed", "1", "--cases", "1", "--duration", "4", flag, str(path),
        ]) == 2
        out, err = capsys.readouterr()
        assert out == ""  # no case ran
        assert message in err


#: A small valid run of each subcommand; the walk appends one flag and
#: value to it (argparse keeps the last).
WALK_BASES = {
    "topology": ["topology", "--cities", "6"],
    "route": ["route", "--chains", "4", "--cities", "6", "--scheme", "dp"],
    "cache": ["cache", "--chains", "2", "--catalog", "300"],
    "bus": ["bus", "--sites", "3", "--subscribers", "2", "--publishes", "20"],
    "timing": ["timing"],
    "metrics": ["metrics", "--publishes", "20"],
    "federation": ["federation", "--pops", "8", "--chains", "8", "--regions", "2"],
    "chaos": ["chaos", "--duration", "10", "--chains", "2"],
    "fuzz": ["fuzz", "--cases", "1", "--duration", "4"],
}
#: A count one above its own limit, by (command, flag).
OVER_LIMIT = {
    ("topology", "--cities"): "26",
    ("route", "--cities"): "26",
    ("federation", "--regions"): "9",
    ("federation", "--metros"): "9",
}


def numeric_flags():
    """``(command, flag, default)`` for every option of every subcommand
    whose type parses a number."""
    parser = build_parser()
    (commands,) = [a for a in parser._actions if a.choices and a.dest == "command"]
    for command, sub in commands.choices.items():
        for action in sub._actions:
            if action.option_strings and action.type is not None:
                if isinstance(action.type("1"), (int, float)):
                    yield command, action.option_strings[0], action.default


def boundary_cases():
    for command, flag, default in numeric_flags():
        values = ["0", "-1", "nan", "inf", "-inf"]
        if isinstance(default, float) and 0.0 < default < 1.0:
            values.append("1.5")  # a share or a probability
        if (command, flag) in OVER_LIMIT:
            values.append(OVER_LIMIT[command, flag])
        for value in values:
            yield pytest.param(
                [*WALK_BASES[command], flag, value], id=f"{command} {flag} {value}"
            )


def exit_code(argv) -> int:
    """``main(argv)``'s exit code; an exception while running is raised."""
    try:
        return main(argv)
    except SystemExit as exit_info:
        return exit_info.code


class TestBoundaryWalk:
    """Every numeric flag of every subcommand at its boundaries: the run
    exits 0, or 2 with the refusing owner's message -- never a
    traceback, never 1."""

    def test_every_command_has_a_base(self):
        assert {command for command, _flag, _default in numeric_flags()} <= set(WALK_BASES)
        assert set(WALK_BASES) == set(
            next(a for a in build_parser()._actions if a.dest == "command").choices
        )

    @pytest.mark.parametrize("argv", boundary_cases())
    def test_boundary_value_is_a_run_or_a_usage_error(self, argv, capsys):
        assert exit_code(argv) in (0, 2)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["metrics", "--uplink-bps", "0"], "non-positive bandwidth"),
        (["metrics", "--uplink-bps", "nan"], "non-positive bandwidth"),
        (["metrics", "--buffer-bytes", "-1"], "non-positive buffer"),
        (["chaos", "--chains", "-1", "--duration", "1"], "num_chains must be positive"),
        (WALK_BASES["federation"] + ["--partition-size", "0"],
         "partition size must be positive"),
        (["topology", "--cities", "-1"], "--cities must be in [0, 25]"),
        (["route", "--cities", "26"], "--cities must be in [0, 25]"),
        (["route", "--traffic", "0"], "total_traffic must be positive"),
        (WALK_BASES["federation"] + ["--soak", "-3"], "must be positive"),
        (["fuzz", "--cases", "-1"], "cases must be positive"),
        (["fuzz", "--budget", "nan"], "budget_s must be non-negative"),
        (["fuzz", "--budget", "-1"], "budget_s must be non-negative"),
        (["fuzz", "--scenario", "nope"], "unknown scenario kind 'nope' (have: "),
        (["chaos", "--control-faults", "--duration", "2"], "duration_s must be at least 9.17"),
        (["chaos", "--control-faults", "--duration", "4"], "duration_s must be at least 9.17"),
        (["chaos", "--control-faults", "--duration", "9"], "duration_s must be at least 9.17"),
        (["federation", "--chaos-soak", "--pops", "18", "--chains", "36", "--regions", "3",
          "--duration", "2"], "duration_s must be at least 4.55"),
        (["federation", "--chaos-soak", "--partition-size", "0"],
         "partition size must be positive"),
        (["federation", "--chaos-soak", "--chains", "0"], "num_chains must be positive"),
        (["federation", "--chaos-soak", "--pops", "1", "--regions", "1", "--chains", "2"],
         "backbone needs at least two cities"),
        (WALK_BASES["bus"] + ["--rate", "inf"], "must be positive and finite"),
        (["metrics", "--publishes", "20", "--rate", "inf"], "must be positive and finite"),
    ])
    def test_the_owner_refuses_with_its_message(self, argv, message, capsys):
        assert exit_code(argv) == 2
        assert message in capsys.readouterr().err
