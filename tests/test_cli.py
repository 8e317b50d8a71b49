"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiments_run_requires_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiments", "run"])

    def test_simulate_protocol_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--protocol", "tcp"])


    def test_bench_baseline_is_an_unknown_command(self, capsys):
        """The old benchmark plane is gone: `python3 -m bench` measures."""
        with pytest.raises(SystemExit) as exit_info:
            main(["bench-baseline"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bench-baseline'" in capsys.readouterr().err
        (subcommands,) = (action for action in build_parser()._actions
                          if action.dest == "command")
        assert "bench-baseline" not in subcommands.choices
        assert "simulate" in subcommands.choices


class TestCommands:
    def test_experiments_list(self, capsys):
        assert main(["experiments", "list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E26" in out

    def test_experiments_run_model_experiment(self, capsys):
        assert main(["experiments", "run", "E1"]) == 0
        out = capsys.readouterr().out
        assert "s_bar_lams" in out

    def test_experiments_run_unknown_id(self):
        with pytest.raises(KeyError):
            main(["experiments", "run", "E99"])

    def test_model_command(self, capsys):
        assert main(["model", "--preset", "noisy", "--frames", "1000"]) == 0
        out = capsys.readouterr().out
        assert "s_bar LAMS" in out and "B_LAMS" in out

    def test_model_with_overrides(self, capsys):
        assert main([
            "model", "--preset", "nominal",
            "--iframe-ber", "1e-5", "--distance-km", "2000",
        ]) == 0
        assert "Section-4 model" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value, quantity", [
        ("--bit-rate", "1e8", "B_LAMS (frames)"),
        ("--distance-km", "2000", "H_frame LAMS (s)"),
        ("--iframe-ber", "1e-5", "P_F (I-frame error prob)"),
        ("--cframe-ber", "1e-6", "P_C (control error prob)"),
        ("--checkpoint-interval", "0.02", "H_frame LAMS (s)"),
        ("--cumulation-depth", "5", "numbering required (LAMS)"),
        ("--window-size", "31", "D_low HDLC(N=50000) (s)"),
        ("--alpha", "1.0", "eta HDLC (N=50000)"),
    ])
    def test_each_operating_point_override_moves_a_printed_quantity(
            self, flag, value, quantity, capsys):
        """The eight overrides `model`, `compare`, `simulate` and `sweep`
        share are kept for what they do, not for parsing: each moves a
        named row of the `model` table off its nominal value."""
        def table(argv):
            assert main(["model", *argv]) == 0
            rows = capsys.readouterr().out.splitlines()[3:]
            return {name.strip(): cell for name, cell in
                    (row.rsplit(None, 1) for row in rows)}

        nominal, moved = table([]), table([flag, value])
        assert nominal.keys() == moved.keys()
        assert moved[quantity] != nominal[quantity]

    def test_compare_command(self, capsys):
        assert main(["compare", "--preset", "nominal", "--frames", "10000"]) == 0
        out = capsys.readouterr().out
        assert "LAMS-DLC" in out

    def test_simulate_batch(self, capsys):
        assert main([
            "simulate", "--preset", "short_hop", "--protocol", "lams",
            "--frames", "200", "--duration", "30",
        ]) == 0
        out = capsys.readouterr().out
        assert "delivered" in out

    def test_simulate_saturated(self, capsys):
        assert main([
            "simulate", "--preset", "short_hop", "--protocol", "hdlc",
            "--saturated", "--duration", "0.3",
        ]) == 0
        assert "efficiency" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [
        ("--distance-km", "nan"), ("--bit-rate", "nan"), ("--distance-km", "inf"),
        ("--checkpoint-interval", "nan"),
    ])
    def test_simulate_rejects_a_non_finite_link_parameter(self, flag, value, capsys):
        """These ran to ``duration nan`` (or a traceback) with exit 0 before."""
        with pytest.raises(SystemExit) as exit_:
            main(["simulate", "--preset", "nominal", "--frames", "20", flag, value])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag[2:].replace("-", "_") in err

    def test_orbit_command(self, capsys):
        assert main(["orbit", "--span", "3000", "--step", "10"]) == 0
        out = capsys.readouterr().out
        assert "alpha_min" in out and "visibility windows" in out


class TestConstellationCommand:
    def test_ring_run(self, capsys):
        assert main([
            "constellation", "--topology", "ring", "--size", "4",
            "--messages", "5", "--duration", "0.2",
        ]) == 0
        out = capsys.readouterr().out
        assert "4 LAMS-DLC links" in out
        assert "network rollup" in out
        assert "datagrams_delivered" in out

    def test_chain_run(self, capsys):
        assert main([
            "constellation", "--topology", "chain", "--size", "2",
            "--stride", "1", "--messages", "5", "--duration", "0.2",
        ]) == 0
        assert "2 LAMS-DLC links" in capsys.readouterr().out

    def test_rejects_bad_duration(self):
        assert main(["constellation", "--duration", "0"]) == 2

    def test_rejects_bad_topology(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["constellation", "--topology", "star"])


class TestTuneCommand:
    def test_tune_prints_recommendation(self, capsys):
        assert main([
            "tune", "--bit-rate", "300e6", "--distance-km", "5000",
            "--mean-burst", "0.01",
        ]) == 0
        out = capsys.readouterr().out
        assert "cumulation_depth" in out and "payload_bits" in out

    def test_tune_requires_link_parameters(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune"])


class TestSoakBackendFlag:
    def test_backend_defaults_to_des(self):
        assert build_parser().parse_args(["soak"]).backend == "des"

    def test_backend_udp_accepted(self):
        args = build_parser().parse_args(["soak", "--backend", "udp"])
        assert args.backend == "udp"

    def test_backend_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["soak", "--backend", "tcp"])


class TestSharedParents:
    """A shared parent parser gives its commands the same flag."""

    @pytest.mark.parametrize("command", ["soak", "trace-synth"])
    def test_seed_flag_everywhere(self, command):
        args = build_parser().parse_args([command, "--seed", "7"])
        assert args.seed == 7

    @pytest.mark.parametrize("command", ["sweep", "soak"])
    def test_pool_flags(self, command):
        args = build_parser().parse_args([command, "--jobs", "3"])
        assert args.jobs == 3

    @pytest.mark.parametrize("command", ["simulate"])
    def test_error_model_flag(self, command):
        args = build_parser().parse_args(
            [command, "--error-model", "gilbert-elliott"])
        assert args.error_model == "gilbert-elliott"

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_fault_plan_flag(self, command):
        args = build_parser().parse_args(
            [command, "--fault-plan", "plan.json"])
        assert args.fault_plan == "plan.json"

    def test_rejects_unknown_error_model(self, capsys):
        assert main(["simulate", "--error-model", "psychic",
                     "--duration", "0.1"]) == 2
        assert "unknown error model" in capsys.readouterr().err

    @pytest.mark.parametrize("name, names", [
        ("gilbert-elliott", "'good_ber', 'bad_ber', 'mean_good', and 'mean_bad'"),
        ("trace-replay", "records= or path="),
    ])
    def test_rejects_error_model_a_bare_name_cannot_build(self, capsys, name, names):
        """A registered model that needs parameters is a one-line error
        naming them, not a TypeError traceback from inside the builder."""
        assert main(["simulate", "--error-model", name, "--duration", "0.1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: error model {name!r} cannot be built")
        assert names in err and err.count("\n") == 1

    def test_rejects_bad_jobs(self, capsys):
        assert main(["sweep", "--jobs", "0"]) == 2


class TestSweepCommands:
    """`sweep` and `cache` end to end, on a 2 x 2 short_hop sweep."""

    SWEEP = ["sweep", "--preset", "short_hop", "--protocols", "lams", "hdlc",
             "--seeds", "2", "--duration", "0.02", "--jobs", "2"]

    def test_second_run_is_answered_from_the_cache(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")

        def run():
            assert main(self.SWEEP + ["--cache-dir", cache_dir]) == 0
            table, footer = capsys.readouterr().out.split("\nsweep: ")
            return table, footer

        cold_table, cold_footer = run()
        warm_table, warm_footer = run()
        assert cold_footer.startswith("4 executed, 0 cached (jobs=")
        assert warm_footer.startswith("0 executed, 4 cached (jobs=")
        assert warm_table == cold_table
        assert "lams  efficiency" in cold_table and "hdlc  efficiency" in cold_table

        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        assert "4 entries in 1 shard(s)" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 4 entries" in capsys.readouterr().out
        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        assert "0 entries in 0 shard(s)" in capsys.readouterr().out

    def test_fault_plan_sweep_runs_uncached(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text('{"name": "cut", "faults": [{"kind": "outage", '
                        '"start": 0.005, "duration": 0.01, "direction": "both"}]}')
        assert main([
            "sweep", "--preset", "short_hop", "--protocols", "lams",
            "--seeds", "2", "--duration", "0.3", "--fault-plan", str(plan),
            "--metrics", "delivered_unique", "lost",
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        out = capsys.readouterr().out
        assert "lams  delivered_unique" in out
        assert "sweep: 2 executed, 0 cached (jobs=1, workers=1)" in out
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("argv, named", [
        (["simulate", "--protocol", "hdlc"], "'hdlc' (hdlc family)"),
        (["simulate", "--protocol", "gbn"], "'gbn' (hdlc family)"),
        (["simulate", "--protocol", "nbdt-continuous"],
         "'nbdt-continuous' (nbdt family)"),
        # The sweep's default protocols are lams and hdlc.
        (["sweep", "--no-cache"], "'hdlc' (hdlc family)"),
        (["sweep", "--no-cache", "--protocols", "lams", "nbdt-multiphase"],
         "'nbdt-multiphase' (nbdt family)"),
    ])
    def test_fault_plan_rejects_a_family_it_cannot_measure(
            self, argv, named, capsys, tmp_path, monkeypatch):
        """Only the LAMS sender has what measure_fault_plan reads; any
        other family used to run the whole simulation and then die on
        ``'HdlcSender' object has no attribute 'failed'``.  Refused by
        name, exit 2, before anything is built."""
        import repro.experiments.runner as runner

        def no_build(*args, **kwargs):
            raise AssertionError("a simulation was built")

        monkeypatch.setattr(runner, "build_simulation", no_build)
        plan = tmp_path / "plan.json"
        plan.write_text('{"name": "cut", "faults": [{"kind": "outage", '
                        '"start": 0.005, "duration": 0.01, "direction": "both"}]}')
        assert main(argv + ["--preset", "short_hop", "--duration", "0.3",
                            "--fault-plan", str(plan)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: a fault plan is measured from the "
                                       "LAMS-DLC sender")
        assert named in captured.err and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_unknown_metric_is_a_one_line_error(self, capsys):
        assert main(self.SWEEP + ["--no-cache", "--metrics", "no_such"]) == 2
        err = capsys.readouterr().err
        assert "metric 'no_such' is not in the runner's output" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["cache", "migrate"],
        ["sweep", "--chunksize", "2"],
        ["soak", "--chunksize", "2"],
        ["sweep", "--master-seed", "9"],
    ])
    def test_deleted_options_are_rejected_by_the_parser(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestTransportCommands:
    def test_transmit_defaults(self):
        args = build_parser().parse_args(["transmit"])
        assert args.frames == 48
        assert args.golden is None
        assert args.connect is None
        assert not args.conform

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.bind == "127.0.0.1:47901"
        assert args.golden is None

    def test_transmit_rejects_conform_with_connect(self, capsys):
        assert main(["transmit", "--conform", "--connect",
                     "127.0.0.1:1"]) == 2

    def test_transmit_rejects_nonpositive_frames(self, capsys):
        assert main(["transmit", "--frames", "0"]) == 2

    def test_transmit_loopback_clean(self, capsys):
        assert main(["transmit", "--golden", "clean", "--frames", "8"]) == 0
        out = capsys.readouterr().out
        assert "delivered 8/8" in out
        assert "digest match" in out
        assert "all invariants held" in out


# The flags nothing passed — no Makefile target, CI step, documented
# command line or effect-asserting test (the per-flag table is in
# docs/API.md) — each beside the command it came off; none may come back.
OPERATING_POINT = ["--bit-rate", "--distance-km", "--iframe-ber", "--cframe-ber",
                   "--checkpoint-interval", "--cumulation-depth",
                   "--window-size", "--alpha"]
REMOVED_FLAGS = {
    "simulate": ["--seed"],
    "sweep": ["--seed", "--error-model"],
    "tune": ["--iframe-ber", "--cframe-ber", "--wait-budget"],
    "constellation": [*OPERATING_POINT, "--preset", "--seed", "--error-model"],
    "transmit": [*OPERATING_POINT, "--preset", "--seed", "--error-model",
                 "--fault-plan", "--payload-bytes", "--jitter", "--drop",
                 "--no-invariants"],
    "serve": [*OPERATING_POINT, "--preset", "--seed", "--error-model",
              "--duration"],
    "orbit": ["--altitude", "--inclination", "--raan-b", "--phase-b",
              "--max-range"],
    "trace-synth": [*OPERATING_POINT, "--protocol", "--max-time"],
    "channels": [*OPERATING_POINT, "--preset", "--params", "--step"],
}


@pytest.mark.parametrize("command, flag", [
    pytest.param(command, flag, id=f"{command} {flag}")
    for command, flags in REMOVED_FLAGS.items() for flag in flags
])
def test_removed_flag_exits_2(command, flag, capsys):
    """Exit 2 on the flag itself — not on a prefix match (`sweep --seed`
    would otherwise be read as `--seeds`), not on a missing value."""
    required = ["--bit-rate", "3e8", "--distance-km", "5000"] if command == "tune" else []
    with pytest.raises(SystemExit) as exit_info:
        main([command, *required, flag, "1"])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
