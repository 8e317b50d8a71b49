"""Chaos-soak harness: episode determinism, soak aggregation, CLI."""

from __future__ import annotations

import pytest

from repro.chaos import (
    EpisodeSpec,
    generate_episode,
    generate_episodes,
    run_episode,
    run_soak,
)
from repro.chaos import generate_transport_episode, run_transport_episode
from repro.cli import main


class TestEpisodeDeterminism:
    def test_regeneration_is_exact(self):
        first = generate_episode(5, 3)
        second = generate_episode(5, 3)
        assert first == second
        assert repr(first) == repr(second)

    def test_distinct_indices_differ(self):
        specs = generate_episodes(5, 8)
        assert len({repr(spec) for spec in specs}) == 8
        assert [spec.index for spec in specs] == list(range(8))

    def test_distinct_master_seeds_differ(self):
        assert generate_episode(1, 0) != generate_episode(2, 0)

    def test_reproducer_names_the_replay_command(self):
        spec = generate_episode(7, 2)
        reproducer = spec.reproducer()
        assert reproducer["master_seed"] == 7
        assert reproducer["episode"] == 2
        assert "--seed 7" in reproducer["command"]
        assert "--only 2" in reproducer["command"]

    def test_fault_plan_windows_fit_the_run(self):
        for spec in generate_episodes(11, 10):
            assert 1 <= len(spec.fault_plan) <= 3
            for fault in spec.fault_plan:
                assert 0.0 < fault.start < spec.max_time
                assert fault.duration > 0

    def test_count_validated(self):
        with pytest.raises(ValueError):
            generate_episodes(0, 0)


class TestRunEpisode:
    def test_report_shape_and_clean_outcome(self):
        report = run_episode(generate_episode(3, 0))
        assert report["ok"] is True
        assert report["violations"] == []
        assert report["offered"] > 0
        assert report["delivered"] == report["offered"]
        assert report["dest_released"] == report["delivered"]
        assert report["reproducer"]["master_seed"] == 3
        assert set(report["monitor_summary"]) >= {"zero-loss", "failure-latency"}

    def test_rerun_is_bit_identical(self):
        spec = generate_episode(11, 1)
        assert run_episode(spec) == run_episode(spec)

    def test_storm_inside_a_corruption_window_keeps_the_silence(self):
        """Soak seed 7, episode 144: p=1 control corruption on the reverse
        channel, overlapped by a BER storm that starts later.  The plan
        declares the window silent; the injector used to let checkpoints
        through it and the failure-latency monitor (rightly) objected."""
        spec = generate_episode(7, 144)
        kinds = [fault.kind for fault in spec.fault_plan.faults]
        assert "control-corruption" in kinds and "ber-storm" in kinds
        report = run_episode(spec)
        assert report["violations"] == []
        assert report["delivered"] == report["offered"] == 229


class TestRunSoak:
    def test_small_soak_completes_clean(self):
        result = run_soak(episodes=4, master_seed=3)
        assert result.ok
        assert result.completed == result.requested == 4
        summary = result.summary()
        assert summary["episodes_completed"] == 4
        assert summary["violations"] == 0
        assert summary["ok"] is True

    def test_only_reruns_a_single_episode(self):
        result = run_soak(episodes=5, master_seed=3, only=4)
        assert result.completed == 1
        assert result.episodes[0]["episode"] == 4

    def test_only_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside the generated range"):
            run_soak(episodes=5, master_seed=3, only=5)

    def test_fail_fast_stops_after_first_violation(self, monkeypatch):
        import repro.chaos.soak as soak_module

        calls = []

        def fake_run_episode(spec):
            calls.append(spec.index)
            return {
                "episode": spec.index,
                "ok": spec.index != 1,
                "violations": (
                    [] if spec.index != 1
                    else [{"invariant": "zero-loss", "time": 0.5,
                           "message": "synthetic"}]
                ),
                "monitor_summary": {"zero-loss": 0 if spec.index != 1 else 1},
            }

        monkeypatch.setattr(soak_module, "run_episode", fake_run_episode)
        result = run_soak(episodes=6, master_seed=3, fail_fast=True)
        assert calls == [0, 1]  # episode 2+ never scheduled
        assert result.stopped_early
        assert not result.ok
        assert len(result.violations) == 1
        # The violating episode's report is retained.
        assert any(not ep["ok"] for ep in result.episodes)

    def test_progress_sees_each_report(self):
        seen = []
        run_soak(episodes=3, master_seed=3, progress=seen.append)
        assert [r["episode"] for r in seen] == [0, 1, 2]


class TestTransportEpisodes:
    def test_regeneration_is_exact(self):
        assert generate_transport_episode(5, 3) == generate_transport_episode(5, 3)

    def test_distinct_seed_namespace_from_des_episodes(self):
        udp, des = generate_transport_episode(5, 0), generate_episode(5, 0)
        assert udp.seed != des.seed
        assert udp.backend == "udp" and des.backend == "des"

    def test_reproducer_names_the_udp_backend(self):
        spec = generate_transport_episode(7, 2)
        reproducer = spec.reproducer()
        assert reproducer["backend"] == "udp"
        assert "--backend udp" in reproducer["command"]
        assert "--only 2" in reproducer["command"]
        assert "backend=udp" in spec.label

    def test_generate_episodes_dispatches_on_backend(self):
        specs = generate_episodes(7, 3, backend="udp")
        assert [s.backend for s in specs] == ["udp"] * 3
        assert specs == [generate_transport_episode(7, i) for i in range(3)]
        with pytest.raises(ValueError, match="backend"):
            generate_episodes(7, 3, backend="tcp")

    def test_fault_plans_use_transport_vocabulary(self):
        kinds = set()
        for i in range(12):
            spec = generate_transport_episode(9, i)
            for fault in spec.fault_plan:
                kinds.add(fault.kind)
                assert 0.0 <= fault.start < spec.max_time
        # The generated stream must actually draw supervisor-class faults.
        assert kinds & {"endpoint-stall", "peer-restart",
                        "handshake-blackhole", "send-error-burst"}

    def test_run_transport_episode_report_shape(self):
        # Find a small fault-free episode: those also exercise the DES
        # conformance cross-check without riding out stall windows.
        spec = next(
            s for i in range(64)
            for s in [generate_transport_episode(7, i)]
            if not len(s.fault_plan) and s.n_frames <= 24
        )
        report = run_transport_episode(spec)
        assert report["ok"] is True, report["violations"]
        assert report["backend"] == "udp"
        assert report["completed"] is True
        assert report["delivered"] == spec.n_frames
        assert report["conformance"]["match"] is True
        assert report["reproducer"]["backend"] == "udp"


class TestSoakCli:
    def test_cli_soak_exits_zero_when_clean(self, capsys):
        code = main(["soak", "--episodes", "2", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all invariants held" in out
        assert "2/2 episodes" in out

    def test_cli_soak_only_replays_one_episode(self, capsys):
        code = main(["soak", "--episodes", "3", "--seed", "3", "--only", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "episode[  2]" in out

    def test_cli_soak_validates_arguments(self, capsys):
        assert main(["soak", "--episodes", "0"]) == 2
        assert main(["soak", "--jobs", "0"]) == 2
        assert main(["soak", "--episodes", "2", "--only", "9"]) == 2

    def test_cli_soak_exits_nonzero_on_violation(self, capsys, monkeypatch):
        import repro.chaos.soak as soak_module

        def fake_run_episode(spec):
            return {
                "episode": spec.index,
                "scenario": spec.scenario.name,
                "fault_plan": spec.fault_plan.to_dict(),
                "delivered": 0, "offered": 1, "failures_declared": 0,
                "ok": False,
                "violations": [{
                    "invariant": "zero-loss", "time": 0.25,
                    "message": "synthetic loss",
                    "trace_window": ["t=0.2 a payload_accepted"],
                }],
                "monitor_summary": {"zero-loss": 1},
                "reproducer": spec.reproducer(),
            }

        monkeypatch.setattr(soak_module, "run_episode", fake_run_episode)
        code = main(["soak", "--episodes", "1", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 1
        assert "zero-loss" in out
        assert "synthetic loss" in out
        assert "reproduce: python -m repro soak --seed 3" in out
