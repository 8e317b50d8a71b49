"""Unit tests for the benchmark tooling around the measurements:
history parsing, last-two comparison, single-core sweep skew handling,
and the profile/compare CLI paths.

The actual throughput numbers are covered by ``benchmarks/``; here we
pin the plumbing those numbers travel through.
"""

from __future__ import annotations

import importlib.util
import json
import os
from pathlib import Path

import pytest

from repro.benchmark import (
    append_history,
    bench_sweep_scale,
    compare_last_two,
    profile_hotpath_bench,
    read_history,
)
from repro.cli import main
from repro.simulator.engine import engine_backend


def _write_history(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            json.dump(record, handle)
            handle.write("\n")


def _record(**overrides):
    base = {
        "git_commit": "aaaa",
        "hostname": "host",
        "cpu_count": 4,
        "python": "3.11.0",
        "engine": "pure",
        "batch_window": 64,
        "engine_events_per_sec": 1_000_000.0,
        "saturated_frames_per_sec": 80_000.0,
    }
    base.update(overrides)
    return base


class TestReadHistory:
    def test_reads_records_oldest_first(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        _write_history(path, [_record(git_commit="old"),
                              _record(git_commit="new")])
        records = read_history(str(path))
        assert [r["git_commit"] for r in records] == ["old", "new"]

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        path.write_text('{"a": 1}\n\n{"a": 2}\n')
        assert len(read_history(str(path))) == 2

    def test_corrupt_record_names_the_line(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match=r"hist\.jsonl:2"):
            read_history(str(path))


class TestCompareLastTwo:
    def test_needs_two_records(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        _write_history(path, [_record()])
        with pytest.raises(ValueError, match="at least two"):
            compare_last_two(str(path))

    def test_flags_regressions_and_improvements(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        _write_history(path, [
            _record(),
            _record(git_commit="bbbb",
                    engine_events_per_sec=500_000.0,     # -50%: regression
                    saturated_frames_per_sec=160_000.0,  # +100%: improvement
                    ),
        ])
        comparison = compare_last_two(str(path), threshold=0.10)
        assert comparison["old_commit"] == "aaaa"
        assert comparison["new_commit"] == "bbbb"
        by_metric = {row["metric"]: row for row in comparison["rows"]}
        assert by_metric["engine_events_per_sec"]["regressed"]
        assert by_metric["saturated_frames_per_sec"]["improved"]
        assert len(comparison["regressions"]) == 1
        assert len(comparison["improvements"]) == 1

    def test_small_deltas_are_ok(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        _write_history(path, [
            _record(),
            _record(engine_events_per_sec=950_000.0),  # -5% < threshold
        ])
        comparison = compare_last_two(str(path), threshold=0.10)
        assert not comparison["regressions"]
        assert not comparison["improvements"]

    def test_caveats_on_context_change(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        _write_history(path, [
            _record(),
            _record(engine="compiled", cpu_count=1),
        ])
        comparison = compare_last_two(str(path))
        caveats = "\n".join(comparison["caveats"])
        assert "engine changed" in caveats
        assert "cpu_count changed" in caveats

    def test_compares_only_shared_numeric_rates(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        _write_history(path, [
            _record(sweep_points_per_sec_serial=None,
                    only_old_per_sec=10.0),
            _record(sweep_points_per_sec_serial=12.0),
        ])
        metrics = {row["metric"]
                   for row in compare_last_two(str(path))["rows"]}
        assert "only_old_per_sec" not in metrics
        assert "sweep_points_per_sec_serial" not in metrics  # old is None
        assert "engine_events_per_sec" in metrics

    def test_threshold_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="threshold"):
            compare_last_two(str(tmp_path / "x"), threshold=0.0)


class TestAppendHistoryStamps:
    def test_record_carries_engine_and_batch_window(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        record = append_history(
            {"engine": "compiled", "batch_window": 32,
             "engine_dispatch": {"events_per_sec": 1.0}},
            str(path),
        )
        assert record["engine"] == "compiled"
        assert record["batch_window"] == 32
        assert read_history(str(path))[0]["engine"] == "compiled"


class TestSingleCoreSweepSkew:
    def test_parallel_cells_skipped_on_single_core(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        result = bench_sweep_scale(seeds=2, duration=0.005, jobs=(2,))
        assert result["parallel"] == []
        assert "oversubscription" in result["parallel_skipped"]

    def test_force_parallel_stamps_cells(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        result = bench_sweep_scale(seeds=2, duration=0.005, jobs=(2,),
                                   force_parallel=True)
        assert "parallel_skipped" not in result
        (cell,) = result["parallel"]
        assert cell["forced_parallel"] is True
        assert cell["bit_identical_to_serial"] is True

    def test_multi_core_hosts_unaffected(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        result = bench_sweep_scale(seeds=2, duration=0.005, jobs=(2,))
        assert "parallel_skipped" not in result
        (cell,) = result["parallel"]
        assert "forced_parallel" not in cell


class TestProfileBench:
    def test_reports_per_kind_without_writing_baselines(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        reports = profile_hotpath_bench(
            top_n=5, micro_events=5_000, duration=0.05,
            include_sweep_scale=False, include_constellation_scale=False,
        )
        assert set(reports) == {"engine_dispatch", "saturated_throughput"}
        for report in reports.values():
            assert "cumulative" in report
        assert not (tmp_path / "BENCH_hotpath.json").exists()
        assert not (tmp_path / "BENCH_history.jsonl").exists()


class TestCompareCli:
    def test_compare_ok_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "hist.jsonl"
        _write_history(path, [_record(), _record(git_commit="bbbb")])
        code = main(["bench-baseline", "--compare",
                     "--history", str(path)])
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_strict_regression_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "hist.jsonl"
        _write_history(path, [
            _record(),
            _record(engine_events_per_sec=100_000.0),
        ])
        assert main(["bench-baseline", "--compare",
                     "--history", str(path)]) == 0
        assert main(["bench-baseline", "--compare", "--strict",
                     "--history", str(path)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_missing_history_is_nonfatal_unless_strict(self, tmp_path):
        missing = str(tmp_path / "nope.jsonl")
        assert main(["bench-baseline", "--compare",
                     "--history", missing]) == 0
        assert main(["bench-baseline", "--compare", "--strict",
                     "--history", missing]) == 2

    def test_profile_flag_prints_reports(self, tmp_path, monkeypatch,
                                         capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["bench-baseline", "--profile", "--profile-top", "5",
                     "--micro-events", "5000", "--duration", "0.05",
                     "--skip-sweep-scale", "--skip-constellation-scale"])
        out = capsys.readouterr().out
        assert code == 0
        assert "profile: engine_dispatch" in out
        assert "no baseline written" in out
        assert not (tmp_path / "BENCH_hotpath.json").exists()


def test_engine_backend_is_stamped_somewhere_real():
    """The stamp the history rows carry must be the live selector."""
    assert engine_backend() in ("pure", "compiled")


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_counts_may_differ_only_where_named():
    """``tools/bench_pairs.py --counts-may-differ``: a named key may
    move (and is reported if it did not); any other key fails the run."""
    compare = load_bench_pairs().compare_counts

    parent = "counts events=618271 frames=158646 peak_heap=16065 retransmissions=6"
    change = "counts events=532273 frames=158646 peak_heap=16065 retransmissions=6"
    named = frozenset({"events", "peak_heap"})

    same, report = compare(parent, parent)
    assert same and report == [f"counts identical on both sides: {parent}"]
    same, report = compare(parent, change)
    assert not same and report[0] == "COUNTS DIFFER in events"
    same, report = compare(parent, change, named)
    assert same
    assert "  events: 618271 → 532273" in report
    assert "  peak_heap: 16065 on both sides (allowed to differ, did not)" in report
    same, report = compare(parent, change.replace("frames=158646", "frames=158647"), named)
    assert not same and report[0] == "COUNTS DIFFER in frames"
    same, _ = compare(parent, change + " extra=1", named)
    assert not same


def test_bench_pairs_claim_verdicts_on_canned_runs(capsys):
    """``tools/bench_pairs.py --claim``: the claimed metric holds only
    when ahead in >= 9/10 pairs by more than the parent's IQR; every
    other metric is within bound, worse (exit 1) or unresolved; a live
    workload's per-run retransmissions are listed, not just skipped."""
    summarize = load_bench_pairs().summarize
    spec = {"end_to_end": [
        {"name": "cpu_us", "unit": "us", "better": "lower", "bound": 0.2},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.15},
        {"name": "p50", "unit": "ms", "better": "lower", "bound": 0.15},
        {"name": "rss", "unit": "MB", "better": "lower", "bound": 0.05},
    ]}

    def side(cpu, rate, p50, rss, retransmissions):
        return [{"counts": f"counts datagrams={4600 + r} retransmissions={r}", "failed": 0,
                 "attempted": 4511,
                 "metrics": {"cpu_us": c, "rate": f, "p50": l, "rss": m}}
                for c, f, l, m, r in zip(cpu, rate, p50, rss, retransmissions)]

    tens = range(10)
    parent = side(cpu=[260 + i for i in tens], rate=[585.0] * 10,
                  p50=[2.0, 2.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0, 3.0],
                  rss=[52.0] * 10, retransmissions=[11, 0, 3, 7, 2, 9, 4, 1, 0, 5])
    runs = {"parent": parent,
            "change": side(cpu=[180 + i for i in tens], rate=[585.0] * 10,
                           p50=[2.1, 2.0, 2.0, 2.0, 2.0, 3.1, 3.0, 3.0, 3.0, 3.0],
                           rss=[52.5] * 10, retransmissions=[4, 0, 2, 1, 0, 6, 3, 1, 0, 2])}

    assert summarize(spec, runs) == 0  # no claim: the table only
    assert "verdicts" not in capsys.readouterr().out

    assert summarize(spec, runs, claim="cpu_us") == 0
    out = capsys.readouterr().out
    assert "  cpu_us: CLAIM holds: ahead in 10/10 pairs (0 tie(s))" in out
    assert "  rate: within bound" in out
    assert "  p50: unresolved (spread wider than bound)" in out  # IQR 1.0 of a median 2.5
    assert "  rss: within bound" in out  # +1% of a 5% bound
    assert "  retransmissions parent: 11 0 3 7 2 9 4 1 0 5" in out
    assert "  retransmissions change: 4 0 2 1 0 6 3 1 0 2" in out
    assert "  datagrams parent: 4611 4600" in out

    # Eight wins of ten is not nine; a lead inside the parent's IQR is not a gain.
    runs["change"] = side(cpu=[180] * 8 + [300, 300], rate=[585.0] * 10, p50=[1.9] * 10,
                          rss=[56.0] * 10, retransmissions=[0] * 10)
    assert summarize(spec, runs, claim="cpu_us") == 1
    out = capsys.readouterr().out
    assert "  cpu_us: CLAIM not resolved: ahead in 8/10 pairs" in out
    assert "  rss: worse by more than bound" in out
    assert "  p50: within bound" in out  # every change run below every parent run
    runs["change"] = side(cpu=[258 + i for i in tens], rate=[585.0] * 10, p50=[2.0] * 10,
                          rss=[52.0] * 10, retransmissions=[0] * 10)
    assert summarize(spec, runs, claim="cpu_us") == 1
    assert "CLAIM not resolved: ahead in 10/10 pairs" in capsys.readouterr().out
