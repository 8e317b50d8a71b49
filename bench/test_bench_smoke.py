"""Smoke test of the benchmark itself: ``pytest bench/`` (not tier-1).

Runs ``python -m bench --quick`` once (about half a minute) and checks
the result against ``BENCHMARK.json``, so the workload and metric names
the driver is told about cannot drift from the ones the code reports.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

from bench import compare, metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def quick_result(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench") / "result.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--quick", "--seed", "7", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def test_manifest_matches_the_metric_tables(manifest):
    assert [w["name"] for w in manifest["workloads"]] == list(metrics.WORKLOADS)
    assert {w["name"]: w["why"] for w in manifest["workloads"]} == metrics.WORKLOADS
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]
    } == {name: tuple(spec[:3]) for name, spec in metrics.END_TO_END.items()}
    assert {
        m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]
    } == {name: tuple(spec[:2]) for name, spec in metrics.PER_LAYER.items()}
    assert manifest["paths"] == ["bench"]
    assert "setup_s" in metrics.END_TO_END


def test_quick_run_reports_every_name(manifest, quick_result):
    assert quick_result["failures"] == []
    assert list(quick_result["workloads"]) == [w["name"] for w in manifest["workloads"]]
    for name, section in quick_result["workloads"].items():
        assert sorted(section["end_to_end"]) == sorted(
            m["name"] for m in manifest["end_to_end"]), name
        assert sorted(section["per_layer"]) == sorted(
            m["name"] for m in manifest["per_layer"]), name
        assert section["ops_failed"] == 0, (name, section["reasons"])
        for metric, entry in section["end_to_end"].items():
            assert entry["median"] > 0, (name, metric)


def test_layers_separate_as_predicted(quick_result):
    layers = {name: section["per_layer"]
              for name, section in quick_result["workloads"].items()}

    def value(workload: str, metric: str) -> float:
        return layers[workload][metric]["value"]

    # No listener is attached on sat_clean; the suite dominates sat_monitored.
    assert value("sat_clean", "invariants.monitors.records_per_frame") == 0
    assert value("sat_monitored", "invariants.monitors.records_per_frame") > 1
    assert value("sat_monitored", "invariants.monitors.overhead_ns_per_frame") > 0
    # Wire and transport layers record nothing on a DES workload.
    for workload in metrics.DES:
        assert value(workload, "transport.udp.busy_share") == 0
        assert value(workload, "core.wire.derived_share") == 0
    assert value("udp_paced", "transport.udp.datagrams_per_payload") >= 1
    assert (value("sat_bursty", "core.sender.retransmission_ratio")
            > 3 * value("sat_clean", "core.sender.retransmission_ratio"))


def test_compare_verdicts_and_refusals(quick_result):
    rows, refusals = compare.compare(quick_result, quick_result)
    assert refusals == []
    assert {row["verdict"] for row in rows} <= {"within bound", "unresolved"}

    slower = copy.deepcopy(quick_result)
    entry = slower["workloads"]["sat_clean"]["end_to_end"]["frames_per_s"]
    for key in ("median", "q1", "q3"):
        entry[key] *= 0.5
    entry["values"] = [v * 0.5 for v in entry["values"]]
    rows, _ = compare.compare(quick_result, slower)
    verdicts = {(row["workload"], row["metric"]): row["verdict"] for row in rows}
    assert verdicts[("sat_clean", "frames_per_s")] == "worse"

    other_engine = copy.deepcopy(quick_result)
    other_engine["stamp"]["engine"] = "another"
    _, refusals = compare.compare(quick_result, other_engine)
    assert refusals and "stamp" in refusals[0]
