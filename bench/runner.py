"""The multi-run mode: every workload, repeats interleaved, one result file.

Each (workload, repeat) is one fresh child interpreter running
``python -m bench --workload ...`` (see :mod:`bench.run`), one at a time
— this host has two cores: one load-generating process, no pools.
Rounds interleave the workloads, so slow drift of the host hits all of
them alike.  After the untraced rounds every workload gets one traced
run.  A child that hangs is killed by a hard per-run time-out and counts
as a failed run, never a hang of the benchmark.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Optional

from . import metrics
from .run import OUT_DIR, ROOT

CHILD_TIMEOUT_S = 170.0  # the contract allows one run 180 s
REPEATS = 5              # untraced runs per workload; --quick makes one


def quartiles(values: list[float]) -> dict[str, Any]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0],
                "n": len(values), "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def run_child(workload: str, seed: int, seconds: float, trace: int,
              drive_scale: float) -> Optional[dict[str, Any]]:
    """One child run; returns ``{"result": ..., "detail": ...}`` or
    ``None`` when the child crashed, hung or printed no result."""
    command = [sys.executable, "-m", "bench", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--setup-samples", "1",
               "--drive-scale", str(drive_scale)]
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"!! {workload}: run killed after {CHILD_TIMEOUT_S:.0f} s", flush=True)
        return None
    lines = proc.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("#"):
            print(line)
    try:
        result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
    except (IndexError, KeyError, ValueError):
        print(f"!! {workload}: no result (exit {proc.returncode}): "
              f"{proc.stderr.strip()[-400:]}", flush=True)
        return None
    return {"result": result, "detail": detail}


def run_all(seed: int, seconds: float, quick: bool, out: Optional[str]) -> int:
    started = time.perf_counter()
    repeats = 1 if quick else REPEATS
    drive_scale = 0.1 if quick else 1.0
    names = list(metrics.WORKLOADS)
    runs: dict[str, list[dict[str, Any]]] = {name: [] for name in names}
    traced: dict[str, Optional[dict[str, Any]]] = {}
    failures: list[str] = []
    for round_index in range(repeats):
        for name in names:
            child = run_child(name, seed, seconds, 0, drive_scale)
            if child is None:
                failures.append(f"{name}: run {round_index + 1} produced no result")
                continue
            runs[name].append(child)
            print(f"round {round_index + 1}/{repeats}  {name:<20}"
                  + "  ".join(f"{metric}={value['value']:.5g}"
                              for metric, value in child["result"]["metrics"].items()),
                  flush=True)
    for name in names:
        traced[name] = run_child(name, seed, seconds, 1, drive_scale)
        if traced[name] is None:
            failures.append(f"{name}: traced run produced no result")

    payload: dict[str, Any] = {
        "schema": "repro.bench/1", "seed": seed, "seconds": seconds,
        "repeats": repeats, "quick": quick, "generated_unix_time": time.time(),
        "stamp": next((child["detail"]["stamp"] for name in names
                       for child in runs[name]), None),
        "workloads": {},
    }
    for name in names:
        payload["workloads"][name] = summarise(name, runs[name], traced[name], failures)
    payload["failures"] = failures
    payload["wall_seconds"] = time.perf_counter() - started

    path = out or os.path.join(OUT_DIR, "result.json")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    report(payload)
    print(f"result written to {os.path.relpath(path)}; traces in "
          f"{os.path.relpath(OUT_DIR)}/trace-<workload>.json; "
          f"{payload['wall_seconds']:.0f} s")
    for failure in failures:
        print(f"FAILED  {failure}")
    return 1 if failures else 0


def summarise(name: str, children: list[dict[str, Any]],
              traced: Optional[dict[str, Any]], failures: list[str]) -> dict[str, Any]:
    """One workload's section of the result, with its correctness gate:
    no failed operation, and exact counts identical in every run of a
    DES workload (a "speed-up" that changes simulated behaviour fails)."""
    section: dict[str, Any] = {"why": metrics.WORKLOADS[name], "end_to_end": {},
                               "per_layer": {}, "counts": None,
                               "ops_attempted": 0, "ops_failed": 0, "reasons": []}
    for metric, spec in metrics.END_TO_END.items():
        values = [child["result"]["metrics"][metric]["value"] for child in children]
        if values:
            section["end_to_end"][metric] = {
                "unit": spec.unit, "better": spec.better, "bound": spec.bound,
                **quartiles(values)}
    every = children + ([traced] if traced else [])
    for child in every:
        result, detail = child["result"], child["detail"]
        section["ops_attempted"] += result["attempted"]
        section["ops_failed"] += result["failed"]
        section["reasons"] += detail["reasons"]
        if not result["correct"]:
            failures.append(f"{name}: {result['failed']} of {result['attempted']} "
                            f"operations failed ({'; '.join(detail['reasons'])})")
    if every:
        section["counts"] = every[0]["detail"]["counts"]
        if name in metrics.DES:
            for child in every[1:]:
                if child["detail"]["counts"] != section["counts"]:
                    failures.append(
                        f"{name}: exact counts differ between runs of one seed: "
                        f"{section['counts']} vs {child['detail']['counts']}")
                    break
    if traced:
        section["per_layer"] = {
            metric: {"unit": value["unit"], "value": value["value"],
                     "kind": metrics.PER_LAYER[metric].kind}
            for metric, value in traced["result"]["metrics"].items()}
    return section


def report(payload: dict[str, Any]) -> None:
    stamp = payload["stamp"] or {}
    print()
    print(f"seed {payload['seed']}  seconds {payload['seconds']:g}  repeats "
          f"{payload['repeats']}  " + "  ".join(f"{k}={v}" for k, v in stamp.items()))
    print("udp_paced traffic crosses the host loopback interface, not a real link.")
    for name, section in payload["workloads"].items():
        print(f"\n== {name}: {section['why']}")
        for metric, entry in section["end_to_end"].items():
            print(f"  {metric:<22}{entry['median']:>14.6g} {entry['unit']:<6}"
                  f"q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}  n {entry['n']}  "
                  f"({entry['better']} is better, bound {entry['bound']:.0%})")
        print(f"  ops_attempted {section['ops_attempted']}  "
              f"ops_failed {section['ops_failed']}"
              + (f"  reasons {section['reasons']}" if section["reasons"] else ""))
        if section["counts"]:
            note = ("identical in every run" if name in metrics.DES
                    else "first run (real time: not exact)")
            print(f"  counts ({note}): " + " ".join(
                f"{key}={value}" for key, value in section["counts"].items()))
        for metric, entry in section["per_layer"].items():
            if entry["value"]:
                print(f"    {metric:<58}{entry['value']:>14.6g} {entry['unit']:<6}"
                      f"[{entry['kind']}]")
