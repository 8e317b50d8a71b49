"""``python -m bench --compare A.json B.json``: judge B against A.

Per (end-to-end metric, workload) the report gives both medians, both
interquartile ranges and the metric's bound, and one of four verdicts:

- ``worse`` — B's median is worse than A's by more than the bound;
- ``better`` — every run of B reads better than every run of A, or B's
  median is better by more than the bound;
- ``unresolved`` — neither, and the run-to-run spread of either side is
  wider than the bound: the runs cannot tell, which is not "unchanged";
- ``within bound`` — neither, and both spreads are inside the bound.

Results whose engine / batch-window / timer-wheel / python /
cpu-count / host stamps, seeds or sizes differ are refused: they are
different experiments, not two measurements of one (host seconds are
scaled by constants fitted to one host).
"""

from __future__ import annotations

import json
from typing import Any

from . import metrics


def load(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def verdict(a: dict[str, Any], b: dict[str, Any], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    change = sign * (b["median"] - a["median"]) / a["median"]  # positive = better
    if change < -bound:
        return "worse"
    a_runs = [sign * value for value in a["values"]]
    b_runs = [sign * value for value in b["values"]]
    if change > bound or min(b_runs) > max(a_runs):
        return "better"
    spread = max((entry["q3"] - entry["q1"]) / entry["median"] for entry in (a, b))
    return "unresolved" if spread > bound else "within bound"


def compare(a: dict[str, Any], b: dict[str, Any]) -> tuple[list[dict[str, Any]], list[str]]:
    """Rows of the comparison, and the reasons it must be refused."""
    refusals = [
        f"{key} differs: {a.get(key)!r} vs {b.get(key)!r}"
        for key in ("stamp", "seed", "seconds", "quick") if a.get(key) != b.get(key)
    ]
    rows = []
    for name in metrics.WORKLOADS:
        first, second = a["workloads"].get(name), b["workloads"].get(name)
        if not first or not second:
            refusals.append(f"workload {name} missing from one result")
            continue
        for metric, spec in metrics.END_TO_END.items():
            if metric not in first["end_to_end"] or metric not in second["end_to_end"]:
                refusals.append(f"{metric} on {name} missing from one result")
                continue
            old, new = first["end_to_end"][metric], second["end_to_end"][metric]
            rows.append({
                "workload": name, "metric": metric, "unit": spec.unit,
                "better": spec.better, "bound": spec.bound,
                "a": old, "b": new,
                "change": (new["median"] - old["median"]) / old["median"],
                "verdict": verdict(old, new, spec.better, spec.bound),
            })
        if name in metrics.DES and first["counts"] != second["counts"]:
            rows.append({"workload": name, "metric": "exact counts", "verdict": "differ",
                         "a": first["counts"], "b": second["counts"]})
    return rows, refusals


def compare_files(path_a: str, path_b: str) -> int:
    rows, refusals = compare(load(path_a), load(path_b))
    if refusals:
        print("refusing to compare:")
        for reason in refusals:
            print(f"  {reason}")
        return 2
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':<20}{'metric':<20}{'A median [q1, q3]':>36}"
          f"{'B median [q1, q3]':>36}{'change':>9}{'bound':>7}  verdict")
    for row in rows:
        if row["metric"] == "exact counts":
            print(f"{row['workload']:<20}exact counts differ: simulated behaviour "
                  f"changed\n  A {row['a']}\n  B {row['b']}")
            continue

        def cell(entry: dict[str, Any]) -> str:
            return (f"{entry['median']:.5g} [{entry['q1']:.5g}, {entry['q3']:.5g}]"
                    f" n={entry['n']}")

        print(f"{row['workload']:<20}{row['metric']:<20}{cell(row['a']):>36}"
              f"{cell(row['b']):>36}{row['change']:>+9.1%}{row['bound']:>7.0%}"
              f"  {row['verdict']} ({row['better']} is better)")
    return 1 if any(row["verdict"] in ("worse", "differ") for row in rows) else 0
