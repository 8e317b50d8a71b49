#!/usr/bin/env python3
"""Alternating parent/change pairs of the repo benchmark, from clean exports.

The acceptance procedure for a performance claim (ROADMAP, docs/TUNING.md
§10) as one command::

    python3 tools/bench_pairs.py --parent <rev> --workload sat_clean --seed 23 --pairs 10

Both sides are exported into a temporary directory first — the parent
with ``git archive <rev>``, the change with ``git checkout-index`` (what
``git add -A`` staged; HEAD when nothing is staged), or with ``git
archive`` too when ``--change <rev>`` names a revision (an A/A run is
``--parent X --change X``) — because numbers measured from a working
tree have misled before (stale ``__pycache__``, ``bench/out``, an
editor's files).  Then ``python3 -m bench --workload W
--seed S --seconds N --trace 0`` runs in each export, one run at a time,
alternating which side goes first.  Every run is printed, then medians,
inclusive quartiles, wins and ``ops_failed`` per metric.

Exit status 1 if a run fails, or if the two sides' exact ``counts``
lines differ (same program, same answers); a live workload whose counts
vary from run to run on one side is reported and not compared.  A
change that removes work by design names the keys it moves with
``--counts-may-differ events,peak_heap``: those are printed ``parent →
change`` (and reported if they did *not* move), every other key must
still match.  For a live workload the per-run ``retransmissions`` and
``datagrams`` of each side are printed in their place.

``--claim METRIC`` adds the verdicts of the claim rule (choosing-metrics
§6 and §8) after the table.  The claimed metric ``holds`` only if the
change is ahead in at least nine tenths of the pairs run (ties count for
neither side) *and* the medians differ, in the better direction, by more
than the parent's own interquartile range; otherwise ``not resolved``
and exit 1.  Every other end-to-end metric reads ``within bound``,
``worse by more than bound`` (exit 1) or ``unresolved (spread wider than
bound)`` — the last unless every run of the change beats every run of
the parent.

This script only invokes the benchmark; it reads ``BENCHMARK.json`` for
the metric names, directions and bounds and edits nothing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def export(side: str, rev: str | None, root: Path) -> Path:
    """A clean copy of *rev* (or of the index when None) under *root*."""
    target = root / side
    target.mkdir()
    if rev is None:
        subprocess.run(["git", "checkout-index", "-a", f"--prefix={target}/"],
                       cwd=REPO, check=True)
    else:
        archive = subprocess.run(["git", "archive", rev], cwd=REPO, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)
    return target


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One driver-style run; the exact counts line and the result object."""
    command = [sys.executable, "-m", "bench", "--workload", workload,
               "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"benchmark failed in {checkout}:\n{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    counts = next((line for line in lines if line.startswith("counts ")), "")
    return {"counts": counts, "failed": result["failed"], "attempted": result["attempted"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def parse_counts(line: str) -> dict[str, str]:
    """``counts a=1 b=2`` as ``{"a": "1", "b": "2"}``."""
    return dict(item.split("=", 1) for item in line.split()[1:])


def compare_counts(parent: str, change: str,
                   may_differ: frozenset[str] = frozenset()) -> tuple[bool, list[str]]:
    """Whether two exact ``counts`` lines agree on every key outside
    *may_differ*, and the lines to print about it."""
    before, after = parse_counts(parent), parse_counts(change)
    moved = sorted(key for key in before.keys() | after.keys()
                   if before.get(key) != after.get(key))
    named = [f"  {key}: {before.get(key)} → {after.get(key)}" if key in moved else
             f"  {key}: {before.get(key)} on both sides (allowed to differ, did not)"
             for key in sorted(may_differ)]
    unexpected = [key for key in moved if key not in may_differ]
    if unexpected:
        return False, [f"COUNTS DIFFER in {', '.join(unexpected)}",
                       f"  parent: {parent}", f"  change: {change}", *named]
    if not may_differ:
        return True, [f"counts identical on both sides: {parent}"]
    return True, [f"counts identical on both sides but for: {change}", *named]


def tally(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Medians, inclusive quartiles and pair wins of one metric's runs."""
    higher = metric["better"] == "higher"
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
    return {"parent": (pq1, pmed, pq3), "change": (cq1, cmed, cq3), "wins": wins,
            "ties": ties, "pairs": len(parent),
            # > 0 when the change's median is the better one
            "lead": (cmed - pmed) if higher else (pmed - cmed),
            "clear": min(change) > max(parent) if higher else max(change) < min(parent)}


def claim_verdict(stats: dict) -> tuple[bool, str]:
    """choosing-metrics §8: ahead in >= 9/10 of all pairs run, and a
    median gap wider than the parent's own interquartile range."""
    pq1, _, pq3 = stats["parent"]
    holds = 10 * stats["wins"] >= 9 * stats["pairs"] and stats["lead"] > pq3 - pq1
    return holds, (f"{'holds' if holds else 'not resolved'}: "
                   f"ahead in {stats['wins']}/{stats['pairs']} pairs ({stats['ties']} tie(s)), "
                   f"median lead {stats['lead']:.6g} vs parent IQR {pq3 - pq1:.6g}")


def bound_verdict(metric: dict, stats: dict) -> tuple[bool, str]:
    """choosing-metrics §6.5 for a metric nobody claimed."""
    (pq1, pmed, pq3), (cq1, _, cq3) = stats["parent"], stats["change"]
    bound = metric["bound"] * abs(pmed)
    if -stats["lead"] > bound:
        return False, "worse by more than bound"
    if max(pq3 - pq1, cq3 - cq1) > bound and not stats["clear"]:
        return True, "unresolved (spread wider than bound)"
    return True, "within bound"


def live_counts(runs: dict[str, list[dict]]) -> list[str]:
    """What a live workload's ``counts`` lines say, run by run, about the
    work a cheaper path must not add: retransmissions and datagrams."""
    return [f"  {key} {side}: "
            + " ".join(str(parse_counts(run["counts"]).get(key)) for run in runs[side])
            for key in ("retransmissions", "datagrams") for side in ("parent", "change")]


def summarize(spec: dict, runs: dict[str, list[dict]],
              may_differ: frozenset[str] = frozenset(), claim: str = "") -> int:
    """Print the per-metric table, verdicts and counts; the exit status."""
    status = 0
    verdicts = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        stats = tally(metric, *([run["metrics"][name] for run in runs[side]]
                                for side in ("parent", "change")))
        (pq1, pmed, pq3), (cq1, cmed, cq3) = stats["parent"], stats["change"]
        gain = (cmed / pmed - 1.0) if pmed else float("nan")
        print(f"{name} [{metric['unit']}, {metric['better']} is better, bound {metric['bound']:.0%}]")
        print(f"  parent q1/median/q3 {pq1:.6g} / {pmed:.6g} / {pq3:.6g}   (IQR {pq3 - pq1:.6g})")
        print(f"  change q1/median/q3 {cq1:.6g} / {cmed:.6g} / {cq3:.6g}")
        print(f"  change/parent {gain:+.1%} in the median, median gap {abs(cmed - pmed):.6g}; "
              f"change ahead in {stats['wins']}/{stats['pairs'] - stats['ties']} pairs "
              f"({stats['ties']} tie(s))")
        if claim:
            ok, verdict = (claim_verdict(stats) if name == claim
                           else bound_verdict(metric, stats))
            verdicts.append(f"  {name}: {'CLAIM ' if name == claim else ''}{verdict}")
            status |= not ok
    if claim:
        print(f"verdicts (claimed: {claim})", *verdicts, sep="\n")
    for side in ("parent", "change"):
        failed = [run["failed"] for run in runs[side]]
        print(f"ops_failed {side}: {failed} of {runs[side][0]['attempted']} attempted")
        status |= any(failed)

    counts = {side: {run["counts"] for run in runs[side]} for side in runs}
    if any(len(lines) > 1 for lines in counts.values()):
        print("counts vary from run to run on one side (live workload): not compared",
              *live_counts(runs), sep="\n")
    else:
        same, report = compare_counts(*counts["parent"], *counts["change"], may_differ)
        print("\n".join(report))
        status |= not same
    return int(status)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--change", default=None, metavar="REV",
                        help="git revision to measure (default: the index)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--counts-may-differ", default="", metavar="KEY,KEY",
                        help="counts keys the change moves by design; all others must match")
    parser.add_argument("--claim", default="", metavar="METRIC",
                        help="end-to-end metric the change claims to improve: "
                             "print the claim-rule verdicts, exit 1 unless it holds")
    args = parser.parse_args(argv)
    may_differ = frozenset(filter(None, args.counts_may_differ.split(",")))
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    if args.claim and args.claim not in {metric["name"] for metric in spec["end_to_end"]}:
        parser.error(f"--claim {args.claim}: not an end-to-end metric of BENCHMARK.json")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        checkouts = {"parent": export("parent", args.parent, Path(scratch)),
                     "change": export("change", args.change, Path(scratch))}
        print(f"# {args.workload} seed {args.seed}, {seconds:g} s, {args.pairs} pairs: "
              f"parent = {args.parent}, change = {args.change or 'the index'}")
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(checkouts[side], args.workload, args.seed, seconds)
                runs[side].append(run)
                shown = "  ".join(f"{name}={value:.6g}" for name, value in run["metrics"].items())
                print(f"pair {pair + 1:2d} {side:6s} failed={run['failed']}  {shown}", flush=True)

    print()
    return summarize(spec, runs, may_differ, args.claim)


if __name__ == "__main__":
    sys.exit(main())
