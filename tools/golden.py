#!/usr/bin/env python3
"""Check (or rewrite) the slower golden digests: the "same answers" a
change to the monitored path quotes.

    python3 tools/golden.py           # check; exit 1 if a digest moved
    python3 tools/golden.py --bless   # rewrite them and print what moved

``tests/golden/verdicts.json`` holds, for each entry, a count and a
SHA-256 digest:

- ``E3``, ``E4-sim``, ``E21``, ``E26``: ``repr`` of each experiment's
  rows (``run_experiment(id).rows``) — the holding-time model's table;
  the simulated sending-buffer trajectories of LAMS-DLC and SR-HDLC; the
  fault-injection matrix, detection and declared-failure latencies
  included; the Section-4 validation table, whose rows hold the
  simulated SR-HDLC and NBDT means beside ``eta_HDLC``;
- ``soak-7x145``: the episode reports of ``soak --seed 7 --episodes 145``
  (every monitor verdict, violation and counter of each episode), as
  sorted-key JSON.

Run with ``PYTHONPATH=src`` (``make golden`` / ``make golden-bless`` set
it); the tier-1 subset, the benchmark's ``counts``, is
``tests/test_golden_counts.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from functools import partial
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden" / "verdicts.json"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def rows(experiment: str) -> dict:
    """*experiment*'s entry: how many rows, and their digest."""
    from repro.experiments import run_experiment

    table = run_experiment(experiment).rows
    return {"rows": len(table), "digest": _digest(repr(table))}


def soak() -> dict:
    from repro.chaos.soak import run_soak

    result = run_soak(episodes=145, master_seed=7, jobs=2)
    return {"episodes": result.completed, "violations": len(result.violations),
            "digest": _digest(json.dumps(result.episodes, sort_keys=True))}


ENTRIES = {name: partial(rows, name) for name in ("E3", "E4-sim", "E21", "E26")}
ENTRIES["soak-7x145"] = soak


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bless", action="store_true", help="rewrite the golden file")
    args = parser.parse_args(argv)
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    new = {name: make() for name, make in ENTRIES.items()}
    moved = [f"{name}.{key}: {old.get(name, {}).get(key)} -> {value}"
             for name, entry in new.items() for key, value in entry.items()
             if old.get(name, {}).get(key) != value]
    print("\n".join(moved) if moved else "golden digests unchanged")
    if args.bless:
        GOLDEN.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
        return 0
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
