"""The repo benchmark's exact ``counts``, held in tier-1.

``python3 -m bench`` prints a ``counts`` line per workload: events,
frames, payloads, retransmissions and the like, which depend only on the
seed and the window and never on the host.  ``tests/golden/des_counts.json``
holds that line for the four discrete-event workloads at seed 7 and a
short window, built and run through ``bench.workloads`` exactly as the
benchmark runs them (nothing under ``bench/`` is changed here).  A change
that moves a count by design re-blesses it and says which key moved:

    make golden-bless

rewrites the file and prints every key that moved, old -> new.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from bench.workloads import make_workload

SEED = 7
SECONDS = 0.05  # the window's --seconds: ~1 s of tier-1 wall for all four
WORKLOADS = ("sat_clean", "sat_bursty", "sat_monitored", "constellation_1000")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "des_counts.json")


def counts(name: str) -> dict[str, int]:
    """The ``counts`` of one benchmark run of *name* (no timing kept)."""
    workload = make_workload(name, SEED, SECONDS)
    workload.build()
    workload.warm_up()
    workload.run_window(1.0)
    _, failed, reasons = workload.finish()
    assert failed == 0 and not reasons, (name, failed, reasons)
    return workload.counts()


def _golden() -> dict[str, dict[str, int]]:
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", WORKLOADS)
def test_counts_match_the_golden_file(name):
    assert counts(name) == _golden()[name]


def bless() -> None:
    """Rewrite the golden file; print each key that moved."""
    try:
        old = _golden()
    except FileNotFoundError:
        old = {}
    new = {name: counts(name) for name in WORKLOADS}
    for name in WORKLOADS:
        for key, value in new[name].items():
            before = old.get(name, {}).get(key)
            if before != value:
                print(f"{name}.{key}: {before} -> {value}")
    with open(GOLDEN, "w") as handle:
        json.dump(new, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    sys.exit(bless())
