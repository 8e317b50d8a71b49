"""E26's fold: the validation table's rows from its sweep points.

A reduced table (two presets, three seeds, 50 ms runs) checks what the
full one in ``benchmarks/test_e26_validation.py`` relies on: rows that
do not depend on how the points were computed, a tolerance for every
(closed form, protocol) the table emits, and a loud failure for a
batch that never finishes.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    ResultCache,
    StreamingSummary,
    replication_seeds,
    run_sweep,
    runner,
)
from repro.experiments.registry import (
    KNOWN_DIVERGENCES,
    VALIDATION_TOLERANCES,
    e26_validation_table,
    validation_points,
    validation_rows,
)
from repro.workloads.scenarios import PRESETS

REDUCED = dict(seed=5, replications=3, duration=0.05, presets=("short_hop", "noisy"))


@pytest.fixture(scope="module")
def serial_rows():
    return e26_validation_table(**REDUCED).rows


def test_rows_do_not_depend_on_jobs_or_cache(serial_rows, tmp_path):
    assert e26_validation_table(**REDUCED, jobs=2).rows == serial_rows
    points = validation_points(**REDUCED)
    run_sweep(points, cache=ResultCache(str(tmp_path)))
    warm = ResultCache(str(tmp_path))
    results = run_sweep(points, cache=warm)
    assert validation_rows(points, results) == serial_rows
    assert (warm.hits, warm.misses) == (len(points), 0)
    # A cell is its seeds' samples folded in seed order.
    first = points[0].spec
    eta = StreamingSummary.from_samples("eta", [
        result["efficiency"] for point, result in zip(points, results)
        if point.spec == first
    ])
    row = serial_rows[0]
    assert (row["preset"], row["protocol"], row["metric"]) == ("short_hop", "lams", "eta")
    assert (row["mean"], row["ci95_half_width"]) == (eta.mean, eta.half_width)


def test_every_emitted_cell_has_a_standard(serial_rows):
    cells = {(r["metric"], r["protocol"]) for r in serial_rows}
    assert cells == set(VALIDATION_TOLERANCES)
    for row in serial_rows:
        assert row["n"] == 3, row
        assert row["tolerance"] == VALIDATION_TOLERANCES[(row["metric"], row["protocol"])]
        assert row["verdict"] in ("within", "known", "outside"), row
    for preset, protocol, metric in KNOWN_DIVERGENCES:
        assert preset in PRESETS and (metric, protocol) in VALIDATION_TOLERANCES


def test_unfinished_batch_raises_naming_its_seed(monkeypatch):
    measure = runner.measure_batch_transfer

    def cut_short(*args, **kwargs):
        return measure(*args, **{**kwargs, "max_time": 0.001})

    monkeypatch.setattr(runner, "measure_batch_transfer", cut_short)
    first = replication_seeds(REDUCED["seed"], 3)[0]
    with pytest.raises(ValueError, match=f"D_low measurement returned NaN for seed {first}$"):
        e26_validation_table(**{**REDUCED, "presets": ("short_hop",)})
