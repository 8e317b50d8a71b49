"""Benchmark-suite configuration.

Each benchmark file regenerates one evaluation series of the paper
(the registry, ``experiments list``; see DESIGN.md), prints the series
as a table, and asserts the paper's qualitative shape — who wins, which
direction the curve moves, where the structural results (finite vs
infinite buffer, bounded vs unbounded numbering) land.

Simulation-backed experiments run exactly once per benchmark round via
``benchmark.pedantic``; the timing numbers measure the harness itself,
while the scientific output is the printed table (run with ``-s``).
"""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentResult, render_table


def emit(result: ExperimentResult, columns=None) -> None:
    """Print an experiment's table (visible with ``pytest -s``)."""
    print()
    print(render_table(result.rows, columns=columns,
                       title=f"[{result.experiment_id}] {result.title}"))
    if result.notes:
        print(f"  note: {result.notes}")


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under pytest-benchmark timing."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
