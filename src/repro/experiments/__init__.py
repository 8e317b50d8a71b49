"""Experiment harness: runners, the registry (``experiments list``),
statistical replication, and ``reporting`` (table rendering and the
full evaluation report)."""

from ..simulator.trace import StreamingSummary
from . import runner
from .parallel import (
    ExperimentPoint,
    MeasurePoint,
    MeasureSpec,
    ResultCache,
    SweepStop,
    parallel_replicate,
    parallel_replicate_all,
    replication_seeds,
    run_experiments_parallel,
    run_sweep,
)
from .registry import (
    REGISTRY,
    SIMULATED_EXPERIMENTS,
    ExperimentResult,
    default_seed,
    experiment_ids,
    run_experiment,
)
from .reporting import format_value, render_table

__all__ = [
    "REGISTRY",
    "SIMULATED_EXPERIMENTS",
    "ExperimentPoint",
    "ExperimentResult",
    "MeasurePoint",
    "MeasureSpec",
    "ResultCache",
    "StreamingSummary",
    "SweepStop",
    "default_seed",
    "experiment_ids",
    "format_value",
    "parallel_replicate",
    "parallel_replicate_all",
    "render_table",
    "replication_seeds",
    "run_experiment",
    "run_experiments_parallel",
    "run_sweep",
    "runner",
]
