"""Experiment output: fixed-width tables and the full evaluation report.

The benchmark harness prints the paper-shaped series as plain-text
tables so results are readable straight from ``pytest -s`` output and
diffable across runs.  ``generate_report()`` runs the complete registry
(``experiments list``: model transcriptions and simulations) and
renders one plain-text document — the reproduction's equivalent of the
paper's evaluation section, regenerated from scratch on demand.
Exposed on the CLI as ``python -m repro report``.
"""

from __future__ import annotations

import math
import time
from typing import Any, Optional, Sequence

from .registry import REGISTRY, run_experiment

__all__ = ["HEADER", "format_value", "generate_report", "render_table"]


def format_value(value: Any, precision: int = 4) -> str:
    """Compact human rendering of one cell."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value:  # nan
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if value == 0:
            return "0"
        return f"{value:.{precision}g}"
    return str(value)


def render_table(
    rows: Sequence[dict[str, Any]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
    precision: int = 4,
) -> str:
    """Render dict-rows as an aligned fixed-width table."""
    if not rows:
        return f"{title}\n(empty)" if title else "(empty)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered = [
        {col: format_value(row.get(col, ""), precision) for col in columns}
        for row in rows
    ]
    widths = {
        col: max(len(col), *(len(r[col]) for r in rendered)) for col in columns
    }
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.rjust(widths[col]) for col in columns)
    lines.append(header)
    lines.append("  ".join("-" * widths[col] for col in columns))
    for r in rendered:
        lines.append("  ".join(r[col].rjust(widths[col]) for col in columns))
    return "\n".join(lines)


HEADER = """\
================================================================================
 The LAMS-DLC ARQ Protocol (Ward & Choi, 1991) — regenerated evaluation
================================================================================

Every series below is produced by this library: the closed-form model
(repro.analysis) transcribes Section 4, and the measured rows come from
the discrete-event simulator (repro.simulator) executing the LAMS-DLC
and SR-HDLC protocol implementations.  Experiment ids map to DESIGN.md;
paper-claim vs measured commentary lives in EXPERIMENTS.md.
"""


def generate_report(
    experiment_ids: Optional[Sequence[str]] = None,
    include_timing: bool = True,
) -> str:
    """Run experiments and render the full report text.

    Parameters
    ----------
    experiment_ids:
        Subset to run (default: the whole registry, in id order).
    include_timing:
        Append per-experiment wall-clock runtimes.
    """
    chosen = list(experiment_ids) if experiment_ids is not None else list(REGISTRY)
    unknown = [eid for eid in chosen if eid not in REGISTRY]
    if unknown:
        raise KeyError(f"unknown experiment ids: {unknown}")

    sections = [HEADER]
    timings: list[tuple[str, float]] = []
    for eid in chosen:
        started = time.perf_counter()
        result = run_experiment(eid)
        elapsed = time.perf_counter() - started
        timings.append((eid, elapsed))
        sections.append(
            render_table(result.rows, title=f"[{result.experiment_id}] {result.title}")
        )
        if result.notes:
            sections.append(f"note: {result.notes}")
        sections.append("")
    if include_timing:
        sections.append("-" * 40)
        sections.append("experiment runtimes:")
        for eid, elapsed in timings:
            sections.append(f"  {eid:8s} {elapsed:8.2f} s")
    return "\n".join(sections)
