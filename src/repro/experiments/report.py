"""Full evaluation report: every experiment, one document.

``generate_report()`` runs the complete registry (``experiments
list``: model transcriptions and simulations) and renders one
plain-text document — the reproduction's equivalent of the paper's evaluation section,
regenerated from scratch on demand.  Exposed on the CLI as
``python -m repro report``.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from .registry import REGISTRY, run_experiment
from .reporting import render_table

__all__ = ["generate_report", "HEADER"]

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
