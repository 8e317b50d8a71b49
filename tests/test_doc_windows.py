"""The two violation windows docs/INVARIANTS.md prints, rebuilt.

The doc shows each window cut short: the violation's first two lines,
``...`` for the rest of its detail, the window's header, ``...`` for its
oldest entries, then its newest entries.  Rebuilding them here keeps the
doc from going stale and pins the order a traced run's records come out
in: a sender's runs and releases, a channel's run records, a receiver's
new peaks and held drains, around a violation raised mid-run.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.invariants import HoldingTimeBoundMonitor, MonitorSuite, ReceiverQueueBoundMonitor
from repro.simulator.trace import Tracer
from repro.workloads import preset
from repro.workloads.generators import FiniteBatch
from repro.workloads.scenarios import build_simulation

DOC = Path(__file__).resolve().parent.parent / "docs" / "INVARIANTS.md"


def doc_windows() -> list[list[str]]:
    """The code block after "Two windows, cut short", one list of lines
    per window."""
    text = DOC.read_text()
    start = text.index("```\n", text.index("Two windows, cut")) + 4
    block = text[start:text.index("```", start)]
    return [window.splitlines() for window in block.strip("\n").split("\n\n")]


def violation_lines(name: str) -> list[str]:
    """Seed 7 on ``nominal`` against a 34 ms holding bound, or seed 3 with a
    receiver at 1.5 frame times a frame against a queue bound of 3: 2000
    payloads, the first violation formatted."""
    scenario, seed, monitor = {
        "holding": (preset("nominal"), 7, HoldingTimeBoundMonitor(resolving_period=0.034)),
        "queue": (preset("nominal").with_(processing_time=1.5 * preset("nominal").iframe_time),
                  3, ReceiverQueueBoundMonitor(bound=3)),
    }[name]
    setup = build_simulation(scenario, "lams", seed=seed, tracer=Tracer())
    MonitorSuite(setup.tracer, [monitor])
    FiniteBatch(setup.sim, setup.endpoint_a, 2000).start()
    setup.run(until=1.0)
    return monitor.violations[0].format().splitlines()


@pytest.mark.parametrize("index, name", [(0, "holding"), (1, "queue")])
def test_the_doc_shows_the_window_a_run_gives(index, name):
    shown = doc_windows()[index]
    lines = violation_lines(name)
    newest = len(shown) - 5  # the lines shown after the two elisions
    assert shown == [lines[0], lines[1], "  ...", "  trace window (most recent last):",
                     "    ...", *lines[len(lines) - newest:]]
