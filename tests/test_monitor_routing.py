"""The routed monitor suite against a broadcast reference.

``MonitorSuite`` hands each record only to the monitors that declared
its event and formats the trace window when a violation is recorded.
The reference below is what the suite did before: every record goes to
every monitor's ``on_event`` and every record is formatted on arrival.
Recorded timelines are replayed through both; the violations must be
identical, ``trace_window`` text and ``context`` included.  Both keep
the window rule: a violation's window ends at the violation's own time.

A clean run violates nothing under the bounds ``attach_monitors``
derives, so each timeline is also replayed under deliberately tight
bounds, where most monitors fire.

Everything asserted here is a count or a comparison, never a timing.
"""

from __future__ import annotations

import math
from collections import deque

import pytest

from repro.faults import FaultPlan
from repro.invariants import (
    CheckpointCoverageMonitor,
    DestinationOrderingMonitor,
    FailureLatencyMonitor,
    HoldingTimeBoundMonitor,
    InvariantMonitor,
    MonitorSuite,
    ReceiverQueueBoundMonitor,
    ZeroLossLedger,
    attach_monitors,
)
from repro.simulator.trace import TraceRecord, Tracer
from repro.workloads import preset
from repro.workloads.generators import FiniteBatch
from repro.workloads.scenarios import build_simulation

SCENARIO = preset("nominal").with_(checkpoint_interval=0.005)
FRAMES = 2000
CONTEXT = {"seed": 41, "scenario": "oracle", "episode": 3}
BURSTS = ("gilbert-elliott", {
    "good_ber": 1e-7, "bad_ber": 1e-3, "mean_good": 0.02, "mean_bad": 0.002,
})
# A short outage the link recovers from, then one long enough to
# declare failure; both start while frames are still in flight.
OUTAGES = FaultPlan.from_dict({"name": "oracle", "faults": [
    {"kind": "outage", "start": 0.02, "duration": 0.03, "direction": "both"},
    {"kind": "outage", "start": 0.15, "duration": 0.4, "direction": "both"},
]})


class BroadcastSuite(MonitorSuite):
    """The reference: every record to every monitor, formatted eagerly."""

    def __init__(self, *args, window=40, **kwargs):
        super().__init__(*args, window=window, **kwargs)
        self._lines = deque(maxlen=window)

    def __call__(self, record):
        self._lines.append((record.time, record.format()))
        for monitor in self.monitors:
            monitor.on_event(record)

    def window_snapshot(self, until=math.inf):
        lines = list(self._lines)
        while lines and lines[-1][0] > until:
            lines.pop()
        if self._lines and not lines:
            return (f"trace window had moved past t={until:.6f}; "
                    f"oldest retained record t={self._lines[0][0]:.6f}",)
        return tuple(line for _, line in lines)


def simulate(seed, until=1.5, **build):
    setup = build_simulation(SCENARIO, "lams", seed=seed, **build)
    FiniteBatch(setup.sim, setup.endpoint_a, FRAMES).start()
    setup.run(until=until)
    return setup


def record(**build):
    return simulate(tracer=Tracer(record_timeline=True), **build).tracer.timeline()


def duplicate_delivering_destination():
    """``tests/test_invariants.py``'s broken double, as a timeline."""
    tracer = Tracer(record_timeline=True)
    for time, seq in ((0.1, 0), (0.2, 1), (0.3, 1), (0.4, 2), (0.5, 4)):
        tracer.emit(time, "dest", "dest_deliver", flow="a", seq=seq)
        tracer.emit(time, "b", "payloads_delivered", times=[time], payloads=[("pkt", seq)])
    return tracer.records


def harness_monitors(plan):
    """The monitors ``attach_monitors`` arms, with its derived bounds."""
    setup = build_simulation(SCENARIO, "lams", seed=0)
    suite = attach_monitors(setup, SCENARIO, fault_plan=plan)
    suite.detach()
    return suite.monitors


def tight_monitors(plan):
    """Bounds no real run meets, so that recorded clean runs violate them."""
    return [
        ZeroLossLedger(),  # finalized with nothing held: in-flight is "lost"
        DestinationOrderingMonitor(dlc_no_duplicates=True),
        CheckpointCoverageMonitor(cumulation_depth=50),
        ReceiverQueueBoundMonitor(bound=0),
        HoldingTimeBoundMonitor(resolving_period=1e-4),
        FailureLatencyMonitor(
            silence_windows=[(0.15, 0.55)], risk_windows=[],
            detection_bound=1e-3, declared_bound=2e-3, guard=0.0,
        ),
    ]


def replay(suite_class, monitors, records):
    tracer = Tracer()
    suite = suite_class(tracer, monitors, context=CONTEXT)
    (listener,) = tracer.listeners
    for entry in records:
        listener(entry)
    suite.finalize(records[-1].time)
    return [(v.invariant, v.time, v.message, v.detail, v.trace_window, v.context)
            for v in suite.violations]


@pytest.fixture(scope="module")
def verdicts():
    """``(timeline, bounds) -> [(routed, reference), ...]``, one pair for
    the whole timeline and one for its first half (stopping mid-run
    leaves frames in flight for the ledger to miss)."""
    timelines = {
        "clean": (record(seed=5), None),
        "bursty": (record(seed=41, error_model=BURSTS), None),
        "outages": (record(seed=9, fault_plan=OUTAGES), OUTAGES),
        "duplicates": (duplicate_delivering_destination(), None),
    }
    return {
        (name, bounds): [
            tuple(replay(suite, bounds(plan), part)
                  for suite in (MonitorSuite, BroadcastSuite))
            for part in (records, records[:len(records) // 2])
        ]
        for name, (records, plan) in timelines.items()
        for bounds in (harness_monitors, tight_monitors)
    }


@pytest.mark.parametrize("bounds", [harness_monitors, tight_monitors])
@pytest.mark.parametrize("name", ["clean", "bursty", "outages", "duplicates"])
def test_routed_suite_reports_what_broadcast_reports(verdicts, name, bounds):
    for routed, reference in verdicts[name, bounds]:
        assert routed == reference
        if bounds is tight_monitors:
            assert routed, "tight bounds must fire, or the oracle proves nothing"
            assert all(window and context == CONTEXT
                       for *_, window, context in routed)


def test_tight_bounds_exercise_every_monitor(verdicts):
    fired = {
        violation[0]
        for (_, bounds), pairs in verdicts.items() if bounds is tight_monitors
        for routed, _ in pairs for violation in routed
    }
    assert fired == {monitor.name for monitor in tight_monitors(None)}


class Spy(InvariantMonitor):
    def __init__(self, events=None):
        super().__init__()
        self.events = events
        self.seen = []

    def on_event(self, record):
        self.seen.append(record.event)


def test_monitor_without_declared_events_sees_every_record():
    tracer = Tracer()
    everything, some = Spy(), Spy(events=frozenset({"b", "never"}))
    MonitorSuite(tracer, [everything, some, ReceiverQueueBoundMonitor(4)])
    emitted = ["a", "b", "rxqueue_peak", "c", "b"]
    for index, event in enumerate(emitted):
        tracer.emit(float(index), "src", event)
    assert everything.seen == emitted
    assert some.seen == ["b", "b"]


def test_clean_monitored_run_formats_no_record(monkeypatch):
    calls = []
    original = TraceRecord.format
    monkeypatch.setattr(
        TraceRecord, "format",
        lambda self: calls.append(self) or original(self),
    )
    setup = simulate(seed=5, run_with_invariants=True)
    suite = setup.finalize_monitors()
    assert suite.ok and len(setup.delivered) == FRAMES
    assert calls == []
    # ...and the window is still there for the violation that needs it.
    assert len(suite.window_snapshot()) == 40 == len(calls)


def silence_nobody_noticed(later_records):
    """One silence window the sender never reacts to, then unrelated traffic."""
    tracer = Tracer()
    monitor = FailureLatencyMonitor(
        silence_windows=[(0.5, 0.9)], risk_windows=[],
        detection_bound=0.05, declared_bound=10.0, guard=0.01,
    )
    suite = MonitorSuite(tracer, [monitor], context=CONTEXT)
    tracer.emit(0.40, "a", "iframe_sent", seq=0)
    tracer.emit(0.55, "a", "iframe_sent", seq=1)
    for index in range(later_records):
        tracer.emit(2.0 + 0.01 * index, "a", "iframe_sent", seq=2 + index)
    suite.finalize(3.0)
    (violation,) = suite.violations
    assert violation.invariant == "failure-latency" and violation.time == pytest.approx(0.56)
    return violation


def test_end_of_run_violation_keeps_the_window_at_its_own_time():
    """A monitor reporting from ``finalize`` stamps the instant the bound
    ran out; records from seconds later are not its trace window."""
    violation = silence_nobody_noticed(later_records=10)
    assert [line.split()[0] for line in violation.trace_window] == ["0.400000", "0.550000"]


def test_window_that_moved_past_the_violation_says_so():
    violation = silence_nobody_noticed(later_records=60)
    assert violation.trace_window == (
        "trace window had moved past t=0.560000; oldest retained record t=2.200000",)
    assert "trace window had moved past" in violation.format()


def test_violation_from_on_event_keeps_records_stamped_ahead_of_it():
    """Records stamped later than the one that raised the violation (no
    source promises stamps in emission order) were emitted before it and
    belong to its window."""
    tracer = Tracer()
    suite = MonitorSuite(tracer, [ReceiverQueueBoundMonitor(bound=0)])
    tracer.emit(0.20, "a", "iframe_sent", seq=0)
    tracer.emit(0.30, "a", "iframe_sent", seq=1)
    tracer.emit(0.10, "b.rx", "rxqueue_peak", depth=1)
    (violation,) = suite.violations
    assert violation.time == 0.10 and len(violation.trace_window) == 3
