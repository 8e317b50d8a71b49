"""The routed tracer against the one-record-per-emit reference.

``tests/tracer_reference.py`` holds the reference tracer and the
record-fed suite and recovery metrics.  Generated histories attach and
detach plain listeners, monitor suites and ``RecoveryMetrics``, toggle
the timeline, emit events some hook reads and events none does, and
raise from a listener; after every step each listener must have seen
what its twin on the reference tracer saw, and ``active`` and the
timeline must agree.  Then the monitored path's budget, as exact counts
(that it formats nothing until the window is read is
``tests/test_monitor_routing.py::test_clean_monitored_run_formats_no_record``).

Everything asserted here is a count or a comparison, never a timing.
"""

from __future__ import annotations

from dataclasses import astuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.simulator.trace as trace
from repro.faults.metrics import RecoveryMetrics
from repro.invariants import InvariantMonitor, MonitorSuite, ReceiverQueueBoundMonitor
from repro.simulator.trace import Router, TraceRecord, Tracer
from repro.workloads import preset
from repro.workloads.generators import FiniteBatch
from repro.workloads.scenarios import build_simulation

from .test_monitor_routing import OUTAGES, record
from .tracer_reference import ReferenceRecoveryMetrics, ReferenceSuite, ReferenceTracer


class Boom(Exception):
    pass


class Tape:
    """A plain record listener; one that raises does so on ``boom``."""

    def __init__(self, raises: bool) -> None:
        self.raises = raises
        self.records: list[TraceRecord] = []

    def __call__(self, record: TraceRecord) -> None:
        if self.raises and record.event == "boom":
            raise Boom
        self.records.append(record)

    def seen(self) -> list[tuple]:
        return [(r.time, r.source, r.event, r.detail) for r in self.records]


class Handlers(InvariantMonitor):
    """Per-event handlers for ``a`` and ``b``; raises on ``boom``."""

    name = "handlers"

    def __init__(self) -> None:
        self.log: list = []
        super().__init__({"a": self.log.append, "b": self.log.append,
                          "boom": self._boom})

    def _boom(self, entry) -> None:
        raise Boom


class Records(InvariantMonitor):
    """Reads records through ``on_event``: all of them, or *events*."""

    name = "records"

    def __init__(self, events=None) -> None:
        super().__init__()
        self.events = events
        self.log: list = []

    def on_event(self, record: TraceRecord) -> None:
        self.log.append((record.time, record.source, record.event, record.detail))


def monitors() -> list:
    return [Handlers(), Records(), Records(frozenset({"b", "c", "never"})),
            ReceiverQueueBoundMonitor(bound=0)]


def suite_state(suite) -> tuple:
    return (
        [getattr(m, "log", None) for m in suite.monitors],
        [(v.invariant, v.time, v.message, v.detail, v.trace_window)
         for m in suite.monitors for v in m.violations],
        suite.window_snapshot(),
    )


def metrics_state(metrics) -> tuple:
    return (
        [astuple(outage) for outage in metrics.outages],
        metrics.request_naks, metrics.enforced_naks, metrics.recoveries,
        metrics.failures_declared, metrics.frames_lost_total,
    )


class Twins:
    """One routed tracer and one reference tracer, driven in step."""

    def __init__(self, timeline: bool) -> None:
        self.tracer = Tracer(record_timeline=timeline)
        self.reference = ReferenceTracer(record_timeline=timeline)
        self.pairs: list[tuple[str, object, object]] = []  # ever attached
        self.attached: list[int] = []
        self.time = 0.0

    def attach(self, kind: str) -> None:
        if kind in ("plain", "raiser"):
            ours, theirs = Tape(kind == "raiser"), Tape(kind == "raiser")
            self.tracer.listeners.append(ours)
            self.reference.listeners.append(theirs)
        elif kind == "suite":
            ours = MonitorSuite(self.tracer, monitors())
            theirs = ReferenceSuite(self.reference, monitors())
        else:
            ours, theirs = RecoveryMetrics(self.tracer), ReferenceRecoveryMetrics(self.reference)
        self.attached.append(len(self.pairs))
        self.pairs.append((kind, ours, theirs))

    def detach(self, pick: int) -> None:
        if not self.attached:
            return
        kind, ours, theirs = self.pairs[self.attached.pop(pick % len(self.attached))]
        if kind in ("plain", "raiser"):
            self.tracer.listeners.remove(ours)
            self.reference.listeners.remove(theirs)
        else:
            ours.detach()
            theirs.detach()

    def timeline(self, on: bool) -> None:
        self.tracer.record_timeline = on
        self.reference.record_timeline = on

    def emit(self, event: str, source: str, number: int) -> None:
        self.time += 0.01
        detail = {"seq": number, "depth": number, "kind": "outage",
                  "index": number % 2, "control": number % 3 == 0,
                  "times": [self.time - 0.004 * k for k in range(number, -1, -1)]}
        before = [len(ours.records) for kind, ours, _ in self.pairs if kind in ("plain", "raiser")]
        timeline_before = len(self.tracer.records)
        raised = []
        for tracer in (self.tracer, self.reference):
            try:
                tracer.emit(self.time, source, event, **dict(detail))
            except Boom:
                raised.append(tracer)
        assert len(raised) in (0, 2), "one side raised, the other did not"
        # One record per emit, shared by the timeline and every plain listener.
        tapes = [ours for kind, ours, _ in self.pairs if kind in ("plain", "raiser")]
        got = [tape.records[-1] for tape, n in zip(tapes, before) if len(tape.records) > n]
        if len(self.tracer.records) > timeline_before:
            got.append(self.tracer.records[-1])
        assert all(r is got[0] for r in got)

    def check(self) -> None:
        assert self.tracer.active is self.reference.active
        assert [astuple(r) for r in self.tracer.records] == \
               [astuple(r) for r in self.reference.records]
        for kind, ours, theirs in self.pairs:
            if kind in ("plain", "raiser"):
                assert ours.seen() == theirs.seen()
            elif kind == "suite":
                assert suite_state(ours) == suite_state(theirs)
            else:
                assert metrics_state(ours) == metrics_state(theirs)


EVENTS = ["a", "b", "c", "boom", "rxqueue_peak", "iframe_sent", "fault_start",
          "fault_end", "frame_lost_outage", "frames_delivered", "checkpoint_timeout",
          "request_nak_sent", "link_failure_declared"]

steps = st.one_of(
    st.tuples(st.just("attach"), st.sampled_from(["plain", "raiser", "suite", "metrics"])),
    st.tuples(st.just("detach"), st.integers(0, 10)),
    st.tuples(st.just("timeline"), st.booleans()),
    st.tuples(st.just("emit"), st.sampled_from(EVENTS),
              st.sampled_from(["faults", "a", "b.rx"]), st.integers(0, 5)),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(timeline=st.booleans(), history=st.lists(steps, min_size=1, max_size=40))
def test_listeners_see_what_the_reference_tracer_shows_them(timeline, history):
    twins = Twins(timeline)
    for step in history:
        getattr(twins, step[0])(*step[1:])
        twins.check()


def test_recovery_metrics_match_the_record_fed_reference():
    """The ``OUTAGES`` timeline replayed: every outage and counter equal."""
    routed, reference = Tracer(), ReferenceTracer()
    ours, theirs = RecoveryMetrics(routed), ReferenceRecoveryMetrics(reference)
    records = record(seed=9, fault_plan=OUTAGES)
    for r in records:
        routed.emit(r.time, r.source, r.event, **r.detail)
        reference.emit(r.time, r.source, r.event, **r.detail)
    assert metrics_state(ours) == metrics_state(theirs)
    assert len(ours.outages) == 2 and ours.failures_declared >= 1
    assert ours.outages[0].time_to_enforced_nak is not None


def test_reordering_listeners_reorders_the_hooks():
    order = []

    class Named(Router):
        def __init__(self, name):
            self.routes = {}
            self.unrouted = (lambda entry: order.append(name),)

    tracer = Tracer()
    tracer.listeners.extend([Named("x"), Named("y")])
    tracer.emit(0.0, "s", "e")
    tracer.listeners.reverse()
    tracer.emit(0.0, "s", "e")
    assert order == ["x", "y", "y", "x"]


# -- the monitored path's budget, as exact counts ------------------------------

PAYLOADS = 2000

# Seed 7, `nominal`, 2000 payloads, 2 simulated seconds: what the
# tracer emitted while the suite listened, event by event.  Routing
# changes who is called, never what is emitted.  The sender traces a run
# and a release, not a frame (41 runs, one more than before a run gave
# its undeparted tail back, and 17 releases for 2018 I-frames;
# `tests/test_trace_runs.py` expands them), and a stretch of accepted
# packets, not a packet (the batch's first packet starts the idle channel,
# the other 1999 enter in one step); the receiver traces only new queue
# peaks.  The receiving end traces a run too: the forward channel's 2018
# I-frames land as 41 `frames_delivered` records, beside one for each of
# the 396 checkpoints that landed, and the 2000 drains are 17
# `payloads_delivered` records, one per checkpoint interval that drained.
EMITTED = {
    "checkpoint_sent": 400, "error_logged": 18, "frames_delivered": 41 + 396,
    "iframe_corrupted": 18, "iframes_released": 17, "iframes_sent": 41,
    "payloads_accepted": 2, "payloads_delivered": 17, "requeue": 18,
    "rxqueue_peak": 1,
}
CHECKPOINTS_LANDED = 396
IFRAMES = 2018


def monitored_run(monkeypatch, plain_listener: bool = False):
    """A clean monitored run; returns (emits, records built, suite)."""
    built = []

    class Counted(TraceRecord):
        __slots__ = ()

        def __init__(self, *args):
            built.append(1)
            TraceRecord.__init__(self, *args)

    monkeypatch.setattr(trace, "TraceRecord", Counted)
    setup = build_simulation(preset("nominal"), "lams", seed=7, run_with_invariants=True)
    tracer = setup.tracer
    if plain_listener:
        tracer.listeners.append(lambda record: None)
    emitted: dict[str, int] = {}
    emit = tracer.emit

    def counting(time, source, event, **detail):
        if tracer.active:
            emitted[event] = emitted.get(event, 0) + 1
        emit(time, source, event, **detail)

    tracer.emit = counting
    FiniteBatch(setup.sim, setup.endpoint_a, PAYLOADS).start()
    setup.run(until=2.0)
    suite = setup.finalize_monitors()
    assert suite.ok and len(setup.delivered) == PAYLOADS
    return emitted, len(built), suite


def test_monitored_run_emits_the_same_events_and_builds_no_record(monkeypatch):
    emitted, built, _ = monitored_run(monkeypatch)
    assert emitted == EMITTED
    # 0.48 records an I-frame: 2.45 when the link and the receiver
    # traced every frame, 3.44 when the sender traced every accepted
    # packet too, 6.39 when it traced every frame, 0.49 when each
    # retransmission was a run of its own.  No event is per frame now:
    # 796 records are the checkpoints' (each sent, and each landed), and
    # the other 173 are 0.09 an I-frame.
    assert sum(emitted.values()) == 969 <= 0.5 * IFRAMES
    per_checkpoint = emitted["checkpoint_sent"] + CHECKPOINTS_LANDED
    assert sum(emitted.values()) - per_checkpoint <= 0.1 * IFRAMES
    assert built == 0


def test_one_plain_listener_costs_exactly_one_record_per_emit(monkeypatch):
    emitted, built, _ = monitored_run(monkeypatch, plain_listener=True)
    assert emitted == EMITTED
    assert built == sum(EMITTED.values())
