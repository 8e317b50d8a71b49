"""Run-shaped trace records against the per-frame stream they replace.

The LAMS sender emits one ``iframes_sent`` per run, one
``iframes_released`` per release and one ``payloads_accepted`` per
stretch of packets accepted together; a channel one ``frames_delivered``
per run that lands; the receiver one ``payloads_delivered`` per
checkpoint interval's drains, and only new receive-queue peaks
(``rxqueue_peak``).  Held here:

- the records of nine seeded monitored runs at the preset's window —
  nominal, Gilbert–Elliott bursts, outages, a stressed receiver, zero
  duplication, a saturated source, a run cut short — expand
  (``tests/trace_runs.py``'s normal form), source by source, to the
  records the specification (``tests/spec/``) writes a frame at a time
  on a twin of the link, acceptances and the receiving end's
  ``deliver`` / ``payload_delivered`` included;
- generated runs cut into slices expand, after ``Tracer.settle()`` at
  each cut, to exactly what the receivers heard and delivered; and the
  records the tracer holds back reach the ledger ahead of a reclaim;
- ``HoldingTimeBoundMonitor`` reading a release record reports what the
  per-frame handler reported for each of its frames, ``(invariant,
  time, message, detail)`` included;
- ``ReceiverQueueBoundMonitor`` on a stressed receiver trips at the
  same ``(time, depth)`` as every queued frame's own depth, handed over
  one at a time, says it must — raised at the receiver's next settle —
  and its window shows the arrivals and drains held when it tripped;
- a listener attached mid-run hears every run decided after it;
- a traced receiver's records, and its channel's, go out before its
  next ``checkpoint_sent``, and the runs a channel holds are those
  landing within a checkpoint interval of now or later.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LamsDlcConfig
from repro.core.endpoint import make_endpoint_pair
from repro.core.frames import IFrame
from repro.core.receiver import LamsReceiver
from repro.faults import FaultPlan
from repro.faults.plan import LinkOutage
from repro.invariants import (
    DestinationOrderingMonitor,
    HoldingTimeBoundMonitor,
    MonitorSuite,
    ReceiverQueueBoundMonitor,
    ZeroLossLedger,
)
from repro.session import LinkSessionManager, PassSchedule
from repro.simulator import Simulator
from repro.simulator.trace import TraceRecord, Tracer
from repro.workloads import preset
from repro.workloads.generators import FiniteBatch, SaturatedSource
from repro.workloads.scenarios import build_simulation

from .conftest import spec_twin
from .test_session_faults import make_link
from .trace_runs import DELIVERIES, Split, normal

BURSTS = ("gilbert-elliott", {
    "good_ber": 1e-7, "bad_ber": 1e-3, "mean_good": 0.02, "mean_bad": 0.002,
})
OUTAGES = FaultPlan.from_dict({"name": "runs", "faults": [
    {"kind": "outage", "start": 0.03, "duration": 0.004, "direction": "both"},
    {"kind": "outage", "start": 0.09, "duration": 0.02, "direction": "forward"},
]})

# name -> (build arguments, payloads, sent, released, released with
# retx > 0): three seeded monitored runs.  ``outages`` read 1601 until a
# run began to give its undeparted tail back: 1626 is the specification's
# count, and a window of one's.
STREAMS = {
    "nominal": (dict(seed=7), 2000, 2018, 2000, 18),
    "bursty": (dict(seed=41, error_model=BURSTS), 2000, 2120, 2000, 120),
    "outages": (dict(seed=9, fault_plan=OUTAGES), 4000, 5654, 4000, 1626),
}


def _runs_taken(receiver: LamsReceiver) -> list[tuple[float, int, bool]]:
    """``(arrival, sequence, corrupted)`` of every I-frame *receiver* takes
    through the run path, which the channel's handler never sees; the
    arrivals ``hand_back`` returns to the channel leave the list (they land
    through the handler)."""
    taken: list[tuple[float, int, bool]] = []
    on_run, hand_back = LamsReceiver.on_run, LamsReceiver.hand_back

    def taking(self, times, frames, verdicts):
        first = self.sim._sequence + 1
        taken.extend((when, first + k, bool(corrupted))
                     for k, (when, corrupted) in enumerate(zip(times, verdicts)))
        on_run(self, times, frames, verdicts)

    def handing_back(self):
        self._settle_due()
        back = {run.first + k for run in self._pending for k in range(run.next, len(run.times))}
        hand_back(self)
        taken[:] = [entry for entry in taken if entry[1] not in back]

    receiver.__class__ = type("Observed", (LamsReceiver,), {
        "__slots__": (), "on_run": taking, "hand_back": handing_back})
    return taken


def as_specified(made, drive, *listeners):
    """``made()``, monitored, driven by *drive* (engine, endpoint A) with
    *listeners* on its tracer: its monitors must pass and its records,
    source by source, be those the specification's twin of a fresh
    ``made()`` writes driven alike.  The setup, what *drive* returned,
    and the records' events."""
    setup, records = made(), []
    setup.tracer.listeners.extend(listeners)
    setup.tracer.listeners.append(lambda record: records.append(
        (record.time, record.source, record.event, record.detail)))
    driven = drive(setup.sim, setup.endpoint_a)
    assert setup.finalize_monitors().ok
    engine, a, _ = spec_twin(made())
    drive(engine, a)
    assert normal(records) == normal(engine.log)
    return setup, driven, [record[2] for record in records]


def _batch(payloads: int, until: float):
    def drive(sim, endpoint):
        FiniteBatch(sim, endpoint, payloads).start()
        sim.run(until=until)
    return drive


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_expanded_stream_is_the_per_frame_stream(name):
    """Expanded frame by frame, every source's records are the ones the
    specification writes a frame at a time, acceptances included."""
    build, payloads, sent, released, retransmitted = STREAMS[name]
    scenario = preset("nominal")
    if name == "outages":
        scenario = scenario.with_(checkpoint_interval=0.005)
    split = Split()
    setup, _, events = as_specified(
        lambda: build_simulation(scenario, "lams", run_with_invariants=True, **build),
        _batch(payloads, 1.0), split)
    assert len(setup.delivered) == payloads
    frames = split.sent["nominal.A.tx"]
    releases = [entry[3] for entry in split.others if entry[2] == "iframes_released"]
    assert (len(frames), sum(len(detail["seqs"]) for detail in releases)) == (sent, released)
    assert sum(count > 0 for detail in releases for count in detail["retx"]) == retransmitted
    assert events.count("payloads_accepted") == 2


def test_a_saturated_sources_acceptances_are_the_per_packet_stream():
    """Eight refills over 0.1 s of a saturated source: each is one
    record (the first two, as the channel starts idle), and every source's
    records, expanded, are the specification's."""
    scenario = preset("nominal")

    def drive(sim, endpoint):
        source = SaturatedSource(
            sim, endpoint, backlog_fn=lambda: endpoint.sender.pending_count,
            low_water=256, chunk=512, poll_interval=scenario.iframe_time * 64,
        )
        source.start()
        sim.run(until=0.1)
        source.stop()
        sim.run(until=0.3)
        return source

    setup, source, events = as_specified(
        lambda: build_simulation(scenario, "lams", seed=7, run_with_invariants=True), drive)
    assert len(setup.delivered) == source.offered == 4096
    assert events.count("payloads_accepted") == 9
    # 550 while each retransmission was a run, 515 while a window of new
    # frames paced from the product and could arm a wake-up an ulp late,
    # 501 until a run gave its undeparted tail back.
    assert setup.sim.event_count == 519


# -- holding time: one release record against per-frame checks -----------------


def per_frame_verdicts(monitor, time, seqs, holdings, retx):
    """What the monitor reported when each frame was its own record."""
    found = []
    for seq, holding, count in zip(seqs, holdings, retx):
        allowance = ((count + 1) * monitor.resolving_period
                     + monitor._fault_overlap(time - holding, time) + monitor.guard)
        if holding > allowance:
            found.append((
                "holding-time-bound", time,
                f"frame seq={seq} held {holding:.6f}s, above the allowance "
                f"{allowance:.6f}s ({count} retransmission(s))",
                dict(holding=holding, allowance=allowance, retx=count, seq=seq),
            ))
    return found


def released(monitor, time, seqs, holdings, retx):
    tracer = Tracer()
    suite = MonitorSuite(tracer, [monitor])
    tracer.emit(time, "a.tx", "iframes_released", seqs=seqs, holdings=holdings, retx=retx)
    return [(v.invariant, v.time, v.message, v.detail) for v in suite.violations]


def test_over_held_frame_mid_release_fires_as_it_did_per_frame():
    monitor = HoldingTimeBoundMonitor(resolving_period=0.01, guard=0.001)
    seqs, holdings, retx = [7, 8, 9, 10, 11], [0.005, 0.006, 0.0125, 0.007, 0.008], [0] * 5
    verdicts = released(monitor, 0.5, seqs, holdings, retx)
    assert verdicts == [(
        "holding-time-bound", 0.5,
        "frame seq=9 held 0.012500s, above the allowance 0.011000s (0 retransmission(s))",
        dict(holding=0.0125, allowance=0.011, retx=0, seq=9),
    )]
    assert verdicts == per_frame_verdicts(monitor, 0.5, seqs, holdings, retx)


def test_fault_overlap_still_excuses_a_frame_over_its_base_allowance():
    windows = [(0.49, 0.495)]
    monitor = HoldingTimeBoundMonitor(resolving_period=0.01, fault_windows=windows, guard=0.001)
    seqs, holdings, retx = [1, 2, 3], [0.002, 0.0135, 0.017], [0, 0, 0]
    # Frame 2 is over R + guard but inside R + guard + 5 ms of outage;
    # frame 3 is over both.
    verdicts = released(monitor, 0.5, seqs, holdings, retx)
    assert [v[3]["seq"] for v in verdicts] == [3]
    assert verdicts == per_frame_verdicts(monitor, 0.5, seqs, holdings, retx)


@settings(max_examples=200, deadline=None)
@given(
    frames=st.lists(st.tuples(st.floats(0.0, 0.05), st.integers(0, 3)), min_size=1, max_size=12),
    windows=st.lists(st.tuples(st.floats(0.4, 0.5), st.floats(0.0, 0.02)), max_size=3),
    period=st.sampled_from([0.003, 0.01, 1 / 30]),
    guard=st.sampled_from([0.0, 0.001, 1 / 300]),
)
def test_release_record_reports_what_per_frame_records_did(frames, windows, period, guard):
    monitor = HoldingTimeBoundMonitor(
        resolving_period=period, guard=guard,
        fault_windows=[(start, start + length) for start, length in windows],
    )
    seqs = list(range(100, 100 + len(frames)))
    holdings, retx = [h for h, _ in frames], [r for _, r in frames]
    assert released(monitor, 0.5, seqs, holdings, retx) == per_frame_verdicts(
        monitor, 0.5, seqs, holdings, retx)


# -- receive queue: new peaks against every queued frame's depth ---------------


def stressed_receiver(bounds, one_at_a_time=False):
    """A receiver slower than the line (t_proc = 1.5 t_f): its queue
    builds until Stop-Go throttles the sender.  The monitors, each
    violation's ``(violation, clock when it was raised)``, the clock at
    each of the receiver's settles, and — frames handed over one at a
    time, the run path unwired — every I-frame's ``(arrival, depth)`` once
    it queued."""
    base = preset("nominal")
    scenario = base.with_(processing_time=1.5 * base.iframe_time)
    setup = build_simulation(scenario, "lams", seed=3, tracer=Tracer())
    monitors = [ReceiverQueueBoundMonitor(bound=bound) for bound in bounds]
    MonitorSuite(setup.tracer, monitors)
    raised = []

    def violate(monitor, *args, **detail):
        violation = ReceiverQueueBoundMonitor.violate(monitor, *args, **detail)
        raised.append((violation, setup.sim.now))
        return violation

    for monitor in monitors:
        monitor.violate = violate.__get__(monitor)
    receiver = setup.endpoint_b.receiver
    settles: list[float] = []

    def settle(self):
        settles.append(self.sim.now)
        LamsReceiver._settle(self)

    receiver.__class__ = type("Observed", (LamsReceiver,), {"__slots__": (), "_settle": settle})
    depths: list[tuple[float, int]] = []
    if one_at_a_time:
        channel = setup.link.forward
        on_frame = channel.receiver

        def traced(frame, corrupted):
            on_frame(frame, corrupted)  # the depth only grows by enqueueing
            if type(frame) is IFrame:
                depths.append((setup.sim.now, receiver.receive_queue_length))

        channel.receiver = traced
        receiver.hear(channel)
    FiniteBatch(setup.sim, setup.endpoint_a, 3000).start()
    setup.run(until=0.3)
    return monitors, raised, settles, depths


def test_queue_bound_trips_where_the_per_frame_depths_cross_it():
    """On the run path the bound trips at the frame a frame-at-a-time
    receiver's depths cross it, stamped with that frame's arrival; the
    record of the new peak goes out with the receiver's next settle, and
    the violation is raised there."""
    bounds = [1, 2, 5, 17, 40]
    monitors, raised, settles, _ = stressed_receiver(bounds)
    *_, depths = stressed_receiver([], one_at_a_time=True)
    assert max(depth for _, depth in depths) > bounds[-1]
    for monitor in monitors:
        time, depth = next((t, d) for t, d in depths if d > monitor.bound)
        (violation,) = monitor.violations
        assert (violation.time, violation.detail["depth"]) == (time, depth)
        assert violation.message == (
            f"receive queue nominal.B.rx reached {depth} frames, above the bound {monitor.bound:g}")
    for violation, now in raised:
        assert now == min(settle for settle in settles if settle >= violation.time)
    assert any(now > violation.time for violation, now in raised)


def test_a_queue_bound_window_shows_the_arrivals_and_drains_before_the_peak():
    """The violation settles the tracer before it snapshots the window.
    The settle that raised it emitted the channel's record of the run
    that tripped it, then the new peaks; what was still held follows the
    peak that raised it: the frames of the sender's run that have left
    since its last record, the landed part of the run in flight and the
    drains since the last checkpoint, each stamped with its own first
    time, which may come after the violation's."""
    (monitor,), raised, _, _ = stressed_receiver([3])
    (violation,) = monitor.violations
    [(_, now)] = raised
    lines = [line.split() for line in violation.trace_window]
    events = [line[2] for line in lines]
    peak = len(events) - 1 - events[::-1].index("rxqueue_peak")
    assert lines[peak][3] == "depth=4" and lines[peak][0] == f"{violation.time:.6f}"
    assert events[peak + 1:] == ["iframes_sent", "frames_delivered", "payloads_delivered"]
    tripped = max(k for k in range(peak) if events[k] == "frames_delivered")
    assert set(events[tripped + 1:peak]) == {"rxqueue_peak"}  # one settle
    assert float(lines[tripped][0]) <= violation.time  # the run that tripped it
    sources = {"iframes_sent": "nominal.A.tx", "frames_delivered": "nominal.fwd",
               "payloads_delivered": "nominal.B.rx"}
    for line in lines[peak + 1:]:
        assert line[1] == sources[line[2]]
        assert float(line[0]) < now
    assert "('pkt', 0, 0.0)" in violation.trace_window[-1]


def test_a_window_line_shortens_a_release_to_its_ends():
    line = TraceRecord(0.5, "a.tx", "iframes_released", dict(
        seqs=list(range(120)), holdings=[0.25] * 120, retx=[0, 1])).format()
    assert line.endswith("iframes_released         seqs=[0, 1, 2, …, 119] (120) "
                         "holdings=[0.25, 0.25, 0.25, …, 0.25] (120) retx=[0, 1]")


# -- the receiving end: arrivals and drains ------------------------------------

CUT = FaultPlan.from_dict({"name": "cut", "faults": [
    {"kind": "outage", "start": 0.03, "duration": 0.02, "direction": "both"},
]})

# name -> (scenario changes, build arguments, payloads, run until,
# frames lost (serializing, propagating), payloads delivered, {source:
# (arrivals, drains)}).  "cut_short" stops with a run half landed and
# drains not yet checkpointed.  ``stressed`` read 2388 forward arrivals
# until a run began to give its undeparted tail back: 2380 is the
# specification's count, and a window of one's.
RECEIVING = {
    "nominal": ({}, dict(seed=7), 2000, 1.0, (0, 0), 2000,
                {"nominal.B.rx": (0, 2000), "nominal.fwd": (2018, 0), "nominal.rev": (196, 0)}),
    "bursty": ({}, dict(seed=41, error_model=BURSTS), 2000, 1.0, (0, 0), 2000,
               {"nominal.B.rx": (0, 2000), "nominal.fwd": (2120, 0), "nominal.rev": (196, 0)}),
    "outages": (dict(checkpoint_interval=0.005), dict(seed=9, fault_plan=OUTAGES), 4000, 1.0,
                (871, 751), 4000,
                {"nominal.B.rx": (0, 4000), "nominal.fwd": (4034, 0), "nominal.rev": (194, 0)}),
    "stressed": (dict(processing_time=40e-6),
                 dict(seed=13, overrides={"receive_queue_capacity": 96}), 2000, 1.0, (0, 0), 2000,
                 {"nominal.B.rx": (0, 2000), "nominal.fwd": (2380, 0), "nominal.rev": (196, 0)}),
    "zero_duplication": (dict(checkpoint_interval=0.005),
                         dict(seed=4, fault_plan=CUT, overrides={"zero_duplication": True}),
                         2000, 1.0, (429, 608), 2000,
                         {"nominal.B.rx": (0, 2000), "nominal.fwd": (2500, 0),
                          "nominal.rev": (190, 0)}),
    "cut_short": ({}, dict(seed=7), 2000, 0.0401234, (0, 0), 840,
                  {"nominal.B.rx": (0, 840), "nominal.fwd": (850, 0), "nominal.rev": (4, 0)}),
}


@pytest.mark.parametrize("name", sorted(RECEIVING))
def test_receiving_end_expands_to_the_per_frame_stream(name):
    """The receiving end's records expand, source by source, to the
    specification's per-frame ``deliver`` and ``payload_delivered``
    records, and every other source's to its records too."""
    changes, build, payloads, until, lost, delivered, counts = RECEIVING[name]
    split, stamps = Split(), []
    setup, _, _ = as_specified(
        lambda: build_simulation(preset("nominal").with_(**changes), "lams",
                                 run_with_invariants=True, **build),
        _batch(payloads, until), split,
        lambda record: record.event in DELIVERIES and stamps.append(
            record.time == record.detail["times"][0]))  # stamped with its first time
    assert len(setup.delivered) == delivered
    assert stamps and all(stamps)
    phases = [entry[3]["phase"] for entry in split.others if entry[2] == "frame_lost_outage"]
    assert (phases.count("serialize"), phases.count("propagate")) == lost
    assert {source: (sum(1 for item in stream if item[0] == "deliver"),
                     sum(1 for item in stream if item[0] == "payload_delivered"))
            for source, stream in split.per_source()} == counts
    if name == "zero_duplication":
        assert setup.endpoint_b.receiver.duplicates_suppressed > 0


SLICED_RUNS = dict(
    t_proc=st.sampled_from([0.0, 10e-6, 40e-6]),
    outages=st.lists(st.tuples(st.sampled_from([0.0021, 0.003, 0.0045, 0.006]),
                               st.sampled_from([0.0002, 0.0004, 0.002])), max_size=2),
    slices=st.lists(st.sampled_from([0.001, 0.0022, 0.0031, 0.004, 0.0101]),
                    max_size=3).map(sorted),
    seed=st.integers(0, 3),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**SLICED_RUNS)
def test_settled_records_are_what_the_receivers_heard_and_delivered(
        t_proc, outages, slices, seed):
    """A short_hop link carrying 300 payloads, cut into *slices*: after
    each, the settled records must expand to what each channel handed
    its receiver and what B's receiver delivered, in order.  A channel
    hands its receiver control frames (and frames on their own) through
    its handler; with the run path wired (swapping the handler does not
    unwire it) a run's I-frames go to the receiver whole, and have landed
    once the dispatch has passed their arrivals."""
    _settled_records(True, t_proc, outages, slices, seed)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(**SLICED_RUNS)
def test_settled_records_are_what_frames_handed_over_one_at_a_time_were(
        t_proc, outages, slices, seed):
    """The same with the run path unwired (the receiver hears the channel
    again): every frame goes through the handler."""
    _settled_records(False, t_proc, outages, slices, seed)


def _settled_records(wired, t_proc, outages, slices, seed):
    """One sliced run, checked after each slice (the run path *wired* or not)."""
    scenario = preset("short_hop").with_(processing_time=t_proc)
    plan = FaultPlan(faults=tuple(LinkOutage(start=start, duration=length)
                                  for start, length in outages))
    setup = build_simulation(scenario, "lams", seed=seed, fault_plan=plan,
                             run_with_invariants=True,
                             overrides={"receive_queue_capacity": 48})
    sim, split = setup.sim, Split()
    setup.tracer.listeners.append(split)
    heard: dict[str, list] = {}  # (time, sequence, record) per channel
    taken: dict[str, list] = {}
    for channel, endpoint in ((setup.link.forward, setup.endpoint_b),
                              (setup.link.reverse, setup.endpoint_a)):
        handler, log = channel.receiver, heard.setdefault(channel.name, [])
        channel.receiver = lambda frame, corrupted, handler=handler, log=log: (
            log.append((sim.now, sim._order, ("deliver", sim.now, frame.is_control, corrupted))),
            handler(frame, corrupted))
        if wired:
            assert channel._run_sink is endpoint.receiver  # still wired
            taken[channel.name] = _runs_taken(endpoint.receiver)
        else:
            endpoint.receiver.hear(channel)
            assert channel._run_sink is None
    receiver = setup.endpoint_b.receiver
    deliver, delivered = receiver.deliver, []
    receiver.deliver = lambda packet: (delivered.append(("payload_delivered", sim.now, packet)),
                                       deliver(packet))
    FiniteBatch(sim, setup.endpoint_a, count=300).start()
    for until in [*slices, 0.3]:
        setup.run(until=until)
        setup.tracer.settle()
        want = {name: [record for *_, record in sorted(
                    log + [(when, sequence, ("deliver", when, False, corrupted))
                           for when, sequence, corrupted in taken.get(name, ())
                           if when <= sim.now], key=lambda entry: entry[:2])]
                for name, log in heard.items()}
        want[receiver.name] = delivered
        assert split.deliveries == {source: log for source, log in want.items() if log}
    assert setup.finalize_monitors().ok and len(setup.delivered) == 300


def test_a_listener_attached_mid_run_sees_every_run_decided_after_it():
    """A channel decides whether to record a run's arrivals when it
    decides the run (``Tracer``'s attach rule): a listener attached with
    frames in flight misses exactly those, and hears every later arrival."""
    setup = build_simulation(preset("nominal"), "lams", seed=7)
    sim, channel = setup.sim, setup.link.forward
    heard, split = [], Split()
    receiver = channel.receiver
    channel.receiver = lambda frame, corrupted: (heard.append(sim.now), receiver(frame, corrupted))
    setup.endpoint_b.receiver.hear(channel)  # unwires the run path: every frame is heard
    assert not setup.tracer.active
    FiniteBatch(sim, setup.endpoint_a, 2000).start()
    setup.run(until=0.0101234)
    in_flight = channel._frames_sent - len(heard)  # decided, not yet landed
    del heard[:]
    setup.tracer.listeners.append(split)
    setup.run(until=1.0)
    setup.tracer.settle()
    recorded = [item[1] for item in split.deliveries[channel.name]]
    assert 0 < in_flight < len(heard) and len(setup.delivered) == 2000
    assert recorded == heard[in_flight:]


def test_a_held_delivery_is_recorded_ahead_of_a_reclaim():
    """A LAMS pass that ends mid-transfer, its endpoints tracing on the
    session's tracer: the session manager reclaims the sender's backlog
    while B's receiver still holds the drains of its last checkpoint
    interval.  Those drains are recorded before the reclaim, not after
    it when the receiver stops."""
    sim, tracer = Simulator(), Tracer(record_timeline=True)
    config = LamsDlcConfig(checkpoint_interval=0.005)

    def factory(sim, link, deliver, pass_remaining, on_failure=None):
        a, b = make_endpoint_pair("lams", sim, link, config, tracer=tracer, deliver_b=deliver)
        a.start(send=True, receive=False)
        b.start(send=False, receive=True)
        return a, b

    delivered: list = []
    manager = LinkSessionManager(
        sim, make_link(sim, tracer), PassSchedule.periodic(first_start=0.1, duration=0.9987,
                                                           gap=0.3, count=1),
        factory, init_time=0.05, deliver=delivered.append, tracer=tracer)
    for i in range(14000):
        manager.send(("pkt", i))
    sim.run(until=1.2)
    timeline = tracer.timeline()
    [reclaim] = [k for k, record in enumerate(timeline) if record.event == "backlog_reclaimed"]
    assert manager.session_history[0]["reason"] == "pass_end"
    before = [payload for record in timeline[:reclaim] if record.event == "payloads_delivered"
              for payload in record.detail["payloads"]]
    assert before == delivered
    # ...and some of them were held when the pass ended.
    checkpoint = max(k for k, record in enumerate(timeline[:reclaim])
                     if record.event == "checkpoint_sent")
    assert "payloads_delivered" in [record.event for record in timeline[checkpoint:reclaim]]


def test_a_reclaim_ahead_of_a_held_delivery_would_hide_a_loss():
    """``x`` is delivered, reclaimed from the torn-down sender, accepted
    again and lost.  In record order the ledger owes the second copy;
    were the delivery recorded after the reclaim, the reclaim would
    match the first copy, the late delivery pay off the second, and the
    loss go unseen."""
    def verdicts(settled: bool):
        tracer = Tracer()
        suite = MonitorSuite(tracer, [ZeroLossLedger()])
        tracer.emit(0.1, "a", "payloads_accepted", payloads=[b"x"])
        tracer.hold(lambda: tracer.emit(0.2, "b", "payloads_delivered",
                                        times=[0.2], payloads=[b"x"]))
        if settled:
            tracer.settle()
        tracer.emit(0.3, "supervisor", "backlog_reclaimed", payloads=(b"x",))
        tracer.emit(0.4, "a2", "payloads_accepted", payloads=[b"x"])
        suite.finalize(1.0)
        return [(v.invariant, v.detail["lost_count"]) for v in suite.violations]

    assert verdicts(settled=True) == [("zero-loss", 1)]
    assert verdicts(settled=False) == []


def test_a_duplicate_is_reported_at_its_own_delivery_time():
    tracer = Tracer()
    suite = MonitorSuite(tracer, [DestinationOrderingMonitor(dlc_no_duplicates=True)])
    tracer.emit(0.1, "b", "payloads_delivered", times=[0.1, 0.2, 0.3, 0.4],
                payloads=[b"a", b"b", b"a", b"c"])
    suite.finalize(1.0)
    [violation] = suite.violations
    assert (violation.time, violation.detail["payload"]) == (0.3, b"a")
    assert violation.trace_window[-1].split()[:3] == ["0.100000", "b", "payloads_delivered"]


def test_a_listener_settling_on_a_run_record_sees_each_frame_once():
    """A record's listener may settle the tracer (a violation does): by
    then the run the record reports has left the channel's held runs, so
    no frame is recorded twice and no later run loses its record."""
    setup = build_simulation(preset("nominal"), "lams", seed=7)
    sim, split, heard = setup.sim, Split(), []
    setup.tracer.listeners.append(split)
    setup.tracer.listeners.append(
        lambda record: record.event == "frames_delivered" and setup.tracer.settle())
    handler = setup.link.reverse.receiver  # checkpoints: every frame lands through it
    setup.link.reverse.receiver = lambda frame, corrupted: (heard.append(sim.now),
                                                            handler(frame, corrupted))
    FiniteBatch(sim, setup.endpoint_a, 2000).start()
    setup.run(until=1.0)
    setup.tracer.settle()
    assert len(setup.delivered) == 2000
    forward = split.deliveries[setup.link.forward.name]
    assert len(forward) == setup.link.forward.frames_sent  # all landed long before
    assert [item[1] for item in split.deliveries[setup.link.reverse.name]] == heard


@pytest.mark.parametrize("load", [0.5, 1.5])
@pytest.mark.parametrize("errors", [None, BURSTS], ids=["bernoulli", "bursts"])
def test_a_traced_run_records_as_frames_handed_over_one_at_a_time(load, errors):
    """A traced run is taken whole, as an untraced one is, its records
    emitted at the receiver's next settle; frames handed over one at a
    time (the handler swapped, the receiver hearing the channel again)
    are each applied, and their records emitted, at once.  With t_proc at
    *load* times t_f the queue stays short or builds: each source's
    records, in their order, and the deliveries are the same (the order
    across sources is not, nor are the entries: one at a time, every
    arrival is an item)."""
    def observe(one_at_a_time):
        base = preset("nominal")
        setup = build_simulation(base.with_(processing_time=load * base.iframe_time), "lams",
                                 seed=3, error_model=errors)
        records: dict[str, list] = {}
        setup.tracer.listeners.append(
            lambda record: records.setdefault(record.source, []).append(
                (record.time, record.event, record.detail)))
        if one_at_a_time:
            for channel, endpoint in ((setup.link.forward, setup.endpoint_b),
                                      (setup.link.reverse, setup.endpoint_a)):
                channel.receiver = lambda frame, corrupted, heard=channel.receiver: heard(
                    frame, corrupted)
                endpoint.receiver.hear(channel)
                assert channel._run_sink is None
        FiniteBatch(setup.sim, setup.endpoint_a, 3000).start()
        setup.run(until=0.3)
        setup.tracer.settle()
        assert any(event == "rxqueue_peak" for _, event, _ in records["nominal.B.rx"])
        return sorted(records.items()), len(setup.delivered)

    assert observe(False) == observe(True)


# -- when a traced receiver's records go out ---------------------------------------


def traced_stressed_link(flow_control=True, fault_plan=None):
    """A receiver at 1.5 frame times a frame under Gilbert–Elliott bursts,
    traced (its queue peaks, corruptions, gaps and NAKs all recorded),
    with Stop-Go on or off; 3000 payloads offered."""
    base = preset("nominal")
    setup = build_simulation(base.with_(processing_time=1.5 * base.iframe_time), "lams",
                             seed=3, error_model=BURSTS, fault_plan=fault_plan, tracer=Tracer(),
                             overrides={"flow_control_enabled": flow_control})
    FiniteBatch(setup.sim, setup.endpoint_a, 3000).start()
    return setup


@pytest.mark.parametrize("flow_control", [True, False], ids=["stop-go", "no-flow-control"])
def test_a_receivers_records_and_its_channels_precede_its_next_checkpoint(flow_control):
    """A traced receiver applies a run it took whole at its next settle,
    which first has its channel emit the runs that have landed: no
    record of the receiver stamped before one of its ``checkpoint_sent``
    goes out after it, and no ``frames_delivered`` of its channel for a
    run that had landed before it.  Records of an arrival do go out later
    than the arrival (at the checkpoint, a Request-NAK or Stop-Go's own
    reading of the queue)."""
    setup = traced_stressed_link(flow_control)
    sim, receiver, channel = setup.sim, setup.endpoint_b.receiver, setup.link.forward
    checkpoint, late, deferred, events = [-math.inf], [], [0], set()

    def listen(record):
        if record.source == receiver.name:
            if record.event == "checkpoint_sent":
                checkpoint[0] = record.time
                return
            events.add(record.event)
            deferred[0] += record.time < sim.now
            if record.time < checkpoint[0]:
                late.append(record)
        elif record.source == channel.name and record.detail["times"][-1] < checkpoint[0]:
            late.append(record)

    setup.tracer.listeners.append(listen)
    setup.run(until=0.3)
    setup.tracer.settle()
    assert len(setup.delivered) == 3000 and late == []
    assert {"rxqueue_peak", "iframe_corrupted", "error_logged"} <= events
    assert deferred[0] > 50


def test_a_channel_holds_no_landed_run_past_its_receivers_next_settle():
    """The runs a channel holds the record of are those landing within
    one checkpoint interval of now or later (``len(channel._held)`` stays
    within the runs taken that do), and at each of the receiver's
    checkpoints only runs in flight: its settle emitted the rest.
    Outages included, where the runs handed back go out as their last
    frame is lost."""
    plan = FaultPlan(faults=(LinkOutage(start=0.05, duration=0.004),
                             LinkOutage(start=0.12, duration=0.02)))
    setup = traced_stressed_link(fault_plan=plan)
    sim, receiver, channel = setup.sim, setup.endpoint_b.receiver, setup.link.forward
    interval = receiver.config.checkpoint_interval
    taken = []  # the last arrival of every run the receiver took
    held, checkpoints = [], []  # runs held at each run taken; at each checkpoint, in flight?

    def sample(log, now):
        ends = [times[-1] for times, *_ in channel._held or ()]
        assert all(end >= now - interval for end in ends)
        assert len(ends) <= sum(1 for end in taken if end >= now - interval)
        log.append(len(ends) if log is held else all(end >= now for end in ends))

    def taking(self, times, frames, verdicts):
        taken.append(times[-1])
        LamsReceiver.on_run(self, times, frames, verdicts)
        sample(held, sim.now)

    receiver.__class__ = type("Observed", (LamsReceiver,), {"__slots__": (), "on_run": taking})
    setup.tracer.listeners.append(lambda record: record.source == receiver.name
                                  and record.event == "checkpoint_sent"
                                  and sample(checkpoints, record.time))
    setup.run(until=0.4)
    assert len(set(setup.delivered)) == 3000 and setup.fault_injector.faults_started == 2
    assert len(checkpoints) > 50 and all(checkpoints)
    assert max(held) > 2
