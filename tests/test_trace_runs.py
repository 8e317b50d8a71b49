"""Run-shaped trace records against the per-frame stream they replace.

The LAMS sender emits one ``iframes_sent`` per run, one
``iframes_released`` per release and one ``payloads_accepted`` per
stretch of packets accepted together; a channel one ``frames_delivered``
per run that lands; the receiver one ``payloads_delivered`` per
checkpoint interval's drains, and only new receive-queue peaks
(``rxqueue_peak``).  Pinned here:

- the expanded stream (``tests/trace_runs.py``) of three seeded
  monitored runs — nominal, Gilbert–Elliott bursts, and outages — is
  digest-equal to the per-frame ``(event, time, seq, index, retx |
  holding)`` stream the sender emitted frame by frame, and its
  acceptances, with a saturated source's too, to the per-packet
  ``("payload_accepted", time, payload)`` stream;
- the receiving end's records of six seeded runs expand, source by
  source, to the per-frame ``deliver`` / ``payload_delivered`` stream;
  generated runs cut into slices expand, after ``Tracer.settle()`` at
  each cut, to exactly what the receivers heard and delivered; and the
  records the tracer holds back reach the ledger ahead of a reclaim;
- ``HoldingTimeBoundMonitor`` reading a release record reports what the
  per-frame handler reported for each of its frames, ``(invariant,
  time, message, detail)`` included;
- ``ReceiverQueueBoundMonitor`` on a stressed receiver trips at the
  same ``(time, depth)`` as every queued frame's own depth, handed over
  one at a time, says it must — at that instant — and its window shows
  the arrivals and drains held when it tripped;
- a listener attached mid-run hears every run decided after it.
"""

from __future__ import annotations

import hashlib

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

from .test_session_faults import make_link
from .trace_runs import DELIVERIES, Split, expand

BURSTS = ("gilbert-elliott", {
    "good_ber": 1e-7, "bad_ber": 1e-3, "mean_good": 0.02, "mean_bad": 0.002,
})
OUTAGES = FaultPlan.from_dict({"name": "runs", "faults": [
    {"kind": "outage", "start": 0.03, "duration": 0.004, "direction": "both"},
    {"kind": "outage", "start": 0.09, "duration": 0.02, "direction": "forward"},
]})

# name -> (build arguments, payloads, sent, released, released with
# retx > 0, sha256 of repr(stream)); recorded from the per-frame
# ``iframe_sent`` / ``iframe_released`` records of the sender that
# emitted one record per frame.
STREAMS = {
    "nominal": (dict(seed=7), 2000, 2018, 2000, 18,
                "c60c1d4547f0648d6d58fe8763d4cac0da891628310e990ac3ddaa5fd181eaef"),
    "bursty": (dict(seed=41, error_model=BURSTS), 2000, 2120, 2000, 120,
               "218ef35901fa629be3775058cda567697b12834f8f58710d1cc9e293d0e3992c"),
    "outages": (dict(seed=9, fault_plan=OUTAGES), 4000, 5654, 4000, 1601,
                "224ddbc84137b3c4501f4011830585110914422d96f43bf1a4aed5d4db3f9313"),
}

# name -> sha256 of repr of the run's ``("payload_accepted", time,
# payload)`` stream, recorded from the sender that emitted one
# ``payload_accepted`` record per packet.  A batch offered at t = 0 is
# two records now: its first packet starts the idle channel, the rest
# enter in one step.
ACCEPTED = {
    "nominal": "4211e64aeac6fa1142a3457f50ba5eaeffb0a86763a2a78f38ff369064c6b638",
    "bursty": "4211e64aeac6fa1142a3457f50ba5eaeffb0a86763a2a78f38ff369064c6b638",
    "outages": "ad51d7736b7206cb797fd80f4a3ccf4db837376fb23fdc52d29ffa097b8ae94b",
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


def _digest(stream: list[tuple]) -> str:
    return hashlib.sha256(repr(stream).encode()).hexdigest()


def _expanding(setup):
    """Attach a listener; returns (expanded stream, acceptance records)."""
    modulus = setup.endpoint_a.sender.buffer.space.modulus
    stream: list[tuple] = []
    records: list[str] = []

    def listen(record):
        records.append(record.event)
        stream.extend(expand((record.time, record.source, record.event, record.detail), modulus))

    setup.tracer.listeners.append(listen)
    return stream, records


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_expanded_stream_is_the_per_frame_stream(name):
    build, payloads, sent, released, retransmitted, digest = STREAMS[name]
    scenario = preset("nominal")
    if name == "outages":
        scenario = scenario.with_(checkpoint_interval=0.005)
    setup = build_simulation(scenario, "lams", run_with_invariants=True, **build)
    expanded, records = _expanding(setup)
    FiniteBatch(setup.sim, setup.endpoint_a, payloads).start()
    setup.run(until=1.0)
    assert setup.finalize_monitors().ok and len(setup.delivered) == payloads
    stream = [item for item in expanded if item[0] in ("iframe_sent", "iframe_released")]
    accepted = [item for item in expanded if item[0] == "payload_accepted"]
    events = [frame[0] for frame in stream]
    assert (events.count("iframe_sent"), events.count("iframe_released")) == (sent, released)
    assert sum(1 for frame in stream if frame[0] == "iframe_released" and frame[4]) == retransmitted
    assert _digest(stream) == digest
    assert (records.count("payloads_accepted"), len(accepted)) == (2, payloads)
    assert _digest(accepted) == ACCEPTED[name]


def test_a_saturated_sources_acceptances_are_the_per_packet_stream():
    """Eight refills over 0.1 s of a saturated source: each is one
    record (the first two, as the channel starts idle), and the stream
    they expand to is the one recorded a record per packet."""
    scenario = preset("nominal")
    setup = build_simulation(scenario, "lams", seed=7, run_with_invariants=True)
    expanded, records = _expanding(setup)
    sender = setup.endpoint_a.sender
    source = SaturatedSource(
        setup.sim, setup.endpoint_a, backlog_fn=lambda: sender.pending_count,
        low_water=256, chunk=512, poll_interval=scenario.iframe_time * 64,
    )
    source.start()
    setup.run(until=0.1)
    source.stop()
    setup.run(until=0.3)
    assert setup.finalize_monitors().ok and len(setup.delivered) == source.offered == 4096
    accepted = [item for item in expanded if item[0] == "payload_accepted"]
    assert (records.count("payloads_accepted"), len(accepted)) == (9, 4096)
    assert setup.sim.event_count == 550
    assert _digest(accepted) == (
        "08139c6f1f4a56d2919a8c66ad44e3e8d26521d6ec3f93d07b63cea6170239dc")


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
    violation's ``(violation, clock when it was raised)``, and — frames
    handed over one at a time, the run path unwired — every I-frame's
    ``(arrival, depth)`` once it queued."""
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
    return monitors, raised, depths


def test_queue_bound_trips_where_the_per_frame_depths_cross_it():
    """On the run path the bound trips at the frame a frame-at-a-time
    receiver's depths cross it, and then: the record of a new peak goes
    out at its arrival's own item, not with a later settle."""
    bounds = [1, 2, 5, 17, 40]
    monitors, raised, _ = stressed_receiver(bounds)
    _, _, depths = stressed_receiver([], one_at_a_time=True)
    assert max(depth for _, depth in depths) > bounds[-1]
    for monitor in monitors:
        time, depth = next((t, d) for t, d in depths if d > monitor.bound)
        (violation,) = monitor.violations
        assert (violation.time, violation.detail["depth"]) == (time, depth)
        assert violation.message == (
            f"receive queue nominal.B.rx reached {depth} frames, above the bound {monitor.bound:g}")
    assert [now for _, now in raised] == [violation.time for violation, _ in raised]


def test_a_queue_bound_window_shows_the_arrivals_and_drains_before_the_peak():
    """The violation settles the tracer before it snapshots the window:
    the run landing and the drains since the last checkpoint, held when
    the bound trips, follow the peak that raised it."""
    (monitor,), _, _ = stressed_receiver([3])
    (violation,) = monitor.violations
    lines = [line.split() for line in violation.trace_window]
    events = [line[2] for line in lines]
    peak = events.index("rxqueue_peak") + 3  # depths 1, 2, 3, then 4
    assert lines[peak][3] == "depth=4" and lines[peak][0] == f"{violation.time:.6f}"
    assert events[peak + 1:] == ["frames_delivered", "payloads_delivered"]
    for line in lines[peak + 1:]:
        assert line[1] == ("nominal.fwd" if line[2] == "frames_delivered" else "nominal.B.rx")
        assert float(line[0]) < violation.time
    arrivals = violation.trace_window[peak + 1]
    assert f"{violation.time!r}]" in arrivals  # up to the frame that tripped it
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

# name -> (scenario changes, build arguments,
# payloads, run until, frames lost (serializing, propagating), payloads
# delivered, {source: (arrivals, drains)}, sha256 of repr of the
# per-source streams); recorded from the channel's per-frame ``deliver``
# and the receiver's per-drain ``payload_delivered`` records, expanded by
# ``Split`` into ``("deliver", time, control, corrupted)`` and
# ``("payload_delivered", time, payload)``.  "cut_short" stops with a
# run half landed and drains not yet checkpointed.
RECEIVING = {
    "nominal": ({}, dict(seed=7), 2000, 1.0, (0, 0), 2000,
                {"nominal.B.rx": (0, 2000), "nominal.fwd": (2018, 0), "nominal.rev": (196, 0)},
                "96cf376c250d3837edd2f240a725e6792baec7cba77bd6839b4e885d0da664d8"),
    "bursty": ({}, dict(seed=41, error_model=BURSTS), 2000, 1.0, (0, 0), 2000,
               {"nominal.B.rx": (0, 2000), "nominal.fwd": (2120, 0), "nominal.rev": (196, 0)},
               "30a85b38595738fa7b42e1fbf01cd71d61e03ff5545ac3ebd6dfe70371d70ee1"),
    "outages": (dict(checkpoint_interval=0.005), dict(seed=9, fault_plan=OUTAGES), 4000, 1.0,
                (871, 751), 4000,
                {"nominal.B.rx": (0, 4000), "nominal.fwd": (4034, 0), "nominal.rev": (194, 0)},
                "76d55adfabd0cfabbc46281cb2d020f6a0949c96f90246116fcaa069a13cf76a"),
    "stressed": (dict(processing_time=40e-6),
                 dict(seed=13, overrides={"receive_queue_capacity": 96}), 2000, 1.0, (0, 0), 2000,
                 {"nominal.B.rx": (0, 2000), "nominal.fwd": (2388, 0), "nominal.rev": (196, 0)},
                 "5e58b618de8600d24dab515dea08ecb946d31f9cba3684511ec068a0fc105bcf"),
    "zero_duplication": (dict(checkpoint_interval=0.005),
                         dict(seed=4, fault_plan=CUT, overrides={"zero_duplication": True}),
                         2000, 1.0, (429, 608), 2000,
                         {"nominal.B.rx": (0, 2000), "nominal.fwd": (2500, 0),
                          "nominal.rev": (190, 0)},
                         "1cba6494832b4c0e8cc463a8504ca20b1422f82a85391153c47fdbb651ab201e"),
    "cut_short": ({}, dict(seed=7), 2000, 0.0401234, (0, 0), 840,
                  {"nominal.B.rx": (0, 840), "nominal.fwd": (850, 0), "nominal.rev": (4, 0)},
                  "5dddb11c091b921354f1b1fca976262357b33b1aa1d3ab4eb7b9c2b8bf50ee8f"),
}


@pytest.mark.parametrize("name", sorted(RECEIVING))
def test_receiving_end_expands_to_the_per_frame_stream(name):
    changes, build, payloads, until, lost, delivered, counts, digest = RECEIVING[name]
    setup = build_simulation(preset("nominal").with_(**changes), "lams",
                             run_with_invariants=True, **build)
    split, stamps = Split(), []
    setup.tracer.listeners.append(split)
    setup.tracer.listeners.append(lambda record: record.event in DELIVERIES and stamps.append(
        record.time == record.detail["times"][0]))  # a record is stamped with its first time
    FiniteBatch(setup.sim, setup.endpoint_a, payloads).start()
    setup.run(until=until)
    assert setup.finalize_monitors().ok and len(setup.delivered) == delivered
    assert stamps and all(stamps)
    phases = [entry[3]["phase"] for entry in split.others if entry[2] == "frame_lost_outage"]
    assert (phases.count("serialize"), phases.count("propagate")) == lost
    streams = split.per_source()
    assert {source: (sum(1 for item in stream if item[0] == "deliver"),
                     sum(1 for item in stream if item[0] == "payload_delivered"))
            for source, stream in streams} == counts
    assert _digest(streams) == digest
    if name == "zero_duplication":
        assert setup.endpoint_b.receiver.duplicates_suppressed > 0


SLICED_RUNS = dict(
    t_proc=st.sampled_from([0.0, 10e-6, 40e-6]),
    outages=st.lists(st.tuples(st.sampled_from([0.0021, 0.003, 0.0045, 0.006]),
                               st.sampled_from([0.0002, 0.0004, 0.002])), max_size=2),
    slices=st.lists(st.sampled_from([0.001, 0.0022, 0.0031, 0.004, 0.0101]),
                    max_size=3).map(sorted),
    seed=st.integers(0, 3),
    window=st.sampled_from([1, 7, 64]),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**SLICED_RUNS)
def test_settled_records_are_what_the_receivers_heard_and_delivered(
        t_proc, outages, slices, seed, window):
    """A short_hop link carrying 300 payloads, cut into *slices*: after
    each, the settled records must expand to what each channel handed
    its receiver and what B's receiver delivered, in order.  A channel
    hands its receiver control frames (and frames on their own) through
    its handler; with the run path wired (swapping the handler does not
    unwire it) a run's I-frames go to the receiver whole, and have landed
    once the dispatch has passed their arrivals."""
    _settled_records(True, t_proc, outages, slices, seed, window)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(**SLICED_RUNS)
def test_settled_records_are_what_frames_handed_over_one_at_a_time_were(
        t_proc, outages, slices, seed, window):
    """The same with the run path unwired (the receiver hears the channel
    again): every frame goes through the handler."""
    _settled_records(False, t_proc, outages, slices, seed, window)


def _settled_records(wired, t_proc, outages, slices, seed, window):
    """One sliced run, checked after each slice (the run path *wired* or not)."""
    scenario = preset("short_hop").with_(processing_time=t_proc)
    plan = FaultPlan(faults=tuple(LinkOutage(start=start, duration=length)
                                  for start, length in outages))
    setup = build_simulation(scenario, "lams", seed=seed, fault_plan=plan,
                             run_with_invariants=True,
                             overrides={"receive_queue_capacity": 48, "batch_window": window})
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
    in_flight = channel.frames_sent - len(heard)
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


def test_a_checkpoint_record_follows_the_drains_before_it():
    """The receiver's held drains go out just ahead of its next
    ``checkpoint_sent``: at every checkpoint record, each payload
    delivered before the checkpoint's instant has already been recorded."""
    tracer = Tracer()
    setup = build_simulation(preset("nominal"), "lams", seed=7, tracer=tracer)
    sim, receiver = setup.sim, setup.endpoint_b.receiver
    deliveries, recorded, checked = [], [], []
    deliver = receiver.deliver
    receiver.deliver = lambda packet: (deliveries.append(sim.now), deliver(packet))

    def listen(record):
        if record.source != receiver.name:
            return
        if record.event == "payloads_delivered":
            recorded.extend(record.detail["times"])
        elif record.event == "checkpoint_sent":
            due = sum(1 for when in deliveries if when < record.time)
            checked.append((due, len(recorded) >= due))

    tracer.listeners.append(listen)
    FiniteBatch(sim, setup.endpoint_a, 600).start()
    setup.run(until=0.06)
    assert all(ok for _, ok in checked) and sum(due > 0 for due, _ in checked) > 5


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
    """A traced run is taken whole, its deliveries planned at their
    arrivals' ranks and an item made only at each arrival that may bear a
    record; frames handed over one at a time (the handler swapped, the
    receiver hearing the channel again) are each applied at once.  With
    t_proc at *load* times t_f the queue stays short or builds: the
    records, their order and the deliveries are the same (the entries are
    not: one at a time, every arrival is an item)."""
    def observe(one_at_a_time):
        base = preset("nominal")
        setup = build_simulation(base.with_(processing_time=load * base.iframe_time), "lams",
                                 seed=3, error_model=errors)
        records = []
        setup.tracer.listeners.append(
            lambda record: records.append((record.time, record.source, record.event,
                                           record.detail)))
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
        assert any(event == "rxqueue_peak" for _, _, event, _ in records)
        return records, len(setup.delivered)

    assert observe(False) == observe(True)
