"""Run-shaped trace records against the per-frame stream they replace.

The LAMS sender emits one ``iframes_sent`` per run, one
``iframes_released`` per release and one ``payloads_accepted`` per
stretch of packets accepted together, and the receiver reports only new
receive-queue peaks (``rxqueue_peak``).  Three things are pinned here:

- the expanded stream (``tests/trace_runs.py``) of three seeded
  monitored runs — nominal, Gilbert–Elliott bursts, and outages — is
  digest-equal to the per-frame ``(event, time, seq, index, retx |
  holding)`` stream the sender emitted frame by frame, and its
  acceptances, with a saturated source's too, to the per-packet
  ``("payload_accepted", time, payload)`` stream;
- ``HoldingTimeBoundMonitor`` reading a release record reports what the
  per-frame handler reported for each of its frames, ``(invariant,
  time, message, detail)`` included;
- ``ReceiverQueueBoundMonitor`` on a stressed receiver trips at the
  same ``(time, depth)`` as every queued frame's own depth says it must.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan
from repro.invariants import HoldingTimeBoundMonitor, MonitorSuite, ReceiverQueueBoundMonitor
from repro.simulator.trace import TraceRecord, Tracer
from repro.workloads import preset
from repro.workloads.generators import FiniteBatch, SaturatedSource
from repro.workloads.scenarios import build_simulation

from .trace_runs import expand

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
    stream = [item for item in expanded if item[0] != "payload_accepted"]
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


def stressed_receiver(bounds):
    """A receiver slower than the line (t_proc = 1.5 t_f): its queue
    builds until Stop-Go throttles the sender."""
    base = preset("nominal")
    scenario = base.with_(processing_time=1.5 * base.iframe_time)
    setup = build_simulation(scenario, "lams", seed=3, tracer=Tracer())
    monitors = [ReceiverQueueBoundMonitor(bound=bound) for bound in bounds]
    MonitorSuite(setup.tracer, monitors)
    receiver = setup.endpoint_b.receiver
    depths: list[tuple[float, int]] = []
    on_iframe = receiver.on_iframe

    def traced(frame, corrupted):
        on_iframe(frame, corrupted)  # the depth only grows by enqueueing
        depths.append((setup.sim.now, len(receiver._receive_queue)))

    receiver.on_iframe = traced
    FiniteBatch(setup.sim, setup.endpoint_a, 3000).start()
    setup.run(until=0.3)
    return monitors, depths


def test_queue_bound_trips_where_the_per_frame_depths_cross_it():
    bounds = [1, 2, 5, 17, 40]
    monitors, depths = stressed_receiver(bounds)
    assert max(depth for _, depth in depths) > bounds[-1]
    for monitor in monitors:
        time, depth = next((t, d) for t, d in depths if d > monitor.bound)
        (violation,) = monitor.violations
        assert (violation.time, violation.detail["depth"]) == (time, depth)
        assert violation.message == (
            f"receive queue nominal.B.rx reached {depth} frames, above the bound {monitor.bound:g}")


def test_a_window_line_shortens_a_release_to_its_ends():
    line = TraceRecord(0.5, "a.tx", "iframes_released", dict(
        seqs=list(range(120)), holdings=[0.25] * 120, retx=[0, 1])).format()
    assert line.endswith("iframes_released         seqs=[0, 1, 2, …, 119] (120) "
                         "holdings=[0.25, 0.25, 0.25, …, 0.25] (120) retx=[0, 1]")
