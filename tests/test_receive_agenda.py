"""The receiving end of a link as one heap entry: ``Agenda`` and its users.

A channel's run arrivals and the drains of the receiver it feeds sit in
one :class:`~repro.simulator.engine.Agenda`, each item keeping the
``(time, sequence)`` its own heap push would have had.  Held here:

- generated histories — items on several lanes, foreign entries tied at
  equal times (plain and batched pushes), ``run(until)`` slices,
  ``stop()`` and exceptions inside items — play the same ``(now, who)``
  log and leave the same ``_sequence`` on an agenda as on
  ``tests/agenda_reference.py``'s one entry per item, on
  :meth:`Simulator.run` and on a pumped ``AsyncioClock`` (which runs no
  item inline);
- whole LAMS links, outages (``down()`` mid-run) and a receiver slower
  than the line included, deliver at the same ``(now, payload)`` as with
  one entry per arrival and per drain;
- digests of the delivered ``(now, payload)`` stream and of the full
  trace-record stream of seven runs (the receiving end's run records
  expanded per source by ``tests/trace_runs.py::Split``), recorded where
  every arrival and every drain was its own heap entry and its own
  record;
- ``flush()`` leaves no live drain behind, and the event budget.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.simulator.link as link_module
from repro.core.config import LamsDlcConfig
from repro.core.frames import IFrame
from repro.core.protocol import LamsDlcEndpoint
from repro.faults import FaultPlan
from repro.faults.plan import LinkOutage
from repro.api import make_endpoint_pair
from repro.simulator import FullDuplexLink, Simulator
from repro.simulator.engine import Agenda
from repro.simulator.link import SimplexChannel
from repro.simulator.trace import Tracer
from repro.topology import build_constellation, cross_traffic, ring_topology
from repro.topology.spec import LinkSpec
from repro.transport.clock import AsyncioClock
from repro.workloads import preset
from repro.workloads.generators import FiniteBatch, SaturatedSource
from repro.workloads.scenarios import build_simulation

from .agenda_reference import ReferenceAgenda
from .trace_runs import Split
from .test_engine_properties import _StubLoop

LANES = 3
DELAYS = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.5])  # a coarse grid: many ties


class Boom(Exception):
    """Raised by an item of a generated history."""


# An action: ("item", lane, delay, count, spacing, children): ``count``
# items on ``lane`` from ``max(lane tail, now + delay)``, ``spacing``
# apart (one through ``Agenda.add``, several appended by hand and
# announced with ``Agenda.added``, as ``SimplexChannel._decide`` does);
# ("foreign", delay, batched, children): an entry of the heap's own,
# through ``Simulator.push`` or ``Simulator.schedule``; ("stop",);
# ("raise",).  Children run when their item or entry does.
def _actions(children):
    return st.one_of(
        st.tuples(st.just("item"), st.integers(0, LANES - 1), DELAYS,
                  st.integers(1, 4), st.sampled_from([0.0, 0.5]), children),
        st.tuples(st.just("foreign"), DELAYS, st.booleans(), children),
        st.just(("stop",)),
        st.just(("raise",)),
    )


LEAVES = st.just(())
HISTORIES = st.recursive(
    LEAVES, lambda children: st.lists(_actions(children), max_size=4), max_leaves=24)
SLICES = st.lists(st.sampled_from([0.5, 1.0, 2.0, 2.5, 4.0, 6.0]), max_size=4).map(sorted)


def play(clock, make_agenda, history, slices, drain):
    """Play *history*; the ``(now, who)`` log and ``_sequence``."""
    agenda = make_agenda(clock, LANES)
    log = []
    tails = [0.0] * LANES
    names = itertools.count()

    def perform(actions):
        for action in actions:
            kind = action[0]
            if kind == "item":
                _, lane_index, delay, count, spacing, children = action
                lane = agenda.lanes[lane_index]
                when = max(tails[lane_index], clock.now + delay)
                name = next(names)
                if count == 1:
                    agenda.add(lane, when, fire, (name, children))
                else:
                    first = clock._sequence + 1
                    for offset in range(count):
                        clock._sequence += 1
                        lane.append((when + offset * spacing, clock._sequence, fire,
                                     ((name, offset), children if offset == 0 else ())))
                    agenda.added(when, first)
                tails[lane_index] = when + (count - 1) * spacing
            elif kind == "foreign":
                _, delay, batched, children = action
                name = ("foreign", next(names))
                if batched:
                    clock.push(clock.now + delay, fire, (name, children))
                else:
                    clock.schedule(delay, fire, name, children)
            elif kind == "stop":
                clock.stop()
            else:
                raise Boom

    def fire(name, children):
        log.append((clock.now, name))
        perform(children)

    try:
        perform(history)
    except Boom:
        log.append(("raised at setup",))
    drain(clock, slices, log)
    return log, clock._sequence


def _run_slices(sim, slices, log):
    for until in [*slices, None]:
        while True:
            try:
                end = sim.run(until=until)
            except Boom:
                log.append(("raised", sim.now))
                continue
            log.append(("returned", until, end))
            if not sim._stopped or not sim._heap:
                break


def _pump(clock, slices, log):
    loop = clock._loop
    while clock._heap:
        loop.now += 0.25
        try:
            clock.kick()
        except Boom:
            log.append(("raised", clock.now))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(HISTORIES, SLICES)
def test_an_agenda_runs_as_one_entry_per_item(history, slices):
    got = play(Simulator(), Agenda, history, slices, _run_slices)
    want = play(Simulator(), ReferenceAgenda, history, slices, _run_slices)
    assert got == want


@settings(max_examples=150, deadline=None, derandomize=True)
@given(HISTORIES)
def test_a_pumped_clock_runs_no_item_inline(history):
    clocks = [AsyncioClock(_StubLoop()), AsyncioClock(_StubLoop())]
    got = play(clocks[0], Agenda, history, (), _pump)
    want = play(clocks[1], ReferenceAgenda, history, (), _pump)
    assert got == want
    # One heap entry per item: the agenda's carriers are popped exactly
    # as often as the reference's entries.
    assert clocks[0].event_count == clocks[1].event_count


def test_a_carrier_left_behind_surfaces_at_its_own_item():
    """An item added ahead of the carried head gets a carrier of its own;
    the old one stays, surfaces at its own item, and nothing else
    is pushed for it."""
    sim = Simulator()
    agenda = Agenda(sim)
    log = []
    late, early = agenda.lanes
    agenda.add(late, 2.0, log.append, ("late",))
    agenda.add(early, 1.0, log.append, ("early",))
    sim.schedule_at(1.5, log.append, "foreign")
    assert len(sim._heap) == 3
    sim.run()
    assert log == ["early", "foreign", "late"]
    assert sim.event_count == 3 and not sim._heap and not agenda._carried


# -- whole links, against one entry per arrival and per drain ----------------------


def _drive_link(reference, t_proc, outages, slices, seed):
    """A LAMS link on short_hop, A sending 300 payloads; the (now, what)
    of every frame B hears and every payload it delivers."""
    scenario = preset("short_hop").with_(processing_time=t_proc)
    plan = FaultPlan(faults=tuple(LinkOutage(start=start, duration=length)
                                  for start, length in outages))
    saved = link_module.Agenda
    if reference:
        link_module.Agenda = ReferenceAgenda
    try:
        setup = build_simulation(scenario, "lams", seed=seed, fault_plan=plan,
                                 overrides={"receive_queue_capacity": 48})
        sim = setup.sim
        log = []
        heard = setup.link.forward.receiver
        setup.link.forward.receiver = lambda frame, corrupted: (
            log.append((sim.now, "heard", getattr(frame, "seq", None), corrupted)),
            heard(frame, corrupted))
        receiver = setup.endpoint_b.receiver
        deliver = receiver.deliver
        receiver.deliver = lambda packet: (log.append((sim.now, "up", packet)),
                                           deliver(packet))
        FiniteBatch(sim, setup.endpoint_a, count=300).start()
        for until in [*slices, 0.3]:
            sim.run(until=until)
            log.append(("slice", until, receiver.receive_queue_length))
    finally:
        link_module.Agenda = saved
    return log, sim._sequence, len(setup.delivered), receiver.discards


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    t_proc=st.sampled_from([0.0, 10e-6, 40e-6]),
    outages=st.lists(st.tuples(st.sampled_from([0.0021, 0.003, 0.0045, 0.006]),
                               st.sampled_from([0.0002, 0.0004, 0.002])), max_size=2),
    slices=st.lists(st.sampled_from([0.001, 0.0022, 0.004, 0.0101]), max_size=3).map(sorted),
    seed=st.integers(0, 3),
)
def test_a_link_delivers_as_with_one_entry_per_arrival_and_drain(t_proc, outages, slices, seed):
    got = _drive_link(False, t_proc, outages, slices, seed)
    want = _drive_link(True, t_proc, outages, slices, seed)
    assert got == want
    assert got[2] == 300


# -- digests recorded at the parent -------------------------------------------------

BURSTS = ("gilbert-elliott", {
    "good_ber": 1e-7, "bad_ber": 1e-3, "mean_good": 0.02, "mean_bad": 0.002,
})
OUTAGES = FaultPlan.from_dict({"name": "runs", "faults": [
    {"kind": "outage", "start": 0.03, "duration": 0.004, "direction": "both"},
    {"kind": "outage", "start": 0.09, "duration": 0.02, "direction": "forward"},
]})

# name -> (payloads delivered, digest of the delivered (now, payload)
# stream, trace records, digest of the record stream), recorded where
# every arrival and every drain was a heap entry of its own.  The
# delivered stream is the same with the monitors off.  The record stream
# is the per-frame stream of ``tests/trace_runs.py``'s ``Split`` — the
# other records in emission order, then each source's arrivals and
# drains — its digest taken from the per-frame records where each
# arrival and drain was traced on its own (the counts are those of the
# stream in emission order, recorded before the agenda existed).
PARENT_STREAMS = {
    "nominal": (2000, "1eef53611b7f5e3c", 6536, "92102ae72a32de30"),
    "bursty": (2000, "a6b1bd1776ab635f", 7045, "c5054cd060bde276"),
    "outages": (4000, "c43aa5cfc40c959f", 19995, "c6bb3dbde9b8481d"),
    "stressed": (2000, "373d62fa1add8bba", 8947, "3fc39deac6944fed"),
    "window1": (2000, "5900a210ba3ffa64", 8484, "79846b9f37b24182"),
    "window64": (2000, "f41776c954ecada4", 6517, "1844bf8e33395671"),
    "ring10": (600, "4ed30dec5b54dfdc", 9607, "91e84cd63bfe0527"),
}


def _digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def _link_streams(name, monitored):
    scenario = preset("nominal")
    build, payloads = dict(seed=7), 2000
    if name == "bursty":
        build = dict(seed=41, error_model=BURSTS)
    elif name == "outages":
        build, payloads = dict(seed=9, fault_plan=OUTAGES), 4000
    elif name == "stressed":
        # t_proc above t_f: the queue builds, Stop-Go engages, and past
        # 96 frames the receiver discards (and NAKs) what arrives.
        scenario = scenario.with_(processing_time=40e-6)
        build = dict(seed=13, overrides={"receive_queue_capacity": 96})
    elif name.startswith("window"):
        build = dict(seed=5, overrides={"batch_window": int(name[len("window"):])})
    setup = build_simulation(scenario, "lams", run_with_invariants=monitored, **build)
    sim, receiver = setup.sim, setup.endpoint_b.receiver
    delivered, records = [], Split()
    deliver = receiver.deliver
    receiver.deliver = lambda packet: (delivered.append((sim.now, packet)), deliver(packet))
    if monitored:
        setup.tracer.listeners.append(records)
    FiniteBatch(sim, setup.endpoint_a, payloads).start()
    setup.run(until=1.0)
    if monitored:
        assert setup.finalize_monitors().ok
    if name == "stressed":
        assert receiver.discards > 0
        assert any(record[2] == "checkpoint_sent" and record[3]["stop_go"]
                   for record in records.others) or not monitored
    return (len(delivered), _digest(delivered),
            len(records), _digest((records.others, records.per_source())))


def _ring_streams():
    topology = ring_topology(10, LinkSpec(scenario="short_hop"))
    flows = cross_traffic(topology.node_names(), stride=3, messages=60,
                          interval=2e-4, poisson=True)
    constellation = build_constellation(topology, master_seed=7, flows=flows,
                                        horizon=0.05, monitors=True)
    records = Split()
    for name in sorted(constellation.links):
        constellation.links[name].tracer.listeners.append(records)
    constellation.run(until=0.3)
    for name in sorted(constellation.links):
        constellation.links[name].tracer.settle()
    logs = [(node, [(dg.source, dg.sequence) for dg in log.datagrams], list(log.delays))
            for node, log in sorted(constellation.logs.items())]
    channels = [channel for runtime in constellation.links.values()
                for channel in (runtime.link.forward, runtime.link.reverse)]
    assert any(channel._agenda is not None for channel in channels)
    return (sum(len(log) for log in constellation.logs.values()), _digest(logs),
            len(records), _digest((records.others, records.per_source())))


@pytest.mark.parametrize("name", sorted(PARENT_STREAMS))
def test_streams_match_the_parent(name):
    if name == "ring10":
        assert _ring_streams() == PARENT_STREAMS[name]
        return
    delivered, delivered_digest, _, _ = PARENT_STREAMS[name]
    assert _link_streams(name, monitored=True) == PARENT_STREAMS[name]
    assert _link_streams(name, monitored=False)[:2] == (delivered, delivered_digest)


# -- the rank rule: a planned delivery keeps its arrival's rank ---------------------


def _tied_across_links(traced: bool, one_at_a_time: bool) -> list:
    """A LAMS link (power-of-two timings: t_f = 1/1024 s, t_proc = t_f / 2,
    4 t_f of delay) whose receiver takes a run of one — decided at
    41/1024 s, landing at 45/1024 s, delivered at 45.5/1024 s — and a second
    channel whose frame, sent at 43/1024 s, is pushed as an arrival at
    43.5/1024 s (after the run was decided, before it lands) for exactly
    the delivery's instant.  Every delivery and that landing, in the order
    they ran."""
    sim, tracer, unit = Simulator(), Tracer(), 1 / 1024
    if traced:
        tracer.listeners.append(lambda record: None)
    link = FullDuplexLink(sim, 2.0 ** 20, 4 * unit, tracer=tracer)
    config = preset("nominal").lams_config(
        iframe_payload_bits=1024 - 80, checkpoint_interval=16 * unit,
        processing_time=unit / 2, batch_window=8, cframe_base_bits=128)
    log = []
    a, b = make_endpoint_pair("lams", sim, link, config, tracer=tracer,
                              deliver_b=lambda packet: log.append((sim.now, packet)))
    if one_at_a_time:
        handler = link.forward.receiver
        link.forward.receiver = lambda frame, corrupted: handler(frame, corrupted)
        b.receiver.hear(link.forward)
    other = SimplexChannel(sim, "other", 2.0 ** 20, 2 * unit)
    other.attach_receiver(lambda frame, corrupted: log.append((sim.now, frame.payload)))
    a.start()
    b.start()
    a.accept_many(["p0", "p1", "p2"])  # a run of one, then of two: the channel's agenda
    sim.schedule_at(40 * unit, a.accept_many, ["q"])
    sim.schedule_at(43 * unit, other.send,
                    IFrame(seq=0, payload="x", size_bits=512, transmit_index=0))
    sim.run(until=64 * unit)
    assert link.forward._agenda is not None
    assert (link.forward._run_sink is b.receiver) is not one_at_a_time
    return log


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_a_planned_delivery_keeps_its_arrivals_rank(traced):
    """The run path plans q's delivery when its run is decided, ahead of
    the other channel's arrival push; handed over one at a time, q's
    delivery was numbered as it landed, behind it.  Traced or not, the
    planned delivery runs where that one did: after the other arrival."""
    unit = 1 / 1024
    want = [(5.5 * unit, "p0"), (6.5 * unit, "p1"), (7.5 * unit, "p2"),
            (45.5 * unit, "x"), (45.5 * unit, "q")]
    assert _tied_across_links(traced, one_at_a_time=True) == want
    assert _tied_across_links(traced, one_at_a_time=False) == want


# -- flush, and what the agenda saves ------------------------------------------------


def test_flush_leaves_no_live_drain():
    """Four frames queued and flushed at t = 0 must not leave their drains
    to serve later arrivals: frames at 0.1 ms and 0.2 ms are delivered
    at 1.1 ms and 2.1 ms, one t_proc of service each."""
    sim = Simulator()
    link = FullDuplexLink(sim, 1e6, 0.001)
    delivered = []
    endpoint = LamsDlcEndpoint(
        sim, LamsDlcConfig(processing_time=1e-3), outgoing=link.reverse,
        expected_rtt=0.002, deliver=lambda packet: delivered.append((sim.now, packet)))
    receiver = endpoint.receiver

    def arrive(seq):
        receiver.on_iframe(IFrame(seq=seq, payload=f"p{seq}", size_bits=1000,
                                  transmit_index=seq), False)

    for seq in range(4):
        arrive(seq)
    assert receiver.flush() == 4
    assert delivered == [(0.0, f"p{seq}") for seq in range(4)]
    sim.schedule_at(1e-4, arrive, 4)
    sim.schedule_at(2e-4, arrive, 5)
    sim.run()
    assert delivered[4:] == [(pytest.approx(1.1e-3), "p4"), (pytest.approx(2.1e-3), "p5")]
    assert receiver.receive_queue_length == 0


def test_a_saturated_nominal_link_dispatches_under_a_fifth_of_an_event_per_frame():
    """Seed 7, the nominal link kept saturated for 0.25 s (the benchmark's
    ``sat_clean`` source): 929 events for 9071 frames.  With an entry per
    arrival and per drain it was 17376, 1.92 a frame; with both on the
    agenda, 930; with the receiver taking runs whole, one agenda item per
    delivery and none per arrival, 929."""
    scenario = preset("nominal")
    setup = build_simulation(scenario, "lams", seed=7)
    sender = setup.endpoint_a.sender
    SaturatedSource(setup.sim, setup.endpoint_a, backlog_fn=lambda: sender.pending_count,
                    low_water=256, chunk=512, poll_interval=scenario.iframe_time * 64).start()
    setup.run(until=0.25)
    frames = setup.link.forward.frames_sent + setup.link.reverse.frames_sent
    assert (setup.sim.event_count, frames, len(setup.delivered)) == (929, 9071, 8395)
    assert setup.sim.event_count / frames <= 0.2


def test_idle_ring_channels_hold_no_agenda():
    """A channel makes its agenda on its first run of two or more frames:
    an idle ring's channels carry checkpoints one at a time and hold none."""
    constellation = build_constellation(ring_topology(10), master_seed=7)
    constellation.run(until=0.05)
    channels = [channel for runtime in constellation.links.values()
                for channel in (runtime.link.forward, runtime.link.reverse)]
    assert len(channels) == 20
    assert all(channel.frames_sent > 0 for channel in channels)
    assert all(channel._agenda is None for channel in channels)
