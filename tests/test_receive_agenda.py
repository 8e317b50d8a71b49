"""The receiving end of a link as one heap entry: ``Agenda`` and its users.

A channel's run arrivals and the drains of the receiver it feeds sit in
one :class:`~repro.simulator.engine.Agenda`, each item keeping the
``(time, sequence)`` its own heap push would have had.  Held here:

- generated histories — items on several lanes, foreign entries tied at
  equal times (absolute and relative pushes), ``run(until)`` slices,
  ``stop()`` and exceptions inside items — play the same ``(now, who)``
  log on an agenda as on the specification's engine (``tests/spec/``),
  one heap entry per item, on :meth:`Simulator.run` and on a pumped
  ``AsyncioClock`` (which runs no item inline);
- whole LAMS links, outages (``down()`` mid-run) and a receiver slower
  than the line included, deliver at the same ``(now, payload)`` as the
  specification's link, one entry per arrival and per drain;
- the order of records across sources, which the specification's
  per-source comparison leaves out, for a single link sending runs of up
  to 64 frames and a 10-link ring: digests of the delivered ``(now, payload)``
  stream, recorded where every arrival and every drain was its own heap
  entry, and of the full trace-record stream (the sender's runs and the
  receiving end's run records expanded per source by
  ``tests/trace_runs.py::Split``), of that stream with each instant's
  records sorted, which no same-instant rule can move, and of it source
  by source;
- monitored or not, a link pops the same entries, and its receivers take
  the same agenda items;
- the instant-start rule on a planned delivery tied with another link's
  arrival;
- ``flush()`` leaves no live drain behind, and the event budget.
"""

from __future__ import annotations

import hashlib
import itertools
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import LamsDlcConfig
from repro.core.frames import IFrame
from repro.core.protocol import LamsDlcEndpoint
from repro.core.receiver import LamsReceiver
from repro.faults import FaultPlan
from repro.faults.injector import FaultInjector
from repro.faults.plan import LinkOutage
from repro.api import make_endpoint_pair
from repro.simulator import FullDuplexLink, Simulator
from repro.simulator.engine import _AFTER, Agenda
from repro.simulator.errormodel import PerfectChannel
from repro.simulator.link import SimplexChannel
from repro.simulator.rng import StreamRegistry
from repro.simulator.trace import Tracer
from repro.topology import build_constellation, cross_traffic, ring_topology
from repro.topology.spec import LinkSpec
from repro.transport.clock import AsyncioClock
from repro.workloads import preset
from repro.workloads.generators import FiniteBatch, SaturatedSource
from repro.workloads.scenarios import build_simulation

from . import spec
from .conftest import spec_settings, spec_twin
from .trace_runs import Split
from .test_engine_properties import _StubLoop

LANES = 3
DELAYS = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.5])  # a coarse grid: many ties
PLANS = st.sampled_from([0.5, 1.0, 1.5, 2.5])


class Boom(Exception):
    """Raised by an item of a generated history."""


# An action: ("item", lane, delay, count, spacing, children): ``count``
# items on ``lane`` from ``max(lane tail, now + delay)``, ``spacing``
# apart (one through ``Agenda.add``, several appended by hand and
# announced with ``Agenda.added``, as ``SimplexChannel._decide`` does);
# ("foreign", delay, absolute, children): an entry of the heap's own,
# through ``Simulator.schedule_at`` or ``Simulator.schedule``; ("plan", delay): a
# delivery the running entry plans on a lane of its own, at ``now + delay``
# and past the lane's tail (keyed ``_AFTER + n`` at the running entry's
# number ``n`` — 0 at setup — and announced with ``Agenda.added``, as the
# receiver does; ``Engine.plan`` on the specification's side);
# ("stop",); ("raise",); ("tied", delay, lane, absolute): a plan, a one-item
# add and a foreign entry at ``now + delay`` (past no tail: one instant for a
# planned head, an item numbered before it and an entry numbered after).
# Children run when their item or entry does.
def _actions(children):
    return st.one_of(
        st.tuples(st.just("item"), st.integers(0, LANES - 1), DELAYS,
                  st.integers(1, 4), st.sampled_from([0.0, 0.5]), children),
        st.tuples(st.just("foreign"), DELAYS, st.booleans(), children),
        st.tuples(st.just("plan"), PLANS),
        st.tuples(st.just("tied"), PLANS, st.integers(0, LANES - 1), st.booleans()),
        st.just(("stop",)),
        st.just(("raise",)),
    )


LEAVES = st.just(())
HISTORIES = st.recursive(
    LEAVES, lambda children: st.lists(_actions(children), max_size=4), max_leaves=24)
SLICES = st.lists(st.sampled_from([0.5, 1.0, 2.0, 2.5, 4.0, 6.0]), max_size=4).map(sorted)


def play(clock, history, slices, drain):
    """Play *history*; the ``(now, who)`` log.  On the specification's
    engine every item is a heap entry of its own."""
    agenda = Agenda(clock, LANES + 1) if isinstance(clock, Simulator) else None
    log = []
    tails = [0.0] * (LANES + 1)  # the last lane holds planned deliveries
    names = itertools.count()
    running = [0]  # entries being run

    def perform(actions):
        for action in actions:
            kind = action[0]
            if kind == "item":
                _, lane_index, delay, count, spacing, children = action
                when = max(tails[lane_index], clock.now + delay)
                name = next(names)
                if agenda is None:
                    for offset in range(count):
                        clock.schedule_at(when + offset * spacing, fire,
                                          name if count == 1 else (name, offset),
                                          children if offset == 0 else ())
                elif count == 1:
                    agenda.add(agenda.lanes[lane_index], when, fire, (name, children))
                else:
                    lane = agenda.lanes[lane_index]
                    first = clock._sequence + 1
                    for offset in range(count):
                        clock._sequence += 1
                        lane.append((when + offset * spacing, clock._sequence, fire,
                                     ((name, offset), children if offset == 0 else ())))
                    agenda.added(when, first)
                tails[lane_index] = when + (count - 1) * spacing
            elif kind == "foreign":
                _, delay, absolute, children = action
                name = ("foreign", next(names))
                if absolute:
                    clock.schedule_at(clock.now + delay, fire, name, children)
                else:
                    clock.schedule(delay, fire, name, children)
            elif kind == "plan":
                when = max(tails[LANES] + 0.5, clock.now + action[1])
                tails[LANES] = when
                name = ("plan", next(names))
                log.append(("plan", clock.now, name))
                if agenda is None:
                    clock.plan(when, fire, name, ())
                else:
                    # At setup no entry runs: the specification's number 0.
                    key = _AFTER + (clock._order if running[0] else 0)
                    agenda.lanes[LANES].append((when, key, fire, (name, ())))
                    agenda.added(when, key)
            elif kind == "tied":
                _, delay, lane_index, absolute = action
                perform([("plan", delay), ("item", lane_index, delay, 1, 0.0, ()),
                         ("foreign", delay, absolute, ())])
            elif kind == "stop":
                clock.stop()
            else:
                raise Boom

    def fire(name, children):
        log.append((clock.now, name))
        running[0] += 1
        try:
            perform(children)
        finally:
            running[0] -= 1

    try:
        perform(history)
    except Boom:
        log.append(("raised at setup",))
    drain(clock, slices, log)
    return log


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
    """A pumped ``AsyncioClock`` dispatches what is due each quarter second
    and ignores ``stop()``; the specification's engine, run to each
    quarter second, does the same."""
    if isinstance(clock, spec.Engine):
        clock.stop = lambda: None
        wall = 0.0
        while clock._heap:
            wall += 0.25
            try:
                clock.run(until=wall)
            except Boom:
                log.append(("raised", clock.now))
        return
    loop = clock._loop
    while clock._heap:
        loop.now += 0.25
        try:
            clock.kick()
        except Boom:
            log.append(("raised", clock.now))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(HISTORIES, SLICES)
# A planned delivery, a numbered item and a later-numbered entry at one
# instant: the item, numbered before the instant's planned head, needs a
# carrier of its own to run ahead of the entry.
@example([("plan", 1.0), ("item", 0, 1.0, 1, 0.0, ()), ("foreign", 1.0, False, ())], [])
def test_an_agenda_runs_as_one_entry_per_item(history, slices):
    sim, engine = Simulator(), spec.Engine()
    log = play(sim, history, slices, _run_slices)
    assert log == play(engine, history, slices, _run_slices)
    # A number an item, as an entry each; a planned delivery takes none.
    plans = sum(entry[0] == "plan" for entry in log)
    assert sim._sequence == engine._sequence - plans


@settings(max_examples=150, deadline=None, derandomize=True)
@given(HISTORIES)
def test_a_pumped_clock_runs_no_item_inline(history):
    clocks = [AsyncioClock(_StubLoop()), spec.Engine()]
    got = play(clocks[0], history, (), _pump)
    want = play(clocks[1], history, (), _pump)
    assert got == want
    # One heap entry per item: the agenda's carriers are popped exactly
    # as often as the specification's entries.
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


def test_an_item_added_at_a_planned_heads_instant_is_carried_at_its_own_key():
    """A numbered item added at the instant of a carried planned head comes
    before it, so it gets a carrier of its own: it runs before an entry
    numbered after it, and the planned head after both."""
    sim = Simulator()
    agenda = Agenda(sim)
    log = []
    sim._sequence = arrival = sim._sequence + 1
    agenda.lanes[1].append((2.0, _AFTER + arrival, log.append, ("planned",)))
    agenda.added(2.0, _AFTER + arrival)
    agenda.add(agenda.lanes[0], 2.0, log.append, ("numbered item",))
    sim.schedule_at(2.0, log.append, "numbered entry")
    sim.run()
    assert log == ["numbered item", "numbered entry", "planned"]


def test_an_item_planned_again_later_runs_at_its_new_time():
    """A delivery planned again (behind a frame handed over on its own)
    keeps its key at a later time: the carrier left at the old time
    surfaces, finds its item not due and leaves it to a carrier of its own."""
    sim = Simulator()
    agenda = Agenda(sim)
    lane, key, log = agenda.lanes[1], _AFTER + 1, []
    lane.append((1.0, key, lambda: log.append(sim.now), ()))
    agenda.added(1.0, key)
    agenda.trim(lane, tail=1)
    lane.append((2.0, key, lambda: log.append(sim.now), ()))
    agenda.added(2.0, key)
    sim.run()
    assert log == [2.0] and sim.event_count == 2


# -- whole links, against one entry per arrival and per drain ----------------------


def _drive_link(path, t_proc, outages, slices, seed):
    """A LAMS link on short_hop, A sending 300 payloads, played ``run`` (as
    built), ``frame`` (B's receiver made to hear its channel again, so
    each I-frame is handed over on its own) or ``spec`` (the
    specification's link, one heap entry per arrival and per drain); the
    (now, what) of every payload B delivers — and, off the run path, of
    every frame B hears — with B's queue where each slice ends."""
    scenario = preset("short_hop").with_(processing_time=t_proc)
    plan = FaultPlan(faults=tuple(LinkOutage(start=start, duration=length)
                                  for start, length in outages))
    setup = build_simulation(scenario, "lams", seed=seed,
                             overrides={"receive_queue_capacity": 48})
    log = []
    if path == "spec":
        sim, a, b = spec_twin(setup, plan)
        link = SimpleNamespace(forward=a.sender.channel)
        b.receiver.deliver = lambda packet: log.append((sim.now, "up", packet))
    else:
        sim, link, a, b = setup.sim, setup.link, setup.endpoint_a, setup.endpoint_b
        deliver = b.receiver.deliver
        b.receiver.deliver = lambda packet: (log.append((sim.now, "up", packet)),
                                             deliver(packet))
        if len(plan):
            FaultInjector(sim, link, plan, tracer=setup.tracer)
    FiniteBatch(sim, a, count=300).start()
    if path != "run":
        heard = link.forward.receiver
        link.forward.receiver = lambda frame, corrupted: (
            log.append((sim.now, "heard", getattr(frame, "seq", None), corrupted)),
            heard(frame, corrupted))
        if path == "frame":
            b.receiver.hear(link.forward)
    for until in [*slices, 0.3]:
        sim.run(until=until)
        log.append(("slice", until, b.receiver.receive_queue_length))
    if path != "run":
        log = [entry for entry in log if entry[1] != "heard"], log
    return log, b.receiver.delivered, b.receiver.discards


@spec_settings(max_examples=25, deadline=None, derandomize=True)
@given(
    t_proc=st.sampled_from([0.0, 10e-6, 40e-6]),
    outages=st.lists(st.tuples(st.sampled_from([0.0021, 0.003, 0.0045, 0.006]),
                               st.sampled_from([0.0002, 0.0004, 0.002])), max_size=2),
    slices=st.lists(st.sampled_from([0.001, 0.0022, 0.004, 0.0101]), max_size=3).map(sorted),
    seed=st.integers(0, 3),
)
def test_a_link_delivers_as_with_one_entry_per_arrival_and_drain(t_proc, outages, slices, seed):
    """Outages (``down()`` mid-run), a receiver slower than the line and
    ``run(until)`` slices: the shipped link, as built and one frame at a
    time, delivers at the specification's ``(now, payload)``, with the
    same frames heard and the same queue at each slice."""
    want = _drive_link("spec", t_proc, outages, slices, seed)
    (delivered, heard), *counts = want
    got = _drive_link("run", t_proc, outages, slices, seed)
    assert got == (delivered, *counts)
    assert _drive_link("frame", t_proc, outages, slices, seed) == want
    assert counts[0] == 300


# -- digests recorded at the parent -------------------------------------------------

BURSTS = ("gilbert-elliott", {
    "good_ber": 1e-7, "bad_ber": 1e-3, "mean_good": 0.02, "mean_bad": 0.002,
})
OUTAGES = FaultPlan.from_dict({"name": "runs", "faults": [
    {"kind": "outage", "start": 0.03, "duration": 0.004, "direction": "both"},
    {"kind": "outage", "start": 0.09, "duration": 0.02, "direction": "forward"},
]})

# name -> (payloads delivered, digest of the delivered (now, payload)
# stream, trace records, digest of the record stream, digest of it with
# each instant's records sorted, digest of it source by source), recorded
# where every arrival and every drain was a heap entry of its own.  Each
# source's own records are held with ``==`` to the specification's log
# (``tests/test_trace_runs.py``, ``tests/test_receiver_runs.py``); these
# two rows pin what that leaves out, the order of records across sources:
# a single link's, which sends runs of up to 64 frames, and a 10-link
# ring's.  The record stream is ``tests/trace_runs.py``'s ``Split``; the
# sorted digest reorders records only within one instant, which is all
# the instant-start rule may do (docs/TUNING.md §10).  Both rows were
# re-recorded, every source's own stream unchanged, when a traced
# receiver's records began to go out with its next settle (``window64``:
# 5 + 5 of its 14 + 14 ``iframe_corrupted`` and ``error_logged`` moved),
# and ``ring10`` under the instant-start rule and when a frame handed
# over on its own began to plan its delivery as a run does (12 and 5
# ``payload_accepted`` records changed places with other links').
# ``window64`` was re-recorded once more when a run began to give its
# undeparted tail back: its delivered stream and its source-by-source
# digest became the ones a window of one read at the parent (the
# retransmissions a checkpoint queues mid-run no longer wait for the run
# to end), and the record stream's order across sources moved with the
# runs cut short.
PARENT_STREAMS = {
    "window64": (2000, "5900a210ba3ffa64", 8484, "9fa54c549e300b9c", "8c409aa3ba0cf7f5",
                "efe05aa93590793a"),
    "ring10": (600, "4ed30dec5b54dfdc", 9620, "2849cedf4643fdd5", "67e9536d79f5ee53",
              "65c7be81acc2b86f"),
}


def _digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def _by_instant(stream: list) -> list:
    """*stream* with each run of records at one instant sorted: what no
    reordering within an instant can change."""
    return [entry for _, tied in itertools.groupby(stream, key=lambda entry: entry[0])
            for entry in sorted(tied, key=repr)]


def _per_source(entries: list) -> list:
    """*entries* grouped by source, each source's in emission order."""
    sources: dict = {}
    for entry in entries:
        sources.setdefault(entry[1], []).append(entry)
    return sorted(sources.items())


def _record_digests(records: Split) -> tuple:
    """The record count, the record stream's digest, its digest with
    every instant's records sorted, and its digest source by source."""
    parts = (records.others, records.sent_per_source(), records.per_source())
    sorted_parts = (_by_instant(records.others),
                    [(source, _by_instant(stream)) for source, stream in parts[1]],
                    [(source, _by_instant(stream)) for source, stream in parts[2]])
    return (len(records), _digest(parts), _digest(sorted_parts),
            _digest((_per_source(records.others), *parts[1:])))


def _build_link(name, monitored):
    """The seeded LAMS link *name*, monitored or not, and its payloads."""
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
        build = dict(seed=5)
    return build_simulation(scenario, "lams", run_with_invariants=monitored, **build), payloads


def _link_streams(name, monitored):
    setup, payloads = _build_link(name, monitored)
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
    return (len(delivered), _digest(delivered), *_record_digests(records))


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
            *_record_digests(records))


@pytest.mark.parametrize("name", sorted(PARENT_STREAMS))
def test_streams_match_the_parent(name):
    if name == "ring10":
        assert _ring_streams() == PARENT_STREAMS[name]
        return
    delivered, delivered_digest = PARENT_STREAMS[name][:2]
    assert _link_streams(name, monitored=True) == PARENT_STREAMS[name]
    assert _link_streams(name, monitored=False)[:2] == (delivered, delivered_digest)


@pytest.mark.parametrize("name", ["nominal", "bursty", "outages", "stressed"])
def test_a_traced_run_takes_the_untraced_runs_items(name, monkeypatch):
    """Monitored or not, a link pops the same entries, its receivers put
    the same items on their channels' agendas (a delivery each, and the
    Stop-Go bit's) and deliver the same ``(now, payload)`` stream: the
    records of a traced receiver go out with its settles, at no item of
    their own."""
    inserted = []
    insert = Agenda.insert

    def inserting(agenda, lane, items):
        inserted.extend(item for item in items
                        if isinstance(getattr(item[2], "__self__", None), LamsReceiver))
        insert(agenda, lane, items)

    monkeypatch.setattr(Agenda, "insert", inserting)

    def observe(monitored):
        inserted.clear()
        setup, payloads = _build_link(name, monitored)
        if setup.recovery is not None and not monitored:
            setup.recovery.detach()  # the fault plan's listener
        sim, receiver = setup.sim, setup.endpoint_b.receiver
        delivered = []
        deliver = receiver.deliver
        receiver.deliver = lambda packet: (delivered.append((sim.now, packet)), deliver(packet))
        FiniteBatch(sim, setup.endpoint_a, payloads).start()
        setup.run(until=1.0)
        assert setup.tracer.active is monitored and len(delivered) == payloads
        return sim.event_count, len(inserted), receiver.delivered, delivered

    traced = observe(True)
    assert traced[1] > 0  # Stop-Go items
    assert traced == observe(False)


# -- the instant-start rule: a planned delivery ranks at the start of its instant ----


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
        processing_time=unit / 2, cframe_base_bits=128)
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
def test_a_planned_delivery_runs_after_what_was_numbered_before_its_instant(traced):
    """The run path plans q's delivery when its run is decided, before the
    other channel's arrival is pushed; handed over one at a time, q's
    delivery is numbered as it lands, after that push.  Both ways the
    arrival was numbered before the delivery's instant, so by the
    instant-start rule it runs first, traced or not — as it does in the
    specification, whose heap key states the rule."""
    unit = 1 / 1024
    want = [(5.5 * unit, "p0"), (6.5 * unit, "p1"), (7.5 * unit, "p2"),
            (45.5 * unit, "x"), (45.5 * unit, "q")]
    assert _tied_across_links(traced, one_at_a_time=True) == want
    assert _tied_across_links(traced, one_at_a_time=False) == want
    assert _tied_across_links_in_the_specification() == want


def _tied_across_links_in_the_specification() -> list:
    """:func:`_tied_across_links` on the specification's engine, where the
    rule is the heap's sort key."""
    engine, unit, log = spec.Engine(), 1 / 1024, []
    channels = [spec.Channel(engine, name, 2.0 ** 20, delay, PerfectChannel(), PerfectChannel(),
                             StreamRegistry()) for name, delay in
                (("fwd", 4 * unit), ("rev", 4 * unit), ("other", 2 * unit))]
    config = preset("nominal").lams_config(
        iframe_payload_bits=1024 - 80, checkpoint_interval=16 * unit,
        processing_time=unit / 2, cframe_base_bits=128)
    a, b = spec.make_pair(engine, config, *channels[:2],
                          deliver_b=lambda packet: log.append((engine.now, packet)))
    channels[2].receiver = lambda frame, corrupted: log.append((engine.now, frame.payload))
    a.start()
    b.start()
    for packet in ("p0", "p1", "p2"):
        a.accept(packet)
    engine.schedule_at(40 * unit, a.accept, "q")
    engine.schedule_at(43 * unit, channels[2].send,
                       IFrame(seq=0, payload="x", size_bits=512, transmit_index=0))
    engine.run(until=64 * unit)
    return log


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
    ``sat_clean`` source): 903 events for 9115 frames.  With an entry per
    arrival and per drain it was 17376, 1.92 a frame; with both on the
    agenda, 930; with the receiver taking runs whole, one agenda item per
    delivery and none per arrival, 929; with retransmissions leaving as
    runs, 867; with a window of new frames paced from its accumulated
    departure, which arms no wake-up an ulp after the channel's run ends,
    853 for 9071 frames; with a run giving its undeparted tail back to the
    sender when a checkpoint queues retransmissions or is itself queued
    behind it, 903 for 9115 (the frames of the run still on the
    transmitter that have left it are counted now)."""
    scenario = preset("nominal")
    setup = build_simulation(scenario, "lams", seed=7)
    sender = setup.endpoint_a.sender
    SaturatedSource(setup.sim, setup.endpoint_a, backlog_fn=lambda: sender.pending_count,
                    low_water=256, chunk=512, poll_interval=scenario.iframe_time * 64).start()
    setup.run(until=0.25)
    frames = setup.link.forward.frames_sent + setup.link.reverse.frames_sent
    assert (setup.sim.event_count, frames, len(setup.delivered)) == (903, 9115, 8395)
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
