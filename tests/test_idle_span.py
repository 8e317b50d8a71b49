"""An idle link in closed form (``repro.core.idle``) against the
specification and against the same link frame by frame.

A LAMS-DLC link with nothing to send parks at a checkpoint instant and
owes its checkpoints until something touches it.  The oracle is the
specification's pair (``tests/spec/``), one heap entry per event, on the
same configuration, error models and seed: every
counter the span moves, the checkpoint-timer deadline and the Stop-Go
rate must read the same, with ``==``, wherever the touch falls — exactly
on a checkpoint instant, on the timer's deadline, or between — and
whatever it is: a read between runs, a read inside an entry, a packet
handed down, an outage.  High control-frame error rates put streaks of
corrupted checkpoints at every position, so the timer expires inside
spans and the link wakes itself.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import make_endpoint_pair
from repro.core.idle import ParkedLink
from repro.faults.injector import FaultInjector
from repro.faults.plan import BerStorm, FaultPlan
from repro.simulator import FullDuplexLink, Simulator
from repro.simulator.errormodel import GilbertElliottChannel, make_error_model
from repro.simulator.rng import StreamRegistry
from repro.simulator.trace import Tracer
from repro.topology import Constellation, FlowSpec, LinkRuntime, build_constellation, ring_topology
from repro.workloads import preset

from . import spec
from .conftest import PerFrameClock, spec_settings

NOMINAL = preset("nominal")
W_CP = NOMINAL.checkpoint_interval


def grid(k: int) -> float:
    """The k-th checkpoint instant, as the round accumulates it."""
    when = 0.0
    for _ in range(k):
        when += W_CP
    return when


def build(case: dict, path: str):
    """An idle link of *case* on the shipped engine (``parked``) or the
    specification's (``spec``); both endpoints started."""
    config = NOMINAL.lams_config(cumulation_depth=case["depth"], rate_increase_step=case["step"])
    errors = [make_error_model("bernoulli", ber=1e-6) for _ in range(2)]
    errors.append(make_error_model("bernoulli", ber=case["cframe_ber"]))
    streams = StreamRegistry(case["seed"])
    delivered = []
    if path == "spec":
        sim = spec.Engine()
        link = SimpleNamespace(
            forward=spec.Channel(sim, "idle.fwd", NOMINAL.bit_rate, NOMINAL.one_way_delay,
                                 errors[0], errors[2], streams),
            reverse=spec.Channel(sim, "idle.rev", NOMINAL.bit_rate, NOMINAL.one_way_delay,
                                 errors[1], errors[2], streams))
        a, b = spec.make_pair(sim, config, link.forward, link.reverse,
                              deliver_b=lambda packet: delivered.append((sim.now, packet)))
    else:
        sim = Simulator()
        link = FullDuplexLink(sim, NOMINAL.bit_rate, NOMINAL.one_way_delay, name="idle",
                              iframe_errors=errors[0], reverse_iframe_errors=errors[1],
                              cframe_errors=errors[2], streams=streams)
        a, b = make_endpoint_pair("lams", sim, link, config,
                                  deliver_b=lambda packet: delivered.append((sim.now, packet)))
    a.start()
    b.start()
    for endpoint in (a, b):
        endpoint.sender.flow.rate_fraction = case["rate"]
    return sim, link, a, b, delivered


def snapshot(path: str, link, a, b) -> tuple:
    """Every counter the span moves, the deadlines and the rates."""
    channels = tuple(
        (channel.sent, channel.corrupted, sum(channel.lost.values()), channel.busy_seconds)
        if path == "spec" else (channel.frames_sent, channel.frames_corrupted,
                                channel.frames_lost_outage, channel.busy_seconds)
        for channel in (link.forward, link.reverse))
    ends = tuple(
        (end.receiver.cp_index, end.receiver.checkpoints_sent,
         end.sender.checkpoints_received, end.sender.checkpoints_corrupted,
         end.sender.request_naks_sent, end.sender.failures_declared, end.sender.iframes_sent,
         end.sender.flow.rate_fraction,
         end.sender.checkpoint_timer.deadline if path == "spec"
         else end.sender.checkpoint_deadline)
        for end in (a, b))
    return channels + ends


def touch_time(case: dict) -> float:
    """Where the touch falls: on a checkpoint instant, on the timer's
    deadline as the specification has it there, or between the two."""
    instant = grid(case["at"])
    if case["touch"] == "instant":
        return instant
    if case["touch"] == "between":
        return instant + 0.37 * W_CP
    sim, _, a, _, _ = build(case, "spec")
    sim.run(until=instant)
    deadline = a.sender.checkpoint_timer.deadline
    return instant if deadline is None else deadline


def storm(sim, link, path: str, start: float) -> None:
    """Both channels' control frames under a BER of 0.3 for four W_cp
    from *start*: a fault injector's model swap on the shipped link, the
    same swap by hand on the specification's."""
    end = start + 4 * W_CP
    if path == "spec":
        for channel in (link.forward, link.reverse):
            base, stormy = channel.errors[True], make_error_model("bernoulli", ber=0.3)
            sim.schedule_at(start, channel.errors.__setitem__, True, stormy)
            sim.schedule_at(end, channel.errors.__setitem__, True, base)
    else:
        FaultInjector(sim, link, FaultPlan(faults=(BerStorm(
            start=start, duration=end - start, params=(("ber", 0.3),), direction="both",
            targets=("cframe",)),)))


def play(case: dict, path: str) -> list:
    """Snapshots of *case* played on *path*: at the touch and at the end."""
    when = touch_time(case)
    sim, link, a, b, delivered = build(case, path)
    seen = []
    action = case["action"]
    if action == "storm":  # a third of a control frame's time after the touch
        storm(sim, link, path, when + 1e-7)
    elif action == "inside":
        sim.schedule_at(when, lambda: seen.append(snapshot(path, link, a, b)))
    elif action == "accept":
        sim.schedule_at(when, lambda: [a.accept(("p", k)) for k in range(3)])
    elif action == "outage":
        sim.schedule_at(when, link.reverse.down)
        sim.schedule_at(when + 0.003, link.reverse.up)
    if action == "read":
        sim.run(until=when)
        seen.append(snapshot(path, link, a, b))
    sim.run(until=when + case["after"] * W_CP)
    seen.append(snapshot(path, link, a, b))
    seen.append(delivered)
    return seen


@spec_settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 40),
    cframe_ber=st.sampled_from([0.0, 1e-8, 2e-3, 6e-3, 2e-2, 5e-2]),
    depth=st.sampled_from([1, 2, 3, 4]),
    at=st.integers(1, 40),
    after=st.integers(1, 40),
    touch=st.sampled_from(["instant", "deadline", "between"]),
    action=st.sampled_from(["read", "inside", "accept", "outage", "storm"]),
    rate=st.sampled_from([(1.0, 0.1), (0.3, 0.013)]),
)
def test_a_parked_link_agrees_with_the_specification(seed, cframe_ber, depth, at, after,
                                                      touch, action, rate):
    case = dict(seed=seed, cframe_ber=cframe_ber, depth=depth, at=at, after=after,
                touch=touch, action=action, rate=rate[0], step=rate[1])
    assert play(case, "parked") == play(case, "spec")


# Cases a generated run may miss, each named for the edge it holds.
EDGES = {
    # A read between runs exactly at a checkpoint instant: the round there
    # has fired, and its checkpoints are counted.
    "read-on-an-instant": dict(seed=3, cframe_ber=1e-8, depth=3, at=17, after=5,
                               touch="instant", action="read", rate=1.0, step=0.1),
    # The rate climbs back a step per intact checkpoint of the span.
    "rate-ramp": dict(seed=4, cframe_ber=1e-8, depth=3, at=9, after=30,
                      touch="between", action="read", rate=0.3, step=0.013),
    # Streaks of corrupted checkpoints: the timer expires inside spans,
    # here where the look-ahead found the streak long before it came.
    "streaks": dict(seed=1, cframe_ber=2e-3, depth=3, at=10, after=120,
                    touch="between", action="read", rate=1.0, step=0.1),
    "streaks-deep": dict(seed=8, cframe_ber=6e-3, depth=3, at=35, after=60,
                         touch="deadline", action="inside", rate=0.3, step=0.013),
    # Start-up: the link parks at its first checkpoint instant while each
    # sender's start-up watchdog (RTT + C_depth W_cp, ~48 ms) holds.  The
    # first intact checkpoint restarts A's timer to ~37 ms, earlier than
    # the watchdog stood, and a streak after it lets the timer expire
    # there: the parked link held the watchdog from the park and looks at
    # the earlier restart.
    "start-up": dict(seed=0, cframe_ber=6e-3, depth=3, at=8, after=10,
                     touch="between", action="read", rate=1.0, step=0.1),
    # The same start, with a model swap on both channels landing just
    # after the park, before either checkpoint of the park instant has
    # left its transmitter: the look-ahead the park filled has been read
    # by no draw, and the swapped-in model must draw what it would have.
    "start-up-storm": dict(seed=0, cframe_ber=6e-3, depth=3, at=1, after=12,
                           touch="instant", action="storm", rate=1.0, step=0.1),
    # No checkpoint lands intact at A before its watchdog (~53 ms at
    # C_depth 4) is due, so A's own timer keeps it.  B's timer expires
    # first, after a streak, and wakes the link; A's watchdog, started
    # before the packets' entry was numbered, still expires ahead of them
    # at its instant.
    "watchdog-kept-on-wake": dict(seed=166, cframe_ber=2e-2, depth=4, at=6, after=8,
                                  touch="deadline", action="accept", rate=1.0, step=0.013),
}


@pytest.mark.parametrize("name", sorted(EDGES))
def test_an_edge_of_a_parked_span_agrees_with_the_specification(name):
    case = EDGES[name]
    parked = play(case, "parked")
    assert parked == play(case, "spec")
    first = parked[0]
    if name == "rate-ramp":
        assert {first[2][7], first[3][7]} != {1.0}  # read while still ramping
    if name.startswith("streaks"):
        last = parked[-2]
        assert last[2][4] + last[3][4] > 0  # a Request-NAK: the timer expired
    if name == "start-up":  # read at ~42 ms: expired before the watchdog was due
        assert first[2][4] == 1


def test_a_watchdog_held_from_the_park_keeps_its_number():
    """The link parks at 5 ms holding both start-up watchdogs.  The
    channel towards A goes down at 6 ms, which wakes the link, and drops
    the checkpoints that would have restarted A's timer, so A's watchdog
    expires unmoved.  Given back to A's timer with the number it was
    started with, it expires ahead of packets handed down at its instant
    by an entry scheduled after the start, as in the specification."""
    case = dict(seed=0, cframe_ber=1e-8, depth=3, rate=1.0, step=0.1)
    seen = []
    for path in ("parked", "spec"):
        sim, link, a, b, delivered = build(case, path)
        watchdog = (a.sender.checkpoint_timer.deadline if path == "spec"
                    else a.sender.checkpoint_deadline)
        sim.schedule_at(watchdog, lambda: [a.accept(("p", k)) for k in range(3)])
        sim.schedule_at(0.006, link.reverse.down)
        sim.schedule_at(0.040, link.reverse.up)
        sim.run(until=0.07)
        seen.append((snapshot(path, link, a, b), delivered))
    assert seen[0] == seen[1]
    assert seen[0][0][2][4:7] == (1, 0, 0)  # a Request-NAK, and no I-frame sent


def two_bursts(clock: Simulator):
    """A 12-link ring whose four flows send, stop, and send again."""
    topology = ring_topology(12, name="bursts-12")
    names = topology.node_names()
    flows = []
    for burst, start in enumerate((0.0, 0.2)):
        for s in random.Random(11).sample(range(12), 4):
            flows.append(FlowSpec(source=names[s], destination=names[(s + 3) % 12],
                                  messages=15, interval=0.003, start=start, poisson=True,
                                  name=f"burst{burst}.{s}"))
    return build_constellation(topology, sim=clock, master_seed=5, flows=flows,
                               horizon=0.4, probe_interval=0.02)


def test_a_ring_whose_flows_start_stop_and_start_again_runs_as_frame_by_frame():
    """Between and after the bursts the ring's links park; the ring ends
    where the same ring frame by frame ends, to the bit."""
    parked, frame = two_bursts(Simulator()), two_bursts(PerFrameClock())
    held = []
    for until in (0.1, 0.19, 0.3, 0.45):
        for ring in (parked, frame):
            ring.run(until=until)
        held.append(sum(runtime.link.forward._parked is not None
                        for runtime in parked.links.values()))
    assert held[1] > 6 and held[3] == 12 and held[2] < held[1]  # parked, woken, parked
    for ring in (parked, frame):
        assert ring.datagrams_delivered() == 120
    assert parked.link_summaries() == frame.link_summaries()
    outcome = [{key: value for key, value in ring.network_rollup().items()
                if key not in ("events", "peak_heap")} for ring in (parked, frame)]
    assert outcome[0] == outcome[1]
    assert ([list(log.delays) for log in parked.logs.values()]
            == [list(log.delays) for log in frame.logs.values()])
    assert parked.sim.event_count < frame.sim.event_count


def counters(ring) -> list:
    """Every channel, receiver and sender counter of every link of *ring*."""
    rows = []
    for runtime in ring.links.values():
        for channel in (runtime.link.forward, runtime.link.reverse):
            rows.append((channel.frames_sent, channel.frames_corrupted,
                         channel.frames_lost_outage, channel.busy_seconds))
        for end in (runtime.endpoint_a, runtime.endpoint_b):
            sender = end.sender
            rows.append((end.receiver.cp_index, end.receiver.checkpoints_sent,
                         sender.checkpoints_received, sender.checkpoints_corrupted,
                         sender.request_naks_sent, sender.failures_declared,
                         sender.checkpoint_deadline, sender.flow.rate_fraction,
                         sender.flow.go_indications))
    return rows


def test_an_idle_ring_starts_up_in_one_pass(monkeypatch):
    """An idle 120-link ring parks at its first checkpoint instant (5 ms)
    with each look-ahead filled and each start-up watchdog (~48 ms) held
    by the parked link: in the first 0.1 s no parked link looks again
    (``ParkedLink._due``) and no sender's timer asks one
    (``ParkedLink.expired``), and every counter reads as frame by frame."""
    looks = []
    for name in ("_due", "expired"):
        method = getattr(ParkedLink, name)
        monkeypatch.setattr(ParkedLink, name, lambda self, *args, _method=method:
                            looks.append(self.sim.now) or _method(self, *args))

    def ring(clock: Simulator):
        return build_constellation(ring_topology(120, name="idle-120"), sim=clock,
                                   master_seed=3, probe_interval=0.005)

    parked, frame = ring(Simulator()), ring(PerFrameClock())
    for each in (parked, frame):
        each.run(until=0.1)
    assert all(runtime.link.forward._parked is not None for runtime in parked.links.values())
    assert looks == []
    assert counters(parked) == counters(frame)


def test_the_probe_reads_nothing_of_a_parked_link(monkeypatch):
    """``Constellation.sample_state`` reads only active links: on the
    two-burst ring it asks no parked link for its buffered payloads, and
    each link's ``peak_buffered`` and the probe's ticks read as frame by
    frame; the parked ring's sampled ``peak_heap`` is no wider."""
    asked, ticks = [], []
    buffered, sample = LinkRuntime.buffered_payloads, Constellation.sample_state
    monkeypatch.setattr(LinkRuntime, "buffered_payloads", lambda runtime:
                        asked.append(runtime.link.forward._parked) or buffered(runtime))
    monkeypatch.setattr(Constellation, "sample_state", lambda ring:
                        ticks.append(type(ring.sim)) or sample(ring))
    parked, frame = two_bursts(Simulator()), two_bursts(PerFrameClock())
    for ring in (parked, frame):
        ring.run(until=0.45)
    assert asked and all(link is None for link in asked)
    assert ticks.count(Simulator) == ticks.count(PerFrameClock) > 0
    assert ([summary["peak_buffered"] for summary in parked.link_summaries()]
            == [summary["peak_buffered"] for summary in frame.link_summaries()])
    assert any(summary["peak_buffered"] for summary in parked.link_summaries())
    assert 0 < parked.peak_heap <= frame.peak_heap


def idle_pair(variant: str):
    """An idle LAMS-DLC link made one of the ways that keep it frame by frame."""
    clock = PerFrameClock() if variant == "clock" else Simulator()
    tracer = Tracer()
    if variant == "traced":
        tracer.listeners.append(lambda record: None)
    cframes = (GilbertElliottChannel(good_ber=1e-9, bad_ber=1e-5, mean_good=0.05,
                                     mean_bad=0.001, bit_rate=NOMINAL.bit_rate)
               if variant == "bursts"
               else make_error_model("bernoulli", ber=1e-8))
    delay = ((lambda t: NOMINAL.one_way_delay) if variant == "orbit"
             else NOMINAL.one_way_delay)
    link = FullDuplexLink(clock, NOMINAL.bit_rate, delay, name="held", cframe_errors=cframes,
                          streams=StreamRegistry(1), tracer=tracer)
    protocol = "hdlc" if variant == "hdlc" else "lams"
    config = (NOMINAL.hdlc_config() if protocol == "hdlc" else NOMINAL.lams_config())
    a, b = make_endpoint_pair(protocol, clock, link, config, tracer=tracer)
    if variant == "watched":
        link.forward.send = link.forward.send  # an instance attribute: each frame is seen
    a.start()
    b.start()
    return clock, link


@pytest.mark.parametrize("variant", ["plain", "traced", "bursts", "orbit", "clock", "hdlc",
                                     "watched"])
def test_what_stays_on_the_per_frame_path(variant):
    """docs/TOPOLOGY.md's list: a traced link, a control-frame error model
    with no exact look-ahead, a time-varying delay, a clock that is not
    ``Simulator`` itself, the SR-HDLC family, a channel whose sends are
    watched.  Only the plain idle link parks."""
    clock, link = idle_pair(variant)
    clock.run(until=0.1)
    parked = link.forward._parked is not None
    assert parked == (variant == "plain")
    assert any(round_.held for round_ in clock._rounds.values()) == parked
    if variant != "hdlc":  # an idle SR-HDLC link sends nothing
        assert link.forward.frames_sent > 15


def test_the_peak_heap_follows_active_links_not_declared_ones():
    """Two flows on a ring of 12 and on a ring of 120: once the start-up
    watchdogs (one per sender, armed at 0) have lapsed, the parked links
    hold no heap entry, and the larger ring's heap is no wider."""
    def ring(size: int):
        topology = ring_topology(size, name=f"heap-{size}")
        names = topology.node_names()
        flows = [FlowSpec(source=names[s], destination=names[s + 2], messages=60,
                          interval=0.004, poisson=True) for s in (0, 5)]
        constellation = build_constellation(topology, master_seed=3, flows=flows,
                                            horizon=0.3, probe_interval=0.005)
        constellation.run(until=0.06)
        constellation.peak_heap = 0
        constellation.run(until=0.3)
        return constellation

    small, large = ring(12), ring(120)
    assert small.datagrams_delivered() == large.datagrams_delivered() == 120
    assert 0 < large.peak_heap <= small.peak_heap


def test_a_cumulation_depth_of_one_times_out_on_intact_checkpoints():
    """A limit of the paper's timeout (docs/PROTOCOL.md §5 S3): with
    ``C_depth`` = 1 the checkpoint timeout is ``W_cp`` itself, so an
    intact checkpoint landing an ulp of float accumulation past its
    predecessor's ``+ W_cp`` finds the timer fired, and the sender sends a
    Request-NAK on a clean idle link.  Such a link never parks; the
    shipped pair and the specification send the same Request-NAKs."""
    case = dict(seed=14, cframe_ber=1e-8, depth=1, rate=1.0, step=0.1)
    seen = {}
    for path in ("parked", "spec"):
        sim, link, a, b, _ = build(case, path)
        sim.run(until=0.2)
        seen[path] = snapshot(path, link, a, b)
    assert seen["parked"] == seen["spec"]
    ends = seen["parked"][2:]
    assert [end[3] for end in ends] == [0, 0]  # no checkpoint corrupted
    assert [end[4] for end in ends] == [2, 2]  # Request-NAKs per sender
