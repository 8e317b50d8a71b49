"""``accept_many`` against the per-packet acceptance it replaces.

Every sender family takes a stretch of packets in one call, and the
sources, the session manager and the DES conformance backend offer
through it.  Its outcome must be that of ``for p in packets: if not
accept(p): break`` in every respect.  Each history here is played on two
copies of one sender: one offered to the shipped way, the other one
packet at a time by the sources' per-packet loops
(``tests/baseline_sender_reference.py``) — a baseline sender through its
per-packet ``accept`` as it was, a LAMS-DLC sender (``lams``) as the
specification's (``tests/spec/``) at a window of four, and (``lams-own``)
as the shipped sender's own ``accept``, one call a packet.  After every
step the two must agree, compared with ``==``: the pending queue, the
outstanding frames and the counters, the ``sendbuf`` gauge, the frames
on the channel, the source's ``offered`` / ``refused`` and how often it
called ``make_packet``; but for all but the specification also the simulator's
event count and the trace records with acceptances expanded to one
tuple per payload, and for the baselines their columns.
"""

from __future__ import annotations

from functools import partial
from itertools import count
from types import SimpleNamespace
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LamsDlcConfig
from repro.core.frames import CheckpointFrame
from repro.core.sender import LamsSender
from repro.hdlc.config import HdlcConfig
from repro.hdlc.frames import RrFrame
from repro.hdlc.sender import HdlcSender
from repro.nbdt.config import NbdtConfig
from repro.nbdt.frames import NbdtReport
from repro.nbdt.sender import NbdtSender
from repro.simulator.engine import Simulator
from repro.simulator.trace import Tracer
from repro.workloads.generators import FiniteBatch, SaturatedSource

from . import baseline_sender_reference, spec
from .baseline_sender_reference import (
    ReferenceFiniteBatch, ReferenceSaturatedSource, accept_each, buffered_accept,
)
from .test_sender_window import FRAME_TIME, RTT, StubChannel, sender_view
from .trace_runs import expand

FAMILIES = ["lams", "lams-own", "hdlc", "gbn", "nbdt-continuous", "nbdt-multiphase"]


def make_config(family: str, capacity):
    if family.startswith("lams"):
        return LamsDlcConfig(send_buffer_capacity=capacity, batch_window=4)
    if family.startswith("nbdt"):
        return NbdtConfig(mode=family.split("-")[1], timeout=8 * FRAME_TIME,
                          send_buffer_capacity=capacity)
    return HdlcConfig(window_size=3, sequence_bits=3, timeout=8 * FRAME_TIME,
                      selective=family == "hdlc", send_buffer_capacity=capacity)


class Side:
    """One sender on its own engine, stub channel and tracer, offered to
    the shipped way (``shipped``) or one packet at a time."""

    def __init__(self, family: str, config: Any, shipped: bool, source) -> None:
        self.family, self.lams = family, family.startswith("lams")
        self.spec = family == "lams" and not shipped
        self.sim = sim = spec.Engine() if self.spec else Simulator()
        self.tracer = Tracer()
        self.log: list[tuple] = []
        self.tracer.listeners.append(self._on_record)
        if self.lams:
            self.channel = StubChannel(sim, RTT / 2)
            self.sender = (spec.Sender(sim, config, self.channel, RTT) if self.spec else
                           LamsSender(sim, config, self.channel, RTT, tracer=self.tracer))
        else:
            self.channel = baseline_sender_reference.StubChannel(
                sim, config.iframe_bits / FRAME_TIME, 2 * FRAME_TIME)
            kind = NbdtSender if family.startswith("nbdt") else HdlcSender
            self.sender = kind(sim, config, self.channel, tracer=self.tracer)
        self.shipped = shipped
        # Offered one packet at a time: a target with ``accept`` only.
        self.target = self.sender if shipped else SimpleNamespace(
            accept=self.sender.accept if self.lams else partial(buffered_accept, self.sender))
        self.made = 0
        self._serial = count()  # tells apart the packets of repeated batches
        self.offers: list[int] = []
        self.batches: list[tuple[int, int]] = []
        self.source = None
        self.sender.start()
        if source is not None:
            chunk, low_water, poll, limit = source
            kind = SaturatedSource if shipped else ReferenceSaturatedSource
            self.source = kind(
                sim, self.target, backlog_fn=lambda: self.sender.pending_count,
                low_water=low_water, chunk=chunk, poll_interval=poll * FRAME_TIME,
                make_packet=self.make_packet, limit=limit,
            )
            self.source.start()

    def _on_record(self, record) -> None:
        entry = (record.time, record.source, record.event, record.detail)
        if record.event == "payloads_accepted":
            self.log.extend(expand(entry, modulus=1))  # no sequence numbers in it
        elif record.event == "payload_accepted":
            self.log.append(("payload_accepted", record.time, record.detail["payload"]))
        else:
            self.log.append(entry)

    def make_packet(self, index: int, now: float) -> tuple:
        self.made += 1
        return ("pkt", index, now, next(self._serial))

    def packets(self, n: int):
        now = self.sim.now
        return (self.make_packet(i, now) for i in range(n))

    # -- steps ---------------------------------------------------------------

    def offer(self, n: int, how: str) -> None:
        packets = list(self.packets(n)) if how == "list" else self.packets(n)
        if self.shipped and how != "one":
            self.offers.append(self.sender.accept_many(packets))
        else:  # "one": the shipped accept, one packet a call
            self.offers.append(accept_each(self.target.accept, packets))

    def batch(self, n: int) -> None:
        kind = FiniteBatch if self.shipped else ReferenceFiniteBatch
        batch = kind(self.sim, self.target, n, make_packet=self.make_packet)
        batch.start()
        self.batches.append((batch.offered, batch.refused))

    def hold(self) -> None:
        if self.lams:
            self.channel.busy = True
        else:
            self.channel.busy += 1

    def release(self) -> None:
        if self.lams:
            self.channel.idle()
        elif self.channel.busy:
            self.channel._sent()

    def acknowledge(self, nak: bool) -> None:
        """Resolve everything sent so far (a NAK of the oldest live frame
        first, for LAMS-DLC, when asked)."""
        sender, now = self.sender, self.sim.now
        if self.lams:
            live = [frame[0] for frame in sender_view(sender)["outstanding"]]
            sender.on_checkpoint(CheckpointFrame(
                cp_index=0, issue_time=now + RTT, naks=tuple(live[:1]) if nak else (),
                frontier=sender.iframes_sent - 1), False)
            return
        buffer = sender.buffer
        if self.family.startswith("nbdt"):
            sender.on_report(NbdtReport(cumulative=0, highest_seen=buffer.next_index - 1), False)
        else:
            sender.on_rr(RrFrame(nr=buffer.space.seq_of(buffer.next_index)), False)

    def stop_go(self, stop: bool) -> None:
        if self.lams:
            self.sender.flow.on_stop_go(stop)

    def stop(self) -> None:
        self.sender.stop()

    def start(self) -> None:
        if not self.lams and not self.sender._started:
            self.sender.start()

    # -- what is compared ----------------------------------------------------

    def state(self) -> dict:
        sender = self.sender
        state = dict(
            made=self.made, offers=self.offers, batches=self.batches,
            source=None if self.source is None else (self.source.offered, self.source.refused),
            now=self.sim.now)
        if self.lams:
            state.update(sender_view(sender), runs=[
                (when, list(map(repr, frames))) for when, frames in self.channel.runs])
            if self.family == "lams":
                return state
        else:
            buffer, gauge = sender.buffer, sender._sendbuf
            state.update(
                pending=list(buffer._pending), sent=(sender.iframes_sent, sender.retransmissions),
                counters=(buffer.enqueued_total, buffer.refused_total, buffer.peak_occupancy),
                items=buffer.items, arrivals=buffer.arrivals, first_sends=buffer.first_sends,
                retx=buffer.retx, base=buffer.base, live=buffer.live, monotone=buffer.monotone,
                gauge=None if gauge is None else (
                    gauge.mean(), gauge.maximum, gauge._area, gauge._level, gauge._last_time),
                frames=list(map(repr, self.channel.frames)), started=sender._started,
                timer=sender._timer.deadline)
            if self.family.startswith("nbdt"):
                state.update(phase=(sender._phase_new_remaining, sender._awaiting_report))
        return dict(state, events=self.sim.event_count, log=self.log)


class AcceptRig:
    """Two copies of one sender, one offered to each way."""

    def __init__(self, family: str, capacity=None, source=None) -> None:
        config = make_config(family, capacity)
        self.shipped = Side(family, config, True, source)
        self.reference = Side(family, config, False, source)
        self.check()

    def play(self, step: tuple) -> None:
        kind, *args = step
        if kind == "run":
            until = self.reference.sim.now + args[0] * FRAME_TIME
            for side in (self.shipped, self.reference):
                side.sim.run(until=until)
        else:
            for side in (self.shipped, self.reference):
                getattr(side, kind)(*args)
        self.check()

    def check(self) -> None:
        shipped, reference = self.shipped.state(), self.reference.state()
        for key in reference:
            assert shipped[key] == reference[key], key


OFFER = st.tuples(st.just("offer"), st.integers(0, 7),
                  st.sampled_from(["stretch", "stretch", "list", "one"]))
HOLD = st.tuples(st.just("hold"))
STEP = st.one_of(
    OFFER, OFFER, OFFER,
    st.tuples(st.just("batch"), st.integers(0, 6)),
    HOLD, HOLD, st.tuples(st.just("release")),
    st.tuples(st.just("run"), st.sampled_from([0.5, 1, 3, 8, 40])),
    st.tuples(st.just("acknowledge"), st.booleans()),
    st.tuples(st.just("stop_go"), st.booleans()),
    st.tuples(st.sampled_from(["stop", "start"])),
)
SOURCE = st.none() | st.tuples(
    st.integers(1, 6), st.integers(0, 6), st.sampled_from([0.5, 2, 5]),
    st.none() | st.integers(0, 20),
)


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=100, deadline=None)
@given(capacity=st.sampled_from([None, 1, 3, 8]), source=SOURCE, busy=st.booleans(),
       steps=st.lists(STEP, max_size=24))
def test_accept_many_is_the_per_packet_loop(family, capacity, source, busy, steps):
    """*busy*: the channel is held busy before the first packet."""
    rig = AcceptRig(family, capacity, source)
    for step in [("hold",)] * busy + steps:
        rig.play(step)


# -- the cases the histories must reach, spelt out -----------------------------


def test_an_idle_channel_starts_a_run_of_one_and_the_rest_enter_together():
    rig = AcceptRig("lams")
    rig.play(("offer", 5, "stretch"))
    side = rig.shipped
    assert [len(frames) for _, frames in side.channel.runs] == [1]
    assert [entry for entry in side.log if entry[0] == "payload_accepted"] == [
        ("payload_accepted", 0.0, ("pkt", i, 0.0, i)) for i in range(5)]
    assert side.sender.buffer.pending_count == 4


@pytest.mark.parametrize("family", FAMILIES)
def test_a_full_buffer_takes_one_packet_more_and_refuses_it(family):
    rig = AcceptRig(family, capacity=3)
    rig.play(("hold",))
    rig.play(("offer", 3, "stretch"))  # exactly full: nothing refused
    buffer = rig.shipped.sender.buffer
    assert (rig.shipped.offers, rig.shipped.made, buffer.refused_total) == ([3], 3, 0)
    rig.play(("offer", 4, "stretch"))
    assert (rig.shipped.offers, rig.shipped.made, buffer.refused_total) == ([3, 0], 4, 1)


def test_a_failed_sender_takes_one_packet_and_refuses_it():
    rig = AcceptRig("lams")
    rig.play(("stop",))
    rig.play(("offer", 5, "stretch"))
    assert (rig.shipped.offers, rig.shipped.made) == ([0], 1)
    assert rig.shipped.sender.buffer.refused_total == 0


def test_a_stretch_while_busy_is_one_record_and_one_gauge_sample():
    side = Side("lams", make_config("lams", None), True, None)
    side.hold()
    updates = []
    side.sender.accept_many(side.packets(1))  # creates the gauge
    gauge = side.sender._sendbuf_stat
    update = type(gauge).update

    class Counted(type(gauge)):
        __slots__ = ()

        def update(self, now, level):
            updates.append(level)
            update(self, now, level)

    gauge.__class__ = Counted
    records = len(side.log)
    assert side.sender.accept_many(side.packets(6)) == 6
    assert updates == [7] and len(side.log) == records + 6
    assert sum(1 for entry in side.log if entry[0] == "payload_accepted") == 7
