"""``accept_many`` against the per-packet acceptance it replaces.

Every sender family takes a stretch of packets in one call, and the
sources, the session manager and the DES conformance backend offer
through it.  Its outcome must be that of ``for p in packets: if not
accept(p): break`` with the parent's per-packet ``accept``
(``tests/accept_reference.py``) in every respect.  Each history here is
played on two copies of one sender — one offered to the shipped way,
one through the reference — and after every step the two must agree,
compared with ``==``: the sending buffer's pending queue, columns and
counters, the ``sendbuf`` gauge's mean, maximum and area, the frames on
the channel, the source's ``offered`` / ``refused`` and how often it
called ``make_packet``, the simulator's event count, and the trace
records with acceptances expanded to one tuple per payload.
"""

from __future__ import annotations

from itertools import count
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

from . import baseline_sender_reference, sender_reference
from .accept_reference import (
    OneByOne, ReferenceFiniteBatch, ReferenceSaturatedSource, accept_each,
)
from .trace_runs import expand

RTT = sender_reference.RTT
FRAME_TIME = sender_reference.FRAME_TIME
FAMILIES = ["lams", "hdlc", "gbn", "nbdt-continuous", "nbdt-multiphase"]


def make_config(family: str, capacity):
    if family == "lams":
        return LamsDlcConfig(send_buffer_capacity=capacity, batch_window=4)
    if family.startswith("nbdt"):
        return NbdtConfig(mode=family.split("-")[1], timeout=8 * FRAME_TIME,
                          send_buffer_capacity=capacity)
    return HdlcConfig(window_size=3, sequence_bits=3, timeout=8 * FRAME_TIME,
                      selective=family == "hdlc", send_buffer_capacity=capacity)


class Side:
    """One sender on its own simulator, stub channel and tracer, offered
    to the shipped way (``shipped``) or the per-packet way."""

    def __init__(self, family: str, config: Any, shipped: bool, source) -> None:
        self.family = family
        self.sim = sim = Simulator()
        self.tracer = Tracer()
        self.log: list[tuple] = []
        self.tracer.listeners.append(self._on_record)
        if family == "lams":
            self.channel = sender_reference.StubChannel(sim, RTT / 2)
            self.sender = LamsSender(sim, config, self.channel, RTT, tracer=self.tracer)
        else:
            self.channel = baseline_sender_reference.StubChannel(
                sim, config.iframe_bits / FRAME_TIME, 2 * FRAME_TIME)
            kind = NbdtSender if family.startswith("nbdt") else HdlcSender
            self.sender = kind(sim, config, self.channel, tracer=self.tracer)
        self.shipped = shipped
        self.target = self.sender if shipped else OneByOne(self.sender)
        self.made = 0
        self._serial = count()  # tells apart the packets of repeated batches
        self.offers: list[int] = []
        self.batches: list[tuple[int, int]] = []
        self.source = None
        self.sender.start()
        if source is not None:
            chunk, low_water, poll, limit = source
            kind = SaturatedSource if shipped else ReferenceSaturatedSource
            sender = self.sender
            self.source = kind(
                sim, self.target, backlog_fn=lambda: sender.pending_count,
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
        if how == "stretch":
            packets = self.packets(n)
        elif how == "list":
            packets = list(self.packets(n))
        else:  # "one": the shipped accept, one packet a call
            accepted = accept_each(self.target.accept, self.packets(n))
            self.offers.append(accepted)
            return
        if self.shipped:
            self.offers.append(self.sender.accept_many(packets))
        else:
            self.offers.append(self.target.offer(packets))

    def batch(self, n: int) -> None:
        kind = FiniteBatch if self.shipped else ReferenceFiniteBatch
        batch = kind(self.sim, self.target, n, make_packet=self.make_packet)
        batch.start()
        self.batches.append((batch.offered, batch.refused))

    def hold(self) -> None:
        if self.family == "lams":
            self.channel.busy = True
        else:
            self.channel.busy += 1

    def release(self) -> None:
        if self.family == "lams":
            self.channel.idle()
        elif self.channel.busy:
            self.channel._sent()

    def acknowledge(self, nak: bool) -> None:
        """Resolve everything sent so far (a NAK of the oldest live frame
        first, for LAMS-DLC, when asked)."""
        sender, buffer, now = self.sender, self.sender.buffer, self.sim.now
        if self.family == "lams":
            live = [frame.seq for frame in buffer.outstanding_frames()]
            naks = tuple(live[:1]) if nak else ()
            sender.on_checkpoint(CheckpointFrame(
                cp_index=0, issue_time=now + RTT, naks=naks,
                frontier=buffer.next_index - 1), False)
        elif self.family.startswith("nbdt"):
            sender.on_report(NbdtReport(cumulative=0, highest_seen=buffer.next_index - 1), False)
        else:
            sender.on_rr(RrFrame(nr=buffer.space.seq_of(buffer.next_index)), False)

    def stop_go(self, stop: bool) -> None:
        if self.family == "lams":
            self.sender.flow.on_stop_go(stop)

    def stop(self) -> None:
        self.sender.stop()

    def start(self) -> None:
        if self.family != "lams" and not self.sender._started:
            self.sender.start()

    # -- what is compared ----------------------------------------------------

    def state(self) -> dict:
        sender, buffer = self.sender, self.sender.buffer
        gauge = sender._sendbuf_stat if self.family == "lams" else sender._sendbuf
        state = dict(
            pending=list(buffer._pending), items=buffer.items, arrivals=buffer.arrivals,
            first_sends=buffer.first_sends, retx=buffer.retx, base=buffer.base,
            live=buffer.live, monotone=buffer.monotone,
            counters=(buffer.enqueued_total, buffer.refused_total, buffer.peak_occupancy),
            gauge=None if gauge is None else (
                gauge.mean(), gauge.maximum, gauge._area, gauge._level, gauge._last_time),
            made=self.made, offers=self.offers, batches=self.batches,
            source=None if self.source is None else (self.source.offered, self.source.refused),
            events=self.sim.event_count, now=self.sim.now, log=self.log,
            sent=(sender.iframes_sent, sender.retransmissions),
        )
        if self.family == "lams":
            state.update(
                runs=[(when, list(map(repr, frames))) for when, frames in self.channel.runs],
                failed=sender.failed,
                pacing=(sender._pacing_armed, sender._next_allowed_send),
                requeued=list(sender._retransmit_queue),
            )
        else:
            state.update(frames=list(map(repr, self.channel.frames)), started=sender._started,
                         timer=sender._timer.deadline)
            if self.family.startswith("nbdt"):
                state.update(phase=(sender._phase_new_remaining, sender._awaiting_report))
        return state


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
