"""``accept_many`` against the per-packet acceptance it replaces.

Every sender family takes a stretch of packets in one call, and the
sources, the session manager and the DES conformance backend offer
through it.  Its outcome must be that of ``for p in packets: if not
accept(p): break`` in every respect.  Each history here is played on two
senders: the shipped one, offered to the shipped way, and one offered a
packet at a time by the sources' per-packet loops (:class:`Refill`,
``Side.batch``) — for a baseline family the specification's sender
(``tests/spec/hdlc.py``, ``tests/spec/nbdt.py``), for a LAMS-DLC sender
(``lams``) the specification's, and (``lams-own``) the shipped
sender's own ``accept``, one call a packet.  After every
step the two must agree, compared with ``==``: the pending queue, the
outstanding frames and the counters, the ``sendbuf`` gauge, each frame
as it starts to leave the channel, the source's ``offered`` / ``refused`` and how often it
called ``make_packet``; for the baselines and ``lams-own`` also the
trace records, with acceptances expanded to one tuple per payload, and
for ``lams-own`` the simulator's event count.
"""

from __future__ import annotations

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

from . import spec
from .spec.hdlc import HdlcSender as SpecHdlc
from .spec.nbdt import NbdtSender as SpecNbdt
from .test_baseline_senders import accept_each, view
from .test_sender_window import FRAME_TIME, RTT, StubChannel, sender_view
from .trace_runs import expand

FAMILIES = ["lams", "lams-own", "hdlc", "gbn", "nbdt-continuous", "nbdt-multiphase"]


def make_config(family: str, capacity):
    if family.startswith("lams"):
        return LamsDlcConfig(send_buffer_capacity=capacity)
    if family.startswith("nbdt"):
        return NbdtConfig(mode=family.split("-")[1], timeout=8 * FRAME_TIME,
                          send_buffer_capacity=capacity)
    return HdlcConfig(window_size=3, sequence_bits=3, timeout=8 * FRAME_TIME,
                      selective=family == "hdlc", send_buffer_capacity=capacity)


class Refill(SaturatedSource):
    """``SaturatedSource`` with its per-packet refill loop."""

    def _tick(self, chain: int) -> None:
        if chain != self._chain or not self._running:
            return
        if self.limit is not None and self.offered >= self.limit:
            self._running = False
            return
        if self.backlog_fn() < self.low_water:
            budget = self.chunk if self.limit is None else min(self.chunk,
                                                               self.limit - self.offered)
            for _ in range(budget):
                if not self.target.accept(self.make_packet(self.offered + self.refused,
                                                           self.sim.now)):
                    self.refused += 1
                    break
                self.offered += 1
        self.sim.schedule(self.poll_interval, self._tick, chain)


class Side:
    """One sender on its own engine, stub channel and tracer, offered to
    the shipped way (``shipped``) or one packet at a time."""

    def __init__(self, family: str, config: Any, shipped: bool, source) -> None:
        self.family, self.lams = family, family.startswith("lams")
        self.spec = family != "lams-own" and not shipped
        self.sim = sim = spec.Engine() if self.spec else Simulator()
        self.tracer = Tracer()
        self.log: list[tuple] = []
        self.tracer.listeners.append(self._on_record)
        self.channel = StubChannel(sim, RTT / 2)
        if self.lams:
            self.sender = (spec.Sender(sim, config, self.channel, RTT) if self.spec else
                           LamsSender(sim, config, self.channel, RTT, tracer=self.tracer))
        else:
            nbdt = family.startswith("nbdt")
            if self.spec:
                self.sender = (SpecNbdt if nbdt else SpecHdlc)(sim, config, self.channel)
                self.log = self.sender.log
            else:
                self.sender = (NbdtSender if nbdt else HdlcSender)(
                    sim, config, self.channel, tracer=self.tracer)
        self.shipped = shipped
        # Offered one packet at a time: a target with ``accept`` only.
        self.target = self.sender if shipped else SimpleNamespace(accept=self.sender.accept)
        self.made = 0
        self._serial = count()  # tells apart the packets of repeated batches
        self.offers: list[int] = []
        self.batches: list[tuple[int, int]] = []
        self.source = None
        self.sender.start()
        if source is not None:
            chunk, low_water, poll, limit = source
            kind = SaturatedSource if shipped else Refill
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
        if self.shipped:
            batch = FiniteBatch(self.sim, self.target, n, make_packet=self.make_packet)
            batch.start()
            self.batches.append((batch.offered, batch.refused))
        else:  # its per-packet loop: a refused packet is counted and the next offered
            outcomes = [self.target.accept(packet) for packet in self.packets(n)]
            self.batches.append((outcomes.count(True), outcomes.count(False)))

    def hold(self) -> None:
        self.channel.busy = True

    def release(self) -> None:
        self.channel.idle()

    def acknowledge(self, nak: bool) -> None:
        """Resolve everything sent so far (a NAK of the oldest live frame
        first, for LAMS-DLC, when asked)."""
        sender, now = self.sender, self.sim.now
        if self.lams:
            live = [frame[0] for frame in sender_view(sender)["outstanding"]]
            return sender.on_checkpoint(CheckpointFrame(
                cp_index=0, issue_time=now + RTT, naks=tuple(live[:1]) if nak else (),
                frontier=sender.iframes_sent - 1), False)
        top = sender.next_seq if self.spec else sender.buffer.next_index
        if self.family.startswith("nbdt"):
            sender.on_report(NbdtReport(cumulative=0, highest_seen=top - 1), False)
        else:
            sender.on_rr(RrFrame(nr=top % sender.config.modulus), False)

    def stop_go(self, stop: bool) -> None:
        if self.lams:
            self.sender.flow.on_stop_go(stop)

    def stop(self) -> None:
        self.sender.stop()

    def start(self) -> None:
        if not self.lams and not getattr(self.sender, "started" if self.spec else "_started"):
            self.sender.start()

    # -- what is compared ----------------------------------------------------

    def state(self) -> dict:
        sender = self.sender
        state = dict(
            made=self.made, offers=self.offers, batches=self.batches,
            source=None if self.source is None else (self.source.offered, self.source.refused),
            now=self.sim.now, log=self.log,
            started=[(when, repr(frame)) for when, frame in self.channel.started])
        if not self.lams:
            return dict(state, **view(sender))
        state.update(sender_view(sender), events=self.sim.event_count)
        if self.spec:  # no trace records, and an event count of its own
            del state["log"], state["events"]
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
