"""The sender's outstanding window against the specification's sender.

``SenderRig`` drives a real ``LamsSender`` over a stub channel, handing it
runs of up to ``WINDOW`` frames, and the specification's sender
(``tests/spec/``, a dict window keyed by sequence number, one frame at a
time) beside it on its own engine and channel, step for step.  After
each step both must tell the same story
(:func:`sender_view`): the same records, sends, requeues, releases and
probes (the shipped sender's runs expanded frame by frame,
``tests/trace_runs.py``, against the specification's log; acceptance
records are ``tests/test_accept_many.py``'s), the same
retransmission queue, the same holding statistics and ``sendbuf`` gauge
to the bit (a retransmission counting from its own departure), the same
outstanding frames, held payloads, counters and pacing.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple
from typing import Any, Callable, Optional, Union

import pytest
from hypothesis import HealthCheck, given
from hypothesis import strategies as st

from repro.core import sender as sender_module
from repro.core.config import LamsDlcConfig
from repro.core.frames import CheckpointFrame
from repro.core.sendbuf import SendBuffer
from repro.core.sender import LamsSender
from repro.core.seqspace import SequenceExhausted, SequenceSpace
from repro.faults.plan import FaultPlan, LinkOutage
from repro.simulator.engine import Simulator
from repro.simulator.errormodel import PerfectChannel
from repro.simulator.rng import StreamRegistry
from repro.simulator.trace import StreamingSummary, Tracer
from repro.workloads import preset
from repro.workloads.generators import SaturatedSource
from repro.workloads.scenarios import build_simulation

from . import spec
from .conftest import spec_settings, spec_twin
from .test_batched_parity import _run_golden
from .trace_runs import expand, per_frame

RTT = 0.008
FRAME_TIME = 1e-4


class StubChannel(spec.Channel):
    """The channel a rig's sender sends on: the specification's FIFO
    channel, error-free, its arrivals heard by nobody, on either engine.
    It records every run it is handed and every frame as it starts to
    leave (``started``), and gives the frames of a run still
    queued back to a shipped sender (``_tail_sink``) when it takes them
    back or a control frame is queued behind them.  With ``burst=False``
    it has no ``send_burst`` — the duck-typed shape of ``UdpChannel`` and
    the bench's stubs, which a ``LamsSender`` hands a frame at a time."""

    bit_rate = LamsDlcConfig().iframe_bits / FRAME_TIME

    def __init__(self, sim, delay: Union[float, Callable[[float], float]],
                 burst: bool = True) -> None:
        super().__init__(sim, "stub", self.bit_rate, delay, PerfectChannel(),
                         PerfectChannel(), StreamRegistry())
        self.receiver = lambda frame, corrupted: None
        self.runs: list[tuple[float, list]] = []
        self.started: list[tuple[float, Any]] = []
        if burst:
            self.send_burst = self._send_burst

    # Held busy by hand (the frames offered meanwhile leave together), then idle.
    busy = property(lambda self: self.transmitting,
                    lambda self, busy: setattr(self, "transmitting", busy))

    def idle(self) -> None:
        self._start_next()

    def _start_next(self) -> None:
        if self.queue:
            self.started.append((self.engine.now, self.queue[0]))
        super()._start_next()

    def send(self, frame: Any) -> None:
        self._send_burst([frame])

    def _send_burst(self, frames: list) -> None:
        if frames[0].is_control:
            self.take_back()
        else:
            self.runs.append((self.engine.now, list(frames)))
        for frame in frames:
            super().send(frame)

    def take_back(self) -> None:
        count = 0
        while self.queue and not self.queue[0].is_control:
            self.queue.popleft()
            count += 1
        if count:
            self._tail_sink._taken_back(count)


def sender_view(sender: Union[LamsSender, spec.Sender]) -> dict:
    """What a LAMS-DLC sender holds and has counted, alike for the shipped
    sender (its columns, gauge and holding-time statistic) and the
    specification's (its dict window and per-frame lists)."""
    occupancy = (sender.occupancy, sender.unresolved_count)  # read first: it settles
    if isinstance(sender, spec.Sender):
        holding = StreamingSummary("holding_time")
        for sample in sender.holdings:
            holding.push(sample)
        gauge, requeued = sender.gauge, [tuple(job) for job in sender.retransmit_queue]
        pending, outstanding = list(sender.pending), sender.in_transmit_order()
        counts = (sender.iframes_sent, sender.retransmissions, sender.releases,
                  sender.enqueued, sender.refused, sender.peak_occupancy, sender.holding_sum)
        state = (sender.failed, sender.suspended, sender.awaiting_enforced,
                 sender.pacing_armed, sender.next_allowed_send)
    else:
        buffer = sender.buffer
        holding = sender.tracer.samples.get(f"{sender.name}.holding_time", StreamingSummary(""))
        gauge, requeued = sender._sendbuf_stat, [astuple(job) for job in sender._retransmit_queue]
        pending, outstanding = list(buffer._pending), list(buffer.outstanding_frames())
        counts = (sender.iframes_sent, sender.retransmissions, sender.releases,
                  buffer.enqueued_total, buffer.refused_total, buffer.peak_occupancy,
                  buffer.holding_time_sum)
        state = (sender.failed, sender.suspended, sender._awaiting_enforced,
                 sender._pacing_armed, sender._next_allowed_send)
    return dict(
        occupancy=occupancy,
        pending=pending, outstanding=[tuple(frame) for frame in outstanding],
        requeued=requeued, held=sender.held_payloads(), counts=counts, state=state,
        holding=(holding.count, holding._mean, holding._m2, holding.minimum, holding.maximum),
        gauge=gauge and (gauge._area, gauge.maximum, gauge._last_time, gauge._level))


def _when(entry: tuple) -> tuple:
    return entry[0], entry[2]


class SenderRig:
    """One ``LamsSender`` on a stub channel, shadowed frame by frame by the
    specification's sender."""

    def __init__(self, numbering_bits: int = 16,
                 delay: Union[float, Callable[[float], float]] = RTT / 2,
                 burst: bool = True) -> None:
        self.sim = Simulator()
        self.channel = StubChannel(self.sim, delay, burst)
        self.config = LamsDlcConfig(numbering_bits=numbering_bits)
        self.tracer = Tracer()
        self.log: list[tuple] = []
        self.tracer.listeners.append(self._on_record)
        self.sender = LamsSender(self.sim, self.config, self.channel, RTT, tracer=self.tracer)
        self.offered = 0
        self.exhausted: Optional[SequenceExhausted] = None
        self.engine = spec.Engine()
        self.spec = spec.Sender(self.engine, self.config, StubChannel(self.engine, delay, burst),
                                RTT)
        self.spec_exhausted: Optional[SequenceExhausted] = None
        self.spec.start()
        self.sender.start()

    def _on_record(self, record) -> None:
        if record.event != "payloads_accepted":  # tests/test_accept_many.py
            self.log.extend(per_frame(
                (record.time, record.source, record.event, record.detail),
                self.config.numbering_size,
            ))

    # -- steps ---------------------------------------------------------------

    def offer(self, count: int, together: bool = True) -> None:
        """Accept *count* payloads; *together* holds the channel busy
        meanwhile so they leave as windows rather than one by one."""
        payloads = range(self.offered, self.offered + count)
        self.offered += count

        def step(sender, channel) -> None:
            if sender.failed:
                return
            held = together and not channel.busy
            channel.busy = channel.busy or held
            for payload in payloads:
                assert sender.accept(payload)
            if held:
                channel.idle()

        self._guarded(lambda: step(self.sender, self.channel),
                      lambda: step(self.spec, self.spec.channel))

    def run(self, seconds: float) -> None:
        self._guarded(lambda: self.sim.run(until=self.sim.now + seconds),
                      lambda: self.engine.run(until=self.engine.now + seconds))

    def timeout(self) -> None:
        """The checkpoint timer expires: suspected failure, Request-NAK."""
        self._guarded(self.sender._on_checkpoint_timeout,
                      lambda: self.spec.on_checkpoint_timeout())

    def checkpoint(self, issue_time: float, naks=(), frontier: Optional[int] = None,
                   enforced: bool = False) -> None:
        cp = CheckpointFrame(cp_index=0, issue_time=issue_time, naks=tuple(naks),
                             frontier=frontier, enforced=enforced)
        self._guarded(lambda: self.sender.on_checkpoint(cp, False),
                      lambda: self.spec.on_checkpoint(cp, False))

    def _guarded(self, step: Callable[[], Any], spec_step: Callable[[], Any]) -> None:
        if self.exhausted is None:
            try:
                step()
            except SequenceExhausted as exc:
                self.exhausted = exc
        if self.spec_exhausted is None:
            try:
                spec_step()
            except SequenceExhausted as exc:
                self.spec_exhausted = exc
        self.check()

    # -- the comparison ------------------------------------------------------

    def check(self) -> None:
        sender, buffer = self.sender, self.sender.buffer
        self.tracer.settle()  # the departures of a run on the transmitter
        assert len(buffer.items) == len(buffer.arrivals) == len(buffer.first_sends) == len(buffer.retx)
        assert sender.iframes_sent == buffer.next_index == buffer.base + len(buffer.items)
        assert (self.tracer.samples.get("lams.tx.holding_time") is None) == (
            sender.releases == 0)  # made by the first release
        # A run is recorded when final, or as far as it has left when the
        # tracer settles: compared by time, then event.
        assert sorted(self.log, key=_when) == sorted(
            (entry for entry in self.engine.log  # but the stub's
             if entry[1] == self.spec.name and entry[2] != "payload_accepted"), key=_when)
        assert (self.sim.now, str(self.exhausted)) == (self.engine.now, str(self.spec_exhausted))
        assert sender_view(sender) == sender_view(self.spec)
        occupancy = sender.occupancy  # settles
        assert buffer.peak_occupancy >= occupancy


GUARD = 10e-6  # LamsDlcConfig.processing_time


def decreasing_delay(when: float) -> float:
    """Falls faster than time advances: later frames arrive earlier."""
    return max(0.0005, 0.004 - 3.0 * when)


def stepped_delay(when: float) -> float:
    return 0.004 if when < 0.0031 else 0.001


DELAYS = {"fixed": RTT / 2, "decreasing": decreasing_delay, "stepped": stepped_delay}


# -- hypothesis-generated histories ---------------------------------------------

steps = st.one_of(
    st.tuples(st.just("offer"), st.integers(1, 64), st.booleans()),
    st.tuples(st.just("run"), st.sampled_from([0.3, 1, 7, 40, 64, 130])),
    st.tuples(st.just("timeout")),
    st.tuples(
        st.just("checkpoint"),
        st.booleans(),                                                    # enforced
        st.lists(st.tuples(st.sampled_from(["live", "any", "out of range"]),
                           st.integers(0, 10**6)), max_size=6),           # NAK picks
        st.sampled_from(["none", "below", "mid", "newest", "beyond"]),    # frontier
        st.sampled_from(["past", "now", "edge", "future"]),               # issue time
        st.integers(0, 10**6),
    ),
    st.tuples(st.just("naks"), st.integers(2, 8), st.integers(0, 10**6),
              st.sampled_from([0.5, 2.5])),
)


def apply_checkpoint(rig: SenderRig, enforced, picks, frontier_kind, issue_kind, salt) -> None:
    buffer, modulus = rig.sender.buffer, rig.config.numbering_size
    outstanding = list(buffer.outstanding_frames())
    live = [frame.seq for frame in outstanding]
    naks: list[int] = []
    for kind, number in picks:
        # A live number, or any number at all: one that was never sent,
        # one already retransmitted, one NAK'd by an earlier checkpoint.
        seq = number % modulus
        if kind == "live" and live:
            seq = live[number % len(live)]
        elif kind == "out of range":
            seq += modulus * (1 + number % 3)
        if seq not in naks:
            naks.append(seq)
    newest = buffer.next_index - 1
    frontier = {
        "none": None, "below": buffer.base - 2, "newest": newest, "beyond": newest + 5,
        "mid": buffer.base + salt % max(1, len(buffer.items)),
    }[frontier_kind]
    if frontier is not None and frontier < 0:
        frontier = None
    arrivals = [frame.expected_arrival for frame in outstanding]
    issue_time = {
        "past": rig.sim.now - RTT, "now": rig.sim.now, "future": rig.sim.now + 1.0,
        # Exactly on the coverage comparison's boundary for one frame.
        "edge": arrivals[salt % len(arrivals)] + GUARD if arrivals else rig.sim.now,
    }[issue_kind]
    rig.checkpoint(issue_time, naks, frontier, enforced)


def nak_live(rig: SenderRig, count: int, salt: int, frames: float) -> None:
    """NAK *count* live frames in transmit order, from a *salt*-chosen one,
    with a checkpoint that covers none of them, then run *frames* frame
    times: a retransmission run, compared while it is on the transmitter
    (the slice may span frames of two retransmission counts)."""
    live = [frame.seq for frame in rig.sender.buffer.outstanding_frames()]
    if live:
        start = salt % len(live)
        rig.checkpoint(rig.sim.now - RTT, live[start:start + count])
    rig.run(frames * FRAME_TIME)


@spec_settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    numbering_bits=st.sampled_from([3, 4, 6, 16]),
    delay=st.sampled_from(sorted(DELAYS)),
    burst=st.booleans(),
    history=st.lists(steps, min_size=1, max_size=30),
)
def test_window_matches_record_per_frame_reference(numbering_bits, delay, burst, history):
    rig = SenderRig(numbering_bits, DELAYS[delay], burst)
    for step in history:
        if step[0] == "offer":
            rig.offer(step[1], together=step[2])
        elif step[0] == "run":
            rig.run(step[1] * FRAME_TIME)
        elif step[0] == "timeout":
            rig.timeout()
        elif step[0] == "naks":
            nak_live(rig, *step[1:])
        else:
            apply_checkpoint(rig, *step[1:])
    rig.run(5 * FRAME_TIME)


# -- the edges columns can get wrong ----------------------------------------------


@pytest.mark.parametrize("numbering_bits", [3, 4])
def test_nak_after_wrap_finds_the_live_incarnation(numbering_bits):
    """A number whose older holder is a tombstone in the same window."""
    size = 1 << numbering_bits
    rig = SenderRig(numbering_bits)
    rig.offer(size - 2)                      # indices 0 .. size-3
    rig.run(size * FRAME_TIME)
    buffer = rig.sender.buffer
    past = rig.sim.now - 1.0                 # covers nothing: no release, no drop
    rig.checkpoint(past, naks=[0, 1])        # tombstones at positions 0 and 1
    rig.run(4 * FRAME_TIME)                  # their retransmissions: size-2, size-1
    rig.offer(2)                             # indices size, size+1 reuse numbers 0 and 1
    rig.run(4 * FRAME_TIME)
    assert buffer.base == 0 and buffer.items[1] is None
    assert buffer.position_of(1) == size + 1
    assert buffer.position_of(2) == 2 and buffer.live == size
    rig.checkpoint(past, naks=[1])           # names the new holder, not the tombstone
    assert rig.sender._retransmit_queue or rig.exhausted
    assert buffer.items[size + 1] is None
    # Its retransmission needs number 2, whose holder (index 2) is live:
    rig.run(4 * FRAME_TIME)
    assert "sequence number 2 is still outstanding" in str(rig.exhausted)
    assert f"({size - 1}/{size} numbers in use)" in str(rig.exhausted)


def test_nak_outside_the_numbering_space_is_ignored():
    rig = SenderRig(numbering_bits=3)
    rig.offer(4)
    rig.run(10 * FRAME_TIME)
    rig.checkpoint(rig.sim.now - 1.0, naks=[9, 8 + 3, -7])   # 1, 3 and 1 modulo 8
    assert not rig.sender._retransmit_queue and rig.sender.buffer.live == 4


def test_partial_window_then_exhaustion():
    """The run stops short of a live number; the next send raises."""
    rig = SenderRig(numbering_bits=3)
    rig.offer(20)
    assert [len(frames) for _, frames in rig.channel.runs] == [8]  # a run cannot lap itself
    assert rig.exhausted is None
    rig.run(9 * FRAME_TIME)
    assert "sequence number 0 is still outstanding (8/8 numbers in use)" in str(rig.exhausted)


@pytest.mark.parametrize("delay", [decreasing_delay, stepped_delay])
def test_non_monotone_arrivals_fall_back_to_a_scan(delay):
    rig = SenderRig(delay=delay)
    rig.offer(60)
    rig.run(70 * FRAME_TIME)
    buffer = rig.sender.buffer
    assert not buffer.monotone
    assert sorted(buffer.arrivals) != buffer.arrivals
    issue_time = sorted(buffer.arrivals)[25] + GUARD
    covered = buffer.covered(issue_time, GUARD)
    assert covered == [p for p, a in enumerate(buffer.arrivals) if a + GUARD <= issue_time]
    assert covered != list(range(len(covered)))       # not a prefix
    rig.checkpoint(issue_time, naks=[3], frontier=40)
    rig.checkpoint(rig.sim.now + 1.0, frontier=buffer.next_index - 1)
    rig.run(10 * FRAME_TIME)
    # Everything sent before the second checkpoint is resolved and gone;
    # what is left are retransmissions sent after it, and no tombstone.
    assert rig.sender.releases > 40 and buffer.base >= 60
    assert buffer.live == len(buffer.items) == rig.sender.iframes_sent - buffer.base


def test_monotone_flag_resets_when_the_window_empties():
    rig = SenderRig(delay=stepped_delay)
    rig.offer(64)
    rig.run(70 * FRAME_TIME)
    assert not rig.sender.buffer.monotone
    rig.checkpoint(rig.sim.now + 1.0, frontier=rig.sender.buffer.next_index - 1)
    assert rig.sender.buffer.monotone and not rig.sender.buffer.items


def test_scan_and_bisection_agree_on_sorted_arrivals():
    rig = SenderRig()
    rig.offer(50)
    rig.run(60 * FRAME_TIME)
    buffer = rig.sender.buffer
    for issue_time in [0.0, buffer.arrivals[0] + GUARD, buffer.arrivals[17] + GUARD,
                       buffer.arrivals[17], buffer.arrivals[-1] + GUARD, 1.0]:
        buffer.monotone = True
        prefix = buffer.covered(issue_time, GUARD)
        buffer.monotone = False
        assert list(prefix) == buffer.covered(issue_time, GUARD)
    buffer.monotone = True


def test_tombstones_survive_a_suspected_failure():
    """NAKs while awaiting the Enforced-NAK detach but release nothing."""
    rig = SenderRig()
    rig.offer(30)
    rig.run(120 * FRAME_TIME)                 # everything has arrived
    rig.timeout()
    sender, buffer = rig.sender, rig.sender.buffer
    assert sender._awaiting_enforced
    future = rig.sim.now + 1.0
    rig.checkpoint(future, naks=[0, 4, 5], frontier=29)
    rig.run(10 * FRAME_TIME)                  # the three retransmissions go out
    assert buffer.base == 0 and len(buffer.items) == 33
    assert [p for p, item in enumerate(buffer.items) if item is None] == [0, 4, 5]
    assert sender.releases == 0
    rig.checkpoint(future, naks=[4], frontier=29)   # repeated NAK: already retransmitted
    assert len(sender._retransmit_queue) == 0 and buffer.live == 30
    rig.checkpoint(rig.sim.now, naks=[], frontier=29, enforced=True)
    assert not sender._awaiting_enforced
    assert buffer.base == 30 and sender.releases == 27 and buffer.live == 3


def test_enforced_recovery_retransmits_beyond_the_vouch_horizon():
    rig = SenderRig()
    rig.offer(40)
    rig.run(50 * FRAME_TIME)
    rig.timeout()
    horizon_gap = rig.config.resolving_period(RTT)
    issue_time = rig.sender.buffer.arrivals[9] + horizon_gap  # frames 0..8 are too old to vouch for
    rig.checkpoint(issue_time, frontier=39, enforced=True)
    causes = [job.cause for job in rig.sender._retransmit_queue]
    assert causes[:8] == ["enforced"] * 8 and rig.sender.releases > 0


def test_retransmissions_leave_in_runs_of_one_count_each_frame_counted_as_it_departs():
    """NAKs of live frames while a retransmission run is on the
    transmitter: the runs split where the retransmission count changes,
    and each retransmission joins the ``sendbuf`` gauge at its own
    departure, to the bit of the specification's sender, mid-run and after."""
    rig = SenderRig()
    rig.offer(40)
    rig.run(100 * FRAME_TIME)
    rig.checkpoint(rig.sim.now - 1.0, naks=[0, 1, 2, 3, 4, 5, 6])  # seqs 40-46 resend them
    rig.run(2.5 * FRAME_TIME)                                      # 40-42 have left
    rig.checkpoint(rig.sim.now - 1.0, naks=[7, 40, 8, 41])
    rig.run(30 * FRAME_TIME)
    runs = [(len(frames), {frame.origin for frame in frames}) for _, frames in rig.channel.runs]
    assert [length for length, _ in runs] == [40, 7, 1, 1, 1, 1]
    assert rig.sender.retransmissions == 11
    assert rig.spec.gauge.maximum == 40 and rig.sender.occupancy == 40


def test_duck_typed_channel_takes_runs_of_one():
    rig = SenderRig(burst=False)
    rig.offer(5)
    rig.run(10 * FRAME_TIME)
    assert rig.sender.iframes_sent == 5
    rig.checkpoint(rig.sim.now + 1.0, naks=[2], frontier=4)
    rig.run(3 * FRAME_TIME)
    assert rig.sender.releases == 4 and rig.sender.retransmissions == 1


def test_idle_checkpoint_touches_nothing():
    rig = SenderRig()
    rig.checkpoint(0.0, naks=[5, 9])
    assert rig.sender.buffer.base == 0 and not rig.tracer.samples
    assert "lams.tx.sendbuf" not in rig.tracer.levels


def test_numbering_offset_is_explicit():
    """The seq <-> index relation is one stored offset, not an accident of zero."""
    space = SequenceSpace(8)
    space.offset = 5
    buffer = SendBuffer(space=space)
    assert [space.seq_of(index) for index in (0, 2, 3, 11)] == [5, 7, 0, 0]
    assert space.index_of(0, newest=12) == 11 and space.index_of(5, newest=7) == 0
    assert buffer.position_of(5) is None  # nothing sent yet


# -- pinned to the parent commit ---------------------------------------------------

# (events, sim.now, delivered, sha256 of the delivered payloads, sha256
# of tracer.summary()) of ``_pinned_run`` below, with the sender handing
# its channel runs of up to ``window`` frames (the module's ``WINDOW``;
# 1 is a frame at a time), first recorded with the record-per-frame
# bookkeeping the window columns replaced.  ``events`` counts popped
# entries and went down whenever entries were shared or stopped being
# pushed (CHANGES.md has each step).  When a run began to give its
# undeparted tail back, every 64 row but ``events`` became the 1 row (the
# delivered payloads of ``noisy`` and ``nominal``, and every summary,
# moved), and ``events`` went up where runs were cut; the 1 rows did not
# move.  Kept beside the specification's log: ``events`` counts the
# shipped engine's shared entries, which the specification (an entry per
# event) cannot state.
PARENT_PINS = {
    ('long_haul', 1): (9382, 1.0, 3000, 'bd0c1b1edf3bbbde', '7e5b94d4e5b143a6'),
    ('long_haul', 64): (391, 1.0, 3000, 'bd0c1b1edf3bbbde', '7e5b94d4e5b143a6'),
    ('noisy', 1): (10130, 1.0, 3000, 'ea4fc1e6884150ec', '376090006529bf47'),
    ('noisy', 64): (881, 1.0, 3000, 'ea4fc1e6884150ec', '376090006529bf47'),
    ('nominal', 1): (9705, 1.0, 3000, 'c3a12360746b01e0', '3abddafd9f8cfb02'),
    ('nominal', 64): (823, 1.0, 3000, 'c3a12360746b01e0', '3abddafd9f8cfb02'),
    ('short_hop', 1): (9696, 1.0, 3000, 'dd5826463113fa29', '9dd76588ae863488'),
    ('short_hop', 64): (828, 1.0, 3000, 'dd5826463113fa29', '9dd76588ae863488'),
    ('short_hop+outages', 1): (4443, 5.0, 300, '15b7365b80a0beeb', '110426c39522964e'),
    ('short_hop+outages', 64): (3562, 5.0, 300, '15b7365b80a0beeb', '110426c39522964e'),
}

TWO_OUTAGES = FaultPlan(faults=(LinkOutage(start=0.002, duration=0.004),
                                LinkOutage(start=0.010, duration=0.002)))


def _pinned_run(name: str) -> tuple:
    if name == "short_hop+outages":
        run = _run_golden("short_hop", seed=11, count=300, fault_plan=TWO_OUTAGES)
    else:
        run = _run_golden(name, seed=5, until=1.0, count=3000)
    events, now, delivered, digest, summary = run
    return (events, now, delivered, digest[:16],
            hashlib.sha256(repr(sorted(summary.items())).encode()).hexdigest()[:16])


@pytest.mark.parametrize("name,window", sorted(PARENT_PINS))
def test_presets_unchanged_from_parent(name, window, monkeypatch):
    monkeypatch.setattr(sender_module, "WINDOW", window)
    assert _pinned_run(name) == PARENT_PINS[(name, window)]


def _saturated_nominal(until: float, monkeypatch=None) -> tuple:
    """Seed 7's ``nominal`` link kept saturated (the benchmark's source):
    the sender's every I-frame departure, the instants a pacing wake-up
    was armed for, and the payloads delivered."""
    woken = []
    if monkeypatch is not None:
        pacing_expired = LamsSender._pacing_expired
        monkeypatch.setattr(LamsSender, "_pacing_expired", lambda sender: (
            woken.append(sender.sim.now), pacing_expired(sender)))
    scenario = preset("nominal")
    setup = build_simulation(scenario, "lams", seed=7)
    sender, departures = setup.endpoint_a.sender, []
    setup.tracer.listeners.append(lambda record: departures.extend(
        entry[1] for entry in expand((record.time, record.source, record.event, record.detail),
                                     1 << 16) if entry[0] == "iframe_sent"))
    SaturatedSource(setup.sim, setup.endpoint_a, backlog_fn=lambda: sender.pending_count,
                    low_water=256, chunk=512, poll_interval=scenario.iframe_time * 64).start()
    setup.run(until=until)
    setup.tracer.settle()  # the departures of the run on the transmitter
    return departures, woken, len(setup.delivered)


def test_a_saturated_line_rate_window_arms_no_pacing_wake_up(monkeypatch):
    """A window of new frames at line rate leaves the channel busy until
    its last frame is out, so the next window starts at the channel's idle
    callback and never waits on pacing (seed 7, 1 s, a window of 64)."""
    _, woken, delivered = _saturated_nominal(1.0, monkeypatch)
    assert delivered > 30000
    assert woken == []


def test_a_window_of_64_departs_as_a_window_of_one():
    """At line rate a run paces from its frames' accumulated departure,
    the float a frame-at-a-time sender reaches, so every departure of a
    saturated link is its specification twin's, bit for bit (the first
    0.2 s of seed 7's ``nominal``: 7254 frames)."""
    wide, _, _ = _saturated_nominal(0.2)
    scenario = preset("nominal")
    engine, a, _ = spec_twin(build_simulation(scenario, "lams", seed=7))
    SaturatedSource(engine, a, backlog_fn=lambda: a.sender.pending_count,
                    low_water=256, chunk=512, poll_interval=scenario.iframe_time * 64).start()
    engine.run(until=0.2)
    one = [entry[0] for entry in engine.log if entry[1] == a.sender.name
           and entry[2] == "iframe_sent"]
    wide = [departure for departure in wide if departure < 0.2]
    assert len(wide) == 7254
    assert wide == one
