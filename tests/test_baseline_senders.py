"""The SR-HDLC/GBN and NBDT senders against the specification's.

:class:`BaselineRig` drives a shipped sender on the simulator and the
specification's (``tests/spec/hdlc.py``, ``tests/spec/nbdt.py``: a dict
buffer keyed by a non-circular number) on its own engine, each on the
specification's channel.  Every step ends with the full comparison, with
``==``: the frames on the channel, the trace records, the armed timer
deadline, the counters, the holding-time sum to the bit, occupancy,
peak, outstanding frames and ``held_payloads()`` (:func:`view`), so the
histories here only have to steer.  Then whole runs: the runner's
outcome dicts must not change when the specification's senders are
swapped in, and every baseline reports its sending-buffer gauge and
holding-time samples.
"""

from __future__ import annotations

from itertools import takewhile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import endpoint as registry
from repro.experiments import runner
from repro.hdlc import protocol as hdlc_protocol
from repro.hdlc.config import HdlcConfig
from repro.hdlc.frames import RejFrame, RrFrame, SrejFrame
from repro.hdlc.receiver import HdlcReceiver
from repro.hdlc.sender import HdlcSender
from repro.hdlc.window import window_offset
from repro.nbdt import protocol as nbdt_protocol
from repro.nbdt.config import NbdtConfig
from repro.nbdt.frames import NbdtReport
from repro.nbdt.receiver import NbdtReceiver
from repro.nbdt.sender import NbdtSender
from repro.simulator.engine import Simulator
from repro.simulator.errormodel import PerfectChannel
from repro.simulator.rng import StreamRegistry
from repro.simulator.trace import StreamingSummary, Tracer
from repro.workloads import build_simulation, preset
from repro.workloads.generators import SaturatedSource

from . import spec
from .spec.hdlc import HdlcSender as SpecHdlc, Held
from .spec.nbdt import NbdtSender as SpecNbdt

MODES = {
    "sr": dict(selective=True),
    "gbn": dict(selective=False),
    "sr+stutter": dict(stutter=True),
    "nbdt-continuous": dict(mode="continuous"),
    "nbdt-multiphase": dict(mode="multiphase"),
}
DYADIC = 1 / 64  # an I-frame time with exact multiples; the timeout is four


def accept_each(accept, packets) -> int:
    """``for p in packets: if not accept(p): break``, counting acceptances."""
    return sum(1 for _ in takewhile(accept, packets))


def view(sender) -> dict:
    """What a baseline sender holds and has counted, read alike off the
    shipped sender's columns, gauge and holding-time statistic and off the
    specification's dict buffer and per-frame lists.  A frame's number is
    absolute; the shipped N(S) are read against V(A) by ``window_offset``."""
    if isinstance(sender, Held):
        holding = StreamingSummary("holding_time")
        for sample in sender.holdings:
            holding.push(sample)
        frames = [(number, f.payload, f.enqueue_time, f.first_send, f.retransmit_count,
                   f.last_send) for number, f in sender.buffer.items()]
        offsets = [number - sender.base for number in sender.buffer] \
            if isinstance(sender, SpecHdlc) else None
        counts = (sender.enqueued, sender.refused, sender.peak_occupancy, sender.holding_sum,
                  sender.next_seq, sender.timer.deadline)
        gauge, phase = sender.gauge, (getattr(sender, "phase_new_remaining", None),
                                      getattr(sender, "awaiting_report", None))
    else:
        buffer, outstanding = sender.buffer, list(sender.buffer.outstanding_frames())
        holding = sender.tracer.samples.get(f"{sender.name}.holding_time", StreamingSummary(""))
        last_sends = getattr(sender, "_last_sends", buffer.first_sends)
        frames = [(f.transmit_index, f.payload, f.enqueue_time, f.first_send_time,
                   f.retransmit_count, last_sends[f.transmit_index - buffer.base])
                  for f in outstanding]
        va, modulus = buffer.space.seq_of(buffer.base), buffer.space.modulus
        offsets = [window_offset(va, f.seq, modulus) for f in outstanding] \
            if isinstance(sender, HdlcSender) else None
        counts = (buffer.enqueued_total, buffer.refused_total, buffer.peak_occupancy,
                  buffer.holding_time_sum, buffer.next_index, sender._timer.deadline)
        gauge, phase = sender._sendbuf, (getattr(sender, "_phase_new_remaining", None),
                                         getattr(sender, "_awaiting_report", None))
    return dict(
        occupancy=(sender.occupancy, sender.unresolved_count, sender.pending_count),
        held=sender.held_payloads(), frames=frames, offsets=offsets, counts=counts,
        phase=phase, mean_holding=sender.mean_holding_time,
        sent=(sender.iframes_sent, sender.retransmissions, sender.releases, sender.polls_sent,
              sender.timeouts, getattr(sender, "stutter_transmissions", None),
              getattr(sender, "reports_received", None)),
        holding=(holding.count, holding._mean, holding._m2, holding.minimum, holding.maximum),
        gauge=gauge and (gauge._area, gauge.maximum, gauge._last_time, gauge._level))


class Line(spec.Channel):
    """The specification's FIFO channel, error-free and heard by nobody,
    keeping every frame it is handed."""

    def __init__(self, engine, bit_rate: float, delay: float) -> None:
        super().__init__(engine, "stub", bit_rate, delay, PerfectChannel(), PerfectChannel(),
                         StreamRegistry())
        self.receiver = lambda frame, corrupted: None
        self.frames: list = []

    def send(self, frame) -> None:
        self.frames.append(frame)
        super().send(frame)


class BaselineRig:
    """A shipped baseline sender and the specification's, driven through
    one history.  An I-frame takes *frame_time* to serialize and twice
    that to propagate.  With a dyadic *frame_time* (and timeout) every
    instant is exact, so "exactly one timeout after the last send"
    happens; with any other, float sums depend on their order."""

    def __init__(self, config, frame_time: float) -> None:
        self.family = "hdlc" if isinstance(config, HdlcConfig) else "nbdt"
        self.config, self.frame_time, self.offered = config, frame_time, 0
        shipped, specified = {"hdlc": (HdlcSender, SpecHdlc),
                              "nbdt": (NbdtSender, SpecNbdt)}[self.family]
        bit_rate = config.iframe_bits / frame_time
        self.sim, self.engine, self.tracer, self.records = Simulator(), spec.Engine(), Tracer(), []
        self.tracer.listeners.append(
            lambda r: self.records.append((r.time, r.source, r.event, r.detail)))
        self.sender = shipped(self.sim, config, Line(self.sim, bit_rate, 2 * frame_time),
                              tracer=self.tracer)
        self.spec = specified(self.engine, config, Line(self.engine, bit_rate, 2 * frame_time))
        self.check()

    def both(self, step) -> None:
        """Apply *step* to both senders: same result, or the same refusal."""
        outcomes = []
        for sender in (self.sender, self.spec):
            try:
                outcomes.append(("returned", step(sender)))
            except RuntimeError as exc:
                outcomes.append(("raised", str(exc)))
        assert outcomes[0] == outcomes[1]
        self.check()

    def offer(self, count: int) -> None:
        for _ in range(count):
            self.both(lambda sender, payload=self.offered: sender.accept(payload))
            self.offered += 1

    def run(self, seconds: float) -> None:
        until = self.engine.now + seconds
        self.sim.run(until=until)
        self.engine.run(until=until)
        self.check()

    def expire(self) -> None:
        """Run to the armed poll / report deadline, firing the timer."""
        if self.spec.timer.deadline is not None:
            self.run(self.spec.timer.deadline - self.engine.now)

    def response(self, handler: str, frame, corrupted: bool) -> None:
        self.both(lambda sender: getattr(sender, handler)(frame, corrupted))

    def start(self) -> None:
        self.both(lambda sender: sender.start())

    def live_numbers(self) -> list[int]:
        """N(S) (HDLC) or frame ids (NBDT) of the unacknowledged frames."""
        hdlc = self.family == "hdlc"
        return [number % self.config.modulus if hdlc else number for number in self.spec.buffer]

    def check(self) -> None:
        assert self.sim.now == self.engine.now
        assert self.sender.data_channel.frames == self.spec.channel.frames
        assert self.records == self.spec.log
        assert view(self.sender) == view(self.spec)


def make_rig(mode: str, window: int = 4, capacity=None, frame_time: float = DYADIC):
    timeout = 4 * frame_time
    if mode.startswith("nbdt"):
        config = NbdtConfig(timeout=timeout, send_buffer_capacity=capacity, **MODES[mode])
    else:
        selective = MODES[mode].get("selective", True)
        config = HdlcConfig(
            window_size=min(window, 4) if selective else window, sequence_bits=3,
            timeout=timeout, send_buffer_capacity=capacity, **MODES[mode],
        )
    return BaselineRig(config, frame_time)


# -- hypothesis-generated histories ---------------------------------------------

SOMETIMES = st.sampled_from([False, False, False, True])
# "ack": one past a live number (N(R) acknowledging through it).
NUMBER = st.tuples(st.sampled_from(["ack", "live", "relative", "any"]),
                   st.integers(0, 10**6))

OFFER = st.tuples(st.just("offer"), st.integers(1, 6))
RUN = st.tuples(st.just("run"), st.sampled_from([0.5, 1, 3, 4, 8, 30]))  # frame times
COMMON = [OFFER, OFFER, RUN, RUN, st.tuples(st.sampled_from(["expire", "stop", "start"]))]
RR = st.tuples(st.just("rr"), NUMBER, st.booleans(), SOMETIMES)
STEPS = {
    "hdlc": st.one_of(
        *COMMON, RR, RR, RR,
        st.tuples(st.just("rej"), NUMBER, st.booleans(), SOMETIMES),
        st.tuples(st.just("srej"), st.lists(NUMBER, min_size=1, max_size=4),
                  st.booleans(), SOMETIMES),
    ),
    "nbdt": st.one_of(
        *COMMON,
        st.tuples(st.just("report"), NUMBER, st.lists(NUMBER, max_size=4), SOMETIMES),
        st.tuples(st.just("guard"), st.integers(0, 10**6), SOMETIMES),
    ),
}


def hdlc_number(rig: BaselineRig, kind: str, number: int) -> int:
    """Through a live N(S); a live one; two behind V(A) to past V(S); any."""
    live = rig.live_numbers()
    modulus = rig.config.modulus
    if kind in ("ack", "live") and live:
        return (live[number % len(live)] + (kind == "ack")) % modulus
    if kind == "relative":
        return (rig.spec.base - 2 + number % (rig.config.window_size + 5)) % modulus
    return number % (2 * modulus)  # M and above included


def nbdt_id(rig: BaselineRig, kind: str, number: int) -> int:
    """A live id (or the newest); one up to two past the newest; -1 up."""
    live = rig.live_numbers()
    if kind in ("ack", "live") and live:
        return live[number % len(live)]
    top = rig.spec.next_seq
    if kind == "relative":
        return max(-1, top - 1 - number % 3)
    return number % (top + 3) - 1


def nbdt_report(rig: BaselineRig, seen: tuple, picks) -> NbdtReport:
    missing: list[int] = []
    for pick in picks:
        fid = nbdt_id(rig, *pick)
        if fid >= 0 and fid not in missing:
            missing.append(fid)
    return NbdtReport(cumulative=0, highest_seen=nbdt_id(rig, *seen), missing=tuple(missing))


def report_at_the_guard(rig: BaselineRig, number: int, corrupted: bool) -> None:
    """Report a live frame missing; once it has been re-sent, report it
    again exactly one timeout after that: the in-flight guard's boundary."""
    live = rig.live_numbers()
    if not live:
        return
    fid = live[number % len(live)]
    report = NbdtReport(cumulative=0, highest_seen=fid, missing=(fid,))
    rig.response("on_report", report, False)
    for _ in range(8):  # the channel may be busy for a few frames
        frame = rig.spec.buffer.get(fid)
        if frame is None or frame.retransmit_count:
            break
        rig.run(rig.frame_time)
    if frame is not None and frame.retransmit_count:
        rig.run(max(0.0, frame.last_send + rig.config.timeout - rig.engine.now))
    rig.response("on_report", report, corrupted)


def play(rig: BaselineRig, step: tuple) -> None:
    kind = step[0]
    if kind == "offer":
        rig.offer(step[1])
    elif kind == "run":
        rig.run(step[1] * rig.frame_time)
    elif kind == "expire":
        rig.expire()
    elif kind in ("stop", "start"):
        rig.both(lambda sender: getattr(sender, kind)())
    elif kind == "rr":
        rig.response("on_rr", RrFrame(nr=hdlc_number(rig, *step[1]), final=step[2]), step[3])
    elif kind == "rej":
        rig.response("on_rej", RejFrame(nr=hdlc_number(rig, *step[1]), final=step[2]), step[3])
    elif kind == "srej":
        nrs = tuple(dict.fromkeys(hdlc_number(rig, *pick) for pick in step[1]))
        rig.response("on_srej", SrejFrame(nrs=nrs, final=step[2]), step[3])
    elif kind == "guard":
        report_at_the_guard(rig, step[1], step[2])
    else:
        rig.response("on_report", nbdt_report(rig, step[1], step[2]), step[3])


@pytest.mark.parametrize("mode", sorted(MODES))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    window=st.integers(1, 7),
    capacity=st.sampled_from([None, None, 3, 9]),
    frame_time=st.sampled_from([DYADIC, 0.0137]),
    before_start=st.integers(0, 8),
    data=st.data(),
)
def test_sender_matches_its_parent(mode, window, capacity, frame_time, before_start, data):
    """The shipped sender against the specification's (its oracle since
    the record-per-frame parents were retired)."""
    rig = make_rig(mode, window, capacity, frame_time)
    rig.offer(before_start)
    rig.start()
    for step in data.draw(st.lists(STEPS[rig.family], min_size=10, max_size=60)):
        play(rig, step)
    rig.run(30 * frame_time)


# -- the edges a history can miss -------------------------------------------------


def test_stutter_copies_go_round_in_transmit_order():
    """Across a wrap of N(S), round-robin is column order (6 7 0 1),
    not numeric order, and the cursor carries over from the last stall."""
    rig = make_rig("sr+stutter")
    rig.start()
    rig.offer(6)
    rig.run(4 / 64)                               # 0 1 2 3, a stutter copy of 0
    rig.response("on_rr", RrFrame(nr=4, final=True), False)
    rig.run(2 / 64)                               # 4 5
    rig.response("on_rr", RrFrame(nr=6, final=True), False)
    rig.offer(4)
    rig.run(7 / 64)                               # 6 7 0 1, then copies
    assert [f.ns for f in rig.sender.data_channel.frames[-7:]] == [6, 7, 0, 1, 7, 0, 1]


def test_rej_requeues_in_nr_order_across_the_wrap():
    rig = make_rig("gbn", window=7)
    rig.start()
    rig.offer(5)
    rig.run(5 / 64)
    rig.response("on_rr", RrFrame(nr=5), False)
    rig.offer(6)                                  # N(S) 5 6 7 0 1 2
    rig.run(6 / 64)
    rig.response("on_rej", RejFrame(nr=7, final=True), False)
    rig.run(4 / 64)
    assert [f.ns for f in rig.sender.data_channel.frames[-4:]] == [7, 0, 1, 2]


def test_continuous_guard_lets_a_gap_go_exactly_one_timeout_after_its_resend():
    """``now - last_send < timeout`` holds a re-reported gap back; at
    exactly one timeout it goes again."""
    rig = make_rig("nbdt-continuous")
    rig.start()
    rig.offer(3)
    rig.run(3 / 64)
    report = NbdtReport(cumulative=1, highest_seen=2, missing=(1,))
    rig.response("on_report", report, False)      # frame 1 resent at t = 3/64
    rig.run(1 / 64)
    rig.response("on_report", report, False)      # still in flight: held back
    assert rig.sender.retransmissions == 1
    rig.run(3 / 64)                               # now exactly one timeout on
    rig.response("on_report", report, False)
    assert rig.sender.retransmissions == 2


def test_a_repeat_multiphase_report_queues_each_gap_once_per_phase():
    """Phase 0 1 2, then its report naming 0 and 1 and, while 0's
    retransmission is on the line, a repeat of it: 0 and 1 go once each."""
    rig = make_rig("nbdt-multiphase")
    rig.offer(3)
    rig.start()
    rig.run(3 / 64)                               # the phase: 0 1 2, polling on 2
    report = NbdtReport(cumulative=0, highest_seen=2, missing=(0, 1))
    rig.response("on_report", report, False)      # 0 goes on the line
    rig.run(1 / 128)
    rig.response("on_report", report, False)      # the repeat: 0 and 1 held already
    rig.run(4 / 64)
    assert [f.fid for f in rig.sender.data_channel.frames[3:]] == [0, 1]
    assert rig.sender.retransmissions == 2


def test_a_released_number_named_by_srej_is_not_requeued():
    """A stale number left queued behind the live one would take the
    Poll bit off its retransmission."""
    rig = make_rig("sr")
    rig.start()
    rig.offer(4)
    rig.run(4 / 64)
    rig.response("on_rr", RrFrame(nr=2), False)   # 0 and 1 released
    rig.response("on_srej", SrejFrame(nrs=(3, 0, 1), final=True), False)
    last = rig.sender.data_channel.frames[-1]
    assert (last.ns, last.poll) == (3, True)


def test_held_frames_with_nothing_to_send_keep_the_poll_timer_running():
    """A SREJ names 3, then 1: 3 goes at once, without the Poll bit, as 1
    is to follow.  An RR then acknowledges 1, so nothing follows, and 2
    and 3 are held with no poll out.  Section 4's sender polls on the last
    frame of a period; here the poll timer starts instead (it stayed off,
    and the link stalled for good)."""
    rig = make_rig("sr")
    rig.start()
    rig.offer(4)
    rig.run(4 / 64)                               # 0 (alone, polled), 1 2 3
    rig.response("on_srej", SrejFrame(nrs=(3, 1), final=True), False)
    rig.response("on_rr", RrFrame(nr=2), False)   # 1 acknowledged while queued
    rig.run(5 / 64)                               # 3 leaves; one timeout later...
    assert rig.sender.timeouts == 1
    assert [(f.ns, f.poll) for f in rig.sender.data_channel.frames[-2:]] == [(3, False), (2, True)]


# -- whole runs --------------------------------------------------------------------

PROTOCOLS = [
    ("lams", None), ("hdlc", None), ("gbn", None),
    ("nbdt-continuous", None), ("nbdt-multiphase", None), ("hdlc", {"stutter": True}),
]


def registry_half(kind: type) -> type:
    """The specification's sender *kind* as a registry half: built as a
    shipped one is, its ``sendbuf`` gauge kept in the run's tracer, where
    the runner reads it, and a stretch offered a packet at a time."""

    class Half(kind):
        def __init__(self, sim, config, data_channel, name, tracer) -> None:
            super().__init__(sim, config, data_channel, name)
            self.tracer = tracer

        def record_occupancy(self) -> None:
            super().record_occupancy()
            self.tracer.level(f"{self.name}.sendbuf", self.engine.now, self.occupancy)

        def accept_many(self, packets) -> int:
            return accept_each(self.accept, packets)

    return Half


def _runs(protocol: str, overrides) -> tuple[dict, dict]:
    scenario = preset("noisy")
    return (
        runner.measure_saturated(scenario, protocol, 0.2, seed=3, overrides=overrides),
        runner.measure_batch_transfer(scenario, protocol, 200, seed=3, overrides=overrides),
    )


@pytest.mark.parametrize("protocol,overrides", PROTOCOLS,
                         ids=[p + ("+stutter" if o else "") for p, o in PROTOCOLS])
def test_whole_runs_equal_the_parent_senders(protocol, overrides, monkeypatch):
    """Whole ``noisy`` runs with the specification's senders swapped in
    (they replaced the record-per-frame parents) give the same outcome
    dicts, the ``sendbuf`` gauge included."""
    shipped = _runs(protocol, overrides)
    for family, module, sender, receiver in (
        ("hdlc", hdlc_protocol, SpecHdlc, HdlcReceiver),
        ("nbdt", nbdt_protocol, SpecNbdt, NbdtReceiver),
    ):
        monkeypatch.setitem(registry._FACTORIES, family, registry.pair_factory(family))
        registry.register_baseline(family, registry_half(sender), receiver, module.ROUTES)
    assert _runs(protocol, overrides) == shipped
    assert shipped[1]["completed"]


@pytest.mark.parametrize("protocol", ["hdlc", "gbn", "nbdt-continuous", "nbdt-multiphase"])
def test_every_baseline_reports_its_sending_buffer_and_holding_time(protocol):
    """The gauge ``measure_saturated`` reads as ``sendbuf_max`` peaks at
    the buffer's own peak, and every release is a holding-time sample."""
    setup = build_simulation(preset("noisy"), protocol, seed=3)
    sender = setup.endpoint_a.sender
    SaturatedSource(
        setup.sim, setup.endpoint_a, backlog_fn=lambda: sender.pending_count,
        low_water=256, chunk=512, poll_interval=preset("noisy").iframe_time * 64,
    ).start()
    setup.sim.run(until=0.2)
    gauge = setup.tracer.levels[f"{sender.name}.sendbuf"]
    assert gauge.maximum == sender.buffer.peak_occupancy > 0
    holding = setup.tracer.samples[f"{sender.name}.holding_time"]
    assert holding.count == sender.buffer.holding_samples == sender.releases > 0
