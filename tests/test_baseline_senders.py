"""The SR-HDLC/GBN and NBDT senders against their parents.

``tests/baseline_sender_reference.py`` holds the record-per-frame
senders and the rig; every rig step ends with the full comparison
(frames, trace records, timer deadline, counters, holding-time sum to
the bit, occupancy, peak, outstanding records, ``held_payloads()``), so
the histories here only have to steer.  Then whole runs: the runner's
outcome dicts must not change when the reference senders are swapped
in, and every baseline now reports its sending-buffer gauge and
holding-time samples.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import endpoint as registry
from repro.experiments import runner
from repro.hdlc import protocol as hdlc_protocol
from repro.hdlc.config import HdlcConfig
from repro.hdlc.frames import RejFrame, RrFrame, SrejFrame
from repro.hdlc.receiver import HdlcReceiver
from repro.nbdt import protocol as nbdt_protocol
from repro.nbdt.config import NbdtConfig
from repro.nbdt.frames import NbdtReport
from repro.nbdt.receiver import NbdtReceiver
from repro.workloads import build_simulation, preset
from repro.workloads.generators import SaturatedSource

from . import baseline_sender_reference as reference
from .baseline_sender_reference import BaselineRig

MODES = {
    "sr": dict(selective=True),
    "gbn": dict(selective=False),
    "sr+stutter": dict(stutter=True),
    "nbdt-continuous": dict(mode="continuous"),
    "nbdt-multiphase": dict(mode="multiphase"),
}
DYADIC = 1 / 64  # an I-frame time with exact multiples; the timeout is four


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
        va = rig.reference.sender.window.va
        return (va - 2 + number % (rig.config.window_size + 5)) % modulus
    return number % (2 * modulus)  # M and above included


def nbdt_id(rig: BaselineRig, kind: str, number: int) -> int:
    """A live id (or the newest); one up to two past the newest; -1 up."""
    live = rig.live_numbers()
    if kind in ("ack", "live") and live:
        return live[number % len(live)]
    top = rig.reference.sender._next_fid
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
    outstanding = rig.reference.sender._outstanding
    for _ in range(8):  # the channel may be busy for a few frames
        record = outstanding.get(fid)
        if record is None or record.retransmit_count:
            break
        rig.run(rig.frame_time)
    if record is not None and record.retransmit_count:
        rig.run(max(0.0, record.last_send_time + rig.config.timeout - rig.reference.sim.now))
    rig.response("on_report", report, corrupted)


def play(rig: BaselineRig, step: tuple) -> None:
    kind = step[0]
    if kind == "offer":
        rig.offer(step[1])
    elif kind == "run":
        rig.run(step[1] * rig.frame_time)
    elif kind in ("expire", "stop", "start"):
        getattr(rig, kind)()
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
    assert [f.ns for f in rig.shipped.channel.frames[-7:]] == [6, 7, 0, 1, 7, 0, 1]


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
    assert [f.ns for f in rig.shipped.channel.frames[-4:]] == [7, 0, 1, 2]


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
    assert rig.shipped.sender.retransmissions == 1
    rig.run(3 / 64)                               # now exactly one timeout on
    rig.response("on_report", report, False)
    assert rig.shipped.sender.retransmissions == 2


def test_a_released_number_named_by_srej_is_not_requeued():
    """A stale number left queued behind the live one would take the
    Poll bit off its retransmission."""
    rig = make_rig("sr")
    rig.start()
    rig.offer(4)
    rig.run(4 / 64)
    rig.response("on_rr", RrFrame(nr=2), False)   # 0 and 1 released
    rig.response("on_srej", SrejFrame(nrs=(3, 0, 1), final=True), False)
    last = rig.shipped.channel.frames[-1]
    assert (last.ns, last.poll) == (3, True)


# -- whole runs --------------------------------------------------------------------

PROTOCOLS = [
    ("lams", None), ("hdlc", None), ("gbn", None),
    ("nbdt-continuous", None), ("nbdt-multiphase", None), ("hdlc", {"stutter": True}),
]


def _runs(protocol: str, overrides) -> tuple[dict, dict]:
    scenario = preset("noisy")
    return (
        runner.measure_saturated(scenario, protocol, 0.2, seed=3, overrides=overrides),
        runner.measure_batch_transfer(scenario, protocol, 200, seed=3, overrides=overrides),
    )


@pytest.mark.parametrize("protocol,overrides", PROTOCOLS,
                         ids=[p + ("+stutter" if o else "") for p, o in PROTOCOLS])
def test_whole_runs_equal_the_parent_senders(protocol, overrides, monkeypatch):
    shipped = _runs(protocol, overrides)
    for family, module, sender, receiver in (
        ("hdlc", hdlc_protocol, reference.HdlcSender, HdlcReceiver),
        ("nbdt", nbdt_protocol, reference.NbdtSender, NbdtReceiver),
    ):
        monkeypatch.setitem(registry._FACTORIES, family, registry.pair_factory(family))
        registry.register_baseline(family, sender, receiver, module.ROUTES)
    parent = _runs(protocol, overrides)
    if protocol.startswith("nbdt"):
        # The one difference: the parent's NBDT sender kept no gauge.
        for key in ("sendbuf_avg", "sendbuf_max"):
            assert math.isnan(parent[0].pop(key))
            assert not math.isnan(shipped[0].pop(key))
    assert shipped == parent
    assert shipped[1]["completed"]


@pytest.mark.parametrize("protocol", ["hdlc", "gbn", "nbdt-continuous", "nbdt-multiphase"])
def test_every_baseline_reports_its_sending_buffer_and_holding_time(protocol):
    """The gauge ``measure_saturated`` reads as ``sendbuf_max`` peaks at
    the buffer's own peak, and every release is a holding-time sample
    (NBDT had neither)."""
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
