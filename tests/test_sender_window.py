"""The sender's outstanding window against the record-per-frame oracle.

``tests/sender_reference.py`` holds the oracle and the rig; every
``rig`` step below ends with the full comparison (trace records,
retransmission queue, holding statistics to the bit, outstanding view,
``held_payloads()``), so the tests here only have to steer.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.sendbuf import SendBuffer
from repro.core.seqspace import SequenceSpace
from repro.faults.plan import FaultPlan, LinkOutage

from .sender_reference import FRAME_TIME, RTT, SenderRig
from .test_batched_parity import _run_golden

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
)


def apply_checkpoint(rig: SenderRig, enforced, picks, frontier_kind, issue_kind, salt) -> None:
    buffer, reference = rig.sender.buffer, rig.reference
    live = [record.seq for record in reference.in_transmit_order()]
    naks: list[int] = []
    for kind, number in picks:
        # A live number, or any number at all: one that was never sent,
        # one already retransmitted, one NAK'd by an earlier checkpoint.
        seq = number % reference.modulus
        if kind == "live" and live:
            seq = live[number % len(live)]
        elif kind == "out of range":
            seq += reference.modulus * (1 + number % 3)
        if seq not in naks:
            naks.append(seq)
    newest = buffer.next_index - 1
    frontier = {
        "none": None, "below": buffer.base - 2, "newest": newest, "beyond": newest + 5,
        "mid": buffer.base + salt % max(1, len(buffer.items)),
    }[frontier_kind]
    if frontier is not None and frontier < 0:
        frontier = None
    arrivals = [record.expected_arrival for record in reference.records.values()]
    issue_time = {
        "past": rig.sim.now - RTT, "now": rig.sim.now, "future": rig.sim.now + 1.0,
        # Exactly on the coverage comparison's boundary for one frame.
        "edge": arrivals[salt % len(arrivals)] + GUARD if arrivals else rig.sim.now,
    }[issue_kind]
    rig.checkpoint(issue_time, naks, frontier, enforced)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    numbering_bits=st.sampled_from([3, 4, 6, 16]),
    batch_window=st.sampled_from([1, 7, 64]),
    delay=st.sampled_from(sorted(DELAYS)),
    burst=st.booleans(),
    history=st.lists(steps, min_size=1, max_size=30),
)
def test_window_matches_record_per_frame_reference(
    numbering_bits, batch_window, delay, burst, history,
):
    rig = SenderRig(numbering_bits, batch_window, DELAYS[delay], burst)
    for step in history:
        if step[0] == "offer":
            rig.offer(step[1], together=step[2])
        elif step[0] == "run":
            rig.run(step[1] * FRAME_TIME)
        elif step[0] == "timeout":
            rig.timeout()
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
    rig = SenderRig(numbering_bits=3, batch_window=64)
    rig.offer(20)
    assert rig.sender.iframes_sent == 8 and rig.exhausted is None  # a run cannot lap itself
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
# of tracer.summary()) of ``_pinned_run`` below.  Everything but the
# first column was recorded at the parent of the change that made the
# window columns (record-per-frame bookkeeping): the columns change no
# float and no event.  The ``events`` column was re-recorded when a
# restarted Timer stopped leaving a dead heap entry behind (it counts
# popped entries, and only no-op pops went away — 60 to 124 of them in
# a second, 597 over the outage runs' five); ``sim.now``, the delivered
# count, both digests stayed byte-identical in all ten rows.  It was
# re-recorded again for the five 64-window rows when a channel's arrivals
# and its receiver's drains began to share one heap entry, an agenda
# (6433 / 7192 / 6767 / 6758 / 4295 became 417 / 1221 / 844 / 838 /
# 3703): every callback runs at its old ``(time, sequence)``, and only
# the entries popped went down.  The window-1 rows never make a run of
# two, hence no agenda, and did not move.  When the receiver began to
# take a run whole (one agenda item per delivery, none per arrival) only
# the noisy row's count moved, 1221 -> 1209.  When a frame handed over on
# its own ahead of pending runs began always to set them aside and take
# them again (their deliveries keep their arrivals' ranks, so nothing else
# moved), the outage row's moved, 3703 -> 3704.
PARENT_PINS = {
    ('long_haul', 1): (9382, 1.0, 3000, 'bd0c1b1edf3bbbde', '7e5b94d4e5b143a6'),
    ('long_haul', 64): (417, 1.0, 3000, 'bd0c1b1edf3bbbde', '1f977025b44d2019'),
    ('noisy', 1): (10130, 1.0, 3000, 'ea4fc1e6884150ec', '376090006529bf47'),
    ('noisy', 64): (1209, 1.0, 3000, '2446543cc7eac069', '9a6c1c83dc3613b3'),
    ('nominal', 1): (9705, 1.0, 3000, 'c3a12360746b01e0', '3abddafd9f8cfb02'),
    ('nominal', 64): (844, 1.0, 3000, 'cd127c87b8a5b2d3', 'df325d4415d56cbb'),
    ('short_hop', 1): (9696, 1.0, 3000, 'dd5826463113fa29', '9dd76588ae863488'),
    ('short_hop', 64): (838, 1.0, 3000, 'b32bedb5f0402d90', '1ac8fad06cba5201'),
    ('short_hop+outages', 1): (4443, 5.0, 300, '15b7365b80a0beeb', '110426c39522964e'),
    ('short_hop+outages', 64): (3704, 5.0, 300, '15b7365b80a0beeb', '94b34be119c2e2e7'),
}

TWO_OUTAGES = FaultPlan(faults=(LinkOutage(start=0.002, duration=0.004),
                                LinkOutage(start=0.010, duration=0.002)))


def _pinned_run(name: str, batch_window: int) -> tuple:
    overrides = {"batch_window": batch_window}
    if name == "short_hop+outages":
        run = _run_golden("short_hop", seed=11, count=300, fault_plan=TWO_OUTAGES,
                          overrides=overrides)
    else:
        run = _run_golden(name, seed=5, until=1.0, count=3000, overrides=overrides)
    events, now, delivered, digest, summary = run
    return (events, now, delivered, digest[:16],
            hashlib.sha256(repr(sorted(summary.items())).encode()).hexdigest()[:16])


@pytest.mark.parametrize("name,batch_window", sorted(PARENT_PINS))
def test_presets_unchanged_from_parent(name, batch_window):
    assert _pinned_run(name, batch_window) == PARENT_PINS[(name, batch_window)]
