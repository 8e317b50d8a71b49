"""Protocol-conformance tests: fine-grained Section 3.2 behaviours.

These pin the *mechanisms*, not just the outcomes: checkpoint cadence,
cumulative-NAK repetition depth, exactly-one-retransmission-per-NAK,
sequential renumbering, and implicit-acknowledgement timing — observed
on the wire by intercepting the control channel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import make_endpoint_pair
from repro.core import CheckpointFrame, LamsDlcConfig
from repro.simulator import FullDuplexLink, PerfectChannel, Simulator, StreamRegistry

RATE = 100e6
DELAY = 0.010
RTT = 2 * DELAY
W_CP = 0.005
C_DEPTH = 3


class ScriptedErrors:
    """Error model corrupting exactly the frames at the given indices."""

    def __init__(self, corrupt_indices: set[int]):
        self.corrupt_indices = corrupt_indices
        self._count = 0

    def frame_error(self, start: float, bits: int, rng: np.random.Generator) -> bool:
        index = self._count
        self._count += 1
        return index in self.corrupt_indices


def build(sim, iframe_errors=None):
    link = FullDuplexLink(
        sim, bit_rate=RATE, propagation_delay=DELAY, name="c",
        iframe_errors=iframe_errors or PerfectChannel(),
        cframe_errors=PerfectChannel(),
        streams=StreamRegistry(seed=1),
    )
    config = LamsDlcConfig(checkpoint_interval=W_CP, cumulation_depth=C_DEPTH)
    delivered = []
    a, b = make_endpoint_pair("lams", sim, link, config, deliver_b=delivered.append)

    # Intercept checkpoint commands on the wire (reverse channel).
    checkpoints: list[tuple[float, CheckpointFrame, bool]] = []
    original = link.reverse.receiver

    def intercept(frame, corrupted):
        if isinstance(frame, CheckpointFrame):
            checkpoints.append((sim.now, frame, corrupted))
        original(frame, corrupted)

    link.reverse.attach_receiver(intercept)
    a.start(send=True, receive=False)
    b.start(send=False, receive=True)
    return link, a, b, delivered, checkpoints


class TestCheckpointCadence:
    def test_issue_times_are_exact_multiples_of_wcp(self):
        sim = Simulator()
        _, a, b, _, checkpoints = build(sim)
        sim.run(until=0.200)
        issue_times = [cp.issue_time for _, cp, _ in checkpoints]
        assert len(issue_times) >= 30
        for k, when in enumerate(issue_times, start=1):
            assert when == pytest.approx(k * W_CP, abs=1e-9)

    def test_indices_consecutive(self):
        sim = Simulator()
        _, a, b, _, checkpoints = build(sim)
        sim.run(until=0.200)
        indices = [cp.cp_index for _, cp, _ in checkpoints]
        assert indices == list(range(len(indices)))


class TestCumulativeNak:
    def corrupt_one(self):
        """Corrupt exactly the 11th I-frame of a 100-frame transfer."""
        sim = Simulator()
        link, a, b, delivered, checkpoints = build(
            sim, iframe_errors=ScriptedErrors({10})
        )
        for i in range(100):
            a.accept(("pkt", i))
        sim.run(until=2.0)
        return a, b, delivered, checkpoints

    def test_nak_repeated_exactly_c_depth_times(self):
        """The error entry appears in exactly C_depth consecutive
        checkpoints (Section 3.2's cumulation), then expires."""
        a, b, delivered, checkpoints = self.corrupt_one()
        with_naks = [cp for _, cp, _ in checkpoints if cp.naks]
        assert len(with_naks) == C_DEPTH
        indices = [cp.cp_index for cp in with_naks]
        assert indices == list(range(indices[0], indices[0] + C_DEPTH))
        # All three carry the same (single) sequence number.
        assert {cp.naks for cp in with_naks} == {with_naks[0].naks}

    def test_exactly_one_retransmission(self):
        """C_depth repeats of the NAK must cause exactly one re-send."""
        a, b, delivered, checkpoints = self.corrupt_one()
        assert a.sender.retransmissions == 1
        assert a.sender.retransmissions_by_cause["nak"] == 1
        assert sorted(p[1] for p in delivered) == list(range(100))

    def test_retransmission_renumbered_sequentially(self):
        """The re-sent frame takes the next sequence number in transmit
        order — N(S) = 100 after frames 0..99 (Section 3.2/3.3)."""
        sim = Simulator()
        link, a, b, delivered, checkpoints = build(
            sim, iframe_errors=ScriptedErrors({10})
        )
        seen = []
        original = link.forward.receiver

        def intercept(frame, corrupted):
            if not frame.is_control:
                seen.append(frame.seq)
            original(frame, corrupted)

        link.forward.attach_receiver(intercept)
        b.receiver.hear(link.forward)  # unwires the run path: intercept sees every I-frame
        for i in range(100):
            a.accept(("pkt", i))
        sim.run(until=2.0)
        assert len(seen) == 101
        assert seen[:100] == list(range(100))
        assert seen[100] == 100  # the renumbered retransmission

    def test_release_at_first_covering_checkpoint(self):
        """Implicit positive ack: a frame is released by the first valid
        checkpoint issued after its arrival, not earlier."""
        sim = Simulator()
        _, a, b, delivered, checkpoints = build(sim)
        a.accept(("pkt", 0))
        sim.run(until=2.0)
        # Frame arrives at ~DELAY + t_f; the first checkpoint issued
        # after that covers it and reaches the sender DELAY later.
        t_f = LamsDlcConfig().iframe_bits / RATE
        arrival = t_f + DELAY
        first_covering_issue = (int(arrival / W_CP) + 1) * W_CP
        assert a.sender.releases == 1
        # Holding time = (covering checkpoint's issue time + transit back)
        # minus the send time (0): the implicit-ack timing, exactly.
        measured = a.sender.mean_holding_time
        assert measured == pytest.approx(first_covering_issue + DELAY, rel=0.02)


class TestFrontier:
    def test_frontier_tracks_highest_transmit_index(self):
        sim = Simulator()
        _, a, b, delivered, checkpoints = build(sim)
        for i in range(50):
            a.accept(("pkt", i))
        sim.run(until=1.0)
        final_frontier = checkpoints[-1][1].frontier
        assert final_frontier == 49

    def test_frontier_none_before_any_frame(self):
        sim = Simulator()
        _, a, b, delivered, checkpoints = build(sim)
        # First checkpoint is issued at 5 ms and arrives ~15 ms.
        sim.run(until=0.018)
        assert checkpoints, "expected early checkpoints"
        assert all(cp.frontier is None for _, cp, _ in checkpoints)


class TestReceiverTransparency:
    def test_receive_queue_stays_small_at_line_rate(self):
        """Section 4: "provided the receiving buffer can hold t_proc/t_f
        frames at a time, that size is sufficient for transparency."
        At line rate with t_proc < t_f, the receive queue must never
        exceed a couple of frames."""
        sim = Simulator()
        _, a, b, delivered, checkpoints = build(sim)
        for i in range(2000):
            a.accept(("pkt", i))
        peak = {"value": 0}

        def watch():
            peak["value"] = max(peak["value"], b.receiver.receive_queue_length)
            if sim.now < 0.5:
                sim.schedule(1e-5, watch)

        watch()
        sim.run(until=1.0)
        assert len(delivered) == 2000
        # t_proc = 10 us, t_f = 82.7 us: the paper's bound is one frame
        # of slack; allow two for event-ordering jitter.
        assert peak["value"] <= 2
