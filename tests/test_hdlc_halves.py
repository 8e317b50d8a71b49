"""Direct unit tests of the HDLC sender/receiver halves: the sender on the
rig of ``tests/test_baseline_senders.py``, the receiver on a stub channel."""

from __future__ import annotations

from repro.hdlc.config import HdlcConfig
from repro.hdlc.frames import HdlcIFrame, RejFrame, RrFrame, SrejFrame
from repro.hdlc.receiver import HdlcReceiver
from repro.simulator.engine import Simulator

from .test_baseline_senders import make_rig


class StubChannel:
    """Captures the receiver half's responses."""

    def __init__(self):
        self.sent: list = []

    def send(self, frame):
        self.sent.append(frame)

    def drain(self):
        out, self.sent = self.sent, []
        return out


def make_receiver(sim, **overrides):
    config = HdlcConfig(**{"window_size": 4, "sequence_bits": 3, "timeout": 0.05, **overrides})
    channel = StubChannel()
    delivered = []
    receiver = HdlcReceiver(
        sim, config, control_channel=channel, deliver=delivered.append
    )
    return receiver, channel, delivered


def iframe(ns, poll=False, payload=None):
    return HdlcIFrame(ns=ns, payload=payload if payload is not None else ns,
                      size_bits=8272, poll=poll)


def sent(rig, count=None):
    """``(N(S), Poll)`` of the last *count* frames the shipped sender sent."""
    return [(f.ns, f.poll) for f in rig.sender.data_channel.frames[-count if count else 0:]]


class TestHdlcSenderHalf:
    """The shipped sender beside the specification's (``BaselineRig``: M = 8,
    W = 4, a frame time of 1/64 s, a poll timeout of four)."""

    def test_window_limits_outstanding(self):
        rig = make_rig("sr")
        rig.start()
        rig.offer(10)
        rig.run(4 / 64)
        assert [ns for ns, _ in sent(rig)] == [0, 1, 2, 3]  # window size

    def test_last_frame_of_window_polls(self):
        rig = make_rig("sr")
        rig.offer(10)  # the whole backlog is there at each send's poll decision
        rig.start()
        rig.run(4 / 64)
        assert [poll for _, poll in sent(rig)] == [False, False, False, True]

    def test_rr_slides_window_and_releases(self):
        rig = make_rig("sr")
        rig.start()
        rig.offer(6)
        rig.run(4 / 64)
        rig.response("on_rr", RrFrame(nr=4, final=True), False)
        rig.run(2 / 64)
        assert rig.sender.releases == 4
        assert [ns for ns, _ in sent(rig, 2)] == [4, 5]

    def test_srej_retransmits_listed_frames(self):
        rig = make_rig("sr")
        rig.start()
        rig.offer(4)
        rig.run(4 / 64)
        rig.response("on_srej", SrejFrame(nrs=(1, 2), final=True), False)
        rig.run(2 / 64)
        assert [ns for ns, _ in sent(rig, 2)] == [1, 2]
        assert rig.sender.retransmissions == 2

    def test_repeated_srej_retransmits_again(self):
        """A second SREJ for the same N(S) after the retransmission went
        out is a legitimate re-request (the re-sent copy was lost too)
        and must trigger another copy."""
        rig = make_rig("sr")
        rig.start()
        rig.offer(1)
        rig.run(1 / 64)
        for _ in range(2):
            rig.response("on_srej", SrejFrame(nrs=(0,)), False)
            rig.run(1 / 64)
        assert sent(rig) == [(0, True)] * 3 and rig.sender.retransmissions == 2

    def test_poll_timeout_retransmits_oldest(self):
        rig = make_rig("sr")
        rig.start()
        rig.offer(2)
        rig.run(20 / 64)  # several timeouts, no responses
        assert rig.sender.timeouts >= 1
        retries = [poll for ns, poll in sent(rig) if ns == 0]
        assert len(retries) >= 2 and any(retries[1:])  # ns=0 again, polling

    def test_rej_goes_back(self):
        rig = make_rig("gbn")
        rig.start()
        rig.offer(4)
        rig.run(4 / 64)
        rig.response("on_rej", RejFrame(nr=1, final=True), False)
        rig.run(3 / 64)
        assert [ns for ns, _ in sent(rig, 3)] == [1, 2, 3]  # everything from N(R), in order
        assert rig.sender.releases == 1  # frame 0 cumulatively acked

    def test_corrupted_responses_ignored(self):
        rig = make_rig("sr")
        rig.start()
        rig.offer(1)
        rig.run(1 / 64)
        rig.response("on_rr", RrFrame(nr=1), True)
        rig.response("on_srej", SrejFrame(nrs=(0,)), True)
        assert (rig.sender.releases, rig.sender.retransmissions) == (0, 0)


class TestHdlcReceiverHalf:
    def test_in_order_frames_delivered_and_acked_per_window(self):
        sim = Simulator()
        receiver, channel, delivered = make_receiver(sim)
        for ns in range(4):
            receiver.on_iframe(iframe(ns), corrupted=False)
        assert delivered == [0, 1, 2, 3]
        rrs = [f for f in channel.drain() if isinstance(f, RrFrame)]
        assert len(rrs) == 1 and rrs[0].nr == 4 % 8

    def test_gap_triggers_srej_with_missing_list(self):
        sim = Simulator()
        receiver, channel, delivered = make_receiver(sim)
        receiver.on_iframe(iframe(0), corrupted=False)
        receiver.on_iframe(iframe(3), corrupted=False)  # 1, 2 missing
        srejs = [f for f in channel.drain() if isinstance(f, SrejFrame)]
        assert len(srejs) == 1
        assert set(srejs[0].nrs) == {1, 2}

    def test_no_repeat_srej_for_same_gap(self):
        sim = Simulator()
        receiver, channel, delivered = make_receiver(sim, window_size=4)
        receiver.on_iframe(iframe(0), corrupted=False)
        receiver.on_iframe(iframe(2), corrupted=False)
        receiver.on_iframe(iframe(3), corrupted=False)
        srejs = [f for f in channel.drain() if isinstance(f, SrejFrame)]
        listed = [ns for f in srejs for ns in f.nrs]
        assert listed.count(1) == 1  # gap 1 rejected exactly once

    def test_poll_with_gaps_answers_final_srej(self):
        sim = Simulator()
        receiver, channel, delivered = make_receiver(sim)
        receiver.on_iframe(iframe(0), corrupted=False)
        receiver.on_iframe(iframe(2, poll=True), corrupted=False)
        responses = channel.drain()
        finals = [f for f in responses if getattr(f, "final", False)]
        assert len(finals) == 1 and isinstance(finals[0], SrejFrame)
        assert 1 in finals[0].nrs

    def test_poll_without_gaps_answers_final_rr(self):
        sim = Simulator()
        receiver, channel, delivered = make_receiver(sim)
        receiver.on_iframe(iframe(0, poll=True), corrupted=False)
        responses = channel.drain()
        finals = [f for f in responses if getattr(f, "final", False)]
        assert len(finals) == 1 and isinstance(finals[0], RrFrame)
        assert finals[0].nr == 1

    def test_out_of_order_held_and_released_in_order(self):
        sim = Simulator()
        receiver, channel, delivered = make_receiver(sim)
        receiver.on_iframe(iframe(1), corrupted=False)
        receiver.on_iframe(iframe(2), corrupted=False)
        assert delivered == []
        assert receiver.hold_buffer_count == 2
        receiver.on_iframe(iframe(0), corrupted=False)
        assert delivered == [0, 1, 2]
        assert receiver.hold_buffer_count == 0

    def test_duplicate_discarded(self):
        sim = Simulator()
        receiver, channel, delivered = make_receiver(sim)
        receiver.on_iframe(iframe(0), corrupted=False)
        receiver.on_iframe(iframe(0), corrupted=False)
        assert delivered == [0]
        assert receiver.duplicates == 1

    def test_gbn_discards_out_of_order_and_rejects_once(self):
        sim = Simulator()
        receiver, channel, delivered = make_receiver(sim, selective=False)
        receiver.on_iframe(iframe(0), corrupted=False)
        receiver.on_iframe(iframe(2), corrupted=False)
        receiver.on_iframe(iframe(3), corrupted=False)
        assert delivered == [0]
        assert receiver.discards == 2
        rejs = [f for f in channel.drain() if isinstance(f, RejFrame)]
        assert len(rejs) == 1 and rejs[0].nr == 1
