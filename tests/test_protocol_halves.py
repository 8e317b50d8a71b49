"""Direct unit tests of the LAMS-DLC sender/receiver halves.

The integration suite exercises the halves through real links; these
tests drive them through a stub channel for precise control over frame
sequences — scripted corruption, exact checkpoint contents, resolving
retention, and zero-duplication pruning.
"""

from __future__ import annotations

import pytest

from repro.core.config import LamsDlcConfig
from repro.core.frames import CheckpointFrame, IFrame, RequestNakFrame
from repro.core.receiver import LamsReceiver
from repro.core.sender import LamsSender
from repro.simulator.engine import Simulator

RTT = 0.020
W_CP = 0.005


class StubChannel:
    """Captures sends; emulates the transmitter-idle notification."""

    def __init__(self, sim=None, bit_rate: float = 100e6, delay: float = RTT / 2):
        self.sim = sim
        self.bit_rate = bit_rate
        self.delay = delay
        self.sent: list = []
        self.idle_callbacks: list = []

    # SimplexChannel surface used by the protocol halves:
    def send(self, frame):
        self.sent.append(frame)
        if self.sim is not None:
            # Notify "serialization complete" so sender pacing advances.
            self.sim.schedule(
                self.transmission_time(frame),
                lambda: [cb() for cb in self.idle_callbacks],
            )

    def on_idle(self, callback):
        self.idle_callbacks.append(callback)

    @property
    def is_idle(self):
        return True

    def transmission_time(self, frame):
        return frame.size_bits / self.bit_rate

    def propagation_delay(self, when):
        return self.delay

    def drain(self):
        out, self.sent = self.sent, []
        return out


def make_receiver(sim, **config_overrides):
    config = LamsDlcConfig(
        checkpoint_interval=W_CP, cumulation_depth=3, **config_overrides
    )
    channel = StubChannel()
    delivered = []
    receiver = LamsReceiver(
        sim, config, control_channel=channel, expected_rtt=RTT,
        deliver=delivered.append,
    )
    return receiver, channel, delivered


def iframe(seq, index=None, payload=None, stop_go=False):
    return IFrame(
        seq=seq, payload=payload if payload is not None else ("p", seq),
        size_bits=8272, transmit_index=index if index is not None else seq,
        stop_go=stop_go,
    )


class TestReceiverHalf:
    def test_delivery_after_processing_delay(self):
        sim = Simulator()
        receiver, channel, delivered = make_receiver(sim)
        receiver.start()
        receiver.on_iframe(iframe(0), corrupted=False)
        assert delivered == []  # needs t_proc
        sim.run(until=0.001)
        assert delivered == [("p", 0)]

    def test_checkpoint_carries_logged_error(self):
        sim = Simulator()
        receiver, channel, delivered = make_receiver(sim)
        receiver.start()
        receiver.on_iframe(iframe(0), corrupted=True)
        sim.run(until=W_CP + 1e-6)
        checkpoints = [f for f in channel.drain() if isinstance(f, CheckpointFrame)]
        assert len(checkpoints) == 1
        assert checkpoints[0].naks == (0,)

    def test_gap_detection_logs_all_skipped(self):
        sim = Simulator()
        receiver, channel, delivered = make_receiver(sim)
        receiver.start()
        receiver.on_iframe(iframe(0), corrupted=False)
        receiver.on_iframe(iframe(4, index=4), corrupted=False)  # 1,2,3 lost
        sim.run(until=W_CP + 1e-6)
        checkpoint = [f for f in channel.drain() if isinstance(f, CheckpointFrame)][0]
        assert set(checkpoint.naks) == {1, 2, 3}
        assert receiver.gap_losses_detected == 3

    def test_error_entry_expires_after_c_depth_reports(self):
        sim = Simulator()
        receiver, channel, delivered = make_receiver(sim)
        receiver.start()
        receiver.on_iframe(iframe(0), corrupted=True)
        sim.run(until=5 * W_CP + 1e-6)
        checkpoints = [f for f in channel.drain() if isinstance(f, CheckpointFrame)]
        nak_lists = [cp.naks for cp in checkpoints]
        assert nak_lists[:3] == [(0,), (0,), (0,)]
        assert all(naks == () for naks in nak_lists[3:])

    def test_enforced_nak_uses_resolving_log(self):
        """An error expired from the cumulative log still appears in the
        Enforced-NAK while within the resolving period."""
        sim = Simulator()
        receiver, channel, delivered = make_receiver(sim)
        receiver.start()
        receiver.on_iframe(iframe(0), corrupted=True)
        sim.run(until=4 * W_CP + 1e-6)  # entry expired from cumulative log
        channel.drain()
        receiver.on_request_nak(RequestNakFrame(request_time=sim.now), corrupted=False)
        enforced = [f for f in channel.drain() if isinstance(f, CheckpointFrame)]
        assert len(enforced) == 1
        assert enforced[0].enforced
        assert enforced[0].naks == (0,)

    def test_enforced_nak_drops_errors_past_retention(self):
        sim = Simulator()
        receiver, channel, delivered = make_receiver(sim)
        receiver.start()
        receiver.on_iframe(iframe(0), corrupted=True)
        sim.run(until=receiver.resolving_retention + 0.01)
        channel.drain()
        receiver.on_request_nak(RequestNakFrame(request_time=sim.now), corrupted=False)
        enforced = [f for f in channel.drain() if isinstance(f, CheckpointFrame)][0]
        assert enforced.naks == ()
        assert enforced.is_resolving_command

    def test_corrupted_request_nak_ignored(self):
        sim = Simulator()
        receiver, channel, delivered = make_receiver(sim)
        receiver.start()
        receiver.on_request_nak(RequestNakFrame(request_time=0.0), corrupted=True)
        assert receiver.enforced_sent == 0

    def test_zero_duplication_suppression_and_pruning(self):
        sim = Simulator()
        receiver, channel, delivered = make_receiver(sim, zero_duplication=True)
        receiver.start()
        first = iframe(0, index=0)
        receiver.on_iframe(first, corrupted=False)
        # A renumbered duplicate of the same incarnation.
        duplicate = IFrame(seq=7, payload=("p", 0), size_bits=8272,
                           transmit_index=7, origin=0)
        receiver.on_iframe(duplicate, corrupted=False)
        assert receiver.duplicates_suppressed == 1
        # After the retention window the memory is pruned: the same
        # origin would be accepted again (no stale state forever).
        sim.run(until=receiver._origin_retention_value + 0.01)
        late = IFrame(seq=9, payload=("p", 0), size_bits=8272,
                      transmit_index=9, origin=0)
        receiver.on_iframe(late, corrupted=False)
        assert receiver.duplicates_suppressed == 1  # not suppressed again

    def test_stop_indicated_watermark(self):
        sim = Simulator()
        receiver, channel, delivered = make_receiver(
            sim, receive_high_watermark=2, receive_low_watermark=1,
        )
        receiver.start()
        assert not receiver.stop_indicated()
        # Deliveries drain one per t_proc; pile three up synchronously.
        for seq in range(3):
            receiver.on_iframe(iframe(seq, index=seq), corrupted=False)
        assert receiver.stop_indicated()


class TestSenderHalf:
    def make_sender(self, sim, **config_overrides):
        config = LamsDlcConfig(
            checkpoint_interval=W_CP, cumulation_depth=3, **config_overrides
        )
        channel = StubChannel(sim)
        sender = LamsSender(
            sim, config, data_channel=channel, expected_rtt=RTT,
        )
        return sender, channel

    def checkpoint(self, sim, index, naks=(), frontier=None, enforced=False):
        return CheckpointFrame(
            cp_index=index, issue_time=sim.now, naks=naks,
            frontier=frontier, enforced=enforced,
        )

    def test_frames_numbered_sequentially(self):
        sim = Simulator()
        sender, channel = self.make_sender(sim)
        sender.start()
        for i in range(5):
            sender.accept(("pkt", i))
        sim.run(until=0.01)
        seqs = [f.seq for f in channel.drain() if isinstance(f, IFrame)]
        assert seqs == [0, 1, 2, 3, 4]

    def test_release_on_covering_checkpoint(self):
        sim = Simulator()
        sender, channel = self.make_sender(sim)
        sender.start()
        sender.accept(("pkt", 0))
        sim.run(until=0.02)  # frame "arrived" at ~RTT/2
        sender.on_checkpoint(self.checkpoint(sim, 0, frontier=0), corrupted=False)
        assert sender.releases == 1
        assert sender.unresolved_count == 0

    def test_uncovered_frame_not_released(self):
        sim = Simulator()
        sender, channel = self.make_sender(sim)
        sender.start()
        sender.accept(("pkt", 0))
        sim.run(until=0.001)  # expected arrival is RTT/2 = 10 ms away
        sender.on_checkpoint(self.checkpoint(sim, 0, frontier=0), corrupted=False)
        assert sender.releases == 0

    def test_nak_triggers_single_renumbered_retransmission(self):
        sim = Simulator()
        sender, channel = self.make_sender(sim)
        sender.start()
        sender.accept(("pkt", 0))
        sim.run(until=0.02)
        channel.drain()
        sender.on_checkpoint(self.checkpoint(sim, 0, naks=(0,), frontier=0), corrupted=False)
        sim.run(until=0.021)
        retransmitted = [f for f in channel.drain() if isinstance(f, IFrame)]
        assert len(retransmitted) == 1
        assert retransmitted[0].seq == 1         # renumbered
        assert retransmitted[0].origin == 0      # same incarnation
        # A repeat of the same NAK finds nothing outstanding under seq 0.
        sender.on_checkpoint(self.checkpoint(sim, 1, naks=(0,), frontier=0), corrupted=False)
        sim.run(until=0.022)
        assert channel.drain() == []

    def test_trailing_loss_retransmitted(self):
        sim = Simulator()
        sender, channel = self.make_sender(sim)
        sender.start()
        sender.accept(("pkt", 0))
        sender.accept(("pkt", 1))
        sim.run(until=0.02)
        channel.drain()
        # Receiver saw only frame 0 (frontier=0): frame 1 fell off the tail.
        sender.on_checkpoint(self.checkpoint(sim, 0, frontier=0), corrupted=False)
        sim.run(until=0.021)
        resent = [f for f in channel.drain() if isinstance(f, IFrame)]
        assert len(resent) == 1 and resent[0].payload == ("pkt", 1)
        assert sender.retransmissions_by_cause["trailing"] == 1
        assert sender.releases == 1  # frame 0 released

    def test_checkpoint_timeout_probes(self):
        sim = Simulator()
        sender, channel = self.make_sender(sim)
        sender.start()
        sender.accept(("pkt", 0))
        sim.run(until=RTT + 3 * W_CP + 0.001)  # startup watchdog expires
        probes = [f for f in channel.drain() if isinstance(f, RequestNakFrame)]
        assert len(probes) == 1
        assert sender.suspended

    def test_enforced_nak_clears_suspension(self):
        sim = Simulator()
        sender, channel = self.make_sender(sim)
        sender.start()
        sender.accept(("pkt", 0))
        sim.run(until=RTT + 3 * W_CP + 0.001)
        assert sender.suspended
        sender.on_checkpoint(
            self.checkpoint(sim, 0, enforced=True, frontier=None), corrupted=False
        )
        assert not sender.suspended
        assert not sender.failed

    def test_failed_sender_rejects_packets(self):
        sim = Simulator()
        sender, channel = self.make_sender(sim)
        sender.start()
        sim.run(until=5.0)  # no checkpoints ever: watchdog -> probe -> fail
        assert sender.failed
        assert not sender.accept(("pkt", 0))
