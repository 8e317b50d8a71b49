"""Unit tests for HDLC window arithmetic and configuration.

The sender's V(A) / V(S) window is the sending buffer's columns
(``HdlcSender.buffer``); ``TestSenderWindow`` drives it through the
sender on a stub channel.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hdlc.config import HdlcConfig
from repro.hdlc.frames import HdlcIFrame, RejFrame, RrFrame, SrejFrame
from repro.hdlc.sender import HdlcSender
from repro.hdlc.window import ReceiverWindow, in_window, increment, window_offset
from repro.simulator.engine import Simulator

from .baseline_sender_reference import StubChannel

FRAME_TIME = 1 / 1024  # far inside the default 0.1 s poll timeout


class TestWindowArithmetic:
    def test_increment_wraps(self):
        assert increment(7, 8) == 0
        assert increment(3, 8, by=6) == 1

    def test_offset(self):
        assert window_offset(6, 2, 8) == 4
        assert window_offset(2, 2, 8) == 0

    def test_in_window(self):
        assert in_window(6, 7, size=4, modulus=8)
        assert in_window(6, 1, size=4, modulus=8)
        assert not in_window(6, 2, size=4, modulus=8)

    @given(
        base=st.integers(min_value=0, max_value=127),
        seq=st.integers(min_value=0, max_value=127),
        size=st.integers(min_value=1, max_value=64),
    )
    def test_in_window_consistent_with_offset(self, base, seq, size):
        assert in_window(base, seq, size, 128) == (window_offset(base, seq, 128) < size)


class SenderRig:
    """An HDLC sender (M = 8) on a stub channel, with its window in view."""

    def __init__(self, size: int) -> None:
        self.sim = Simulator()
        config = HdlcConfig(window_size=size, sequence_bits=3, selective=False)
        self.channel = StubChannel(self.sim, config.iframe_bits / FRAME_TIME, 0.0)
        self.sender = HdlcSender(self.sim, config, self.channel)
        self.sender.start()

    def send(self, count: int) -> list[int]:
        """Offer *count* packets; the N(S) of every frame that went out."""
        sent = len(self.channel.frames)
        for i in range(count):
            assert self.sender.accept(i)
        self.sim.run(until=self.sim.now + (count + 1) * FRAME_TIME)
        return [frame.ns for frame in self.channel.frames[sent:]]

    def ack(self, nr: int) -> int:
        """Apply RR(N(R)); how many frames it released."""
        released = self.sender.releases
        self.sender.on_rr(RrFrame(nr=nr), corrupted=False)
        return self.sender.releases - released

    @property
    def va(self) -> int:
        buffer = self.sender.buffer
        return buffer.space.seq_of(buffer.base)

    @property
    def vs(self) -> int:
        buffer = self.sender.buffer
        return buffer.space.seq_of(buffer.next_index)

    @property
    def outstanding(self) -> int:
        return len(self.sender.buffer.items)


class TestSenderWindow:
    def test_send_until_exhausted(self):
        rig = SenderRig(size=3)
        assert rig.send(5) == [0, 1, 2]
        assert rig.outstanding == 3 and rig.sender.pending_count == 2

    def test_cumulative_ack_slides(self):
        rig = SenderRig(size=4)
        rig.send(4)
        assert rig.ack(3) == 3  # acks 0, 1, 2
        assert rig.outstanding == 1
        assert rig.send(1) == [4]  # the window is open again

    def test_stale_ack_ignored(self):
        rig = SenderRig(size=4)
        rig.send(2)
        assert rig.ack(2) == 2
        assert rig.ack(2) == 0  # repeat: no progress
        assert rig.ack(7) == 0  # insane: outside (va, vs]
        assert (rig.va, rig.vs) == (2, 2)

    def test_ack_across_wraparound(self):
        rig = SenderRig(size=4)
        # Advance near the wrap point.
        for _ in range(6):
            rig.send(1)
            rig.ack(rig.vs)
        assert rig.va == rig.vs == 6
        # Send 4 more crossing the modulus.
        assert rig.send(4) == [6, 7, 0, 1]
        assert rig.ack(1) == 3  # acks 6, 7, 0
        assert (rig.va, rig.outstanding) == (1, 1)

    def test_holds(self):
        rig = SenderRig(size=4)
        rig.send(2)
        position_of = rig.sender.buffer.position_of
        assert position_of(0) is not None and position_of(1) is not None
        assert position_of(2) is None

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            HdlcConfig(window_size=0)
        with pytest.raises(ValueError):
            HdlcConfig(window_size=8, sequence_bits=3, selective=False)


class TestReceiverWindow:
    def test_in_order_delivery(self):
        window = ReceiverWindow(size=4, modulus=8)
        assert window.store(0, "a") == ["a"]
        assert window.store(1, "b") == ["b"]
        assert window.vr == 2

    def test_out_of_order_held_then_released(self):
        window = ReceiverWindow(size=4, modulus=8)
        assert window.store(1, "b") == []
        assert window.held_count == 1
        assert window.store(0, "a") == ["a", "b"]
        assert window.held_count == 0

    def test_missing_lists_gaps(self):
        window = ReceiverWindow(size=8, modulus=16)
        window.store(2, "c")
        window.store(4, "e")
        assert window.missing() == [0, 1, 3]

    def test_duplicate_detection_held(self):
        window = ReceiverWindow(size=4, modulus=8)
        window.store(1, "b")
        assert window.is_duplicate(1)

    def test_duplicate_detection_delivered(self):
        window = ReceiverWindow(size=4, modulus=8)
        window.store(0, "a")
        assert window.is_duplicate(0)
        assert not window.is_duplicate(1)

    def test_out_of_window_rejected(self):
        window = ReceiverWindow(size=4, modulus=16)
        assert not window.accepts(10)
        assert window.store(10, "x") == []

    def test_peak_held(self):
        window = ReceiverWindow(size=8, modulus=16)
        for ns in (1, 2, 3, 4):
            window.store(ns, str(ns))
        assert window.peak_held == 4

    @given(st.permutations(list(range(8))))
    def test_any_arrival_order_delivers_in_order(self, order):
        window = ReceiverWindow(size=8, modulus=16)
        delivered = []
        for ns in order:
            delivered.extend(window.store(ns, ns))
        assert delivered == list(range(8))


class TestHdlcConfig:
    def test_defaults(self):
        config = HdlcConfig()
        assert config.modulus == 128
        assert config.effective_ack_every == config.window_size

    def test_sr_window_bound(self):
        with pytest.raises(ValueError, match="W <= M/2"):
            HdlcConfig(window_size=65, sequence_bits=7)

    def test_gbn_window_bound(self):
        HdlcConfig(window_size=127, sequence_bits=7, selective=False)
        with pytest.raises(ValueError):
            HdlcConfig(window_size=128, sequence_bits=7, selective=False)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            HdlcConfig(window_size=0)
        with pytest.raises(ValueError):
            HdlcConfig(timeout=0)
        with pytest.raises(ValueError):
            HdlcConfig(ack_every=0)


class TestHdlcFrames:
    def test_iframe_validation(self):
        with pytest.raises(ValueError):
            HdlcIFrame(ns=-1, payload=None, size_bits=100)

    def test_srej_requires_numbers(self):
        with pytest.raises(ValueError):
            SrejFrame(nrs=())
        with pytest.raises(ValueError):
            SrejFrame(nrs=(1, 1))

    def test_control_flags(self):
        assert RrFrame(nr=0).is_control
        assert SrejFrame(nrs=(1,)).is_control
        assert RejFrame(nr=0).is_control
        assert not HdlcIFrame(ns=0, payload=None, size_bits=1).is_control
