"""Unit tests for HDLC window arithmetic and configuration.

The sender's V(A) / V(S) window is the sending buffer's columns
(``HdlcSender.buffer``); ``tests/test_baseline_senders.py`` holds it to
the specification's window, a dict keyed by non-circular number.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hdlc.config import HdlcConfig
from repro.hdlc.frames import HdlcIFrame, RejFrame, RrFrame, SrejFrame
from repro.hdlc.window import ReceiverWindow, in_window, increment, window_offset


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
