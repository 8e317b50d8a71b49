"""Piggybacked flow control (Section 3.1), wire-level end-to-end
integration, and broadened robustness properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import make_endpoint_pair
from repro.core import LamsDlcConfig
from repro.core.wire import decode_frame, encode_frame, WireFormatError
from repro.core.frames import CheckpointFrame, IFrame
from repro.hdlc import HdlcConfig
from repro.simulator import (
    BernoulliChannel,
    FullDuplexLink,
    GilbertElliottChannel,
    Simulator,
    StreamRegistry,
)

RATE = 100e6
DELAY = 0.010


def make_link(sim, seed=1, iframe_ber=0.0, cframe_ber=0.0):
    return FullDuplexLink(
        sim, bit_rate=RATE, propagation_delay=DELAY, name="p",
        iframe_errors=BernoulliChannel(iframe_ber),
        cframe_errors=BernoulliChannel(cframe_ber),
        streams=StreamRegistry(seed=seed),
    )


class TestPiggybackFlowControl:
    def duplex_congested(self, piggyback: bool):
        """A<->B duplex; B's receive queue congests; B sends data too."""
        sim = Simulator()
        link = make_link(sim, seed=2)
        config = LamsDlcConfig(
            checkpoint_interval=0.050,  # slow checkpoints: piggyback matters
            cumulation_depth=3,
            receive_high_watermark=16,
            receive_low_watermark=4,
            piggyback_flow_control=piggyback,
        )
        delivered_a, delivered_b = [], []
        a, b = make_endpoint_pair(
            "lams", sim, link, config,
            deliver_a=delivered_a.append, deliver_b=delivered_b.append,
            delivery_interval_b=300e-6,  # B drains slowly -> congests
        )
        a.start()
        b.start()
        for i in range(2000):
            a.accept(("a2b", i))
        for i in range(500):
            b.accept(("b2a", i))
        sim.run(until=1.0)
        return a, b, delivered_a, delivered_b

    def test_iframes_carry_stop_bit(self):
        a, b, _, _ = self.duplex_congested(piggyback=True)
        # B's queue congested; its outgoing I-frames carried stop bits
        # which throttled A between (slow) checkpoints.
        assert a.sender.flow.min_fraction_seen < 1.0

    def test_disabled_piggyback_relies_on_checkpoints_only(self):
        a_on, *_ = self.duplex_congested(piggyback=True)
        a_off, *_ = self.duplex_congested(piggyback=False)
        # With 50 ms checkpoints the piggybacked path reacts more: at
        # least as many stop indications as checkpoint-only.
        assert (
            a_on.sender.flow.stop_indications
            >= a_off.sender.flow.stop_indications
        )

    def test_one_way_traffic_unaffected(self):
        """No reverse I-frames: piggybacking must change nothing."""
        results = []
        for piggyback in (True, False):
            sim = Simulator()
            link = make_link(sim, seed=3)
            config = LamsDlcConfig(
                checkpoint_interval=0.005, cumulation_depth=3,
                piggyback_flow_control=piggyback,
            )
            delivered = []
            a, b = make_endpoint_pair("lams", sim, link, config, deliver_b=delivered.append)
            a.start(send=True, receive=False)
            b.start(send=False, receive=True)
            for i in range(500):
                a.accept(("pkt", i))
            sim.run(until=2.0)
            results.append((len(delivered), a.sender.iframes_sent))
        assert results[0] == results[1]

    def test_rate_limit_one_application_per_interval(self):
        """Piggybacked bits apply at most once per checkpoint interval."""
        sim = Simulator()
        link = make_link(sim, seed=4)
        config = LamsDlcConfig(checkpoint_interval=0.005, cumulation_depth=3)
        a, b = make_endpoint_pair("lams", sim, link, config)
        sender = a.sender
        sender.note_piggyback_stop_go(True)
        first = sender.flow.stop_indications
        sender.note_piggyback_stop_go(True)  # same instant: ignored
        assert sender.flow.stop_indications == first


class ByteChannelHarness:
    """Sends frames as real octets with bit-level corruption, then
    decodes with CRC — the wire format exercising assumption 9 for real."""

    def __init__(self, ber: float, seed: int = 0):
        self.ber = ber
        self.rng = np.random.default_rng(seed)

    def transmit(self, data: bytes) -> bytes:
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        flips = self.rng.random(len(bits)) < self.ber
        return np.packbits(bits ^ flips).tobytes()


class TestWireLevelIntegration:
    def test_clean_bytes_roundtrip(self):
        channel = ByteChannelHarness(ber=0.0)
        frame = IFrame(seq=5, payload=None, size_bits=8, transmit_index=9)
        received = channel.transmit(encode_frame(frame, payload=b"data!"))
        decoded = decode_frame(received)
        assert isinstance(decoded, IFrame) and decoded.seq == 5

    def test_corrupted_bytes_always_detected(self):
        """10,000 corrupted transmissions: zero undetected errors.

        This is assumption 9 ("no undetectable errors") validated at the
        byte level through the real CRC pipeline.
        """
        channel = ByteChannelHarness(ber=2e-3, seed=7)
        frame = IFrame(seq=1, payload=None, size_bits=8, transmit_index=1)
        encoded = encode_frame(frame, payload=b"payload-bytes" * 8)
        undetected = 0
        corrupted_count = 0
        for _ in range(10_000):
            received = channel.transmit(encoded)
            if received == encoded:
                continue
            corrupted_count += 1
            try:
                decoded = decode_frame(received)
            except WireFormatError:
                continue  # detected, as required
            undetected += 1
        assert corrupted_count > 1000, "test should actually corrupt frames"
        assert undetected == 0

    def test_checkpoint_corruption_detected(self):
        channel = ByteChannelHarness(ber=5e-3, seed=8)
        frame = CheckpointFrame(cp_index=2, issue_time=1.0, naks=(3, 4), frontier=9)
        encoded = encode_frame(frame)
        detected = 0
        for _ in range(2000):
            received = channel.transmit(encoded)
            if received == encoded:
                continue
            with pytest.raises(WireFormatError):
                decode_frame(received)
            detected += 1
        assert detected > 100


class TestBroadRobustness:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_hdlc_exactly_once_any_seed(self, seed):
        sim = Simulator()
        link = make_link(sim, seed=seed, iframe_ber=1e-5, cframe_ber=1e-6)
        config = HdlcConfig(window_size=32, sequence_bits=7, timeout=0.06)
        delivered = []
        a, b = make_endpoint_pair("hdlc", sim, link, config, deliver_b=delivered.append)
        a.start()
        n = 300
        for i in range(n):
            a.accept(("pkt", i))
        sim.run(until=60.0)
        assert [p[1] for p in delivered] == list(range(n))

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        outages=st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=0.3),
                st.floats(min_value=0.001, max_value=0.015),
            ),
            min_size=1, max_size=3,
        ),
    )
    def test_lams_zero_loss_under_multiple_outages(self, seed, outages):
        sim = Simulator()
        link = make_link(sim, seed=seed, iframe_ber=1e-6, cframe_ber=1e-7)
        config = LamsDlcConfig(checkpoint_interval=0.005, cumulation_depth=3)
        delivered = []
        a, b = make_endpoint_pair("lams", sim, link, config, deliver_b=delivered.append)
        a.start(send=True, receive=False)
        b.start(send=False, receive=True)
        n = 300
        for i in range(n):
            a.accept(("pkt", i))
        cursor = 0.0
        for start, length in outages:
            begin = cursor + start
            sim.schedule_at(begin, link.down)
            sim.schedule_at(begin + length, link.up)
            cursor = begin + length
        sim.run(until=60.0)
        delivered_ids = {p[1] for p in delivered}
        held_ids = {p[1] for p in a.sender.held_payloads()}
        assert delivered_ids | held_ids == set(range(n))

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        mean_burst=st.sampled_from([0.001, 0.005, 0.02]),
    )
    def test_lams_zero_loss_under_bursts(self, seed, mean_burst):
        sim = Simulator()
        # One fresh Gilbert-Elliott instance per channel direction: the
        # model's state trajectory requires FIFO frame times, which only
        # holds within a single direction.
        def ge_iframe():
            return GilbertElliottChannel(
                good_ber=1e-7, bad_ber=1e-3, mean_good=0.1,
                mean_bad=mean_burst, bit_rate=RATE,
            )

        def ge_cframe():
            return GilbertElliottChannel(
                good_ber=1e-8, bad_ber=1e-4, mean_good=0.1,
                mean_bad=mean_burst, bit_rate=RATE,
            )

        link = FullDuplexLink(
            sim, bit_rate=RATE, propagation_delay=DELAY, name="ge",
            iframe_errors=ge_iframe(), cframe_errors=ge_cframe(),
            reverse_iframe_errors=ge_iframe(),
            reverse_cframe_errors=ge_cframe(),
            streams=StreamRegistry(seed=seed),
        )
        config = LamsDlcConfig(checkpoint_interval=0.005, cumulation_depth=5)
        delivered = []
        a, b = make_endpoint_pair("lams", sim, link, config, deliver_b=delivered.append)
        a.start(send=True, receive=False)
        b.start(send=False, receive=True)
        n = 300
        for i in range(n):
            a.accept(("pkt", i))
        sim.run(until=60.0)
        delivered_ids = {p[1] for p in delivered}
        held_ids = {p[1] for p in a.sender.held_payloads()}
        assert delivered_ids | held_ids == set(range(n))
