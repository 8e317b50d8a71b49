"""Tests for the bit-level wire format (encode/decode + CRC detection)."""

from __future__ import annotations

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frames import CheckpointFrame, IFrame, RequestNakFrame
from repro.core.wire import (
    FRAME_TYPE_CHECKPOINT,
    FRAME_TYPE_IFRAME,
    FRAME_TYPE_REQUEST_NAK,
    WireFormatError,
    decode_checkpoint,
    decode_frame,
    decode_iframe,
    decode_request_nak,
    encode_checkpoint,
    encode_frame,
    encode_iframe,
    encode_request_nak,
)
from repro.fec.crc import append_crc16
from repro.transport.udp import decode_datagram

from .test_sender_window import SenderRig


def make_iframe(seq=7, index=42, payload_bits=64) -> IFrame:
    return IFrame(seq=seq, payload=None, size_bits=payload_bits, transmit_index=index)


def crafted_checkpoint(issue_time: float, frontier: int | None = None) -> bytes:
    """A CRC-valid checkpoint with no NAKs around an arbitrary time field."""
    body = struct.pack(">BBId", FRAME_TYPE_CHECKPOINT, 0 if frontier is None else 0x04,
                       1, issue_time)
    if frontier is not None:
        body += struct.pack(">I", frontier)
    return append_crc16(body + b"\x00\x00")


def crafted_request_nak(request_time: float) -> bytes:
    return append_crc16(struct.pack(">Bd", FRAME_TYPE_REQUEST_NAK, request_time))


def assert_times_are_clock_readings(frame) -> None:
    for name in ("issue_time", "request_time"):
        value = getattr(frame, name, 0.0)
        assert math.isfinite(value) and value >= 0.0, (name, value)


class TestIFrameWire:
    def test_roundtrip(self):
        frame = make_iframe()
        data = encode_iframe(frame, b"hello world")
        decoded, payload, origin = decode_iframe(data)
        assert decoded.seq == frame.seq
        assert decoded.transmit_index == frame.transmit_index
        assert payload == b"hello world"
        assert origin == frame.transmit_index

    def test_origin_carried(self):
        frame = make_iframe(index=100)
        data = encode_iframe(frame, b"x", origin=55)
        _, _, origin = decode_iframe(data)
        assert origin == 55

    def test_size_bits_reflects_wire_length(self):
        data = encode_iframe(make_iframe(), b"abc")
        decoded, _, _ = decode_iframe(data)
        assert decoded.size_bits == 8 * len(data)

    def test_corruption_detected_everywhere(self):
        data = bytearray(encode_iframe(make_iframe(), b"payload"))
        for index in range(len(data)):
            corrupted = bytearray(data)
            corrupted[index] ^= 0x40
            with pytest.raises(WireFormatError):
                decode_iframe(bytes(corrupted))

    def test_oversize_fields_rejected(self):
        with pytest.raises(WireFormatError):
            encode_iframe(make_iframe(seq=1 << 16), b"")
        with pytest.raises(WireFormatError):
            encode_iframe(make_iframe(), b"x" * (1 << 16))

    @given(
        seq=st.integers(min_value=0, max_value=(1 << 16) - 1),
        index=st.integers(min_value=0, max_value=(1 << 32) - 1),
        payload=st.binary(max_size=512),
    )
    def test_roundtrip_property(self, seq, index, payload):
        frame = IFrame(seq=seq, payload=None, size_bits=8, transmit_index=index)
        decoded, got_payload, origin = decode_iframe(encode_iframe(frame, payload))
        assert (decoded.seq, decoded.transmit_index, got_payload) == (seq, index, payload)


class TestCheckpointWire:
    def make(self, **kwargs) -> CheckpointFrame:
        defaults = dict(cp_index=3, issue_time=1.5, naks=(1, 2, 9),
                        frontier=77, enforced=True, stop_go=True)
        defaults.update(kwargs)
        return CheckpointFrame(**defaults)

    def test_roundtrip_full(self):
        frame = self.make()
        decoded = decode_checkpoint(encode_checkpoint(frame))
        assert decoded.cp_index == frame.cp_index
        assert decoded.issue_time == frame.issue_time
        assert decoded.naks == frame.naks
        assert decoded.frontier == frame.frontier
        assert decoded.enforced and decoded.stop_go

    def test_roundtrip_minimal(self):
        frame = self.make(naks=(), frontier=None, enforced=False, stop_go=False)
        decoded = decode_checkpoint(encode_checkpoint(frame))
        assert decoded.naks == ()
        assert decoded.frontier is None
        assert not decoded.enforced and not decoded.stop_go

    def test_corruption_detected(self):
        data = bytearray(encode_checkpoint(self.make()))
        data[5] ^= 0xFF
        with pytest.raises(WireFormatError):
            decode_checkpoint(bytes(data))

    @given(
        cp_index=st.integers(min_value=0, max_value=(1 << 32) - 1),
        issue_time=st.floats(min_value=0, max_value=1e6, allow_nan=False),
        naks=st.lists(
            st.integers(min_value=0, max_value=(1 << 16) - 1),
            max_size=50, unique=True,
        ),
        stop_go=st.booleans(),
        enforced=st.booleans(),
    )
    def test_roundtrip_property(self, cp_index, issue_time, naks, stop_go, enforced):
        frame = CheckpointFrame(
            cp_index=cp_index, issue_time=issue_time, naks=tuple(naks),
            frontier=None, enforced=enforced, stop_go=stop_go,
        )
        decoded = decode_checkpoint(encode_checkpoint(frame))
        assert decoded.cp_index == cp_index
        assert decoded.issue_time == issue_time
        assert decoded.naks == tuple(naks)
        assert decoded.stop_go == stop_go and decoded.enforced == enforced


class TestRequestNakWire:
    def test_roundtrip(self):
        decoded = decode_request_nak(encode_request_nak(RequestNakFrame(request_time=2.25)))
        assert decoded.request_time == 2.25

    def test_corruption_detected(self):
        data = bytearray(encode_request_nak(RequestNakFrame(request_time=2.25)))
        data[3] ^= 0x01
        with pytest.raises(WireFormatError):
            decode_request_nak(bytes(data))


class TestDispatch:
    def test_encode_decode_any(self):
        frames = [
            make_iframe(),
            CheckpointFrame(cp_index=0, issue_time=0.0),
            RequestNakFrame(request_time=0.0),
        ]
        for frame in frames:
            decoded = decode_frame(encode_frame(frame, payload=b"zz"))
            assert type(decoded) is type(frame)

    def test_unknown_type_rejected(self):
        with pytest.raises(WireFormatError):
            decode_frame(b"\xff\x00\x00")
        with pytest.raises(WireFormatError):
            decode_frame(b"")

    def test_wrong_type_byte_in_typed_decoder(self):
        data = encode_checkpoint(CheckpointFrame(cp_index=0, issue_time=0.0))
        with pytest.raises(WireFormatError):
            decode_iframe(data)

    def test_unencodable_type(self):
        with pytest.raises(TypeError):
            encode_frame("not a frame")  # type: ignore[arg-type]


class TestDecoderFuzzing:
    """decode_frame must reject arbitrary octets with WireFormatError only.

    This is the paper's detectable-error contract at the byte level: no
    input, however mangled, may crash a decoder or leak any exception
    other than :class:`WireFormatError`.
    """

    @given(data=st.binary(max_size=256))
    @settings(max_examples=500)
    def test_arbitrary_bytes_never_leak_other_exceptions(self, data):
        # verify=False is the salvage pass decode_datagram runs on every
        # CRC failure: it parses most arbitrary octets, so it is the one
        # that shows what a decoder is willing to return.
        for verify in (True, False):
            try:
                frame = decode_frame(data, verify=verify)
            except WireFormatError:
                continue
            assert_times_are_clock_readings(frame)

    @given(
        payload=st.binary(max_size=64),
        position=st.integers(min_value=0, max_value=10_000),
        mask=st.integers(min_value=1, max_value=255),
    )
    def test_mutated_valid_frames_never_leak(self, payload, position, mask):
        encoded = bytearray(encode_iframe(make_iframe(), payload))
        encoded[position % len(encoded)] ^= mask
        try:
            decode_frame(bytes(encoded))
        except WireFormatError:
            pass

    @given(cut=st.integers(min_value=0, max_value=64))
    def test_truncations_never_leak(self, cut):
        encoded = encode_checkpoint(
            CheckpointFrame(cp_index=9, issue_time=0.5, naks=(1, 4), frontier=3)
        )
        try:
            decode_frame(encoded[: min(cut, len(encoded))])
        except WireFormatError:
            pass

    def test_crc_valid_duplicate_naks_raise_wire_error(self):
        """A CRC-passing body with a duplicate NAK entry must surface as
        WireFormatError, not as the frame constructor's plain ValueError."""
        body = struct.pack(">BBId", FRAME_TYPE_CHECKPOINT, 0, 1, 0.0)
        body += struct.pack(">HHH", 2, 5, 5)  # nak_count=2, naks=(5, 5)
        crafted = append_crc16(body)
        with pytest.raises(WireFormatError):
            decode_frame(crafted)
        with pytest.raises(WireFormatError):
            decode_checkpoint(crafted)

    @given(time_field=st.binary(min_size=8, max_size=8), checkpoint=st.booleans())
    @settings(max_examples=300)
    def test_crc_valid_control_frame_with_any_time_field(self, time_field, checkpoint):
        (value,) = struct.unpack(">d", time_field)
        data = crafted_checkpoint(value) if checkpoint else crafted_request_nak(value)
        if math.isfinite(value) and value >= 0.0:
            assert_times_are_clock_readings(decode_frame(data))
        else:
            with pytest.raises(WireFormatError):
                decode_frame(data)

    def test_non_bytes_input_raises_wire_error(self):
        for bad in (None, 17, "abc", [1, 2, 3], 4.2):
            with pytest.raises(WireFormatError):
                decode_frame(bad)  # type: ignore[arg-type]

    def test_bytes_like_inputs_accepted(self):
        encoded = encode_request_nak(RequestNakFrame(request_time=1.0))
        for view in (bytearray(encoded), memoryview(encoded)):
            assert decode_frame(view).request_time == 1.0


class TestTimesNoEncoderProduces:
    """A CRC proves the octets arrived as sent, not that the peer's clock
    is sane: the two-process mode takes datagrams from the network."""

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0])
    @pytest.mark.parametrize("craft, decode", [
        (crafted_checkpoint, decode_checkpoint),
        (crafted_request_nak, decode_request_nak),
    ])
    def test_rejected_by_every_decoder(self, craft, decode, bad):
        data = craft(bad)
        for verify in (True, False):
            with pytest.raises(WireFormatError, match="finite, non-negative"):
                decode(data, verify=verify)
            with pytest.raises(WireFormatError):
                decode_frame(data, verify=verify)

    def test_zero_and_ordinary_times_still_decode(self):
        assert decode_checkpoint(crafted_checkpoint(0.0)).issue_time == 0.0
        assert decode_request_nak(crafted_request_nak(1e9)).request_time == 1e9

    def test_crafted_checkpoint_never_reaches_the_sender(self):
        """issue_time=+inf covers the whole window and a large frontier
        turns every covered frame into a delivered one: zero loss broken
        by one well-formed datagram, unless the decoder stops it."""
        rig = SenderRig()
        rig.offer(50)
        rig.run(0.006)  # all 50 have departed
        assert rig.sender.buffer.outstanding_count == 50
        frame, corrupted = decode_datagram(crafted_checkpoint(math.inf, frontier=0xFFFFFFFF))
        assert frame is None and corrupted  # counted as undecodable, dispatched nowhere

        # What the frame does if anything lets it through (the frame
        # constructors do not validate times; the DES pays for them per frame).
        rig.sender.on_checkpoint(
            CheckpointFrame(cp_index=1, issue_time=math.inf, frontier=0xFFFFFFFF), False)
        assert rig.sender.buffer.outstanding_count == 0
        assert rig.sender.held_payloads() == []


class TestOriginFidelity:
    def test_frame_origin_field_encoded_by_default(self):
        """A renumbered retransmission's incarnation id survives the wire."""
        frame = IFrame(seq=7, payload=None, size_bits=8, transmit_index=7, origin=2)
        decoded, _, origin = decode_iframe(encode_iframe(frame, b"x"))
        assert origin == 2
        assert decoded.origin == 2
        assert decoded.effective_origin == 2

    def test_first_incarnation_roundtrip(self):
        frame = IFrame(seq=3, payload=None, size_bits=8, transmit_index=3)
        decoded, _, origin = decode_iframe(encode_iframe(frame, b"x"))
        assert origin == 3
        assert decoded.effective_origin == 3
