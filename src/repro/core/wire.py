"""Bit-level wire format for LAMS-DLC frames.

The simulator proper carries frame *objects* (their ``size_bits`` drive
timing; corruption is a channel-level coin flip per assumption 9), but a
deployable protocol needs real octets.  This module provides the
serialisation layer: every LAMS-DLC frame type encodes to bytes with a
CRC trailer and decodes back, so the detectable-error assumption is
implementable exactly as stated — a corrupted frame fails its CRC.

Layout (big-endian throughout):

I-frame::

    +------+---------+--------+----------------+--------+--------------+---------+
    | 0x01 | flags:1 | seq:2  | transmit_idx:4 | orig:4 | payload_len:2| payload |
    +------+---------+--------+----------------+--------+--------------+---------+
    | crc32 of everything above                                                  |
    +----------------------------------------------------------------------------+

    flags bit1 = piggybacked stop_go (Section 3.1 flow-control piggybacking).

Check-Point / Enforced-NAK::

    +------+----------+--------------+------------+-------+------------+
    | 0x02 | flags:1  | cp_index:4   | issue_t:8  | fr:5  | nak_count:2|
    +------+----------+--------------+------------+-------+------------+
    | nak seqs: 2 bytes each ... | crc16                               |
    +---------------------------------------------------------------- -+

    flags bit0 = enforced, bit1 = stop_go, bit2 = frontier-present.
    fr = frontier:4 present only when bit2 set (encoded as 4 bytes).

Request-NAK::

    +------+------------+-------+
    | 0x03 | req_time:8 | crc16 |
    +------+------------+-------+

Control frames use CRC-16 (they are short and separately FEC-protected,
assumption 4); I-frames use CRC-32.

``issue_t`` and ``req_time`` are clock readings, finite and
non-negative; a decoder rejects anything else (the sender compares them
against expected arrival times, and ``+inf`` would cover every
outstanding frame).
"""

from __future__ import annotations

import math
import struct
from typing import Optional, Union

from ..fec.crc import append_crc16, append_crc32, verify_crc16, verify_crc32
from .frames import CheckpointFrame, IFrame, RequestNakFrame

__all__ = [
    "WireFormatError",
    "encode_iframe",
    "decode_iframe",
    "encode_checkpoint",
    "decode_checkpoint",
    "encode_request_nak",
    "decode_request_nak",
    "encode_frame",
    "decode_frame",
    "FRAME_TYPE_IFRAME",
    "FRAME_TYPE_CHECKPOINT",
    "FRAME_TYPE_REQUEST_NAK",
]

FRAME_TYPE_IFRAME = 0x01
FRAME_TYPE_CHECKPOINT = 0x02
FRAME_TYPE_REQUEST_NAK = 0x03

_FLAG_ENFORCED = 0x01
_FLAG_STOP_GO = 0x02
_FLAG_FRONTIER = 0x04


class WireFormatError(ValueError):
    """Malformed or CRC-failing wire data."""


def _check_time(value: float, field: str) -> None:
    """Reject a timestamp no encoder's clock produces.

    The CRC says the octets arrived as sent, not that the peer is sane:
    checked here and not in the frame constructors, which the DES builds
    once per frame from its own clock.
    """
    if not 0.0 <= value < math.inf:  # NaN fails both comparisons
        raise WireFormatError(f"{field} {value!r} is not a finite, non-negative time")


def encode_iframe(frame: IFrame, payload: bytes, origin: Optional[int] = None) -> bytes:
    """Serialise an I-frame around *payload* octets.

    *origin* overrides the transmit index of the frame's first
    incarnation (zero-duplication support); by default the frame's own
    :attr:`~repro.core.frames.IFrame.effective_origin` is used.
    """
    if frame.seq >= 1 << 16:
        raise WireFormatError("sequence number exceeds the 16-bit wire field")
    if len(payload) >= 1 << 16:
        raise WireFormatError("payload exceeds the 16-bit length field")
    origin_value = frame.effective_origin if origin is None else origin
    flags = _FLAG_STOP_GO if frame.stop_go else 0
    header = struct.pack(
        ">BBHIIH",
        FRAME_TYPE_IFRAME,
        flags,
        frame.seq,
        frame.transmit_index & 0xFFFFFFFF,
        origin_value & 0xFFFFFFFF,
        len(payload),
    )
    return append_crc32(header + payload)


def decode_iframe(data: bytes, *, verify: bool = True) -> tuple[IFrame, bytes, int]:
    """Decode an I-frame; returns ``(frame, payload, origin)``.

    Raises :class:`WireFormatError` on truncation, CRC failure, or a
    wrong frame type — all "detectable errors" in the paper's sense.
    ``verify=False`` skips the CRC check (the trailer is still
    stripped): the transport backend's salvage path uses it to recover
    the header of a corrupted-on-the-wire frame, mirroring the DES
    channel's delivery of corrupted frames with readable headers.
    """
    if verify and not verify_crc32(data):
        raise WireFormatError("I-frame CRC check failed")
    if len(data) < 4:
        raise WireFormatError("I-frame too short")
    body = data[:-4]
    if len(body) < 14:
        raise WireFormatError("I-frame too short")
    frame_type, flags, seq, transmit_index, origin, payload_len = struct.unpack(
        ">BBHIIH", body[:14]
    )
    if frame_type != FRAME_TYPE_IFRAME:
        raise WireFormatError(f"not an I-frame (type 0x{frame_type:02x})")
    payload = body[14:]
    if len(payload) != payload_len:
        raise WireFormatError("payload length mismatch")
    try:
        frame = IFrame(
            seq=seq,
            payload=payload,
            size_bits=8 * len(data),
            transmit_index=transmit_index,
            origin=origin,
            stop_go=bool(flags & _FLAG_STOP_GO),
        )
    except ValueError as error:
        raise WireFormatError(f"I-frame rejected: {error}") from error
    return frame, payload, origin


def encode_checkpoint(frame: CheckpointFrame) -> bytes:
    """Serialise a Check-Point / Enforced-NAK command."""
    if len(frame.naks) >= 1 << 16:
        raise WireFormatError("too many NAK entries for the wire format")
    flags = 0
    if frame.enforced:
        flags |= _FLAG_ENFORCED
    if frame.stop_go:
        flags |= _FLAG_STOP_GO
    frontier = frame.frontier
    if frontier is not None:
        flags |= _FLAG_FRONTIER
    parts = [
        struct.pack(
            ">BBId", FRAME_TYPE_CHECKPOINT, flags, frame.cp_index & 0xFFFFFFFF,
            frame.issue_time,
        )
    ]
    if frontier is not None:
        parts.append(struct.pack(">I", frontier & 0xFFFFFFFF))
    parts.append(struct.pack(">H", len(frame.naks)))
    for seq in frame.naks:
        if seq >= 1 << 16:
            raise WireFormatError("NAK sequence number exceeds 16 bits")
        parts.append(struct.pack(">H", seq))
    return append_crc16(b"".join(parts))


def decode_checkpoint(data: bytes, *, verify: bool = True) -> CheckpointFrame:
    """Decode a Check-Point command (``verify=False`` skips the CRC)."""
    if verify and not verify_crc16(data):
        raise WireFormatError("checkpoint CRC check failed")
    if len(data) < 2:
        raise WireFormatError("checkpoint too short")
    body = data[:-2]
    if len(body) < 14:
        raise WireFormatError("checkpoint too short")
    frame_type, flags, cp_index, issue_time = struct.unpack(">BBId", body[:14])
    if frame_type != FRAME_TYPE_CHECKPOINT:
        raise WireFormatError(f"not a checkpoint (type 0x{frame_type:02x})")
    _check_time(issue_time, "checkpoint issue time")
    cursor = 14
    frontier: Optional[int] = None
    if flags & _FLAG_FRONTIER:
        if len(body) < cursor + 4:
            raise WireFormatError("checkpoint truncated at frontier")
        (frontier,) = struct.unpack(">I", body[cursor:cursor + 4])
        cursor += 4
    if len(body) < cursor + 2:
        raise WireFormatError("checkpoint truncated at NAK count")
    (nak_count,) = struct.unpack(">H", body[cursor:cursor + 2])
    cursor += 2
    if len(body) != cursor + 2 * nak_count:
        raise WireFormatError("checkpoint NAK list length mismatch")
    naks = struct.unpack(f">{nak_count}H", body[cursor:]) if nak_count else ()
    try:
        return CheckpointFrame(
            cp_index=cp_index,
            issue_time=issue_time,
            naks=tuple(naks),
            frontier=frontier,
            enforced=bool(flags & _FLAG_ENFORCED),
            stop_go=bool(flags & _FLAG_STOP_GO),
            size_bits=8 * len(data),
        )
    except ValueError as error:
        # A CRC-valid body can still be semantically invalid (e.g. a
        # duplicate NAK entry); the frame constructor's plain ValueError
        # must not escape a wire decoder.
        raise WireFormatError(f"checkpoint rejected: {error}") from error


def encode_request_nak(frame: RequestNakFrame) -> bytes:
    """Serialise a Request-NAK probe."""
    return append_crc16(struct.pack(">Bd", FRAME_TYPE_REQUEST_NAK, frame.request_time))


def decode_request_nak(data: bytes, *, verify: bool = True) -> RequestNakFrame:
    """Decode a Request-NAK probe (``verify=False`` skips the CRC)."""
    if verify and not verify_crc16(data):
        raise WireFormatError("Request-NAK CRC check failed")
    if len(data) < 2:
        raise WireFormatError("Request-NAK too short")
    body = data[:-2]
    if len(body) != 9:
        raise WireFormatError("Request-NAK length mismatch")
    frame_type, request_time = struct.unpack(">Bd", body)
    if frame_type != FRAME_TYPE_REQUEST_NAK:
        raise WireFormatError(f"not a Request-NAK (type 0x{frame_type:02x})")
    _check_time(request_time, "Request-NAK request time")
    try:
        return RequestNakFrame(request_time=request_time, size_bits=8 * len(data))
    except ValueError as error:
        raise WireFormatError(f"Request-NAK rejected: {error}") from error


WireDecodable = Union[IFrame, CheckpointFrame, RequestNakFrame]


def encode_frame(frame: WireDecodable, payload: bytes = b"") -> bytes:
    """Serialise any LAMS-DLC frame (dispatch on type)."""
    if isinstance(frame, IFrame):
        return encode_iframe(frame, payload)
    if isinstance(frame, CheckpointFrame):
        return encode_checkpoint(frame)
    if isinstance(frame, RequestNakFrame):
        return encode_request_nak(frame)
    raise TypeError(f"cannot encode {type(frame).__name__}")


def decode_frame(data: bytes, *, verify: bool = True) -> WireDecodable:
    """Decode any LAMS-DLC frame by its leading type octet.

    Accepts arbitrary octets: anything that is not a well-formed,
    CRC-passing LAMS-DLC frame raises :class:`WireFormatError` (and
    nothing else) — the paper's "detectable error" contract at the
    byte level.  ``verify=False`` skips the CRC checks so a known-bad
    frame's structure can still be salvaged when it parses.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise WireFormatError(
            f"wire data must be bytes-like, not {type(data).__name__}"
        )
    data = bytes(data)
    if not data:
        raise WireFormatError("empty frame")
    frame_type = data[0]
    if frame_type == FRAME_TYPE_IFRAME:
        frame, _, _ = decode_iframe(data, verify=verify)
        return frame
    if frame_type == FRAME_TYPE_CHECKPOINT:
        return decode_checkpoint(data, verify=verify)
    if frame_type == FRAME_TYPE_REQUEST_NAK:
        return decode_request_nak(data, verify=verify)
    raise WireFormatError(f"unknown frame type 0x{frame_type:02x}")
