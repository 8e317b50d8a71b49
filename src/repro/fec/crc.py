"""Cyclic redundancy checks.

The paper's link-model assumption 9 states that all frame errors —
including outright losses — are *detectable*: "we assume that no
undetectable errors (CRC-violation)".  This module supplies the
detection machinery: CRC-16-CCITT (the HDLC frame check sequence) and
CRC-32 (for long I-frames at Gbps rates), plus helpers to frame and
verify payloads.

Both polynomials are computed by the standard library's C code
(``binascii.crc_hqx``, ``zlib.crc32``): the UDP plane hashes every frame
on encode and again on decode, so a per-byte Python loop here is a
fifth of what a datagram costs (docs/TUNING.md §13).  The table-driven
definitions they must equal, for every input and every ``initial``, are
the test oracle in ``tests/crc_reference.py``.
"""

from __future__ import annotations

import binascii
import zlib

__all__ = [
    "crc16_ccitt",
    "crc32_ieee",
    "append_crc16",
    "verify_crc16",
    "append_crc32",
    "verify_crc32",
]


def crc16_ccitt(data: bytes, initial: int = 0xFFFF) -> int:
    """CRC-16-CCITT (X.25 / HDLC FCS polynomial), MSB-first.

    *data* is bytes-like (``bytes``, ``bytearray``, ``memoryview``);
    *initial* is taken modulo 2**16.
    """
    return binascii.crc_hqx(data, initial & 0xFFFF)


def crc32_ieee(data: bytes, initial: int = 0xFFFFFFFF) -> int:
    """CRC-32 (IEEE 802.3, reflected), with final complement.

    *data* is bytes-like (``bytes``, ``bytearray``, ``memoryview``);
    *initial* is the register before the first byte, taken modulo
    2**32.  ``zlib.crc32`` takes the complemented register as its
    running value, hence the XOR.
    """
    return zlib.crc32(data, (initial & 0xFFFFFFFF) ^ 0xFFFFFFFF)


def append_crc16(payload: bytes) -> bytes:
    """Payload with its 2-byte big-endian CRC-16 appended."""
    return payload + crc16_ccitt(payload).to_bytes(2, "big")


def verify_crc16(frame: bytes) -> bool:
    """True if *frame* (payload + 2-byte CRC) passes the check."""
    if len(frame) < 2:
        return False
    payload, received = frame[:-2], int.from_bytes(frame[-2:], "big")
    return crc16_ccitt(payload) == received


def append_crc32(payload: bytes) -> bytes:
    """Payload with its 4-byte big-endian CRC-32 appended."""
    return payload + crc32_ieee(payload).to_bytes(4, "big")


def verify_crc32(frame: bytes) -> bool:
    """True if *frame* (payload + 4-byte CRC) passes the check."""
    if len(frame) < 4:
        return False
    payload, received = frame[:-4], int.from_bytes(frame[-4:], "big")
    return crc32_ieee(payload) == received
