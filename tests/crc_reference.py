"""The table-driven CRCs :mod:`repro.fec.crc` had before it called C.

``repro.fec.crc`` computes CRC-16-CCITT with ``binascii.crc_hqx`` and
CRC-32 with ``zlib.crc32``.  The two byte loops below are what it ran
until then, kept here — and only here — as the definition those calls
must agree with: the same value for every input and every ``initial``
(``tests/test_fec.py``).  They accept any iterable of octets.
"""

from __future__ import annotations

from typing import Iterable


def _build_table_16(poly: int) -> list[int]:
    table = []
    for byte in range(256):
        crc = byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ poly) & 0xFFFF if crc & 0x8000 else (crc << 1) & 0xFFFF
        table.append(crc)
    return table


def _build_table_32(poly: int) -> list[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ poly if crc & 1 else crc >> 1
        table.append(crc)
    return table


_TABLE_16 = _build_table_16(0x1021)  # CCITT polynomial x^16 + x^12 + x^5 + 1
_TABLE_32 = _build_table_32(0xEDB88320)  # reflected IEEE 802.3 polynomial


def reference_crc16_ccitt(data: Iterable[int], initial: int = 0xFFFF) -> int:
    """CRC-16-CCITT (X.25 / HDLC FCS polynomial), MSB-first."""
    crc = initial & 0xFFFF
    for byte in data:
        crc = ((crc << 8) & 0xFFFF) ^ _TABLE_16[((crc >> 8) ^ byte) & 0xFF]
    return crc


def reference_crc32_ieee(data: Iterable[int], initial: int = 0xFFFFFFFF) -> int:
    """CRC-32 (IEEE 802.3, reflected), with final complement."""
    crc = initial & 0xFFFFFFFF
    for byte in data:
        crc = (crc >> 8) ^ _TABLE_32[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF
