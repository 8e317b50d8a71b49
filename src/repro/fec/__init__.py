"""FEC substrate: CRC detection and codec residual-BER models.

Implements the error-control building blocks the paper assumes of the
physical layer (Sections 2.1–2.2): detectable errors via CRC and a
residual-BER abstraction with a stronger codec for control frames.
"""

from .codec import (
    CodecModel,
    ConcatenatedCodecModel,
    DEFAULT_CFRAME_CODEC,
    DEFAULT_IFRAME_CODEC,
    HammingCodecModel,
    IdentityCodec,
    RepetitionCodecModel,
)
from .crc import (
    append_crc16,
    append_crc32,
    crc16_ccitt,
    crc32_ieee,
    verify_crc16,
    verify_crc32,
)

__all__ = [
    "CodecModel",
    "ConcatenatedCodecModel",
    "DEFAULT_CFRAME_CODEC",
    "DEFAULT_IFRAME_CODEC",
    "HammingCodecModel",
    "IdentityCodec",
    "RepetitionCodecModel",
    "append_crc16",
    "append_crc32",
    "crc16_ccitt",
    "crc32_ieee",
    "verify_crc16",
    "verify_crc32",
]
