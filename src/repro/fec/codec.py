"""Forward-error-correction codecs and residual-BER models.

Section 2.1 concludes that FEC is "an integral component" of any LAMS
DLC, but that no practical codec removes all errors — hence the residual
BER of 1e-5–1e-7 that the ARQ layer must clean up, and hence LAMS-DLC
itself.  Assumption 4 of the link model uses *two* codecs: a standard
one for I-frames and a more powerful one for control frames (which is
why control frames cannot be piggybacked onto I-frames).

This module is that abstraction: residual-BER models
(:class:`CodecModel` and friends) mapping a raw channel BER to the
post-decoding BER the ARQ layer sees, and a code rate.  The simulator's
channels are parameterized with residual BERs, and
:mod:`repro.analysis.hybrid` (experiment E16) trades a codec's rate
against its residual BER, exactly mirroring the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "CodecModel",
    "IdentityCodec",
    "RepetitionCodecModel",
    "HammingCodecModel",
    "ConcatenatedCodecModel",
    "DEFAULT_IFRAME_CODEC",
    "DEFAULT_CFRAME_CODEC",
]


class CodecModel:
    """Maps a raw channel BER to the residual BER after decoding."""

    rate: float = 1.0

    def residual_ber(self, channel_ber: float) -> float:
        raise NotImplementedError

    def channel_bits(self, payload_bits: int) -> int:
        """Channel bits needed to carry *payload_bits* of information."""
        return math.ceil(payload_bits / self.rate)


@dataclass(frozen=True)
class IdentityCodec(CodecModel):
    """No coding: residual BER equals channel BER."""

    rate: float = 1.0

    def residual_ber(self, channel_ber: float) -> float:
        return channel_ber


@dataclass(frozen=True)
class RepetitionCodecModel(CodecModel):
    """Exact residual BER of the n-fold repetition code.

    A decoded bit is wrong when more than half of the n copies flip:
    ``sum_{k>n/2} C(n,k) p^k (1-p)^(n-k)``.
    """

    n: int = 3

    def __post_init__(self) -> None:
        if self.n < 1 or self.n % 2 == 0:
            raise ValueError("repetition factor must be odd and >= 1")

    @property
    def rate(self) -> float:  # type: ignore[override]
        return 1.0 / self.n

    def residual_ber(self, channel_ber: float) -> float:
        p = channel_ber
        half = self.n // 2
        return float(
            sum(
                math.comb(self.n, k) * p**k * (1 - p) ** (self.n - k)
                for k in range(half + 1, self.n + 1)
            )
        )


@dataclass(frozen=True)
class HammingCodecModel(CodecModel):
    """Residual BER of Hamming(7,4) under i.i.d. channel errors.

    A codeword decodes wrongly when it suffers >= 2 channel errors; a
    miscorrected word has at most 3 of its 4 data bits wrong.  We use
    the standard approximation: word error probability
    ``P_w = 1 - (1-p)^7 - 7 p (1-p)^6`` with ~2 wrong data bits per bad
    word, so residual ≈ ``P_w / 2``.
    """

    @property
    def rate(self) -> float:  # type: ignore[override]
        return 4.0 / 7.0

    def residual_ber(self, channel_ber: float) -> float:
        p = channel_ber
        word_ok = (1 - p) ** 7 + 7 * p * (1 - p) ** 6
        return min(1.0, max(0.0, (1 - word_ok) / 2))


@dataclass(frozen=True)
class ConcatenatedCodecModel(CodecModel):
    """Two codecs in series: outer(inner(channel)).

    Models the paper's "more powerful FEC" for control frames as an
    inner convolutional-like stage plus an outer stage; residual BERs
    compose, rates multiply.
    """

    inner: CodecModel = IdentityCodec()
    outer: CodecModel = IdentityCodec()

    @property
    def rate(self) -> float:  # type: ignore[override]
        return self.inner.rate * self.outer.rate

    def residual_ber(self, channel_ber: float) -> float:
        return self.outer.residual_ber(self.inner.residual_ber(channel_ber))


#: Default I-frame codec: single Hamming stage (residual 1e-5–1e-7 band
#: for raw BERs around 1e-3–1e-4, the paper's laser-channel regime).
DEFAULT_IFRAME_CODEC: CodecModel = HammingCodecModel()

#: Default control-frame codec: concatenated — "another more powerful
#: FEC is used to transmit control frames" (assumption 4).
DEFAULT_CFRAME_CODEC: CodecModel = ConcatenatedCodecModel(
    inner=HammingCodecModel(), outer=RepetitionCodecModel(n=3)
)
