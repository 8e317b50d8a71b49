"""Type-I hybrid ARQ/FEC analysis (paper Section 1, references [13–15]).

"The combination of ARQ and FEC have been proposed to offer high
reliability and improved performance in environments with high error
rate … In Type-I, both the error detecting code and the information are
encapsulated by an FEC code to lower the probability of retransmission."

This module evaluates that combination on top of the LAMS-DLC model:
wrapping every I-frame in a codec of rate ``r`` stretches the frame
time by ``1/r`` but replaces the channel BER with the codec's residual
BER, shrinking ``P_F`` and hence ``s̄``.  The interesting question —
which the paper raises but does not answer — is where the optimum lies:
too little coding wastes time on retransmissions, too much wastes it on
parity bits.

All functions parameterise from the *channel* BER (pre-FEC) so
different codecs are compared at the same physical operating point.
"""

from __future__ import annotations

from typing import Sequence

from ..fec.codec import (
    CodecModel,
    ConcatenatedCodecModel,
    HammingCodecModel,
    IdentityCodec,
    RepetitionCodecModel,
)
from ..simulator.errormodel import frame_error_probability
from . import lams as lams_model
from .params import ModelParameters

__all__ = [
    "STANDARD_LADDER",
    "type1_parameters",
    "type1_goodput_efficiency",
    "codec_sweep",
]

#: A strength-ordered ladder of candidate codecs for sweeps.
STANDARD_LADDER: tuple[tuple[str, CodecModel], ...] = (
    ("none", IdentityCodec()),
    ("hamming74", HammingCodecModel()),
    ("rep3", RepetitionCodecModel(n=3)),
    ("hamming74+rep3", ConcatenatedCodecModel(
        inner=HammingCodecModel(), outer=RepetitionCodecModel(n=3))),
    ("rep5", RepetitionCodecModel(n=5)),
)


def type1_parameters(
    base: ModelParameters,
    iframe_bits: int,
    channel_ber: float,
    codec: CodecModel,
) -> ModelParameters:
    """Model parameters for LAMS-DLC under a Type-I codec.

    The frame carries the same ``iframe_bits`` of information but
    occupies ``iframe_bits / rate`` channel bits (longer ``t_f``); its
    error probability derives from the codec's residual BER over the
    information bits.
    """
    if iframe_bits <= 0:
        raise ValueError("iframe_bits must be positive")
    if not 0.0 <= channel_ber < 1.0:
        raise ValueError("channel_ber must be in [0, 1)")
    stretched_time = base.iframe_time / codec.rate
    residual = codec.residual_ber(channel_ber)
    p_f = frame_error_probability(residual, iframe_bits)
    return base.with_(iframe_time=stretched_time, p_f=p_f)


def type1_goodput_efficiency(
    base: ModelParameters,
    iframe_bits: int,
    channel_ber: float,
    codec: CodecModel,
    n_frames: int = 100_000,
) -> float:
    """Information goodput efficiency under a Type-I codec.

    ``η`` from the LAMS-DLC model, computed with the stretched frame
    time, then expressed against the *uncoded* frame time so different
    rates are comparable: delivered information bits per channel
    bit-time.  Equivalently ``η_model · rate``.
    """
    coded = type1_parameters(base, iframe_bits, channel_ber, codec)
    eta = lams_model.throughput_efficiency(coded, n_frames)
    return eta * codec.rate


def codec_sweep(
    base: ModelParameters,
    iframe_bits: int,
    channel_ber: float,
    ladder: Sequence[tuple[str, CodecModel]] = STANDARD_LADDER,
    n_frames: int = 100_000,
) -> list[dict]:
    """Goodput of each candidate codec at one channel operating point."""
    rows = []
    for name, codec in ladder:
        residual = codec.residual_ber(channel_ber)
        rows.append(
            {
                "codec": name,
                "rate": codec.rate,
                "residual_ber": residual,
                "p_f": frame_error_probability(residual, iframe_bits),
                "goodput": type1_goodput_efficiency(
                    base, iframe_bits, channel_ber, codec, n_frames
                ),
            }
        )
    return rows
