"""Configuration for the SR-HDLC (and GBN-HDLC) baseline.

Mirrors the paper's Section 4 notation: window size ``W``, sequence
modulus ``M = 2**l`` with ``W <= M/2`` for selective repeat, the
timeout ``t_out = R + alpha`` whose margin ``alpha`` must absorb the
RTT variance of a highly mobile network, and the frame-size /
processing parameters shared with LAMS-DLC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["HdlcConfig"]


@dataclass
class HdlcConfig:
    """Tunables of one HDLC endpoint."""

    window_size: int = 8
    sequence_bits: int = 7
    """Bit width of the N(S)/N(R) fields; modulus is ``2**sequence_bits``.
    Extended (7-bit) numbering by default, as a satellite profile would."""

    timeout: float = 0.1
    """Retransmission / poll timeout ``t_out = R + alpha`` (seconds)."""

    iframe_payload_bits: int = 8192
    iframe_overhead_bits: int = 80
    control_frame_bits: int = 96
    processing_time: float = 10e-6

    ack_every: Optional[int] = None
    """Send an RR after this many in-order deliveries.  ``None`` means
    once per window (the paper's "exchange RR every window size")."""

    send_buffer_capacity: Optional[int] = None
    selective: bool = True
    """True: selective repeat with SREJ.  False: Go-Back-N with REJ."""

    stutter: bool = False
    """Stutter mode (paper Section 1 background: Stutter GBN of [1],
    SR+ST of Miller & Lin [3]): when the window is stalled and the line
    would otherwise idle, cyclically re-send unacknowledged I-frames.
    Extra copies improve per-frame delivery odds at zero opportunity
    cost; the receiver discards duplicates."""

    def __post_init__(self) -> None:
        if self.window_size < 1:
            raise ValueError("window_size must be >= 1")
        if not 1 <= self.sequence_bits <= 32:
            raise ValueError("sequence_bits must be in [1, 32]")
        modulus = 1 << self.sequence_bits
        if self.selective and self.window_size > modulus // 2:
            raise ValueError(
                f"selective repeat requires W <= M/2 "
                f"(W={self.window_size}, M={modulus})"
            )
        if not self.selective and self.window_size > modulus - 1:
            raise ValueError(
                f"Go-Back-N requires W <= M-1 (W={self.window_size}, M={modulus})"
            )
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.iframe_payload_bits <= 0 or self.iframe_overhead_bits < 0:
            raise ValueError("I-frame sizes must be positive")
        if self.control_frame_bits <= 0:
            raise ValueError("control_frame_bits must be positive")
        if self.processing_time < 0:
            raise ValueError("processing_time cannot be negative")
        if self.ack_every is not None and self.ack_every < 1:
            raise ValueError("ack_every must be >= 1")

    @property
    def modulus(self) -> int:
        """Number of distinct sequence numbers."""
        return 1 << self.sequence_bits

    @property
    def iframe_bits(self) -> int:
        """Total I-frame size on the wire."""
        return self.iframe_payload_bits + self.iframe_overhead_bits

    @property
    def effective_ack_every(self) -> int:
        return self.ack_every if self.ack_every is not None else self.window_size
