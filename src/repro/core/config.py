"""Configuration for a LAMS-DLC endpoint.

Collects every protocol knob named in the paper — the checkpoint
interval ``W_cp``, the cumulation depth ``C_depth``, frame formats,
processing time — plus the flow-control parameters of Section 3.4 and
engineering limits (buffer capacity, numbering bits) whose required
sizes Section 3.3 bounds.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional

__all__ = ["LamsDlcConfig"]


def as_count(name: str, value: object, least: int) -> int:
    """*value* as an integer of at least *least*, else ValueError naming *name*."""
    try:
        whole = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if whole < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")
    return whole


def _default_batch_window() -> int:
    """The sender's run window, :data:`repro.core.sender.WINDOW`.

    Kept because ``bench/run.py`` stamps it into every record; a later
    benchmark PR drops the stamp field and this function with it.
    """
    from .sender import WINDOW

    return WINDOW


@dataclass
class LamsDlcConfig:
    """All tunables of one LAMS-DLC endpoint.

    Parameters mirror the paper's notation where one exists:

    - ``checkpoint_interval`` is ``W_cp`` / ``I_cp`` (seconds).
    - ``cumulation_depth`` is ``C_depth`` (checkpoints covering a frame).
    - ``processing_time`` is ``t_proc``.
    - ``numbering_bits`` sizes the cyclic sequence space ``2**bits``;
      Section 3.3 shows the required size is bounded by the resolving
      period over the frame time — :meth:`required_numbering_size`
      computes that bound so configurations can be validated.
    """

    # -- error control (Section 3.2) -------------------------------------
    checkpoint_interval: float = 0.010
    cumulation_depth: int = 3

    # -- frame formats (Section 3.1) --------------------------------------
    iframe_payload_bits: int = 8192
    iframe_overhead_bits: int = 80
    cframe_base_bits: int = 96
    cframe_per_nak_bits: int = 16

    # -- node characteristics (Section 2.2 link model) ---------------------
    processing_time: float = 10e-6
    header_protected: bool = True
    """If True a corrupted I-frame's header (sequence number) is still
    readable — the header shares the control-frame FEC.  If False,
    corrupted frames are effectively lost and only gap / trailing-loss
    detection finds them."""

    # -- sequencing (Section 3.3) ------------------------------------------
    numbering_bits: int = 16

    # -- zero-duplication extension (Section 3.2) ----------------------------
    zero_duplication: bool = False
    """Enable the paper's "more recent version" guarantee: the receiver
    suppresses link-level duplicate deliveries by tracking the stable
    incarnation identity of recently delivered frames.  Duplicates can
    only arise from enforced recovery's conservative retransmissions,
    so the tracking window is a small multiple of the resolving
    period — memory stays bounded."""

    # -- buffers -------------------------------------------------------------
    send_buffer_capacity: Optional[int] = None
    receive_queue_capacity: Optional[int] = None

    # -- flow control (Section 3.4) -------------------------------------------
    flow_control_enabled: bool = True
    piggyback_flow_control: bool = True
    """Section 3.1: acknowledgements are never piggybacked, but flow
    control is.  When traffic is bidirectional, outgoing I-frames carry
    the local receive-queue's Stop-Go bit, and incoming I-frames' bits
    adjust the rate (rate-limited to once per checkpoint interval so
    the AIMD constants keep their per-checkpoint meaning)."""
    rate_decrease_factor: float = 0.5
    rate_increase_step: float = 0.1
    """Fraction of the line rate added back per go indication."""
    min_rate_fraction: float = 0.05
    receive_high_watermark: int = 64
    receive_low_watermark: int = 16

    # -- link lifetime / failure handling (Sections 2.1, 3.2) -----------------
    link_lifetime: Optional[float] = None
    """Seconds the link is expected to remain active (None = unbounded).
    Enforced recovery is only attempted while the expected response fits
    in the remaining lifetime ("recoverable link failure")."""

    def __post_init__(self) -> None:
        # Each test is written so that NaN fails it: NaN compares false.
        # A count must be a whole number: 2.5 checkpoints or frames is
        # not a value the protocol can act on.
        if not 0 < self.checkpoint_interval < math.inf:
            raise ValueError("checkpoint_interval must be positive and finite, "
                             f"got {self.checkpoint_interval!r}")
        as_count("cumulation_depth", self.cumulation_depth, 1)
        if not (self.iframe_payload_bits > 0 and self.iframe_overhead_bits >= 0):
            raise ValueError("I-frame sizes must be positive")
        if not (self.cframe_base_bits > 0 and self.cframe_per_nak_bits >= 0):
            raise ValueError("C-frame sizes must be positive")
        if not 0 <= self.processing_time < math.inf:
            raise ValueError("processing_time must be non-negative and finite, "
                             f"got {self.processing_time!r}")
        if not 1 <= as_count("numbering_bits", self.numbering_bits, 1) <= 32:
            raise ValueError("numbering_bits must be in [1, 32]")
        for name in ("send_buffer_capacity", "receive_queue_capacity"):
            if getattr(self, name) is not None:
                as_count(name, getattr(self, name), 1)
        if not 0 < self.rate_decrease_factor < 1:
            raise ValueError("rate_decrease_factor must be in (0, 1)")
        if not 0 <= self.rate_increase_step < math.inf:
            raise ValueError("rate_increase_step must be non-negative and finite, "
                             f"got {self.rate_increase_step!r}")
        if not 0 < self.min_rate_fraction <= 1:
            raise ValueError("min_rate_fraction must be in (0, 1]")
        low = as_count("receive_low_watermark", self.receive_low_watermark, 0)
        if low > as_count("receive_high_watermark", self.receive_high_watermark, 0):
            raise ValueError("low watermark must not exceed high watermark")
        if self.link_lifetime is not None and not 0 <= self.link_lifetime < math.inf:
            raise ValueError("link_lifetime must be non-negative and finite (None for "
                             f"unbounded), got {self.link_lifetime!r}")

    # -- derived quantities ---------------------------------------------------

    @property
    def iframe_bits(self) -> int:
        """Total I-frame size on the wire."""
        return self.iframe_payload_bits + self.iframe_overhead_bits

    @property
    def numbering_size(self) -> int:
        """Number of distinct sequence numbers, ``2**numbering_bits``."""
        return 1 << self.numbering_bits

    @property
    def checkpoint_timeout(self) -> float:
        """Checkpoint-timer timeout ``C_depth * W_cp`` (Section 3.2)."""
        return self.cumulation_depth * self.checkpoint_interval

    def cframe_bits(self, nak_count: int) -> int:
        """Wire size of a checkpoint carrying *nak_count* sequence numbers.

        Section 3.1: control-frame length "varies according to the
        number of the erroneous I-frames communicated".
        """
        if nak_count < 0:
            raise ValueError("nak_count cannot be negative")
        return self.cframe_base_bits + self.cframe_per_nak_bits * nak_count

    def resolving_period(self, round_trip_time: float) -> float:
        """Upper bound on a frame's holding time (Section 3.3).

        ``R + W_cp/2 + C_depth * W_cp`` — the paper's bound on how long
        the first transmission of an I-frame can remain unresolved.
        """
        return (
            round_trip_time
            + 0.5 * self.checkpoint_interval
            + self.cumulation_depth * self.checkpoint_interval
        )

    def required_numbering_size(self, round_trip_time: float, frame_time: float) -> int:
        """Minimum sequence-number count for continuous operation.

        Section 2.3/3.3: numbering size >= ``H_frame / L̄_frame``, with
        ``H_frame`` bounded by the resolving period in LAMS-DLC.
        """
        if frame_time <= 0:
            raise ValueError("frame_time must be positive")
        return math.ceil(self.resolving_period(round_trip_time) / frame_time)

    def validate_for_link(self, round_trip_time: float, bit_rate: float) -> None:
        """Raise if the numbering space is too small for this link.

        Guards the paper's unique-identification requirement: every
        unacknowledged I-frame must be uniquely numbered.
        """
        frame_time = self.iframe_bits / bit_rate
        needed = self.required_numbering_size(round_trip_time, frame_time)
        if self.numbering_size < needed:
            raise ValueError(
                f"numbering size {self.numbering_size} is below the "
                f"required {needed} for RTT={round_trip_time:g}s at "
                f"{bit_rate:g} bps; increase numbering_bits"
            )
