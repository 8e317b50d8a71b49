"""HDLC frame formats (the subset the evaluation needs).

SR-HDLC as modelled in the paper uses: numbered I-frames (with the
Poll bit for checkpointing), RR supervisory frames carrying the
cumulative acknowledgement N(R) (with the Final bit answering a poll),
SREJ for selective reject, and REJ for the Go-Back-N variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["HdlcIFrame", "RrFrame", "SrejFrame", "RejFrame"]


@dataclass(frozen=True)
class HdlcIFrame:
    """A numbered information frame.

    ``poll`` is the P bit: set on the frame that closes a checkpoint
    cycle, soliciting an immediate RR/SREJ response (the paper's
    "RR(p)" on the last frame of a (re)transmission period).
    """

    ns: int
    payload: Any
    size_bits: int
    poll: bool = False

    is_control = False

    def __post_init__(self) -> None:
        if self.ns < 0:
            raise ValueError("N(S) cannot be negative")
        if self.size_bits <= 0:
            raise ValueError("I-frame must have positive size")


@dataclass(frozen=True)
class RrFrame:
    """Receive Ready: cumulative acknowledgement of everything < N(R)."""

    nr: int
    final: bool = False
    size_bits: int = 96

    is_control = True

    def __post_init__(self) -> None:
        if self.nr < 0:
            raise ValueError("N(R) cannot be negative")


@dataclass(frozen=True)
class SrejFrame:
    """Selective Reject: request retransmission of the listed N(S) values.

    Carries multiple sequence numbers (the ISO multi-SREJ option),
    which keeps one control frame per detection event.
    """

    nrs: tuple[int, ...]
    final: bool = False
    size_bits: int = 96

    is_control = True

    def __post_init__(self) -> None:
        if not self.nrs:
            raise ValueError("SREJ must list at least one sequence number")
        if len(set(self.nrs)) != len(self.nrs):
            raise ValueError("duplicate sequence numbers in SREJ")


@dataclass(frozen=True)
class RejFrame:
    """Reject (Go-Back-N): everything from N(R) onward must be resent."""

    nr: int
    final: bool = False
    size_bits: int = 96

    is_control = True

    def __post_init__(self) -> None:
        if self.nr < 0:
            raise ValueError("N(R) cannot be negative")
