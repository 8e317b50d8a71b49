"""Cyclic sequence-number space with the unique-identification invariant.

Section 2.3 of the paper: "All ARQ schemes require a numbering
mechanism ... This mechanism must satisfy the condition that at an
arbitrary time, all unacknowledged I-frames may be uniquely identified.
In fact unique numbering is accomplished by cyclically reusing sequence
numbers."

LAMS-DLC's contribution here (Section 3.3) is that renumbering
retransmissions bounds the required space to
``resolving_period / frame_time``.  Renumbering also means numbers are
issued in transmit order, so a frame's number is a function of its
transmit index and :class:`SequenceSpace` is only that arithmetic.  The
invariant itself is enforced where liveness is known
(:meth:`repro.core.sendbuf.SendBuffer.admit`): a number cannot be
reissued while its previous holder is unresolved, and sending fails
loudly with :class:`SequenceExhausted` — which, per the paper's bound,
cannot happen in a correctly sized configuration.
"""

from __future__ import annotations

__all__ = ["SequenceSpace", "SequenceExhausted", "forward_distance"]


class SequenceExhausted(RuntimeError):
    """Every sequence number is currently assigned to an unresolved frame."""


def forward_distance(start: int, end: int, modulus: int) -> int:
    """Steps from *start* forward (cyclically) to *end* in ``Z_modulus``."""
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    return (end - start) % modulus


class SequenceSpace:
    """Cyclic numbering of transmit order: ``seq = (index + offset) % modulus``.

    >>> space = SequenceSpace(modulus=4)
    >>> [space.seq_of(index) for index in range(6)]
    [0, 1, 2, 3, 0, 1]
    >>> space.index_of(1, newest=5), space.index_of(2, newest=5)
    (5, 2)

    Numbering is strictly sequential because LAMS-DLC transmits frames
    in numbering order and the receiver relies on it for gap detection;
    number ``n`` comes round again every ``modulus`` transmissions.
    ``offset`` (the number of transmit index 0) is kept explicit so an
    endpoint can be started from an arbitrary numbering state.
    """

    __slots__ = ("modulus", "offset")

    def __init__(self, modulus: int) -> None:
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        self.modulus = modulus
        self.offset = 0

    def seq_of(self, index: int) -> int:
        """The sequence number carried by transmit index *index*."""
        return (index + self.offset) % self.modulus

    def index_of(self, seq: int, newest: int) -> int:
        """The latest transmit index ``<= newest`` that carried *seq*."""
        return newest - (newest + self.offset - seq) % self.modulus

    def __repr__(self) -> str:
        return f"SequenceSpace(modulus={self.modulus}, offset={self.offset})"
