"""LAMS-DLC frame formats (paper Section 3.1).

Two frame classes exist on the wire:

- **I-frames** carry user data and a sequence number ``N(S)``.
- **C-frames** carry control.  LAMS-DLC defines three commands:

  * *Check-Point-NAK* (check-point command) — periodic; carries the
    cumulative NAK list, the Stop-Go flow-control bit, and (in this
    implementation) the index/issue-time metadata the sender uses for
    release decisions under the paper's deterministic-link assumption.
  * *Enforced-NAK* (resolving command) — a check-point with the
    Enforced bit set, emitted in response to a Request-NAK.
  * *Request-NAK* — sent by the *sender* to probe a suspected link
    failure.

Piggybacking of acknowledgements is deliberately impossible: there is
no N(R) field on I-frames (link-model assumption 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["IFrame", "CheckpointFrame", "RequestNakFrame"]


@dataclass(slots=True, eq=False)
class IFrame:
    """An information frame: one sequence number, one payload.

    ``transmit_index`` is the sender's monotonically increasing count of
    I-frame transmissions; because LAMS-DLC renumbers retransmissions,
    sequence numbers are issued in transmit order and the index gives a
    total order usable for trailing-loss detection.

    I-frames are constructed once per transmission on the simulation's
    hottest path, so the class is not ``frozen`` — a frozen dataclass
    pays an ``object.__setattr__`` call per field on every construction.
    Treat instances as immutable once on the wire regardless.
    """

    seq: int
    payload: Any
    size_bits: int
    transmit_index: int = 0
    origin: int = -1
    """Transmit index of this frame's *first* incarnation.

    Renumbered retransmissions keep the original incarnation's index
    here, giving the receiver a stable identity for link-level
    duplicate suppression — the paper's "more recent version of
    LAMS-DLC [that] guarantees zero duplication as well as zero loss"
    (Section 3.2).  ``-1`` (the default) means "this is the first
    incarnation": readers should use :attr:`effective_origin`.
    """

    stop_go: bool = False
    """Piggybacked flow-control bit (Section 3.1: LAMS-DLC "does not
    permit the use of piggybacking for acknowledgement, although it
    does use piggybacking for flow control").  Set from the sending
    endpoint's *receiver half* queue state; lets a congested node slow
    its peer every frame instead of every checkpoint interval when
    traffic is bidirectional."""

    is_control = False

    @property
    def effective_origin(self) -> int:
        """The stable incarnation identity (own index for first sends)."""
        return self.transmit_index if self.origin < 0 else self.origin

    def __post_init__(self) -> None:
        if self.seq < 0:
            raise ValueError("sequence number cannot be negative")
        if self.size_bits <= 0:
            raise ValueError("I-frame must have positive size")


@dataclass(slots=True, init=False)
class CheckpointFrame:
    """Check-Point command / Check-Point-NAK / Enforced-NAK.

    Not ``frozen``, for :class:`IFrame`'s reason: on an idle link the
    periodic checkpoint *is* the traffic (all but a few hundred of a
    1000-link constellation's frames), and it should cost what an
    I-frame costs to build.  For the same reason its ``__init__`` is
    written out, checks and stores in one call (a generated one calls a
    ``__post_init__`` for the checks).  Immutable once on the wire all
    the same.

    Attributes
    ----------
    cp_index:
        The receiver's checkpoint counter — consecutive commands carry
        consecutive indices, letting the sender notice skipped ones.
    issue_time:
        Receiver clock when issued.  Under the paper's deterministic
        link model (assumption 8 and Section 3.2: "the subnet nodes
        know the precise distances") the clocks are common, and the
        sender compares ``issue_time`` against each outstanding frame's
        expected arrival to decide coverage.
    naks:
        Sequence numbers of erroneous I-frames detected during the last
        ``C_depth`` checkpoint intervals (the cumulative NAK).
    frontier:
        Highest *transmit index* the receiver has observed — its
        reception frontier.  ``None`` until any I-frame header arrives.
        Enables the sender to detect trailing losses: frames that should
        have arrived by ``issue_time`` but lie beyond the frontier were
        lost and no later arrival exists to reveal the gap.  (On the
        wire this would be the absolute frame counter in the style of
        NBDT's 32-bit absolute numbering, reference [7]; since LAMS-DLC
        issues sequence numbers in transmit order the two encodings are
        equivalent, and the index form avoids cyclic-wraparound
        bookkeeping in the implementation.)
    enforced:
        The Enforced bit: True makes this an Enforced-NAK / Resolving
        command (Section 3.2).
    stop_go:
        The Stop-Go flow-control bit (Section 3.4): True = stop/slow.
    """

    cp_index: int
    issue_time: float
    naks: tuple[int, ...] = ()
    frontier: Optional[int] = None
    enforced: bool = False
    stop_go: bool = False
    size_bits: int = 96

    is_control = True

    def __init__(self, cp_index: int, issue_time: float, naks: tuple[int, ...] = (),
                 frontier: Optional[int] = None, enforced: bool = False,
                 stop_go: bool = False, size_bits: int = 96) -> None:
        if cp_index < 0:
            raise ValueError("checkpoint index cannot be negative")
        if size_bits <= 0:
            raise ValueError("C-frame must have positive size")
        if naks and len(set(naks)) != len(naks):
            raise ValueError("duplicate sequence numbers in NAK list")
        self.cp_index = cp_index
        self.issue_time = issue_time
        self.naks = naks
        self.frontier = frontier
        self.enforced = enforced
        self.stop_go = stop_go
        self.size_bits = size_bits

    @property
    def is_resolving_command(self) -> bool:
        """An Enforced-NAK carrying no errors is a pure resynchronisation."""
        return self.enforced and not self.naks


@dataclass(frozen=True, slots=True)
class RequestNakFrame:
    """Sender's probe of a suspected link failure (Section 3.2).

    Acts like the P/F-bit checkpoint of HDLC: the receiver must answer
    immediately with an Enforced-NAK.
    """

    request_time: float
    size_bits: int = 64

    is_control = True

    def __post_init__(self) -> None:
        if self.size_bits <= 0:
            raise ValueError("Request-NAK must have positive size")
