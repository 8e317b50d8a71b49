"""The LAMS-DLC sending buffer, with holding-time accounting.

Section 3.4 distinguishes *flow control* (protects the receiver) from
*buffer control* (bounds the sender's holding time, giving the sending
buffer its finite "transparent size" ``B_LAMS``).  This module is the
data structure under both: a FIFO of packets awaiting first
transmission plus the *window* of outstanding (transmitted, unresolved)
frames, instrumented so experiments can measure exactly the quantities
Section 4 derives — mean holding time ``H_frame`` and buffer occupancy.

The window is a set of parallel columns indexed by transmit order:
position ``p`` describes transmit index ``base + p``.  Two facts of the
protocol make that enough.  Retransmissions are renumbered
(Section 3.3), so a frame's sequence number is a function of its
transmit index (:class:`~repro.core.seqspace.SequenceSpace`) and a NAK
finds its frame by arithmetic.  And a valid checkpoint resolves every
frame it covers (Section 3.2), so the resolved part of the window is a
prefix and is dropped with one slice deletion per column.  A frame
detached out of order (NAK'd) leaves a tombstone — ``None`` in
:attr:`SendBuffer.items` — until the prefix reaches it.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Any, Iterator, NamedTuple, Optional

from .seqspace import SequenceExhausted, SequenceSpace

__all__ = ["OutstandingFrame", "SendBuffer"]


class OutstandingFrame(NamedTuple):
    """One transmitted-but-unresolved I-frame, as a record built on demand."""

    seq: int
    payload: Any
    enqueue_time: float
    expected_arrival: float
    transmit_index: int
    retransmit_count: int
    first_send_time: float
    origin: int
    """Transmit index of the frame's first incarnation (stable identity
    across renumbering; its own index for a first transmission)."""


class SendBuffer:
    """Pending queue + outstanding window with occupancy/holding statistics.

    *Occupancy* counts both pending and outstanding frames — a frame
    occupies sender memory from enqueue until resolution (release) —
    matching the paper's definition of the sending-buffer requirement.

    The columns are public: the sender appends to them and walks them
    directly on its per-frame paths.  Everything that is not per-frame
    goes through the methods below.
    """

    def __init__(
        self, capacity: Optional[int] = None, space: Optional[SequenceSpace] = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive (or None for unbounded)")
        self.capacity = capacity
        self.space = space or SequenceSpace(1 << 16)
        self._pending: deque[tuple[Any, float]] = deque()
        # The window: one entry per column per transmit index from ``base`` on.
        self.base = 0
        # ``(payload, enqueue_time)`` as popped from pending; None = detached.
        self.items: list[Optional[tuple[Any, float]]] = []
        # Expected arrival at the receiver (kept for tombstones too).
        self.arrivals: list[float] = []
        # Departure of the frame's first incarnation.
        self.first_sends: list[float] = []
        # None for a first transmission, else ``(retransmit_count, origin)``.
        self.retx: list[Optional[tuple[int, int]]] = []
        self.live = 0  # positions that are not tombstones
        # Arrivals are normally non-decreasing in transmit order, so a
        # checkpoint's covered frames are a prefix found by bisection;
        # the sender clears this when it sees one out of order.
        self.monotone = True
        # Statistics.
        self.enqueued_total = 0
        self.refused_total = 0
        self.holding_time_sum = 0.0
        self.holding_samples = 0
        self.peak_occupancy = 0

    # -- occupancy ---------------------------------------------------------

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def outstanding_count(self) -> int:
        return self.live

    @property
    def occupancy(self) -> int:
        """Total frames held (pending + outstanding)."""
        return len(self._pending) + self.live

    @property
    def mean_holding_time(self) -> float:
        """Mean time from *first* transmission to release — the paper's
        ``H_frame``; a renumbered frame carries its first-send time forward."""
        if self.holding_samples == 0:
            return 0.0
        return self.holding_time_sum / self.holding_samples

    # -- pending queue -------------------------------------------------------

    def enqueue(self, packet: Any, now: float) -> bool:
        """Add a packet from the network layer; False if buffer is full."""
        occ = len(self._pending) + self.live
        if self.capacity is not None and occ >= self.capacity:
            self.refused_total += 1
            return False
        self._pending.append((packet, now))
        self.enqueued_total += 1
        occ += 1
        if occ > self.peak_occupancy:
            self.peak_occupancy = occ
        return True

    def pop_pending(self) -> tuple[Any, float]:
        """Next (packet, enqueue_time) awaiting first transmission."""
        return self._pending.popleft()

    def pending_payloads(self) -> list[Any]:
        """Payloads still awaiting first transmission (snapshot)."""
        return [packet for packet, _ in self._pending]

    # -- outstanding window ------------------------------------------------------

    @property
    def next_index(self) -> int:
        """The transmit index the next frame sent will carry."""
        return self.base + len(self.items)

    def admit(self, count: int) -> int:
        """How many of the next *count* frames can be numbered (at least 1).

        Frame ``i`` reuses the number of frame ``i - modulus``, which must
        be resolved by then — the unique-identification invariant.  The
        run stops short at the first number still held by a live frame;
        if that is the very next number, raises :class:`SequenceExhausted`.
        """
        items = self.items
        modulus = self.space.modulus
        reused = len(items) - modulus  # position whose number comes round next
        if reused + count > 0:
            count = min(count, modulus)  # a run cannot lap itself
            for position in range(max(reused, 0), reused + count):
                if items[position] is not None:
                    count = position - reused
                    break
            if count == 0:
                raise SequenceExhausted(
                    f"sequence number {self.space.seq_of(self.next_index)} is "
                    f"still outstanding ({self.live}/{modulus} numbers in use); "
                    "the numbering space is undersized for this link"
                )
        return count

    def position_of(self, seq: int) -> Optional[int]:
        """Window position of the live frame numbered *seq*, or None.

        Only the latest transmit index carrying *seq* can be live (an
        older one had to be resolved before the number was reissued).
        """
        space = self.space
        if not 0 <= seq < space.modulus:
            return None
        position = space.index_of(seq, self.next_index - 1) - self.base
        if position < 0 or self.items[position] is None:
            return None
        return position

    def detach(self, position: int) -> tuple[Any, float, float, int, int]:
        """Tombstone *position* (for renumbering at retransmission).

        Returns ``(payload, enqueue_time, first_send_time,
        retransmit_count, origin)`` of the detached frame.
        """
        payload, enqueue_time = self.items[position]
        self.items[position] = None
        self.live -= 1
        count, origin = self.retx[position] or (0, self.base + position)
        return payload, enqueue_time, self.first_sends[position], count, origin

    def covered(self, issue_time: float, guard: float):
        """Positions whose frame reached the receiver before *issue_time*.

        A frame is covered unless ``arrival + guard > issue_time``.  With
        monotone arrivals that is a prefix (one bisection, returned as a
        ``range``); otherwise every position is tested.
        """
        arrivals = self.arrivals
        if self.monotone:
            return range(bisect_right(arrivals, issue_time, key=lambda a: a + guard))
        return [p for p, a in enumerate(arrivals) if not a + guard > issue_time]

    def drop_prefix(self, count: int) -> None:
        """Forget the first *count* positions (all resolved by the caller)."""
        del self.items[:count]
        del self.arrivals[:count]
        del self.first_sends[:count]
        del self.retx[:count]
        self.base += count
        if not self.items:
            self.monotone = True

    def outstanding_frames(self) -> Iterator[OutstandingFrame]:
        """The live frames in transmit order, as records built on demand."""
        seq_of = self.space.seq_of
        for position, item in enumerate(self.items):
            if item is None:
                continue
            index = self.base + position
            count, origin = self.retx[position] or (0, index)
            yield OutstandingFrame(
                seq_of(index), item[0], item[1], self.arrivals[position],
                index, count, self.first_sends[position], origin,
            )

    def clear(self) -> None:
        """Drop everything (link teardown); transmit indices keep counting."""
        self._pending.clear()
        self.drop_prefix(len(self.items))
        self.live = 0

    def __len__(self) -> int:
        return self.occupancy

    def __repr__(self) -> str:
        return (
            f"SendBuffer(pending={self.pending_count}, "
            f"outstanding={self.outstanding_count}, capacity={self.capacity})"
        )
