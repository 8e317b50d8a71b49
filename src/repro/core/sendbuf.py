"""The sending buffer of all three protocol families, with holding-time accounting.

Section 3.4 distinguishes *flow control* (protects the receiver) from
*buffer control* (bounds the sender's holding time, giving the sending
buffer its finite "transparent size" ``B_LAMS``).  This module is the
data structure under both: a FIFO of packets awaiting first
transmission plus the *window* of outstanding (transmitted, unresolved)
frames, instrumented so experiments can measure exactly the quantities
Section 4 derives — mean holding time ``H_frame`` and buffer occupancy.

The window is a set of parallel columns indexed by transmit order:
position ``p`` describes transmit index ``base + p``, and a frame's
sequence number is a function of its transmit index
(:class:`~repro.core.seqspace.SequenceSpace`), so a number finds its
frame by arithmetic (:meth:`SendBuffer.position_of`).  A frame resolved
out of order leaves a tombstone — ``None`` in :attr:`SendBuffer.items`
— until the resolved prefix reaches it and is dropped with one slice
deletion per column.

**Family-neutral** (LAMS-DLC, SR-HDLC/GBN and NBDT): the pending FIFO
with its capacity, refusal and peak accounting; the ``items`` /
``arrivals`` / ``first_sends`` / ``retx`` columns with ``base``,
``next_index``, ``position_of``, tombstones and ``drop_prefix``; the
holding-time sums.  The baselines never renumber, so they also share
:meth:`~SendBuffer.push` (first transmission), :meth:`~SendBuffer.resend`
(a retransmission counted in place), :meth:`~SendBuffer.release`
(positive acknowledgement) and :meth:`~SendBuffer.drop_released`; SR-HDLC
transmit index ``i`` carries ``N(S) = i mod M``, NBDT's absolute frame id
*is* the transmit index.  :class:`BufferedSender` is the sender surface
both baselines build on it.

**LAMS-DLC only**: retransmissions are renumbered (Section 3.3), so a
NAK'd frame is :meth:`~SendBuffer.detach`-ed to come back under a new
index, and :meth:`~SendBuffer.admit` refuses to reissue a number whose
holder is still live.  A valid checkpoint resolves every frame it
covers (Section 3.2): :meth:`~SendBuffer.covered` finds them by expected
arrival, a prefix found by bisection while arrivals are
:attr:`~SendBuffer.monotone`.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from functools import reduce
from itertools import islice
from operator import add
from typing import Any, Iterable, Iterator, NamedTuple, Optional

from ..simulator.engine import Simulator
from ..simulator.link import SimplexChannel
from ..simulator.trace import TimeWeightedStat, Tracer
from .seqspace import SequenceExhausted, SequenceSpace

__all__ = ["BufferedSender", "OutstandingFrame", "SendBuffer"]

_NOTHING = object()


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
        # ``(payload, enqueue_time)`` as popped from pending; None = a
        # tombstone (detached or released ahead of the prefix).
        self.items: list[Optional[tuple[Any, float]]] = []
        # Expected arrival at the receiver (kept for tombstones too).
        self.arrivals: list[float] = []
        # Departure of the frame's first incarnation.
        self.first_sends: list[float] = []
        # None for a first transmission, else ``(retransmit_count, origin)``.
        self.retx: list[Optional[tuple[int, int]]] = []
        # Positions that are not tombstones: frames transmitted and not
        # resolved.  LAMS-DLC's sender moves a frame into the window at
        # its departure, so the rest of a run still on the transmitter is
        # not in it yet (LamsSender._settle_steps).
        self.live = 0
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
        return self.enqueue_many((packet,), now) == 1

    def enqueue_many(self, packets: Iterable[Any], now: float) -> int:
        """Add *packets* in order while there is room; returns how many.

        The same as :meth:`enqueue` one packet at a time up to the first
        refusal, with one update of each counter: *packets* is consumed
        lazily, and with the buffer full one more packet is taken,
        refused and counted in ``refused_total``.
        """
        pending = self._pending
        before = len(pending)
        if self.capacity is None:
            for packet in packets:
                pending.append((packet, now))
        else:
            packets = iter(packets)
            room = max(0, self.capacity - before - self.live)
            for packet in islice(packets, room):
                pending.append((packet, now))
            if len(pending) - before == room and next(packets, _NOTHING) is not _NOTHING:
                self.refused_total += 1
        entered = len(pending) - before
        if entered:
            self.enqueued_total += entered
            occupancy = before + entered + self.live
            if occupancy > self.peak_occupancy:
                self.peak_occupancy = occupancy
        return entered

    def pop_pending(self) -> tuple[Any, float]:
        """Next (packet, enqueue_time) awaiting first transmission."""
        return self._pending.popleft()

    def pending_payloads(self, last: Optional[int] = None) -> list[Any]:
        """Payloads still awaiting first transmission (snapshot), or the
        *last* ones enqueued."""
        if last is None:
            return [packet for packet, _ in self._pending]
        payloads = [packet for packet, _ in islice(reversed(self._pending), last)]
        payloads.reverse()
        return payloads

    def held_payloads(self) -> list[Any]:
        """Pending payloads, then the live window's in transmit order."""
        payloads = self.pending_payloads()
        payloads.extend(item[0] for item in self.items if item is not None)
        return payloads

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

    # -- in-place retransmission (the baselines) ----------------------------------

    def push(self, departure: float, arrival: float) -> int:
        """Move the next pending packet into the window as a first
        transmission leaving at *departure*; returns its position."""
        self.items.append(self._pending.popleft())
        self.arrivals.append(arrival)
        self.first_sends.append(departure)
        self.retx.append(None)
        self.live += 1
        return len(self.items) - 1

    def resend(self, position: int) -> None:
        """Count one more retransmission of *position* under its own number."""
        count, origin = self.retx[position] or (0, self.base + position)
        self.retx[position] = (count + 1, origin)

    def release(self, positions: Iterable[int], now: float) -> list[float]:
        """Tombstone live *positions* as delivered at *now*.

        Returns their holding times (first send → *now*) in the order
        given, which is the order they are added to ``holding_time_sum``.
        """
        items, first_sends = self.items, self.first_sends
        holdings = []
        for position in positions:
            items[position] = None
            holdings.append(now - first_sends[position])
        self.holding_time_sum = reduce(add, holdings, self.holding_time_sum)
        self.holding_samples += len(holdings)
        self.live -= len(holdings)
        return holdings

    def drop_released(self) -> int:
        """Drop the tombstones leading the window; returns how many."""
        items = self.items
        count = next((p for p, item in enumerate(items) if item is not None), len(items))
        self.drop_prefix(count)
        return count

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


class BufferedSender:
    """The sender half the two baseline families build on a :class:`SendBuffer`.

    SR-HDLC/GBN and NBDT hold every frame until it is positively
    acknowledged, retransmit it under its own number and run one timer
    (poll / report).  What they share is here: the buffer (capacity from
    ``config.send_buffer_capacity``), the harness-facing surface
    (``accept``, ``occupancy``, ``held_payloads`` ...), the
    ``{name}.sendbuf`` gauge and one ``{name}.holding_time`` sample per
    release, in transmit order.  A subclass supplies ``_maybe_send``
    (run whenever the channel goes idle) and ``_on_timeout``.
    """

    def __init__(
        self,
        sim: Simulator,
        config: Any,
        data_channel: SimplexChannel,
        name: str,
        tracer: Optional[Tracer] = None,
        space: Optional[SequenceSpace] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.data_channel = data_channel
        self.name = name
        self.tracer = tracer or Tracer()
        self.buffer = SendBuffer(config.send_buffer_capacity, space)
        self._timer = sim.timer(self._on_timeout)
        self._started = False
        self._iframe_time = config.iframe_bits / data_channel.bit_rate
        self._sendbuf: Optional[TimeWeightedStat] = None
        self._holding_name = f"{name}.holding_time"
        data_channel.on_idle(self._maybe_send)

        # Statistics (the buffer keeps the occupancy and holding ones).
        self.iframes_sent = 0
        self.retransmissions = 0
        self.releases = 0
        self.polls_sent = 0
        self.timeouts = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._started:
            raise RuntimeError("sender already started")
        self._started = True
        self._wake()

    def stop(self) -> None:
        self._timer.cancel()
        self._started = False

    # -- network-layer interface --------------------------------------------

    def accept(self, packet: Any) -> bool:
        """Offer a packet; False if the sending buffer refuses it."""
        return self.accept_many((packet,)) == 1

    def accept_many(self, packets: Iterable[Any]) -> int:
        """Offer *packets* in order up to the first refusal; returns how
        many were accepted.

        The outcome of ``for p in packets: if not accept(p): break``:
        while the channel is idle each packet is its own step (it may
        start a transmission); once the channel is busy no wake can send,
        so the rest enter in one step with one occupancy sample.
        """
        packets = iter(packets)
        accepted = 0
        while True:
            busy = not self.data_channel.is_idle
            entered = self.buffer.enqueue_many(
                packets if busy else islice(packets, 1), self.sim.now)
            if not entered:
                return accepted
            self._record_occupancy()
            accepted += entered
            self._wake(entered - 1)
            if busy:
                return accepted

    def _wake(self, unwoken: int = 0) -> None:
        """New work (packets, or the start): send if the channel allows.

        *unwoken* packets joined the pending queue after the first of
        this wake's, with no wake of their own: a stretch accepted while
        the channel was busy.
        """
        self._maybe_send()

    @property
    def occupancy(self) -> int:
        """Sending-buffer occupancy: pending plus unacknowledged frames.

        Section 4 proves SR-HDLC's has *no transparent size*, and NBDT's
        is the paper's "huge memory": under sustained input both grow
        while frames wait for a positive acknowledgement.
        """
        return self.buffer.occupancy

    unresolved_count = occupancy

    @property
    def pending_count(self) -> int:
        """Frames awaiting *first* transmission (the drainable backlog)."""
        return self.buffer.pending_count

    @property
    def mean_holding_time(self) -> float:
        return self.buffer.mean_holding_time

    def held_payloads(self) -> list[Any]:
        """Every payload not yet positively acknowledged — what a session
        layer must carry over to the next link pass if this one ends now."""
        return self.buffer.held_payloads()

    # -- the window ----------------------------------------------------------

    def _admit(self) -> int:
        """Move the next pending packet into the window, sent now."""
        now = self.sim.now
        arrival = now + self._iframe_time + self.data_channel.propagation_delay(now)
        return self.buffer.push(now, arrival)

    def _release(self, positions: Iterable[int]) -> int:
        """Release *positions* as positively acknowledged; returns how many
        positions left the front of the window."""
        holdings = self.buffer.release(positions, self.sim.now)
        self.tracer.sample_stat(self._holding_name).extend(holdings)
        self.releases += len(holdings)
        return self.buffer.drop_released()

    def _record_occupancy(self) -> None:
        now = self.sim.now
        if self._sendbuf is None:  # created at first use, like Tracer.level
            self._sendbuf = self.tracer.level_stat(f"{self.name}.sendbuf", start_time=now)
        self._sendbuf.update(now, self.buffer.occupancy)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.name} sent={self.iframes_sent} "
            f"retx={self.retransmissions} released={self.releases} "
            f"held={self.occupancy}>"
        )
