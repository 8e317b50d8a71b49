"""SR-HDLC sender (the paper's baseline, Section 4).

Implements the checkpoint/poll discipline the analysis models:

- Transmit new I-frames while the window ``[V(A), V(A)+W)`` is open;
  the frame that exhausts the window — or the last one available — is
  sent with the Poll bit set and starts the poll timer (``t_out``).
  This is the "RR(p)" on the last frame of each (re)transmission
  period.
- An RR cumulatively acknowledges and slides the window (frames are
  released and the **same** numbers eventually reused — unlike
  LAMS-DLC there is no renumbering, so a frame's holding time runs
  until its positive acknowledgement arrives).
- A SREJ triggers selective retransmission of the listed frames; the
  last retransmission polls again.
- Poll-timer expiry (the response was lost, or everything after a loss
  vanished) retransmits the oldest unacknowledged frame with the Poll
  bit — the paper's timeout recovery whose cost is the ``alpha``-laden
  retransmission period.

In Go-Back-N mode (``config.selective = False``) a REJ rolls the send
state back and everything from N(R) is retransmitted in order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..simulator.engine import Simulator
from ..simulator.link import SimplexChannel
from ..simulator.trace import Tracer
from .config import HdlcConfig
from .frames import HdlcIFrame, RejFrame, RrFrame, SrejFrame
from .window import SenderWindow, window_offset

__all__ = ["HdlcSender", "HdlcOutstanding"]


@dataclass
class HdlcOutstanding:
    """Bookkeeping for one unacknowledged I-frame."""

    ns: int
    payload: Any
    enqueue_time: float
    first_send_time: float
    retransmit_count: int = 0


class HdlcSender:
    """Sender state machine for one direction of an HDLC link."""

    def __init__(
        self,
        sim: Simulator,
        config: HdlcConfig,
        data_channel: SimplexChannel,
        name: str = "hdlc.tx",
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.data_channel = data_channel
        self.name = name
        self.tracer = tracer or Tracer()

        self.window = SenderWindow(config.window_size, config.modulus)
        self._pending: deque[tuple[Any, float]] = deque()
        self._outstanding: dict[int, HdlcOutstanding] = {}
        self._retransmit_queue: deque[int] = deque()
        self._requeued: set[int] = set()
        self._poll_timer = sim.timer(self._on_poll_timeout)
        self._started = False
        self._stutter_cursor = 0

        self.data_channel.on_idle(self._maybe_send)

        # Statistics.
        self.iframes_sent = 0
        self.retransmissions = 0
        self.stutter_transmissions = 0
        self.releases = 0
        self.polls_sent = 0
        self.timeouts = 0
        self.enqueued_total = 0
        self.refused_total = 0
        self.holding_time_sum = 0.0
        self.holding_samples = 0
        self.peak_occupancy = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            raise RuntimeError("sender already started")
        self._started = True
        self._maybe_send()

    def stop(self) -> None:
        self._poll_timer.cancel()
        self._started = False

    # -- network-layer interface -------------------------------------------------

    def accept(self, packet: Any) -> bool:
        """Offer a packet; False if the sending buffer refuses it."""
        capacity = self.config.send_buffer_capacity
        if capacity is not None and self.occupancy >= capacity:
            self.refused_total += 1
            return False
        self._pending.append((packet, self.sim.now))
        self.enqueued_total += 1
        self._record_occupancy()
        self._maybe_send()
        return True

    @property
    def occupancy(self) -> int:
        """Sending-buffer occupancy: pending plus unacknowledged frames.

        This is the quantity Section 4 proves has *no transparent size*
        for SR-HDLC: under sustained input it grows without bound while
        the window stalls awaiting RR.
        """
        return len(self._pending) + len(self._outstanding)

    @property
    def unresolved_count(self) -> int:
        return self.occupancy

    @property
    def pending_count(self) -> int:
        """Frames awaiting *first* transmission (the drainable backlog)."""
        return len(self._pending)

    @property
    def mean_holding_time(self) -> float:
        if self.holding_samples == 0:
            return 0.0
        return self.holding_time_sum / self.holding_samples

    def held_payloads(self) -> list[Any]:
        """Every payload not yet cumulatively acknowledged.

        Pending plus outstanding — the frames a session layer must carry
        over to the next link pass if this one ends now.
        """
        payloads = [packet for packet, _ in self._pending]
        payloads.extend(record.payload for record in self._outstanding.values())
        return payloads

    # -- transmission -----------------------------------------------------------------

    def _maybe_send(self) -> None:
        if not self._started or not self.data_channel.is_idle:
            return
        if self._retransmit_queue:
            ns = self._retransmit_queue.popleft()
            self._requeued.discard(ns)
            record = self._outstanding.get(ns)
            if record is None:
                self._maybe_send()  # acked while queued; try the next one
                return
            record.retransmit_count += 1
            self.retransmissions += 1
            self._emit(record, poll=self._is_last_sendable())
            return
        if self._pending and self.window.can_send:
            packet, enqueue_time = self._pending.popleft()
            ns = self.window.next_ns()
            record = HdlcOutstanding(
                ns=ns,
                payload=packet,
                enqueue_time=enqueue_time,
                first_send_time=self.sim.now,
            )
            self._outstanding[ns] = record
            self._emit(record, poll=self._is_last_sendable())
            return
        if self.config.stutter and self._outstanding:
            # Stutter: the line would idle while the window stalls —
            # re-send unacknowledged frames round-robin instead.  No
            # Poll bit and no timer interaction: these are opportunistic
            # extra copies, not recovery actions.
            self._emit_stutter()

    def _emit_stutter(self) -> None:
        """One round-robin stutter copy of an unacknowledged frame."""
        ordered = sorted(
            self._outstanding,
            key=lambda ns: window_offset(self.window.va, ns, self.config.modulus),
        )
        cursor = self._stutter_cursor % len(ordered)
        self._stutter_cursor = cursor + 1
        record = self._outstanding[ordered[cursor]]
        frame = HdlcIFrame(
            ns=record.ns,
            payload=record.payload,
            size_bits=self.config.iframe_bits,
            poll=False,
        )
        self.data_channel.send(frame)
        self.iframes_sent += 1
        self.stutter_transmissions += 1
        self.tracer.emit(self.sim.now, self.name, "stutter_sent", ns=record.ns)

    def _is_last_sendable(self) -> bool:
        """True if no further frame can follow immediately — poll now."""
        if self._retransmit_queue:
            return False
        if self._pending and self.window.can_send:
            return False
        return True

    def _emit(self, record: HdlcOutstanding, poll: bool) -> None:
        frame = HdlcIFrame(
            ns=record.ns,
            payload=record.payload,
            size_bits=self.config.iframe_bits,
            poll=poll,
        )
        self.data_channel.send(frame)
        self.iframes_sent += 1
        self._record_occupancy()
        if poll:
            self.polls_sent += 1
            self._poll_timer.start(self.config.timeout)
        self.tracer.emit(
            self.sim.now, self.name, "iframe_sent",
            ns=record.ns, poll=poll, retx=record.retransmit_count,
        )

    # -- responses -----------------------------------------------------------------------

    def on_rr(self, frame: RrFrame, corrupted: bool) -> None:
        if corrupted:
            self.tracer.emit(self.sim.now, self.name, "rr_corrupted")
            return
        acked = self.window.acknowledge(frame.nr)
        for ns in acked:
            self._release(ns)
        if acked:
            self._record_occupancy()
        if frame.final:
            self._poll_timer.cancel()
            # The poll cycle ended but frames beyond N(R) may remain
            # unacknowledged with no SREJ coming (they were all lost in
            # one sweep).  If nothing else will trigger recovery,
            # re-poll via timeout-style retransmission of the oldest.
            nothing_sendable = not self._retransmit_queue and not (
                self._pending and self.window.can_send
            )
            if self._outstanding and nothing_sendable:
                self._poll_timer.start(self.config.timeout)
        self._maybe_send()

    def _release(self, ns: int) -> None:
        """Frame *ns* is acknowledged: drop its record, sample its holding time."""
        record = self._outstanding.pop(ns, None)
        if record is None:
            return
        held = self.sim.now - record.first_send_time
        self.releases += 1
        self.holding_time_sum += held
        self.holding_samples += 1
        self.tracer.sample(f"{self.name}.holding_time", held)

    def on_srej(self, frame: SrejFrame, corrupted: bool) -> None:
        if corrupted:
            self.tracer.emit(self.sim.now, self.name, "srej_corrupted")
            return
        for ns in frame.nrs:
            if ns in self._outstanding and ns not in self._requeued:
                self._retransmit_queue.append(ns)
                self._requeued.add(ns)
        if frame.final:
            self._poll_timer.cancel()
        self.tracer.emit(self.sim.now, self.name, "srej", count=len(frame.nrs))
        self._maybe_send()

    def on_rej(self, frame: RejFrame, corrupted: bool) -> None:
        """Go-Back-N: resend everything from N(R) in order."""
        if corrupted:
            return
        for ns in self.window.acknowledge(frame.nr):
            self._release(ns)
        # Rebuild the retransmission queue in sequence order from N(R).
        self._retransmit_queue.clear()
        self._requeued.clear()
        ordered = sorted(
            self._outstanding,
            key=lambda ns: window_offset(frame.nr, ns, self.config.modulus),
        )
        for ns in ordered:
            self._retransmit_queue.append(ns)
            self._requeued.add(ns)
        if frame.final:
            self._poll_timer.cancel()
        self._record_occupancy()
        self._maybe_send()

    # -- timeout recovery ---------------------------------------------------------------------

    def _on_poll_timeout(self) -> None:
        """No response to the poll within t_out: retransmit and re-poll."""
        if not self._outstanding:
            return
        self.timeouts += 1
        oldest = min(
            self._outstanding,
            key=lambda ns: window_offset(self.window.va, ns, self.config.modulus),
        )
        if oldest not in self._requeued:
            self._retransmit_queue.appendleft(oldest)
            self._requeued.add(oldest)
        self.tracer.emit(self.sim.now, self.name, "poll_timeout", ns=oldest)
        self._poll_timer.start(self.config.timeout)
        self._maybe_send()

    # -- instrumentation --------------------------------------------------------------------------

    def _record_occupancy(self) -> None:
        if self.occupancy > self.peak_occupancy:
            self.peak_occupancy = self.occupancy
        self.tracer.level(f"{self.name}.sendbuf", self.sim.now, self.occupancy)

    def __repr__(self) -> str:
        return (
            f"<HdlcSender {self.name} sent={self.iframes_sent} "
            f"retx={self.retransmissions} released={self.releases}>"
        )
