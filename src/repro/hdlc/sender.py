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
  retransmission period.  Whenever frames are held and nothing can be
  sent, the poll timer runs.

In Go-Back-N mode (``config.selective = False``) a REJ rolls the send
state back and everything from N(R) is retransmitted in order.

The window is the sending buffer's columns (:mod:`repro.core.sendbuf`):
transmit index ``i`` carries ``N(S) = i mod M``, ``V(A)`` is the number
of the window's base and ``V(S)`` that of ``next_index``.  Cumulative
acknowledgement releases a prefix, so the window has no holes and
"oldest first" and "in N(R) order" are column order.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..core.sendbuf import BufferedSender
from ..core.seqspace import SequenceSpace
from ..simulator.engine import Simulator
from ..simulator.link import SimplexChannel
from ..simulator.trace import Tracer
from .config import HdlcConfig
from .frames import HdlcIFrame, RejFrame, RrFrame, SrejFrame

__all__ = ["HdlcSender"]


class HdlcSender(BufferedSender):
    """Sender state machine for one direction of an HDLC link."""

    def __init__(
        self,
        sim: Simulator,
        config: HdlcConfig,
        data_channel: SimplexChannel,
        name: str = "hdlc.tx",
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(
            sim, config, data_channel, name, tracer, SequenceSpace(config.modulus),
        )
        # N(S) values owed a retransmission; the set mirrors the queue.
        self._retransmit_queue: deque[int] = deque()
        self._requeued: set[int] = set()
        self._stutter_cursor = 0
        self.stutter_transmissions = 0

    # -- transmission -----------------------------------------------------------------

    def _maybe_send(self) -> None:
        if not self._started or not self.data_channel.is_idle:
            return
        buffer = self.buffer
        queue = self._retransmit_queue
        while queue:
            ns = queue.popleft()
            self._requeued.discard(ns)
            position = buffer.position_of(ns)
            if position is not None:  # else acknowledged while queued
                buffer.resend(position)
                self.retransmissions += 1
                self._emit(position, poll=self._is_last_sendable())
                return
        if self._window_open():
            self._emit(self._admit(), poll=self._is_last_sendable())
        elif self.config.stutter and buffer.items:
            # Stutter: the line would idle while the window stalls —
            # re-send unacknowledged frames round-robin instead.  No
            # Poll bit and no timer interaction: these are opportunistic
            # extra copies, not recovery actions.
            self._emit_stutter()
        elif buffer.items and not self._timer.running:
            # Frames are held and nothing can go: the poll timer must run.
            # (An RR can acknowledge the queued frame that was to carry the
            # Poll bit, leaving the period's last frame unpolled.)
            self._timer.start(self.config.timeout)

    def _window_open(self) -> bool:
        """A packet is pending and V(S) has not exhausted the window."""
        return bool(self.buffer.pending_count) and (
            len(self.buffer.items) < self.config.window_size
        )

    def _is_last_sendable(self) -> bool:
        """True if no further frame can follow immediately — poll now."""
        return not self._retransmit_queue and not self._window_open()

    def _frame(self, position: int, poll: bool) -> HdlcIFrame:
        buffer = self.buffer
        return HdlcIFrame(
            ns=buffer.space.seq_of(buffer.base + position),
            payload=buffer.items[position][0],
            size_bits=self.config.iframe_bits,
            poll=poll,
        )

    def _emit_stutter(self) -> None:
        """One round-robin stutter copy of an unacknowledged frame."""
        position = self._stutter_cursor % len(self.buffer.items)
        self._stutter_cursor = position + 1
        frame = self._frame(position, poll=False)
        self.data_channel.send(frame)
        self.iframes_sent += 1
        self.stutter_transmissions += 1
        self.tracer.emit(self.sim.now, self.name, "stutter_sent", ns=frame.ns)

    def _emit(self, position: int, poll: bool) -> None:
        frame = self._frame(position, poll)
        self.data_channel.send(frame)
        self.iframes_sent += 1
        self._record_occupancy()
        if poll:
            self.polls_sent += 1
            self._timer.start(self.config.timeout)
        retx = self.buffer.retx[position]
        self.tracer.emit(
            self.sim.now, self.name, "iframe_sent",
            ns=frame.ns, poll=poll, retx=0 if retx is None else retx[0],
        )

    # -- responses -----------------------------------------------------------------------

    def on_rr(self, frame: RrFrame, corrupted: bool) -> None:
        if corrupted:
            self.tracer.emit(self.sim.now, self.name, "rr_corrupted")
            return
        if self._acknowledge(frame.nr):
            self._record_occupancy()
        if frame.final:
            self._timer.cancel()
            # The poll cycle ended but frames beyond N(R) may remain
            # unacknowledged with no SREJ coming (they were all lost in
            # one sweep).  If nothing else will trigger recovery,
            # re-poll via timeout-style retransmission of the oldest.
            if self.buffer.items and self._is_last_sendable():
                self._timer.start(self.config.timeout)
        self._maybe_send()

    def _acknowledge(self, nr: int) -> int:
        """Apply a cumulative N(R): release every frame before it.

        Returns how many were released.  An N(R) outside ``(V(A),
        V(S)]`` is stale or insane and is ignored (HDLC treats it as a
        protocol error; for the simulation we drop it and let the
        timeout recover).
        """
        buffer = self.buffer
        advance = (nr - buffer.space.seq_of(buffer.base)) % buffer.space.modulus
        if advance == 0 or advance > len(buffer.items):
            return 0
        self._release(range(advance))
        return advance

    def on_srej(self, frame: SrejFrame, corrupted: bool) -> None:
        if corrupted:
            self.tracer.emit(self.sim.now, self.name, "srej_corrupted")
            return
        for ns in frame.nrs:
            if ns not in self._requeued and self.buffer.position_of(ns) is not None:
                self._retransmit_queue.append(ns)
                self._requeued.add(ns)
        if frame.final:
            self._timer.cancel()
        self.tracer.emit(self.sim.now, self.name, "srej", count=len(frame.nrs))
        self._maybe_send()

    def on_rej(self, frame: RejFrame, corrupted: bool) -> None:
        """Go-Back-N: resend everything from N(R) in order."""
        if corrupted:
            return
        self._acknowledge(frame.nr)
        buffer = self.buffer
        seq_of = buffer.space.seq_of
        self._retransmit_queue.clear()
        self._retransmit_queue.extend(
            seq_of(buffer.base + position) for position in range(len(buffer.items))
        )
        self._requeued = set(self._retransmit_queue)
        if frame.final:
            self._timer.cancel()
        self._record_occupancy()
        self._maybe_send()

    # -- timeout recovery ---------------------------------------------------------------------

    def _on_timeout(self) -> None:
        """No response to the poll within t_out: retransmit and re-poll."""
        buffer = self.buffer
        if not buffer.items:
            return
        self.timeouts += 1
        oldest = buffer.space.seq_of(buffer.base)  # V(A)
        if oldest not in self._requeued:
            self._retransmit_queue.appendleft(oldest)
            self._requeued.add(oldest)
        self.tracer.emit(self.sim.now, self.name, "poll_timeout", ns=oldest)
        self._timer.start(self.config.timeout)
        self._maybe_send()
