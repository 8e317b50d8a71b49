"""NBDT sender: multiphase and continuous bulk-transfer modes.

Both modes rely on absolute numbering (frame ids are never reused, so
there is no window and no numbering-driven stall) and on completely
selective acknowledgement reports.

- **multiphase** — strict alternation: transmit a phase (new frames),
  poll, wait for the report, retransmit exactly the reported-missing as
  the next phase, poll again … interleaving new data only when no
  retransmissions are owed.
- **continuous** — retransmissions are mixed into the stream: reported
  gaps are re-sent ahead of new frames without pausing transmission.

The paper's critiques are visible by construction: every frame stays in
the sender's memory until *positively* acknowledged by a report (the
"huge memory … implemented by secondary device"), and there is no
failure-detection machinery at all ("they do not consider the
reliability of protocol") — a dead receiver leaves the sender polling
forever.

The memory is the sending buffer's columns (:mod:`repro.core.sendbuf`):
a frame's absolute id *is* its transmit index, so window position ``p``
holds frame ``base + p``, and a report's selective release leaves
tombstones until the released prefix reaches them.
"""

from __future__ import annotations

from collections import deque
from itertools import compress
from typing import Optional

from ..core.sendbuf import BufferedSender
from ..simulator.engine import Simulator
from ..simulator.link import SimplexChannel
from ..simulator.trace import Tracer
from .config import NbdtConfig
from .frames import NbdtIFrame, NbdtReport, NbdtReportRequest

__all__ = ["NbdtSender"]


class NbdtSender(BufferedSender):
    """Sender state machine for one direction of an NBDT link."""

    def __init__(
        self,
        sim: Simulator,
        config: NbdtConfig,
        data_channel: SimplexChannel,
        name: str = "nbdt.tx",
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(sim, config, data_channel, name, tracer)
        # Frame ids owed a retransmission.  The set holds the ids queued:
        # continuous, those still in the queue; multiphase, those queued
        # for the open phase, sent or not, so that a report arriving
        # while the phase goes out queues each gap once per phase.
        self._retransmit_queue: deque[int] = deque()
        self._requeued: set[int] = set()
        # When each window position was last (re)sent: the in-flight guard.
        self._last_sends: list[float] = []

        # Multiphase state: frames still owed to the current phase.
        self._phase_new_remaining = 0
        self._awaiting_report = False

        self.reports_received = 0

    def _wake(self, unwoken: int = 0) -> None:
        if self._started:
            self._begin_phase_if_idle(unwoken)
            self._maybe_send()

    # -- transmission ----------------------------------------------------------------

    def _begin_phase_if_idle(self, unwoken: int = 0) -> None:
        """Multiphase: open a transmission phase when nothing is owed.

        The phase takes what was pending before the last *unwoken*
        packets: woken one at a time, those would have found it open.
        """
        if self.config.mode != "multiphase":
            return
        if self._awaiting_report or self._retransmit_queue or self._phase_new_remaining:
            return
        self._phase_new_remaining = self.buffer.pending_count - unwoken

    def _maybe_send(self) -> None:
        if not self._started or not self.data_channel.is_idle:
            return
        if self.config.mode == "continuous":
            self._maybe_send_continuous()
        else:
            self._maybe_send_multiphase()

    def _maybe_send_continuous(self) -> None:
        position = self._next_retransmission()
        if position is None:
            if not self.buffer.pending_count:
                return
            position = self._admit()
        self._emit(position, poll=self._nothing_else_sendable())

    def _maybe_send_multiphase(self) -> None:
        if self._awaiting_report:
            return
        position = self._next_retransmission()
        if position is not None:
            last = not self._retransmit_queue
        elif self._phase_new_remaining and self.buffer.pending_count:
            position = self._admit()
            self._phase_new_remaining -= 1
            last = not self._phase_new_remaining or not self.buffer.pending_count
            if last:
                self._phase_new_remaining = 0
        else:
            self._requeued.clear()  # the phase ran dry without its poll
            return
        self._emit(position, poll=last)
        if last:
            self._close_phase()

    def _next_retransmission(self) -> Optional[int]:
        """Pop queued ids until one is still held; its position, or None."""
        buffer = self.buffer
        queue = self._retransmit_queue
        continuous = self.config.mode == "continuous"
        while queue:
            fid = queue.popleft()
            if continuous:
                self._requeued.discard(fid)
            position = fid - buffer.base
            if position >= 0 and buffer.items[position] is not None:
                buffer.resend(position)
                self.retransmissions += 1
                return position
        return None

    def _close_phase(self) -> None:
        self._awaiting_report = True
        self._requeued.clear()
        self._timer.start(self.config.timeout)

    def _nothing_else_sendable(self) -> bool:
        return not self._retransmit_queue and not self.buffer.pending_count

    def _admit(self) -> int:
        position = super()._admit()
        self._last_sends.append(self.sim.now)
        return position

    def _emit(self, position: int, poll: bool) -> None:
        buffer = self.buffer
        fid = buffer.base + position
        frame = NbdtIFrame(
            fid=fid,
            payload=buffer.items[position][0],
            size_bits=self.config.iframe_bits,
            poll=poll,
        )
        self._last_sends[position] = self.sim.now
        self.data_channel.send(frame)
        self.iframes_sent += 1
        if poll:
            self.polls_sent += 1
            if self.config.mode == "continuous":
                self._timer.start(self.config.timeout)
        self.tracer.emit(self.sim.now, self.name, "iframe_sent", fid=fid, poll=poll)

    # -- report handling --------------------------------------------------------------

    def on_report(self, report: NbdtReport, corrupted: bool) -> None:
        if corrupted:
            return  # the report timer recovers a lost/corrupted report
        self.reports_received += 1
        self._awaiting_report = False
        missing = set(report.missing)
        buffer = self.buffer
        base, items = buffer.base, buffer.items
        # Positive acknowledgement: everything at or below highest_seen
        # that the receiver does not list as missing.
        # (``compress`` skips the tombstones: a gap the receiver keeps
        # reporting holds every frame after it in the window.)
        seen = max(0, report.highest_seen + 1 - base)
        released = [
            position for position in compress(range(seen), items)
            if base + position not in missing
        ]
        if released:
            del self._last_sends[:self._release(released)]
            self._record_occupancy()
        base, retx = buffer.base, buffer.retx
        last_sends = self._last_sends
        now, timeout = self.sim.now, self.config.timeout
        queue, requeued = self._retransmit_queue, self._requeued
        # Retransmission work: the reported gaps.  In continuous mode a
        # gap can be re-reported while its retransmission is still in
        # flight (the report was issued before the re-sent copy could
        # arrive), so those are guarded by one timeout (>= RTT by
        # configuration).  A multiphase report answering a poll postdates
        # the whole phase it closed — every listed gap genuinely needs a
        # re-send; one arriving while the next phase goes out (a report
        # request answered after the report it replaced) adds only the
        # gaps that phase does not hold.
        in_flight_possible = self.config.mode == "continuous"
        for fid in sorted(missing):
            position = fid - base
            if not 0 <= position < len(items) or items[position] is None or fid in requeued:
                continue
            if (
                in_flight_possible
                and retx[position] is not None
                and now - last_sends[position] < timeout
            ):
                continue
            queue.append(fid)
            requeued.add(fid)
        # Trailing losses: frames beyond the receiver's highest seen id
        # can never appear in its gap list.  Anything we sent more than
        # one timeout ago that the report does not cover was lost off
        # the tail — retransmit it.  (Freshly sent frames are protected
        # by the same guard; the next report covers them.)
        for position in range(max(0, report.highest_seen + 1 - base), len(items)):
            fid = base + position
            if items[position] is None or fid in requeued:
                continue
            if now - last_sends[position] < timeout:
                continue
            queue.append(fid)
            requeued.add(fid)
        if self.config.mode == "multiphase" and not queue:
            self._begin_phase_if_idle()
        if self.occupancy:
            self._timer.start(timeout)
        else:
            self._timer.cancel()
        self.tracer.emit(
            now, self.name, "report", acked=self.releases, missing=len(missing),
        )
        self._maybe_send()

    def _on_timeout(self) -> None:
        """No report arrived: poll again (NBDT has no failure handling)."""
        if not self.occupancy:
            return
        self.timeouts += 1
        self.data_channel.send(NbdtReportRequest(request_time=self.sim.now))
        self._timer.start(self.config.timeout)
        self.tracer.emit(self.sim.now, self.name, "report_request")
