"""The specification's NBDT sender (paper Section 1's reference [7];
Section 4's critique): absolute frame ids, so no window and no numbering
stall, and completely selective reports, each naming the highest id seen
and the gaps below it and acknowledging the rest.  A frame is held until
a report covers it ("the huge memory"); the report timer only asks again.

- **multiphase**: a phase of new frames, the last polling; the report;
  its gaps as the next phase, the last polling again; new frames only
  when nothing is owed.  A gap is queued once per phase (a repeat report
  adds only those it lacks); a phase ends at its poll, or running dry.
- **continuous**: reported gaps go ahead of new frames without a pause,
  but a gap re-sent less than one timeout ago may be in flight: left alone.

Either way a frame above the highest id seen and sent at least one
timeout ago was lost off the tail, and is queued too.
"""

from __future__ import annotations

from typing import Any

from repro.nbdt.config import NbdtConfig
from repro.nbdt.frames import NbdtIFrame, NbdtReport, NbdtReportRequest

from .hdlc import Held


class NbdtSender(Held):
    """One direction's NBDT sender; frame ids count from zero."""

    def __init__(self, engine: Any, config: NbdtConfig, channel: Any, name: str = "nbdt.tx"):
        super().__init__(engine, config, channel, name, self.on_report_timeout)
        self.continuous = config.mode == "continuous"
        self.phase_new_remaining = 0  # multiphase: new frames the open phase still owes
        self.awaiting_report, self.reports_received, self.phase_gaps = False, 0, set()

    def wake(self) -> None:
        if self.started:
            self.begin_phase()
            self.maybe_send()

    def begin_phase(self) -> None:
        """Multiphase: with nothing owed, a phase of every pending packet."""
        if not (self.continuous or self.awaiting_report or self.retransmit
                or self.phase_new_remaining):
            self.phase_new_remaining = len(self.pending)

    def maybe_send(self) -> None:  # the two modes of Section 1's reference [7]
        if not self.started or not self.channel.is_idle or self.awaiting_report:
            return
        fid = self.next_retransmission()
        if self.continuous:
            if fid is None and not self.pending:
                return
            fid = self.admit() if fid is None else fid
            return self.send(fid, poll=not self.retransmit and not self.pending)
        if fid is not None:
            last = not self.retransmit
        elif self.phase_new_remaining and self.pending:
            fid = self.admit()
            self.phase_new_remaining -= 1
            last = not self.phase_new_remaining or not self.pending
            if last:
                self.phase_new_remaining = 0
        else:
            return self.phase_gaps.clear()  # the phase ran dry
        self.send(fid, poll=last)
        if last:  # the phase is over: wait for its report
            self.awaiting_report, self.phase_gaps = True, set()
            self.timer.start(self.config.timeout)

    def send(self, fid: int, poll: bool) -> None:
        frame = self.buffer[fid]
        frame.last_send = self.engine.now
        self.channel.send(NbdtIFrame(fid, frame.payload, self.config.iframe_bits, poll))
        self.iframes_sent += 1
        if poll:
            self.polls_sent += 1
            if self.continuous:
                self.timer.start(self.config.timeout)
        self.record("iframe_sent", fid=fid, poll=poll)

    def on_report(self, report: NbdtReport, corrupted: bool) -> None:
        """A completely selective report (Section 4's critique of [7]): release
        what it covers, queue its gaps and the tail's losses, rearm the timer."""
        if corrupted:
            return  # the report timer recovers it
        self.reports_received += 1
        self.awaiting_report = False
        now, timeout, missing = self.engine.now, self.config.timeout, set(report.missing)
        covered = [fid for fid in self.buffer if fid <= report.highest_seen and fid not in missing]
        if covered:
            self.release(covered)
            self.record_occupancy()
        in_flight = [fid for fid, frame in self.buffer.items() if self.continuous
                     and frame.retransmit_count and now - frame.last_send < timeout]
        gaps = [fid for fid in sorted(missing) if fid in self.buffer and fid not in in_flight]
        tail = [fid for fid, frame in self.buffer.items()
                if fid > report.highest_seen and not now - frame.last_send < timeout]
        queued = set(self.retransmit) if self.continuous else self.phase_gaps
        for fid in gaps + tail:
            if fid not in queued:
                queued.add(fid)
                self.retransmit.append(fid)
        if not self.retransmit:
            self.begin_phase()
        self.timer.start(timeout) if self.occupancy else self.timer.cancel()
        self.record("report", acked=self.releases, missing=len(missing))
        self.maybe_send()

    def on_report_timeout(self) -> None:
        """No report: ask again; NBDT never declares a failure (Section 4)."""
        if self.occupancy:
            self.timeouts += 1
            self.channel.send(NbdtReportRequest(request_time=self.engine.now))
            self.timer.start(self.config.timeout)
            self.record("report_request")
