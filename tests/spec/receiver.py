"""The specification's LAMS-DLC receiver (paper Sections 3.1-3.2).

Every I-frame is one ``on_iframe`` call at its arrival.  A clean frame
joins the receive queue and its delivery is planned there, ``t_proc``
after its arrival or after the delivery ahead of it, whichever is later;
the engine runs it after every numbered entry at its instant.  Errors go
into a dict error log, each reported in ``C_depth`` consecutive
Check-Points.  Its records go to the engine's log at their instants.
"""

from __future__ import annotations

from collections import deque
from types import SimpleNamespace as LoggedError  # seq, detect_time, reports
from typing import Any, Callable, Optional

from repro.core.config import LamsDlcConfig
from repro.core.frames import CheckpointFrame, IFrame, RequestNakFrame

from .channel import Channel
from .engine import Engine


class Gauge:
    """A time-weighted level, ``TimeWeightedStat``'s arithmetic and names."""

    def __init__(self, start: float) -> None:
        self._area, self._last_time, self._level, self.maximum = 0.0, start, 0, 0

    def update(self, now: float, level: int) -> None:
        self._area += self._level * (now - self._last_time)
        self._last_time, self._level, self.maximum = now, level, max(self.maximum, level)


class Receiver:
    """One direction's receiver half."""

    def __init__(self, engine: Engine, config: LamsDlcConfig, control_channel: Channel,
                 expected_rtt: float, deliver: Optional[Callable[[Any], None]] = None,
                 delivery_interval: Optional[float] = None, name: str = "lams.rx") -> None:
        self.engine, self.config, self.control_channel, self.name = (
            engine, config, control_channel, name)
        self.deliver = deliver if deliver is not None else (lambda packet: None)
        self.interval = config.processing_time if delivery_interval is None else delivery_interval
        self.retention = config.resolving_period(expected_rtt)
        self.running, self.tick = False, None
        self.cp_index = 0
        self.frontier: Optional[int] = None
        self.next_expected = 0  # both ends start from sequence number zero
        # By number; oldest first, for Enforced-NAKs.  Named as the shipped receiver's.
        self._error_log: dict[int, LoggedError] = {}
        self._resolving_log: deque[LoggedError] = deque()
        self.queue: deque = deque()  # payloads arrived and not yet delivered
        self.last_planned = -float("inf")
        self.token = object()  # replaced by a flush: the planned deliveries lapse
        self.delivered_origins: dict[int, float] = {}
        self.gauge: Optional[Gauge] = None  # the ``rxqueue`` depth
        self.iframes_received = self.iframes_corrupted = self.gap_losses_detected = 0
        self.delivered = self.discards = self.duplicates_suppressed = 0
        self.checkpoints_sent = self.enforced_sent = 0

    def start(self) -> None:
        """A Check-Point every ``W_cp`` while the receiver runs."""
        self.running = True
        self.tick = self.engine.every(self.config.checkpoint_interval, self.emit_checkpoint)

    def stop(self) -> None:
        self.running = False
        if self.tick is not None:
            self.tick.cancel()

    receive_queue_length = property(lambda self: len(self.queue))

    def _write(self, event: str, detail: Any) -> None:
        self.engine.log.append((self.engine.now, self.name, event, detail))

    def _step(self) -> None:
        if self.gauge is None:
            self.gauge = Gauge(self.engine.now)
        self.gauge.update(self.engine.now, len(self.queue))

    def on_iframe(self, frame: IFrame, corrupted: bool) -> None:
        """Gap tracking and the error log, then the queue: a duplicate
        incarnation (zero-duplication) is dropped, and a frame that finds
        the queue full is discarded and logged, so the cumulative NAK
        recovers it (Section 3.4)."""
        config = self.config
        self.iframes_received += 1
        if corrupted and not config.header_protected:
            self.iframes_corrupted += 1  # an unreadable header: a loss
            return self._write("iframe_header_lost", {})
        gap = (frame.seq - self.next_expected) % config.numbering_size
        for offset in range(gap):
            self._log_error((self.next_expected + offset) % config.numbering_size)
        if gap:
            self.gap_losses_detected += gap
            self._write("gap_detected", {"count": gap, "upto": frame.seq})
        self.next_expected = (frame.seq + 1) % config.numbering_size
        if self.frontier is None or frame.transmit_index > self.frontier:
            self.frontier = frame.transmit_index
        if corrupted:
            self.iframes_corrupted += 1
            self._log_error(frame.seq)
            self._write("iframe_corrupted", {"seq": frame.seq})
        elif config.zero_duplication and self._is_duplicate(frame):
            self.duplicates_suppressed += 1
            self._write("duplicate_suppressed", {"origin": frame.effective_origin})
        elif (config.receive_queue_capacity is not None
              and len(self.queue) >= config.receive_queue_capacity):
            self.discards += 1
            self._log_error(frame.seq)
            self._write("overflow_discard", {"seq": frame.seq})
        else:
            self.queue.append(frame.payload)
            if self.gauge is None or len(self.queue) > self.gauge.maximum:
                self._write("rxqueue_peak", {"depth": len(self.queue)})
            self._step()
            self.last_planned = max(self.engine.now, self.last_planned) + self.interval
            self.engine.plan(self.last_planned, self._deliver_one, self.token)

    def _is_duplicate(self, frame: IFrame) -> bool:
        """An origin delivered no longer than four resolving periods ago."""
        now, origin = self.engine.now, frame.effective_origin
        seen = self.delivered_origins.get(origin)
        if seen is not None and seen >= now - 4.0 * self.retention:
            return True
        self.delivered_origins[origin] = now
        return False

    def _log_error(self, seq: int) -> None:
        if seq not in self._error_log:
            self._error_log[seq] = entry = LoggedError(seq=seq, detect_time=self.engine.now,
                                                       reports=0)
            self._resolving_log.append(entry)
            self._write("error_logged", {"seq": seq})

    def _deliver_one(self, token: object) -> None:
        if token is self.token:
            payload = self.queue.popleft()
            self._step()
            self.delivered += 1
            self._write("payload_delivered", (payload,))
            self.deliver(payload)

    def flush(self) -> int:
        """Deliver every queued payload now."""
        count, self.token, self.last_planned = len(self.queue), object(), -float("inf")
        for _ in range(count):
            self._deliver_one(self.token)
        return count

    def stop_indicated(self) -> bool:
        """The Stop-Go bit: the queue at or above its high watermark."""
        config = self.config
        return config.flow_control_enabled and len(self.queue) >= config.receive_high_watermark

    def emit_checkpoint(self) -> None:
        """The periodic Check-Point (Section 3.1): every logged error, each
        in ``C_depth`` consecutive checkpoints before it expires."""
        naks = tuple(self._error_log)
        for seq in naks:
            self._error_log[seq].reports += 1
            if self._error_log[seq].reports >= self.config.cumulation_depth:
                del self._error_log[seq]
        self._send_checkpoint(naks, enforced=False)

    def on_request_nak(self, frame: RequestNakFrame, corrupted: bool) -> None:
        """A valid Request-NAK is answered at once by an Enforced-NAK listing
        every error logged within the resolving period (Section 3.2)."""
        if not self.running:
            return
        if corrupted:
            return self._write("request_nak_corrupted", {})
        log = self._resolving_log
        while log and log[0].detect_time < self.engine.now - self.retention:
            log.popleft()
        naks = tuple(dict.fromkeys(entry.seq for entry in log))
        self._send_checkpoint(naks, enforced=True)
        self.enforced_sent += 1
        self._write("enforced_nak", {"naks": len(naks)})

    def _send_checkpoint(self, naks: tuple, enforced: bool) -> None:
        stop_go = self.stop_indicated()
        self.control_channel.send(CheckpointFrame(
            self.cp_index, self.engine.now, naks, self.frontier, enforced, stop_go,
            self.config.cframe_bits(len(naks))))
        self._write("checkpoint_sent", {"index": self.cp_index, "naks": len(naks),
                                        "enforced": enforced, "stop_go": stop_go, "seqs": naks})
        self.cp_index += 1
        self.checkpoints_sent += 1
