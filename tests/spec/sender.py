"""The specification's LAMS-DLC sender (paper Sections 3.2-3.4).

Its outstanding window is a dict keyed by sequence number, one record per
frame on the link.  It hands the channel one frame at a time.
Every record a traced sender emits is written to the engine's log, a run
or a release frame by frame (``tests/trace_runs.py::expand``'s tuples).
"""

from __future__ import annotations

from collections import deque, namedtuple
from typing import Any, Callable, Optional

from repro.core.config import LamsDlcConfig
from repro.core.frames import CheckpointFrame, IFrame, RequestNakFrame
from repro.core.seqspace import SequenceExhausted

from .channel import Channel
from .engine import Engine
from .receiver import Gauge


# A frame on the link, not yet released or requeued; and one detached
# for renumbered retransmission.
Outstanding = namedtuple("Outstanding", "seq payload enqueue_time expected_arrival "
                         "transmit_index retransmit_count first_send_time origin")
Job = namedtuple("Job", "payload enqueue_time first_send_time retransmit_count cause origin")


class Flow:
    """Stop-Go rate control (Section 3.4): the sending rate, as a fraction
    of the line rate, falls by a factor on Stop and grows by a step on Go."""

    def __init__(self, config: LamsDlcConfig) -> None:
        self.config, self.rate_fraction = config, 1.0

    def on_stop_go(self, stop: bool) -> None:
        config = self.config
        if config.flow_control_enabled and stop:
            self.rate_fraction = max(config.min_rate_fraction,
                                     self.rate_fraction * config.rate_decrease_factor)
        elif config.flow_control_enabled:
            self.rate_fraction = min(1.0, self.rate_fraction + config.rate_increase_step)


class Sender:
    """One direction's sender half."""

    def __init__(self, engine: Engine, config: LamsDlcConfig, channel: Channel,
                 expected_rtt: float, on_failure: Optional[Callable[[], None]] = None,
                 link_start_time: float = 0.0, name: str = "lams.tx") -> None:
        self.engine, self.config, self.channel, self.name = engine, config, channel, name
        self.expected_rtt, self.link_start_time = expected_rtt, link_start_time
        self.on_failure = on_failure or (lambda: None)
        self.tx_time = config.iframe_bits / channel.bit_rate
        self.window: dict[int, Outstanding] = {}
        self.pending: deque = deque()  # (payload, enqueue time)
        self.retransmit_queue: deque[Job] = deque()
        self.next_index = 0
        self.flow = Flow(config)
        self.next_allowed_send = 0.0
        self.stop_go_provider: Callable[[], bool] = lambda: False
        self.last_piggyback_applied = self.last_probe_time = -float("inf")
        self.started = self.pacing_armed = False
        self.suspended = self.failed = self.awaiting_enforced = False
        self.checkpoint_timer = engine.timer(self.on_checkpoint_timeout)
        self.failure_timer = engine.timer(self.on_failure_timeout)
        self.gauge: Optional[Gauge] = None  # the ``sendbuf`` occupancy
        self.holding_sum = 0.0
        self.holdings: list[float] = []
        self.iframes_sent = self.retransmissions = self.releases = 0
        self.enqueued = self.refused = self.peak_occupancy = 0
        self.checkpoints_received = self.checkpoints_corrupted = 0
        self.request_naks_sent = self.failures_declared = 0
        channel.on_idle(self.maybe_send)

    @property
    def occupancy(self) -> int:
        """Pending and outstanding frames."""
        return len(self.pending) + len(self.window)

    pending_count = property(lambda self: len(self.pending))
    unresolved_count = property(
        lambda self: len(self.pending) + len(self.window) + len(self.retransmit_queue))

    def in_transmit_order(self) -> list[Outstanding]:
        return sorted(self.window.values(), key=lambda record: record.transmit_index)

    def held_payloads(self) -> list[Any]:
        return ([payload for payload, _ in self.pending]
                + [record.payload for record in self.in_transmit_order()]
                + [job.payload for job in self.retransmit_queue])

    def _write(self, event: str, detail: Any = None, when: Optional[float] = None) -> None:
        self.engine.log.append((self.engine.now if when is None else when, self.name, event,
                                {} if detail is None else detail))

    def _record_occupancy(self) -> None:
        self.peak_occupancy = max(self.peak_occupancy, self.occupancy)
        if self.gauge is None:
            self.gauge = Gauge(self.engine.now)
        self.gauge.update(self.engine.now, self.occupancy)

    def start(self) -> None:
        """Arm the startup watchdog (one RTT plus the checkpoint timeout) and send."""
        self.started = True
        self.checkpoint_timer.start(self.expected_rtt + self.config.checkpoint_timeout)
        self.maybe_send()

    def stop(self) -> None:
        self.checkpoint_timer.cancel()
        self.failure_timer.cancel()
        self.failed = True

    def accept(self, packet: Any) -> bool:
        """One packet from the network layer, unless failed or full."""
        capacity = self.config.send_buffer_capacity
        if self.failed:
            return False
        if capacity is not None and self.occupancy >= capacity:
            self.refused += 1
            return False
        self.pending.append((packet, self.engine.now))
        self.enqueued += 1
        self._write("payload_accepted", (packet,))
        self._record_occupancy()
        if self.channel.is_idle:
            self.maybe_send()
        return True

    def maybe_send(self) -> None:
        """Send when the channel is idle and Stop-Go pacing allows, renumbered
        retransmissions first (Section 3.3); no new frames while a failure
        is suspected."""
        if self.failed or not self.started or not self.channel.is_idle:
            return
        if not self.retransmit_queue and (not self.pending or self.suspended):
            return
        now = self.engine.now
        if now < self.next_allowed_send:
            if not self.pacing_armed:
                self.pacing_armed = True
                self.engine.schedule_at(self.next_allowed_send, self._pacing_expired)
            return
        self._send()

    def _pacing_expired(self) -> None:
        self.pacing_armed = False
        self.maybe_send()

    def _send(self) -> None:
        """A queued retransmission first, else a new frame, outstanding from
        now.  Frame ``index`` is numbered ``index mod 2^bits``, refused
        while that number's previous holder is outstanding (Section 2.3)."""
        now, modulus, index = self.engine.now, self.config.numbering_size, self.next_index
        seq = index % modulus
        if seq in self.window:
            raise SequenceExhausted(f"sequence number {seq} is still outstanding ("
                                    f"{len(self.window)}/{modulus} numbers in use); "
                                    "the numbering space is undersized for this link")
        if self.retransmit_queue:
            payload, enqueue_time, first_send, count, _, origin = self.retransmit_queue.popleft()
            self.retransmissions += 1
        else:
            (payload, enqueue_time), first_send, count, origin = (
                self.pending.popleft(), now, 0, index)
        arrival = now + self.tx_time + self.channel.propagation_delay(now)
        self.window[seq] = Outstanding(seq, payload, enqueue_time, arrival, index, count,
                                       first_send, origin)
        self.next_index = index + 1
        self._write("iframe_sent", (seq, index, count))
        self._record_occupancy()
        stop_go = self.config.piggyback_flow_control and self.stop_go_provider()
        self.channel.send(IFrame(seq, payload, self.config.iframe_bits, index,
                                 origin if count else -1, stop_go))
        self.iframes_sent += 1
        self.next_allowed_send = now + self.tx_time / min(1.0, self.flow.rate_fraction)

    def note_piggyback_stop_go(self, stop: bool) -> None:
        """A Stop-Go bit piggybacked on an I-frame, applied at most once a ``W_cp``."""
        now = self.engine.now
        if (self.config.piggyback_flow_control and not self.failed
                and now - self.last_piggyback_applied >= self.config.checkpoint_interval):
            self.last_piggyback_applied = now
            self.flow.on_stop_go(stop)

    def on_checkpoint(self, cp: CheckpointFrame, corrupted: bool) -> None:
        """Check-Point recovery (Section 3.2) of every NAK'd number still
        outstanding, then implicit release of what the checkpoint covers,
        unless an Enforced-NAK is awaited."""
        if self.failed:
            return
        if corrupted:
            self.checkpoints_corrupted += 1
            return self._write("checkpoint_corrupted")
        self.checkpoints_received += 1
        self.checkpoint_timer.start(self.config.checkpoint_timeout)
        self.flow.on_stop_go(cp.stop_go)
        if self.awaiting_enforced and cp.enforced:
            self.failure_timer.cancel()
            self.awaiting_enforced = self.suspended = False
            self._write("enforced_recovery_complete")
        elif (self.awaiting_enforced
              and self.engine.now - self.last_probe_time >= self.expected_response_time):
            self._send_request_nak()  # the link is up but the probe was lost
        for seq in cp.naks:
            if seq in self.window:
                self._requeue(self.window[seq], "enforced" if cp.enforced else "nak")
        if not self.awaiting_enforced and self.window:
            self._release_covered(cp)
        self.maybe_send()

    def _release_covered(self, cp: CheckpointFrame) -> None:
        """A frame is covered once its arrival plus processing time is no
        later than the issue time.  Covered beyond the frontier: a trailing
        loss, retransmitted; within it: released, unless an Enforced-NAK
        cannot vouch for it (older than one resolving period, Section 3.3)."""
        live, now = len(self.window), self.engine.now
        frontier = -1 if cp.frontier is None else cp.frontier
        covered = [record for record in self.in_transmit_order()
                   if not record.expected_arrival + self.config.processing_time > cp.issue_time]
        within = [record for record in covered if record.transmit_index <= frontier]
        horizon = cp.issue_time - self.config.resolving_period(self.expected_rtt)
        for record in within[:] if cp.enforced else ():
            if record.expected_arrival < horizon:
                within.remove(record)
                self._requeue(record, "enforced")
        for record in covered:
            if record.transmit_index > frontier:
                self._requeue(record, "trailing")
        for record in within:
            del self.window[record.seq]
            holding = now - record.first_send_time
            self.holding_sum += holding
            self.holdings.append(holding)
            self.releases += 1
            self._write("iframe_released", (record.seq, holding, record.retransmit_count))
        if len(self.window) != live:
            self._record_occupancy()

    def _requeue(self, record: Outstanding, cause: str) -> None:
        del self.window[record.seq]
        self.retransmit_queue.append(Job(record.payload, record.enqueue_time,
                                         record.first_send_time, record.retransmit_count + 1,
                                         cause, record.origin))
        self._write("requeue", {"seq": record.seq, "cause": cause})

    @property
    def expected_response_time(self) -> float:
        return self.expected_rtt + self.config.processing_time

    def on_checkpoint_timeout(self) -> None:
        """No valid checkpoint for ``C_depth * W_cp``: suspend new frames and
        probe with a Request-NAK, or fail if no answer fits the link's life."""
        budget = self.expected_response_time + self.config.checkpoint_timeout
        lifetime = self.config.link_lifetime
        if self.failed:
            return
        self._write("checkpoint_timeout")
        if lifetime is not None and self.link_start_time + lifetime - self.engine.now < budget:
            return self._declare_failure()
        self.suspended = self.awaiting_enforced = True
        self._send_request_nak()

    def _send_request_nak(self) -> None:
        self.channel.send(RequestNakFrame(request_time=self.engine.now))
        self.request_naks_sent += 1
        self.last_probe_time = self.engine.now
        self.failure_timer.start(self.expected_response_time + self.config.checkpoint_timeout)
        self._write("request_nak_sent")

    def on_failure_timeout(self) -> None:
        if not self.failed:
            self._declare_failure()

    def _declare_failure(self) -> None:
        self.failed = True
        self.failures_declared += 1
        self.checkpoint_timer.cancel()
        self.failure_timer.cancel()
        self._write("link_failure_declared")
        self.on_failure()
