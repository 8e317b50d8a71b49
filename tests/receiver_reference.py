"""A differential oracle for :class:`repro.core.receiver.LamsReceiver`.

:class:`ReferenceReceiver` is the receiver as it stood before runs came
to it whole: every I-frame an ``on_iframe`` call at its own arrival, every
delivery a drain that schedules the next.  It is kept here, and only
here, as what the run path (``LamsReceiver.on_run``) and the per-frame
path must agree with: the same ``(now, payload)`` deliveries, checkpoint
frames, error log and ``rxqueue`` gauge.  Patched in as
``repro.core.protocol.LamsReceiver`` it puts the old receiver into whole
links (``tests/test_receiver_runs.py``).

Its same-instant order is the per-frame push counter's, not the
instant-start rule (docs/TUNING.md §10) the run path follows: each drain
is an entry numbered when it is scheduled, at an arrival or at the drain
before it, and runs among the entries numbered before its instant in
number order, where the run path's planned delivery runs after all of
them.  The two orders differ only where an entry numbered after a
drain was scheduled, and before its instant, ties with it; no comparison
made against this receiver has one.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Callable, Optional

from repro.core.config import LamsDlcConfig
from repro.core.frames import CheckpointFrame, IFrame, RequestNakFrame
from repro.core.receiver import ErrorEntry
from repro.core.seqspace import forward_distance
from repro.simulator.engine import Periodic, Simulator
from repro.simulator.link import SimplexChannel
from repro.simulator.trace import Tracer

# The arguments every drain is called with until its receiver's first
# flush(): one token all receivers share.
_SHARED_DRAIN_ARGS = (object(),)


class ReferenceReceiver:
    """The per-frame LAMS-DLC receiver, as it stood before the run path."""

    __slots__ = (
        "sim", "config", "control_channel", "expected_rtt", "name",
        "tracer", "deliver", "delivery_interval", "cp_index", "frontier",
        "_next_expected_seq", "_error_log", "_resolving_log", "_running",
        "_checkpoint_tick", "_incoming", "_drain_args", "_held",
        "_receive_queue", "_draining", "_header_protected",
        "_numbering_size", "_zero_duplication", "_rx_capacity",
        "_checkpoint_interval", "_cumulation_depth",
        "_flow_control_enabled", "_high_watermark", "_empty_cframe_bits",
        "_drain_bound", "_drain_delay_value", "_origin_retention_value",
        "_rxqueue_stat", "_rxqueue_stat_name", "_delivered_origins",
        "_origin_prune_queue", "iframes_received", "iframes_corrupted",
        "gap_losses_detected", "delivered", "discards",
        "duplicates_suppressed", "checkpoints_sent", "enforced_sent",
    )

    def __init__(
        self,
        sim: Simulator,
        config: LamsDlcConfig,
        control_channel: SimplexChannel,
        expected_rtt: float,
        name: str = "lams.rx",
        tracer: Optional[Tracer] = None,
        deliver: Optional[Callable[[Any], None]] = None,
        delivery_interval: Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.control_channel = control_channel
        self.expected_rtt = expected_rtt
        self.name = name
        self.tracer = tracer or Tracer()
        # Explicit None check: callables with __len__ (e.g. DeliveryLog)
        # are falsy when empty and must not be replaced.
        self.deliver = deliver if deliver is not None else (lambda packet: None)
        self.delivery_interval = delivery_interval

        self.cp_index = 0
        self.frontier: Optional[int] = None
        self._next_expected_seq: Optional[int] = None
        self._error_log: dict[int, ErrorEntry] = {}
        # Errors kept past cumulative expiry, for Enforced-NAK responses.
        self._resolving_log: deque[ErrorEntry] = deque()
        self._running = False
        # The periodic Check-Point: a member of the engine round of every
        # receiver started at this instant with this W_cp.
        self._checkpoint_tick: Optional[Periodic] = None
        # The channel this receiver hears I-frames on, when hear() was
        # given one of the simulator's: its agenda, once made, carries
        # the drains.
        self._incoming: Optional[SimplexChannel] = None
        # The arguments every drain is called with: the token of the live
        # drain.  flush() gives its receiver a fresh one, so that a drain
        # it overtook lapses.
        self._drain_args = _SHARED_DRAIN_ARGS
        # The drains since the last payloads_delivered record, ``(times,
        # payloads)``, while the tracer is active; None when there are none.
        self._held: Optional[tuple[list, list]] = None

        # Receive queue: frames waiting for per-frame processing. With no
        # delivery_interval the queue drains at one frame per t_proc.
        self._receive_queue: deque[Any] = deque()
        self._draining = False
        # Per-frame constants hoisted out of the hot path (all fixed for
        # the lifetime of the endpoint).
        self._header_protected = config.header_protected
        self._numbering_size = config.numbering_size
        self._zero_duplication = config.zero_duplication
        self._rx_capacity = config.receive_queue_capacity
        self._checkpoint_interval = config.checkpoint_interval
        # ... and the per-checkpoint ones.
        self._cumulation_depth = config.cumulation_depth
        self._flow_control_enabled = config.flow_control_enabled
        self._high_watermark = config.receive_high_watermark
        self._empty_cframe_bits = config.cframe_bits(0)
        # Bound once: the object every drain entry of this receiver carries.
        self._drain_bound = self._drain_one
        self._drain_delay_value = (
            delivery_interval if delivery_interval is not None
            else config.processing_time
        )
        # How long delivered incarnation ids are remembered.  Duplicates
        # are produced only by enforced recovery, whose retransmissions
        # land within roughly one resolving period plus one failure
        # budget of the original delivery; 4x covers that with margin.
        self._origin_retention_value = 4.0 * config.resolving_period(expected_rtt)
        # Cached occupancy stat for the per-frame enqueue/drain path
        # (created lazily so its start time matches first use).
        self._rxqueue_stat = None
        self._rxqueue_stat_name = f"{self.name}.rxqueue"

        # Zero-duplication extension: stable incarnation identities of
        # recently delivered frames.  Duplicates only arise within the
        # enforced-recovery horizon, so entries expire after a small
        # multiple of the resolving period — bounded memory.
        self._delivered_origins: dict[int, float] = {}
        self._origin_prune_queue: deque[tuple[float, int]] = deque()

        # Statistics.
        self.iframes_received = 0
        self.iframes_corrupted = 0
        self.gap_losses_detected = 0
        self.delivered = 0
        self.discards = 0
        self.duplicates_suppressed = 0
        self.checkpoints_sent = 0
        self.enforced_sent = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Begin periodic checkpoint emission."""
        if self._running:
            raise RuntimeError("receiver already started")
        self._running = True
        self._checkpoint_tick = self.sim.every(
            self._checkpoint_interval, self._emit_periodic_checkpoint)

    def stop(self) -> None:
        """Halt checkpoint emission (link teardown)."""
        self._release_delivered()
        self._running = False
        if self._checkpoint_tick is not None:
            self._checkpoint_tick.cancel()

    @property
    def running(self) -> bool:
        return self._running

    def hear(self, channel: Any) -> None:
        """Wire the channel I-frames arrive on (the pair factory calls this).

        Only a simulator channel has an agenda for the drains to share.
        """
        if isinstance(channel, SimplexChannel):
            self._incoming = channel

    @property
    def resolving_retention(self) -> float:
        """How long error entries stay available for Enforced-NAKs.

        The resolving period bound of Section 3.3 — any error older than
        this has either been recovered or the link has already failed.
        """
        return self.config.resolving_period(self.expected_rtt)

    # -- frame input ----------------------------------------------------------

    def on_iframe(self, frame: IFrame, corrupted: bool) -> None:
        """Handle an arriving I-frame (possibly corrupted)."""
        self.iframes_received += 1
        if corrupted and not self._header_protected:
            # Header unreadable: an effective loss. A later frame's gap
            # or the sender's trailing-loss check will recover it.
            self.iframes_corrupted += 1
            if self.tracer.active:
                self.tracer.emit(self.sim.now, self.name, "iframe_header_lost")
            return

        seq = frame.seq
        # In-order arrival (the overwhelmingly common case) has no gap;
        # only jumps take the full modular-distance path.
        if seq != self._next_expected_seq:
            self._detect_gap(seq)
        self._next_expected_seq = (seq + 1) % self._numbering_size
        frontier = self.frontier
        if frontier is None or frame.transmit_index > frontier:
            self.frontier = frame.transmit_index

        if corrupted:
            self.iframes_corrupted += 1
            self._log_error(seq)
            if self.tracer.active:
                self.tracer.emit(
                    self.sim.now, self.name, "iframe_corrupted", seq=seq
                )
            return

        if self._zero_duplication and self._is_duplicate_incarnation(frame):
            self.duplicates_suppressed += 1
            if self.tracer.active:
                self.tracer.emit(
                    self.sim.now, self.name, "duplicate_suppressed",
                    origin=frame.effective_origin,
                )
            return

        # Into the receive queue (inline: once per valid frame).
        queue = self._receive_queue
        capacity = self._rx_capacity
        if capacity is not None and len(queue) >= capacity:
            # Overflow: discard, but log as erroneous so the cumulative
            # NAK triggers a retransmission — zero loss is preserved.
            self.discards += 1
            self._log_error(seq)
            if self.tracer.active:
                self.tracer.emit(self.sim.now, self.name, "overflow_discard", seq=seq)
            return
        queue.append(frame.payload)
        depth = len(queue)
        now = self.sim.now
        stat = self._rxqueue_stat
        if stat is None:
            stat = self._rxqueue_stat = self.tracer.level_stat(
                self._rxqueue_stat_name, start_time=now
            )
        # Only a new peak is traced: the first depth above any bound is one.
        if self.tracer.active and depth > stat.maximum:
            self.tracer.emit(now, self.name, "rxqueue_peak", depth=depth)
        stat.update(now, depth)
        if not self._draining:
            self._draining = True
            self._schedule_drain(now + self._drain_delay_value)

    # -- zero-duplication extension -----------------------------------------------

    def _is_duplicate_incarnation(self, frame: IFrame) -> bool:
        """Record-and-test the frame's stable incarnation identity."""
        now = self.sim.now
        horizon = now - self._origin_retention_value
        while self._origin_prune_queue and self._origin_prune_queue[0][0] < horizon:
            _, stale = self._origin_prune_queue.popleft()
            self._delivered_origins.pop(stale, None)
        # Inlined IFrame.effective_origin (property call per frame).
        origin = frame.origin
        if origin < 0:
            origin = frame.transmit_index
        if origin in self._delivered_origins:
            return True
        self._delivered_origins[origin] = now
        self._origin_prune_queue.append((now, origin))
        return False

    def on_request_nak(self, frame: RequestNakFrame, corrupted: bool) -> None:
        """Answer a (valid) Request-NAK immediately with an Enforced-NAK."""
        if not self._running:
            return  # a dead receiver answers nothing
        if corrupted:
            # An unreadable probe; the sender's failure timer covers this.
            self.tracer.emit(self.sim.now, self.name, "request_nak_corrupted")
            return
        naks = self._resolving_period_errors()
        self._send_checkpoint(naks=naks, enforced=True)
        self.enforced_sent += 1
        self.tracer.emit(self.sim.now, self.name, "enforced_nak", naks=len(naks))

    # -- gap / error logging -----------------------------------------------------

    def _detect_gap(self, seq: int) -> None:
        """Log losses revealed by a jump in the (sequential) numbering.

        LAMS-DLC issues sequence numbers in transmit order (including
        renumbered retransmissions) and the channel is FIFO, so arriving
        headers carry consecutive numbers; any jump means the skipped
        frames were lost in transit.
        """
        if self._next_expected_seq is None:
            # First frame of the conversation: by link-model assumption 1
            # both ends start from sequence number zero, so a nonzero
            # first arrival reveals the loss of everything before it.
            gap = seq
        else:
            gap = forward_distance(self._next_expected_seq, seq, self._numbering_size)
        if gap == 0:
            return
        start = 0 if self._next_expected_seq is None else self._next_expected_seq
        for offset in range(gap):
            lost = (start + offset) % self._numbering_size
            self._log_error(lost)
        self.gap_losses_detected += gap
        if self.tracer.active:
            self.tracer.emit(
                self.sim.now, self.name, "gap_detected", count=gap, upto=seq
            )

    def _log_error(self, seq: int) -> None:
        if seq in self._error_log:
            return
        entry = ErrorEntry(seq=seq, detect_time=self.sim.now)
        self._error_log[seq] = entry
        self._resolving_log.append(entry)
        if self.tracer.active:
            self.tracer.emit(self.sim.now, self.name, "error_logged", seq=seq)

    def _resolving_period_errors(self) -> tuple[int, ...]:
        """All distinct error seqs logged within the resolving period."""
        horizon = self.sim.now - self.resolving_retention
        while self._resolving_log and self._resolving_log[0].detect_time < horizon:
            self._resolving_log.popleft()
        return tuple(dict.fromkeys(entry.seq for entry in self._resolving_log))

    # -- checkpoint emission ---------------------------------------------------------

    def _emit_periodic_checkpoint(self) -> None:
        self._send_checkpoint(self._cumulative_naks(), enforced=False)

    def _cumulative_naks(self) -> tuple[int, ...]:
        """NAK list for a periodic checkpoint; ages out reported entries."""
        if not self._error_log:
            return ()
        naks = []
        expired = []
        depth = self._cumulation_depth
        for seq, entry in self._error_log.items():
            naks.append(seq)
            entry.reports += 1
            if entry.reports >= depth:
                expired.append(seq)
        for seq in expired:
            del self._error_log[seq]
        return tuple(naks)

    def _send_checkpoint(self, naks: tuple[int, ...], enforced: bool) -> None:
        stop_go = self.stop_indicated()
        index = self.cp_index
        now = self.sim.now
        frame = CheckpointFrame(
            index, now, naks, self.frontier, enforced, stop_go,
            self.config.cframe_bits(len(naks)) if naks else self._empty_cframe_bits,
        )
        self.cp_index = index + 1
        self.checkpoints_sent += 1
        self.control_channel.send(frame)
        if self.tracer.active:
            if self._held is not None:
                self._release_delivered()
            self.tracer.emit(
                now, self.name, "checkpoint_sent",
                index=index, naks=len(naks), enforced=enforced, stop_go=stop_go,
                seqs=naks,
            )

    # -- delivery / flow control --------------------------------------------------------

    def stop_indicated(self) -> bool:
        """Current Stop-Go state of this receiver's queue.

        Public because the co-located sender half piggybacks it onto
        outgoing I-frames (Section 3.1's flow-control piggybacking).
        """
        if not self._flow_control_enabled:
            return False
        return len(self._receive_queue) >= self._high_watermark

    def _schedule_drain(self, when: float) -> None:
        """Drain one frame at *when*: on lane 1 of the incoming channel's
        agenda once it has one, else as a heap entry of its own (inlined
        ``sim.schedule``)."""
        incoming = self._incoming
        agenda = incoming._agenda if incoming is not None else None
        if agenda is not None:
            agenda.add(agenda.lanes[1], when, self._drain_bound, self._drain_args)
            return
        sim = self.sim
        sim._sequence = sequence = sim._sequence + 1
        heappush(sim._heap, (when, sequence, self._drain_bound, self._drain_args))

    def _drain_one(self, token: object) -> None:
        if token is not self._drain_args[0]:
            return  # overtaken by flush()
        queue = self._receive_queue
        packet = queue.popleft()
        now = self.sim.now
        # Queue-depth statistic, inline (once per delivered frame).
        stat = self._rxqueue_stat
        if stat is None:
            stat = self._rxqueue_stat = self.tracer.level_stat(
                self._rxqueue_stat_name, start_time=now
            )
        stat.update(now, len(queue))
        self.delivered += 1
        if self.tracer.active:
            held = self._held
            if held is None:
                held = self._held = ([], [])
                self.tracer.hold(self._release_delivered)
            held[0].append(now)
            held[1].append(packet)
        self.deliver(packet)
        if not queue:
            self._draining = False
        elif self._draining:  # not when flush() is the caller
            self._schedule_drain(self.sim.now + self._drain_delay_value)

    def _release_delivered(self) -> None:
        """Emit the drains held since the last record as one
        ``payloads_delivered``, stamped with the first."""
        held = self._held
        if held is not None:
            self._held = None
            times, payloads = held
            self.tracer.emit(times[0], self.name, "payloads_delivered",
                             times=times, payloads=payloads)

    @property
    def receive_queue_length(self) -> int:
        return len(self._receive_queue)

    def queued_payloads(self) -> list[Any]:
        """Payloads accepted but not yet drained upward (zero-loss ledger:
        these count as held, not lost, at end of run)."""
        return list(self._receive_queue)

    def flush(self) -> int:
        """Deliver every queued payload upward immediately; returns count.

        Checkpoint-acknowledged payloads sitting in the receive queue
        have already been released by the sender's ledger, so a teardown
        that discards this receiver without draining them loses them.
        Graceful-teardown paths (session supervisor recycling an
        endpoint generation) call this before dropping the receiver.
        """
        queue = self._receive_queue
        count = len(queue)
        self._draining = False
        self._drain_args = args = (object(),)  # a pending drain lapses
        while queue:
            self._drain_one(*args)
        self._release_delivered()
        return count

    def __repr__(self) -> str:
        return (
            f"<ReferenceReceiver {self.name} cp={self.cp_index} "
            f"errors={len(self._error_log)} delivered={self.delivered}>"
        )
