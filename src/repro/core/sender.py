"""The LAMS-DLC sender half (paper Sections 3.2–3.4).

The sender transmits I-frames continuously while the link is available
(buffer control never gates the sending rate — only the receiver's
Stop-Go flow control does), and reacts to the receiver's periodic
Check-Point commands:

- **Checkpoint recovery** — every sequence number NAK'd by a checkpoint
  that is still outstanding is retransmitted *once*, under a brand-new
  sequence number (the renumbering that bounds the numbering space).
  NAKs for numbers no longer outstanding mean "already retransmitted"
  and are ignored, exactly as Section 3.2 specifies.
- **Release** — a valid checkpoint implicitly positively-acknowledges
  every covered outstanding frame it does not NAK.  A frame is covered
  once its (deterministically known) arrival time precedes the
  checkpoint's issue time.  Frames covered but beyond the receiver's
  reception frontier were trailing losses — no later arrival existed to
  reveal the gap — and are retransmitted rather than released.
- **Enforced recovery** — no valid checkpoint for ``C_depth * W_cp``
  trips the checkpoint timer: the sender stops sending *new* I-frames,
  probes with a Request-NAK (if the expected response still fits in the
  remaining link lifetime), and starts the failure timer.  A valid
  Enforced-NAK resumes normal operation and retransmits everything it
  lists; failure-timer expiry declares the link failed and informs the
  network layer.

During a suspected failure, plain (non-enforced) checkpoints still
drive checkpoint recovery but do not resume new-frame transmission —
mirroring the paper's "may do Check-Point Recovery but can not send new
I-frames".
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from operator import add
from typing import Any, Callable, Iterable, Optional

from ..simulator.engine import Simulator
from ..simulator.link import SimplexChannel
from ..simulator.trace import Tracer
from .config import LamsDlcConfig
from .flowcontrol import StopGoRateController
from .frames import CheckpointFrame, IFrame, RequestNakFrame
from .sendbuf import SendBuffer
from .seqspace import SequenceSpace

__all__ = ["LamsSender", "PendingRetransmission"]

_INF = float("inf")


@dataclass(slots=True)
class PendingRetransmission:
    """A frame detached from the outstanding window, awaiting renumbering."""

    payload: Any
    enqueue_time: float
    first_send_time: float
    retransmit_count: int
    cause: str  # "nak" | "trailing" | "enforced"
    origin: int = -1
    """Transmit index of the first incarnation (stable identity)."""


class LamsSender:
    """Sender state machine for one direction of a LAMS-DLC link.

    Its state is a fixed set of slots: past 30 attributes an instance
    dict stops sharing its keys (CPython's ``SHARED_KEYS_MAX_SIZE``), and
    an idle constellation reads this state once per checkpoint per link
    (docs/TUNING.md §12).  While its link is parked (:mod:`repro.core.idle`)
    the checkpoint counters and the timer deadline settle before they
    are read, and a packet offered or a stop wakes the link first.
    """

    __slots__ = (
        "sim", "config", "data_channel", "expected_rtt", "name", "tracer",
        "on_failure", "link_start_time", "buffer", "flow",
        "_retransmit_queue", "_next_allowed_send", "_pacing_armed",
        "_started", "stop_go_provider", "_last_piggyback_applied",
        "suspended", "failed", "_awaiting_enforced", "_last_probe_time",
        "_checkpoint_timer", "_failure_timer", "_seen_any_checkpoint",
        "_sendbuf_stat", "_sendbuf_stat_name", "_iframe_bits",
        "_iframe_tx_time", "_piggyback", "_checkpoint_interval",
        "_checkpoint_timeout", "_batch_window", "_step_at", "_steps_left",
        "iframes_sent",
        "retransmissions", "retransmissions_by_cause", "releases",
        "_checkpoints_received", "_checkpoints_corrupted",
        "request_naks_sent", "failures_declared", "_parked",
    )

    def __init__(
        self,
        sim: Simulator,
        config: LamsDlcConfig,
        data_channel: SimplexChannel,
        expected_rtt: float,
        name: str = "lams.tx",
        tracer: Optional[Tracer] = None,
        on_failure: Optional[Callable[[], None]] = None,
        link_start_time: float = 0.0,
    ) -> None:
        self.sim = sim
        self.config = config
        self.data_channel = data_channel
        self.expected_rtt = expected_rtt
        self.name = name
        self.tracer = tracer or Tracer()
        self.on_failure = on_failure or (lambda: None)
        self.link_start_time = link_start_time

        self.buffer = SendBuffer(
            config.send_buffer_capacity, SequenceSpace(config.numbering_size),
        )
        self.flow = StopGoRateController(
            decrease_factor=config.rate_decrease_factor,
            increase_step=config.rate_increase_step,
            min_fraction=config.min_rate_fraction,
            enabled=config.flow_control_enabled,
        )
        self._retransmit_queue: deque[PendingRetransmission] = deque()
        self._next_allowed_send = 0.0
        self._pacing_armed = False
        self._started = False

        # Piggybacked flow control (Section 3.1): outgoing I-frames are
        # stamped with the co-located receiver half's Stop-Go state, and
        # incoming piggybacked bits are applied at most once per
        # checkpoint interval (so AIMD constants keep their meaning).
        self.stop_go_provider: Callable[[], bool] = lambda: False
        self._last_piggyback_applied = -float("inf")

        # Failure handling state.
        self.suspended = False  # suspected failure: no new I-frames
        self.failed = False
        self._awaiting_enforced = False
        self._last_probe_time = -float("inf")
        self._checkpoint_timer = sim.timer(self._on_checkpoint_timeout)
        self._failure_timer = sim.timer(self._on_failure_timeout)
        self._seen_any_checkpoint = False

        self.data_channel.on_idle(self._maybe_send)

        # Cached stat objects for the per-frame paths (created lazily so
        # their start times match first use, exactly like Tracer.level).
        self._sendbuf_stat = None
        self._sendbuf_stat_name = f"{self.name}.sendbuf"

        # Per-frame constants hoisted out of _send_window (the I-frame
        # size and line rate are fixed for the lifetime of the endpoint).
        self._iframe_bits = config.iframe_bits
        self._iframe_tx_time = config.iframe_bits / data_channel.bit_rate
        self._piggyback = config.piggyback_flow_control
        self._checkpoint_interval = config.checkpoint_interval
        self._checkpoint_timeout = config.checkpoint_timeout
        # Channels without send_burst (UDP, stubs) take runs of one.
        self._batch_window = (
            config.batch_window if hasattr(data_channel, "send_burst") else 1
        )
        # A retransmission run's gauge steps not yet taken: the next
        # departure (+inf when none) and how many are left (_settle_steps).
        self._step_at = _INF
        self._steps_left = 0

        # Statistics.
        self.iframes_sent = 0
        self.retransmissions = 0
        self.retransmissions_by_cause = {"nak": 0, "trailing": 0, "enforced": 0}
        self.releases = 0
        self._checkpoints_received = 0
        self._checkpoints_corrupted = 0
        self.request_naks_sent = 0
        self.failures_declared = 0
        # The parked link this sender belongs to, while it is parked.
        self._parked = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Arm the initial watchdog and begin transmitting.

        The paper starts the checkpoint timer at the first received
        checkpoint; we additionally arm a startup watchdog of one RTT
        plus the normal timeout so a receiver that never comes up at all
        is also detected (a strict superset of the paper's behaviour).
        """
        if self._started:
            raise RuntimeError("sender already started")
        self._started = True
        self._checkpoint_timer.start(self.expected_rtt + self._checkpoint_timeout)
        self._maybe_send()

    def stop(self) -> None:
        """Halt all activity (link teardown)."""
        if self._parked is not None:
            self._parked.wake()
        self._checkpoint_timer.cancel()
        self._failure_timer.cancel()
        self.failed = True

    # -- network-layer interface ----------------------------------------------------

    def accept(self, packet: Any) -> bool:
        """Offer a packet for transmission; False if the buffer refuses."""
        return self.accept_many((packet,)) == 1

    def accept_many(self, packets: Iterable[Any]) -> int:
        """Offer *packets* in order up to the first refusal; returns how
        many were accepted.

        The outcome of ``for p in packets: if not accept(p): break``,
        *packets* consumed as lazily.  While the channel is idle each
        packet is its own step, so an idle channel still starts a run of
        one.  Once it is busy nothing can send before the stretch ends,
        and the rest enter in one step: one enqueue, one ``sendbuf``
        sample (the same-instant samples it stands for add nothing to
        the mean) and one ``payloads_accepted`` record at *now*.
        """
        if self._parked is not None:
            self._parked.wake()
        packets = iter(packets)
        buffer = self.buffer
        channel = self.data_channel
        tracer = self.tracer
        accepted = 0
        while not self.failed:
            # Inlined busy-channel test of _maybe_send (try/except is
            # free when no exception fires; the fallback keeps duck-typed
            # channels without the private fields working).
            try:
                busy = channel._transmitting or channel._queue
            except AttributeError:
                busy = not channel.is_idle
            now = self.sim.now
            if self._step_at <= now:
                self._settle_steps()
            entered = buffer.enqueue_many(packets if busy else islice(packets, 1), now)
            if not entered:
                return accepted
            if tracer.active:
                tracer.emit(now, self.name, "payloads_accepted",
                            payloads=buffer.pending_payloads(entered))
            stat = self._sendbuf_stat
            if stat is None:
                stat = self._sendbuf_stat = tracer.level_stat(
                    self._sendbuf_stat_name, start_time=now
                )
            stat.update(now, len(buffer._pending) + buffer.live)
            accepted += entered
            if busy:
                return accepted
            self._maybe_send()
        next(packets, None)  # the one packet a failed sender refuses
        return accepted

    @property
    def checkpoints_received(self) -> int:
        """Intact checkpoints heard."""
        if self._parked is not None:
            self._parked.settle()
        return self._checkpoints_received

    @property
    def checkpoints_corrupted(self) -> int:
        """Corrupted checkpoints heard."""
        if self._parked is not None:
            self._parked.settle()
        return self._checkpoints_corrupted

    @property
    def checkpoint_deadline(self) -> Optional[float]:
        """When the checkpoint timer expires unless a checkpoint arrives
        intact first (None while it is stopped): the last intact arrival
        plus ``C_depth * W_cp``."""
        parked = self._parked
        if parked is not None:
            parked.settle()
            return parked.deadline(self)
        return self._checkpoint_timer.deadline

    @property
    def unresolved_count(self) -> int:
        """Frames not yet known delivered (pending + outstanding + requeued,
        a retransmission still waiting on the transmitter included)."""
        return (self.buffer.occupancy + self._steps_left
                + len(self._retransmit_queue))

    @property
    def pending_count(self) -> int:
        """Frames awaiting *first* transmission (the drainable backlog)."""
        return self.buffer.pending_count

    @property
    def occupancy(self) -> int:
        """Sending-buffer occupancy (pending + outstanding), the ``sendbuf``
        gauge's level: a retransmission counts from its departure."""
        if self._step_at <= self.sim.now:
            self._settle_steps()
        return self.buffer.occupancy

    def held_payloads(self) -> list[Any]:
        """Every payload not yet known delivered (zero-loss accounting).

        Union of pending, outstanding, and requeued-for-retransmission
        frames — on a declared link failure these are exactly the frames
        the network layer can still recover.
        """
        payloads = self.buffer.pending_payloads()
        payloads.extend(item[0] for item in self.buffer.items if item is not None)
        payloads.extend(job.payload for job in self._retransmit_queue)
        return payloads

    # -- transmission loop ------------------------------------------------------------

    def _maybe_send(self) -> None:
        """Transmit the next run if pacing, channel, and state allow."""
        if self.failed or not self._started:
            return
        # Nothing to send is decided first: it is the whole of an idle
        # link's call per checkpoint (its own checkpoint leaving the
        # channel; on_checkpoint calls only with work pending) and
        # touches no channel state.
        retransmissions = self._retransmit_queue
        if not retransmissions and (not self.buffer._pending or self.suspended):
            return
        # Inlined SimplexChannel.is_idle (hot: runs once per idle event
        # and once per accepted packet); falls back to the public
        # property for duck-typed channels without the private fields.
        channel = self.data_channel
        try:
            busy = channel._transmitting or channel._queue
        except AttributeError:
            busy = not channel.is_idle
        if busy:
            return  # the channel's idle callback re-enters here
        now = self.sim.now
        if now < self._next_allowed_send:
            if not self._pacing_armed:
                self._pacing_armed = True
                self.sim.schedule_at(self._next_allowed_send, self._pacing_expired)
            return
        # A window at a time only at line rate on an up channel; a
        # Stop-Go-paced sender needs the gap after every frame.
        flow = self.flow
        at_line_rate = (
            (not flow.enabled or flow._rate >= 1.0)
            and getattr(channel, "_is_up", True)
        )
        if retransmissions:
            # Retransmissions go first, a run of one retransmission count
            # (its iframes_sent record carries one ``retx``).
            count = 1
            if at_line_rate:
                retransmit_count = retransmissions[0].retransmit_count
                for job in islice(retransmissions, 1, self._batch_window):
                    if job.retransmit_count != retransmit_count:
                        break
                    count += 1
            self._send_window(count, retransmission=True)
            return
        count = 1
        if at_line_rate:
            count = min(self._batch_window, len(self.buffer._pending))
        self._send_window(count)

    def _pacing_expired(self) -> None:
        self._pacing_armed = False
        self._maybe_send()

    def _send_window(self, count: int, retransmission: bool = False) -> None:
        """Hand the channel one run: *count* new frames, or *count* queued
        retransmissions of one retransmission count.

        Frames are stamped with their own departure instants — each
        window position carries its own first-send time and expected
        arrival — so what is recorded does not depend on *count*.  One
        ``iframes_sent`` record at *now* describes the run: frame ``k``
        departs at *now* plus ``frame_time`` added ``k`` times, the
        loop's own accumulation.  Sequence numbers are
        derived, not allocated: transmit index ``i`` carries
        ``(i + offset) % modulus``, and :meth:`SendBuffer.admit` stops the
        run short of a number whose previous holder is still live.  A
        first transmission moves one packet from pending to outstanding,
        so one occupancy sample is exact for a run of them; a
        retransmission adds one at its departure, so a run of them steps
        the gauge at the first here and leaves the rest to
        :meth:`_settle_steps`.  What does depend on *count* is the commit
        granularity (docs/TUNING.md §10): the piggybacked Stop-Go bit is
        read once (no simulated time passes inside a window), and
        anything that arrives mid-window waits for its end.
        """
        now = self.sim.now
        if self._step_at <= now:
            self._settle_steps()
        buffer = self.buffer
        channel = self.data_channel
        tx_time = self._iframe_tx_time
        bits = self._iframe_bits
        delay = fixed_delay = getattr(channel, "_fixed_delay", None)
        stop_go = self.stop_go_provider() if self._piggyback else False
        space = buffer.space
        modulus = space.modulus
        count = buffer.admit(count)
        first_index = index = buffer.next_index
        first_seq = seq = (index + space.offset) % modulus
        arrivals = buffer.arrivals
        first_sends = buffer.first_sends
        last_arrival = arrivals[-1] if arrivals else now
        departure = now
        frames: list[IFrame] = []
        if not retransmission:
            pop_pending = buffer._pending.popleft
            batch = [pop_pending() for _ in range(count)]
            retransmit_count = 0
        else:
            pop_job = self._retransmit_queue.popleft
            jobs = [pop_job() for _ in range(count)]
            batch = [(job.payload, job.enqueue_time) for job in jobs]
            retransmit_count = jobs[0].retransmit_count
        for payload, _ in batch:
            frames.append(IFrame(seq, payload, bits, index, -1, stop_go))
            if fixed_delay is None:
                delay = channel.propagation_delay(departure)
            arrival = departure + tx_time + delay
            if arrival < last_arrival:
                buffer.monotone = False  # coverage falls back to a scan
            last_arrival = arrival
            arrivals.append(arrival)
            first_sends.append(departure)
            index += 1
            seq += 1
            if seq == modulus:
                seq = 0
            departure += tx_time
        if not retransmission:
            buffer.retx.extend([None] * count)
        else:
            # A renumbered frame keeps its first incarnation's identity
            # (set before the frames go on the wire) and first-send time.
            by_cause = self.retransmissions_by_cause
            for frame, job in zip(frames, jobs):
                frame.origin = job.origin
                by_cause[job.cause] += 1
            first_sends[-count:] = [job.first_send_time for job in jobs]
            buffer.retx.extend([(retransmit_count, job.origin) for job in jobs])
            self.retransmissions += count
        assert seq == (index + space.offset) % modulus, "seq is derived from index"
        if self.tracer.active:
            self.tracer.emit(
                now, self.name, "iframes_sent", first_index=first_index,
                first_seq=first_seq, count=count, frame_time=tx_time,
                retx=retransmit_count,
            )
        buffer.items.extend(batch)
        if retransmission and count > 1:
            # The first departs now; the others step the gauge as they
            # leave, at now plus frame_time added once per frame before.
            buffer.live += 1
            self._step_at = now + tx_time
            self._steps_left = count - 1
            self.tracer.hold(self._settle_steps)
        else:
            buffer.live += count
        occupancy = len(buffer._pending) + buffer.live
        if occupancy > buffer.peak_occupancy:
            buffer.peak_occupancy = occupancy
        stat = self._sendbuf_stat
        if stat is None:
            stat = self._sendbuf_stat = self.tracer.level_stat(
                self._sendbuf_stat_name, start_time=now
            )
        stat.update(now, occupancy)
        if count == 1:
            channel.send(frames[0])
        else:
            channel.send_burst(frames)
        self.iframes_sent += count
        # Inlined StopGoRateController.inter_frame_gap.  At line rate a run
        # ends at the accumulated departure, the channel's own run-end
        # float (a run of one: now + tx_time either way); the product
        # can land an ulp past it.
        flow = self.flow
        if flow.enabled and flow._rate < 1.0:
            self._next_allowed_send = now + count * tx_time / flow._rate
        else:
            self._next_allowed_send = departure

    def _settle_steps(self) -> None:
        """Step the ``sendbuf`` gauge at every departure due by now of the
        retransmission run on the transmitter.

        A retransmission joins the outstanding frames (``buffer.live``)
        as it departs, so the gauge's area and maximum and
        ``peak_occupancy`` are those of one frame per run to the bit.
        Everything that changes or reads occupancy settles first (the
        gauge updates, ``occupancy``, :meth:`on_checkpoint`); so does
        ``Tracer.settle``, through the hold :meth:`_send_window` makes.
        """
        when = self._step_at
        now = self.sim.now
        if when > now:
            if self._steps_left:
                self.tracer.hold(self._settle_steps)
            return
        buffer = self.buffer
        pending = len(buffer._pending)
        update = self._sendbuf_stat.update
        tx_time = self._iframe_tx_time
        left = self._steps_left
        while True:
            buffer.live += 1
            occupancy = pending + buffer.live
            update(when, occupancy)
            if occupancy > buffer.peak_occupancy:
                buffer.peak_occupancy = occupancy
            left -= 1
            if not left:
                when = _INF
                break
            when += tx_time
            if when > now:
                self.tracer.hold(self._settle_steps)
                break
        self._step_at = when
        self._steps_left = left

    # -- piggybacked flow control -------------------------------------------------------

    def note_piggyback_stop_go(self, stop: bool) -> None:
        """Apply a Stop-Go bit piggybacked on an incoming I-frame.

        Rate-limited to one application per checkpoint interval;
        frame-rate application would re-scale the AIMD constants.
        """
        if not self._piggyback or self.failed:
            return
        if self.sim.now - self._last_piggyback_applied < self._checkpoint_interval:
            return
        self._last_piggyback_applied = self.sim.now
        self.flow.on_stop_go(stop)

    # -- checkpoint handling -----------------------------------------------------------

    def on_checkpoint(self, cp: CheckpointFrame, corrupted: bool) -> None:
        """Process an arriving Check-Point / Enforced-NAK command."""
        if self.failed:
            return
        if corrupted:
            self._checkpoints_corrupted += 1
            self.tracer.emit(self.sim.now, self.name, "checkpoint_corrupted")
            return
        self._checkpoints_received += 1
        self._seen_any_checkpoint = True
        self._checkpoint_timer.start(self._checkpoint_timeout)
        self.flow.on_stop_go(cp.stop_go)

        if self._awaiting_enforced:
            if cp.enforced:
                self._failure_timer.cancel()
                self._awaiting_enforced = False
                self.suspended = False
                self.tracer.emit(self.sim.now, self.name, "enforced_recovery_complete")
            # A plain checkpoint while we await the Enforced-NAK means the
            # link is alive but our Request-NAK was lost (e.g. swallowed
            # by the tail of an outage).  Re-probe — each Request-NAK
            # "triggers the failure timer" (Section 3.2), so the failure
            # budget restarts per probe; total failure-detection latency
            # stays bounded because probes only repeat while checkpoints
            # keep arriving, i.e. while the receiver is demonstrably up.
            elif self.sim.now - self._last_probe_time >= self.expected_response_time:
                self._send_request_nak()

        # An empty window (the idle link's every checkpoint) has no
        # number a NAK could name and nothing to cover.
        buffer = self.buffer
        if buffer.items:
            if self._step_at <= self.sim.now:
                self._settle_steps()  # before a NAK or release moves the window
            if cp.naks:
                # A NAK'd number that is no longer live was already
                # retransmitted under a new number (Section 3.2): ignored.
                cause = "enforced" if cp.enforced else "nak"
                position_of = buffer.position_of
                for seq in cp.naks:
                    position = position_of(seq)
                    if position is not None:
                        self._requeue(position, cause)

            # While a failure check is in progress, plain checkpoints drive
            # retransmission only — never release.  A checkpoint issued after
            # a NAK entry expired could otherwise release a frame whose
            # NAK reports were all lost; the Enforced-NAK's resolving-period
            # list is the authoritative resync point (Section 3.2), and the
            # resolving-period retention is sized so that list still carries
            # the frame.  This is the paper's "may do Check-Point Recovery
            # but can not send new I-frames" state.
            if not self._awaiting_enforced:
                self._release_covered(cp)
        # Only with work pending: an idle link's checkpoint has none.
        if self._retransmit_queue or buffer._pending:
            self._maybe_send()

    def _requeue(self, position: int, cause: str) -> None:
        """Detach a window position for renumbered retransmission."""
        buffer = self.buffer
        payload, enqueue_time, first_send, count, origin = buffer.detach(position)
        self._retransmit_queue.append(PendingRetransmission(
            payload, enqueue_time, first_send, count + 1, cause, origin,
        ))
        if self.tracer.active:
            self.tracer.emit(
                self.sim.now, self.name, "requeue",
                seq=buffer.space.seq_of(buffer.base + position), cause=cause,
            )

    def _release_covered(self, cp: CheckpointFrame) -> None:
        """Resolve the frames the checkpoint covers and did not NAK.

        A frame is covered when it reached the receiver (deterministic
        arrival time, plus its processing time) before the checkpoint
        was issued.  Covered and within the frontier ⇒ delivered (the
        NAK pass has already detached the ones that were not); beyond
        the frontier ⇒ trailing loss ⇒ retransmit.  Every covered frame
        is resolved one way or the other, so the covered prefix of the
        window is dropped whole.

        An Enforced-NAK additionally bounds how far back its error list
        can vouch: the receiver's resolving log only retains errors for
        one resolving period (Section 3.3).  Covered frames *older* than
        that window are ambiguous — their NAK reports may all have been
        lost and already expired — so enforced recovery conservatively
        retransmits them instead of releasing.  This is the corner where
        the paper admits possible duplication; the destination
        resequencer removes any duplicates, and zero loss is preserved.
        """
        buffer = self.buffer
        items = buffer.items
        base = buffer.base
        live_before = buffer.live
        covered = buffer.covered(cp.issue_time, self.config.processing_time)
        # Positions up to the reception frontier, then the trailing ones
        # (``covered`` is sorted, and a range when arrivals are monotone).
        frontier = cp.frontier
        cut = 0 if frontier is None else bisect_left(covered, frontier - base + 1)
        within = covered[:cut]
        if cp.enforced:
            arrivals = buffer.arrivals
            vouch_horizon = cp.issue_time - self.config.resolving_period(self.expected_rtt)
            for position in within:
                if items[position] is not None and arrivals[position] < vouch_horizon:
                    self._requeue(position, "enforced")
        for position in covered[cut:]:
            if items[position] is not None:
                self._requeue(position, "trailing")
        if buffer.live < len(items):  # tombstones: skip them
            within = [position for position in within if items[position] is not None]
        if within:
            self._release(within)
        resolved = len(covered)
        if not buffer.monotone:
            # No covered prefix: tombstone the released, drop what leads.
            for position in within:
                items[position] = None
            resolved = next((p for p, item in enumerate(items) if item is not None), len(items))
        buffer.drop_prefix(resolved)
        if buffer.live != live_before:
            self._record_occupancy()

    def _release(self, positions) -> None:
        """Release live window *positions* as delivered (holding time ends now)."""
        buffer = self.buffer
        now = self.sim.now
        first_sends = buffer.first_sends
        holdings = [now - first_sends[position] for position in positions]
        # One float addition per sample, in transmit order (not sum(),
        # whose rounding is the interpreter's business).
        buffer.holding_time_sum = reduce(add, holdings, buffer.holding_time_sum)
        buffer.holding_samples += len(holdings)
        self.tracer.sample_stat(f"{self.name}.holding_time").extend(holdings)
        if self.tracer.active:
            space, retx = buffer.space, buffer.retx
            start, modulus = buffer.base + space.offset, space.modulus
            self.tracer.emit(
                now, self.name, "iframes_released",
                seqs=[(start + position) % modulus for position in positions],
                holdings=holdings,
                retx=[0 if count is None else count[0]
                      for count in map(retx.__getitem__, positions)],
            )
        buffer.live -= len(holdings)
        self.releases += len(holdings)

    # -- failure handling -------------------------------------------------------------

    @property
    def expected_response_time(self) -> float:
        """Normal Request-NAK → Enforced-NAK turnaround (Section 3.2)."""
        return self.expected_rtt + self.config.processing_time

    def _remaining_lifetime(self) -> Optional[float]:
        if self.config.link_lifetime is None:
            return None
        return self.link_start_time + self.config.link_lifetime - self.sim.now

    def _on_checkpoint_timeout(self) -> None:
        """No valid checkpoint for C_depth * W_cp: suspect link failure.
        On a parked link the checkpoints of its span may have restarted
        the timer; the parked link decides."""
        if self.failed:
            return
        if self._parked is not None and not self._parked.expired(self):
            return
        self.tracer.emit(self.sim.now, self.name, "checkpoint_timeout")
        remaining = self._remaining_lifetime()
        response_budget = self.expected_response_time + self._checkpoint_timeout
        if remaining is not None and remaining < response_budget:
            # Unrecoverable within the link lifetime: fail immediately.
            self._declare_failure()
            return
        self.suspended = True
        self._awaiting_enforced = True
        self._send_request_nak()

    def _send_request_nak(self) -> None:
        probe = RequestNakFrame(request_time=self.sim.now)
        self.data_channel.send(probe)
        self.request_naks_sent += 1
        self._last_probe_time = self.sim.now
        self._failure_timer.start(
            self.expected_response_time + self._checkpoint_timeout
        )
        self.tracer.emit(self.sim.now, self.name, "request_nak_sent")

    def _on_failure_timeout(self) -> None:
        """Neither Enforced-NAK nor resolving command arrived: link failed."""
        if self.failed:
            return
        self._declare_failure()

    def _declare_failure(self) -> None:
        self.failed = True
        self.failures_declared += 1
        self._checkpoint_timer.cancel()
        self._failure_timer.cancel()
        self.tracer.emit(self.sim.now, self.name, "link_failure_declared")
        self.on_failure()

    # -- instrumentation ----------------------------------------------------------------

    def _record_occupancy(self) -> None:
        now = self.sim.now
        if self._step_at <= now:
            self._settle_steps()
        stat = self._sendbuf_stat
        if stat is None:
            stat = self._sendbuf_stat = self.tracer.level_stat(
                self._sendbuf_stat_name, start_time=now
            )
        stat.update(now, self.buffer.occupancy)

    @property
    def mean_holding_time(self) -> float:
        return self.buffer.mean_holding_time

    def __repr__(self) -> str:
        return (
            f"<LamsSender {self.name} sent={self.iframes_sent} "
            f"retx={self.retransmissions} released={self.releases} "
            f"suspended={self.suspended} failed={self.failed}>"
        )
