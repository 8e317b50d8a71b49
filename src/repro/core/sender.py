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

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from functools import reduce
from itertools import chain, islice, repeat
from operator import add, itemgetter, mul, sub
from typing import Any, Callable, Iterable, Optional, Sequence

from ..simulator.engine import _AFTER, Simulator
from ..simulator.link import SimplexChannel
from ..simulator.trace import Tracer
from .config import LamsDlcConfig
from .flowcontrol import StopGoRateController
from .frames import CheckpointFrame, IFrame, RequestNakFrame
from .sendbuf import SendBuffer
from .seqspace import SequenceSpace

__all__ = ["LamsSender", "PendingRetransmission"]

_INF = float("inf")

WINDOW = 64
"""Most frames the sender hands a channel as one run (``send_burst``): new
frames, or queued retransmissions of one retransmission count.  A run is
an engine cost, not a protocol fact: what would change the next frame a
one-frame sender sends takes the run's undeparted tail back
(:meth:`LamsSender._taken_back`).  Channels without ``send_burst`` take
runs of one."""


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


class _Run:
    """The run a sender has handed its channel: frame ``k`` departs at
    ``departures[k]`` (``frame_time`` added ``k`` times to the first; one
    more entry, the run's end) and is expected at ``arrivals[k]``.
    ``jobs`` are the retransmissions it carries (None: new frames, the
    head of the pending queue).  The first ``left`` frames have departed
    and are in the window; the first ``told`` of those are in
    ``iframes_sent`` records."""

    __slots__ = ("frames", "departures", "arrivals", "jobs", "first_index",
                 "ordered", "left", "told")

    def __init__(self, frames: list, departures: list, arrivals: list,
                 jobs: Optional[list], first_index: int, ordered: bool) -> None:
        self.frames = frames
        self.departures = departures
        self.arrivals = arrivals
        self.jobs = jobs
        self.first_index = first_index
        self.ordered = ordered  # arrivals nondecreasing within the run
        self.left = 0
        self.told = 0


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
        "_checkpoint_timeout", "_window", "_run", "_step_at", "_stop_source", "_stamps",
        "_iframes_sent", "_retransmissions", "_by_cause", "releases",
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
        # The receiver half behind stop_go_provider (the endpoint sets
        # it), and while the channel holds frames of a run of several:
        # ``(first index, departures, bit at the first, last index)``.
        self._stop_source: Any = None
        self._stamps: Optional[tuple] = None

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
        # Channels without send_burst (UDP, stubs) take runs of one; one
        # that takes runs hands their undeparted tails back here.
        self._window = 1
        if hasattr(data_channel, "send_burst"):
            self._window = WINDOW
            data_channel._tail_sink = self
        # The run on the transmitter (None when none) and its next
        # departure not yet in the window (+inf when none): _settle_steps.
        self._run: Optional[_Run] = None
        self._step_at = _INF

        # Statistics.
        self._iframes_sent = 0
        self._retransmissions = 0
        self._by_cause = {"nak": 0, "trailing": 0, "enforced": 0}
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
        self._recall()

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

    # What follows reads the sender as a one-frame sender would stand:
    # the run on the transmitter counts up to its last departure.

    @property
    def iframes_sent(self) -> int:
        """I-frames that have departed, retransmissions included."""
        self._settle_steps()
        return self._iframes_sent

    @property
    def retransmissions(self) -> int:
        """Retransmissions that have departed."""
        self._settle_steps()
        return self._retransmissions

    @property
    def retransmissions_by_cause(self) -> dict[str, int]:
        """:attr:`retransmissions` by the cause that requeued each."""
        self._settle_steps()
        return self._by_cause

    @property
    def unresolved_count(self) -> int:
        """Frames not yet known delivered (pending + outstanding + requeued,
        a retransmission still waiting on the transmitter included)."""
        self._settle_steps()
        return self.buffer.occupancy + len(self._retransmit_queue)

    @property
    def pending_count(self) -> int:
        """Frames awaiting *first* transmission (the drainable backlog): a
        run of new frames on the transmitter leaves the queue as it departs."""
        waiting = len(self.buffer._pending)
        run = self._run
        if run is not None and run.jobs is None and self._step_at <= self.sim.now:
            waiting -= self._departed(run) - run.left
        return waiting

    @property
    def occupancy(self) -> int:
        """Sending-buffer occupancy (pending + outstanding), the ``sendbuf``
        gauge's level: a frame joins the window at its departure."""
        self._settle_steps()
        return self.buffer.occupancy

    def held_payloads(self) -> list[Any]:
        """Every payload not yet known delivered (zero-loss accounting).

        Union of pending, outstanding, and requeued-for-retransmission
        frames — on a declared link failure these are exactly the frames
        the network layer can still recover.
        """
        self._settle_steps()
        payloads = self.buffer.pending_payloads()
        payloads.extend(item[0] for item in self.buffer.items if item is not None)
        payloads.extend(job.payload for job in self._retransmit_queue)
        return payloads

    # -- transmission loop ------------------------------------------------------------

    def _maybe_send(self) -> None:
        """Transmit the next run if pacing, channel, and state allow."""
        if self.failed or not self._started:
            return
        if self._run is not None:
            self._settle_steps()  # the run that just left joins the window
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
        # A run at a time only at line rate on an up channel; a
        # Stop-Go-paced sender needs the gap after every frame.
        flow = self.flow
        window = self._window
        if (flow.enabled and flow._rate < 1.0) or not getattr(channel, "_is_up", True):
            window = 1
        if retransmissions:
            # Retransmissions go first, a run of one retransmission count
            # (its iframes_sent record carries one ``retx``).
            count = 1
            retransmit_count = retransmissions[0].retransmit_count
            for job in islice(retransmissions, 1, window):
                if job.retransmit_count != retransmit_count:
                    break
                count += 1
            self._send_window(count, retransmission=True)
            return
        self._send_window(min(window, len(self.buffer._pending)))

    def _pacing_expired(self) -> None:
        self._pacing_armed = False
        self._maybe_send()

    def _send_window(self, count: int, retransmission: bool = False) -> None:
        """Hand the channel one run: the next *count* new frames, or the
        next *count* queued retransmissions, of one retransmission count.

        Frames are stamped with their own departure instants — frame
        ``k`` departs at *now* plus ``frame_time`` added ``k`` times, the
        loop's own accumulation — and each joins the window, the counters
        and the ``sendbuf`` gauge as it departs (:meth:`_settle_steps`),
        so a read stands where a one-frame sender's would.  Sequence
        numbers are derived, not allocated: transmit index ``i`` carries
        ``(i + offset) % modulus``, and :meth:`SendBuffer.admit` stops the
        run short of a number whose previous holder is still live.  What
        would change the next frame a one-frame sender sends takes the
        undeparted tail back (:meth:`_taken_back`); the piggybacked
        Stop-Go bit is read at the first departure, and each later frame
        is stamped with its own departure's when the channel decides it
        (:meth:`_stamp`).
        """
        now = self.sim.now
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
        seq = (index + space.offset) % modulus
        if retransmission:
            jobs = list(islice(self._retransmit_queue, count))
            payloads = [job.payload for job in jobs]
        else:
            jobs = None
            payloads = map(itemgetter(0), islice(buffer._pending, count))
        frames: list[IFrame] = []
        departures: list[float] = []
        arrivals: list[float] = []
        departure = last_arrival = now
        ordered = True
        for payload in payloads:
            frames.append(IFrame(seq, payload, bits, index, -1, stop_go))
            if fixed_delay is None:
                delay = channel.propagation_delay(departure)
            arrival = departure + tx_time + delay
            if arrival < last_arrival:
                ordered = False
            last_arrival = arrival
            departures.append(departure)
            arrivals.append(arrival)
            index += 1
            seq += 1
            if seq == modulus:
                seq = 0
            departure += tx_time
        # Where the next may depart: the run's end, or paced (Stop-Go's
        # inter-frame gap, StopGoRateController.inter_frame_gap inlined).
        flow = self.flow
        if flow.enabled and flow._rate < 1.0:
            departure = now + tx_time / flow._rate  # a paced run is of one
        departures.append(departure)
        if jobs is not None:
            # A renumbered frame keeps its first incarnation's identity
            # (set before the frames go on the wire).
            for frame, job in zip(frames, jobs):
                frame.origin = job.origin
        self._run = _Run(frames, departures, arrivals, jobs, first_index, ordered)
        source = self._stop_source
        if count > 1 and self._piggyback and flow.enabled and source is not None:
            # Its bit may change while the run leaves: _stamp.
            source._stop_changes = []
            self._stamps = (first_index, departures, stop_go, index - 1)
        if count == 1:
            self._apply(1)
            self._finish()
            channel.send(frames[0])
        else:
            self._step_at = now  # the first departs now: the next settle has it
            self.tracer.hold(self._tell_held)
            channel.send_burst(frames)

    def _apply(self, upto: int) -> None:
        """Move the run's frames up to position *upto* (exclusive), which
        have departed, into the window: each at its departure leaves the
        pending or retransmission queue, is counted, and steps the
        ``sendbuf`` gauge, as a one-frame sender records each send.  The
        next may depart at the next one's departure."""
        run = self._run
        start = run.left
        count = upto - start
        if count <= 0:
            return
        run.left = upto
        buffer = self.buffer
        pending = buffer._pending
        departures = run.departures[start:upto]
        self._next_allowed_send = run.departures[upto]
        stat = self._sendbuf_stat
        if stat is None:
            stat = self._sendbuf_stat = self.tracer.level_stat(
                self._sendbuf_stat_name, start_time=departures[0]
            )
        jobs = run.jobs
        if jobs is None:
            # A new frame moves within the level, and each departure adds
            # its interval's area: TimeWeightedStat.update's arithmetic,
            # one float operation at a time in departure order.
            level = len(pending) + buffer.live
            if count == 1:
                stat._area += level * (departures[0] - stat._last_time)
            else:
                steps = map(sub, departures, chain((stat._last_time,), departures))
                stat._area = reduce(add, map(mul, repeat(level), steps), stat._area)
            stat._last_time = departures[-1]
            pop = pending.popleft
            buffer.items.extend([pop() for _ in range(count)])
            buffer.first_sends.extend(departures)
            buffer.retx.extend([None] * count)
            buffer.live += count
        else:
            jobs = jobs[start:upto]
            pop = self._retransmit_queue.popleft
            for _ in range(count):
                pop()
            buffer.items.extend([(job.payload, job.enqueue_time) for job in jobs])
            buffer.first_sends.extend([job.first_send_time for job in jobs])
            buffer.retx.extend([(job.retransmit_count, job.origin) for job in jobs])
            by_cause = self._by_cause
            for job in jobs:
                by_cause[job.cause] += 1
            self._retransmissions += count
            # A retransmission joins the occupancy as it departs.
            waiting = len(pending)
            update = stat.update
            for when in departures:
                buffer.live += 1
                occupancy = waiting + buffer.live
                update(when, occupancy)
                if occupancy > buffer.peak_occupancy:
                    buffer.peak_occupancy = occupancy
        arrivals = run.arrivals[start:upto]
        column = buffer.arrivals
        if buffer.monotone and ((column and arrivals[0] < column[-1]) or not run.ordered and any(
                later < earlier for earlier, later in zip(arrivals, arrivals[1:]))):
            buffer.monotone = False  # coverage falls back to a scan
        column.extend(arrivals)
        self._iframes_sent += count

    def _settle_steps(self) -> None:
        """Move the frames of the run on the transmitter that have departed
        by now into the window (:meth:`_apply`).  At a departure's own
        instant a frame has departed for a planned delivery and between
        runs of the engine, and not yet for a numbered entry: that entry
        ran before the one-frame sender's send (docs/TUNING.md §10).
        Everything that reads or changes the sender settles first, and so
        does ``Tracer.settle`` (:meth:`_tell_held`)."""
        run = self._run
        if run is None:
            return
        upto = self._departed(run)
        self._apply(upto)
        if upto == len(run.frames):
            self._finish()
        else:
            self._step_at = run.departures[upto]

    def _departed(self, run: _Run) -> int:
        """How many frames of *run* have departed by now (the first as the
        run was handed over)."""
        sim = self.sim
        bisect = bisect_right if sim._order >= _AFTER else bisect_left
        return bisect(run.departures, sim.now, run.left or 1, len(run.frames))

    def _tell(self) -> None:
        """Emit one ``iframes_sent`` record of the run's departed frames
        not yet recorded, at the first one's departure."""
        run = self._run
        start = run.told
        if run.left > start and self.tracer.active:
            index = run.first_index + start
            self.tracer.emit(
                run.departures[start], self.name, "iframes_sent", first_index=index,
                first_seq=self.buffer.space.seq_of(index), count=run.left - start,
                frame_time=self._iframe_tx_time,
                retx=0 if run.jobs is None else run.jobs[0].retransmit_count,
            )
        run.told = run.left

    def _finish(self) -> None:
        """The run is final (its last frame departed, or the rest were
        taken back): record it and forget it."""
        if self.tracer.active:
            self._tell()
        self._run = None
        self._step_at = _INF

    def _tell_held(self) -> None:
        """``Tracer.settle``: settle the run, record what of it has
        departed, and hold the rest."""
        self._settle_steps()
        if self._run is not None:
            self._tell()
            self.tracer.hold(self._tell_held)

    def _recall(self) -> None:
        """Take the undeparted tail of the run on the transmitter back
        (the channel calls :meth:`_taken_back`).  A duck-typed channel
        that takes runs but cannot give frames back keeps them."""
        if self._run is not None and hasattr(self.data_channel, "take_back"):
            self.data_channel.take_back()

    def _stamp(self, frames: Sequence[IFrame]) -> None:
        """The channel decides *frames* of the run: each carries the
        piggybacked Stop-Go bit of its own departure, as a one-frame
        sender reads it at each send.  The receiver half, settled to now,
        has logged where its bit changed since the run was handed over;
        a change at a departure's instant is the frame's unless it came
        at a planned delivery, which runs after the send."""
        first, departures, bit, last = self._stamps
        source = self._stop_source
        if source._next_settle <= self.sim.now:
            source._settle()  # the changes up to now
        changes = source._stop_changes
        if changes:
            for frame in frames:
                if frame.transmit_index == first:
                    continue  # read as the run was handed over
                when = departures[frame.transmit_index - first]
                stop = bit
                for change, key, value in changes:
                    if change > when or (change == when and key >= _AFTER):
                        break
                    stop = value
                frame.stop_go = stop
        if frames[-1].transmit_index == last:  # the run's last frame sent
            source._stop_changes = None
            self._stamps = None

    def _taken_back(self, count: int) -> None:
        """The channel gave the run's last *count* frames back undeparted:
        they were never sent.  The frames before them have departed; the
        payloads or jobs of the rest are still at the head of their queue,
        and the next run may start where they would have departed."""
        run = self._run
        kept = len(run.frames) - count
        self._apply(kept)
        if self._stamps is not None:
            self._stamps = self._stamps[:3] + (run.first_index + kept - 1,)
        self._finish()

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
        if self._run is not None and self.flow._rate < 1.0:
            self._recall()  # paced from the next frame on

    # -- checkpoint handling -----------------------------------------------------------

    def on_checkpoint(self, cp: CheckpointFrame, corrupted: bool) -> None:
        """Process an arriving Check-Point / Enforced-NAK command."""
        if self.failed:
            return
        if self._step_at <= self.sim.now:
            self._settle_steps()  # before a NAK, a release or a record
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
        run = self._run
        if run is not None and ((self._retransmit_queue and run.jobs is None)
                                or (self.flow.enabled and self.flow._rate < 1.0)):
            # A one-frame sender sends the retransmissions next, or paces.
            self._recall()
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
        if self._step_at <= self.sim.now:
            self._settle_steps()
        self.tracer.emit(self.sim.now, self.name, "checkpoint_timeout")
        remaining = self._remaining_lifetime()
        response_budget = self.expected_response_time + self._checkpoint_timeout
        if remaining is not None and remaining < response_budget:
            # Unrecoverable within the link lifetime: fail immediately.
            self._declare_failure()
            return
        self.suspended = True
        self._awaiting_enforced = True
        self._send_request_nak()  # a control frame: the channel takes the run back

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
        self._recall()
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
