"""The LAMS-DLC receiver half (paper Sections 3.1–3.2).

Responsibilities, straight from the protocol description:

1. Deliver valid I-frames upward *immediately* — out of order is fine
   (the relaxed in-sequence constraint); the destination resequences.
2. Detect erroneous I-frames (corrupted payloads, and losses revealed
   by sequence-number gaps) and log them.
3. Every ``W_cp`` seconds, emit a Check-Point command carrying the
   cumulative NAK list: each error entry is repeated in ``C_depth``
   consecutive checkpoints, then expires.
4. Answer a Request-NAK immediately with an Enforced-NAK listing every
   error logged within the resolving period.
5. Drive flow control: set the Stop-Go bit while the receive queue is
   above its watermark, and — if truly overflowing — discard I-frames
   *but log them as erroneous* so the cumulative NAK recovers them
   (keeping the zero-loss guarantee even under congestion).

The receiver sends checkpoint commands for as long as it is running,
"so long as the link is active" — even during a suspected failure.

A receiver takes I-frames as runs: :meth:`LamsReceiver.on_run` a run the
channel has decided (``hear`` wires it), :meth:`LamsReceiver.on_iframe`
a frame handed over on its own, as a run of one.  A run waits as
*pending arrivals*, each clean frame's delivery is planned at once by the
receive queue's recurrence ``d = max(a, d_prev) + t_proc`` as one agenda
item, keyed by the engine's same-instant rule to run after every
numbered entry at its instant, and the arrivals — with the deliveries
already made — are applied in order, each at its own time, by
``_settle``, at the top of everything that reads the receiver's state.
Traced or not, a run is taken the same way and takes the same items:
its deliveries, and the piggybacked Stop-Go bit's (docs/TUNING.md §10).

While its tracer is active the records of an arrival — a corruption, a
gap, a duplicate or discard, a new queue peak — go out with the settle
that applies it, each stamped with its arrival, after the incoming
channel's records of the runs that have landed: so before the next
``checkpoint_sent``.  The receiver traces a checkpoint interval's
drains, not a drain: one ``payloads_delivered`` record (``times``,
``payloads``) just ahead of each ``checkpoint_sent`` record, and in
:meth:`LamsReceiver.flush`, :meth:`LamsReceiver.stop` and
``Tracer.settle``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from heapq import heappush
from itertools import count, islice
from typing import Any, Callable, Optional, Sequence

from ..simulator.engine import _AFTER, Periodic, Simulator
from ..simulator.link import SimplexChannel
from ..simulator.trace import Tracer
from .config import LamsDlcConfig
from .frames import CheckpointFrame, IFrame, RequestNakFrame
from .idle import park
from .seqspace import forward_distance

__all__ = ["LamsReceiver", "ErrorEntry"]


@dataclass(slots=True)
class ErrorEntry:
    """One erroneous I-frame awaiting recovery via cumulative NAKs."""

    seq: int
    detect_time: float
    reports: int = 0


# The token every drain carries until its receiver's first flush(): one
# object all receivers share.
_SHARED_DRAIN_TOKEN = object()
_INF = math.inf
# A run's dropped positions when it has none.
_NONE: dict = {}


class _Run:
    """I-frames taken and not all applied yet: frame ``k`` lands at
    ``times[k]``, numbered ``first + k``, corrupted when ``verdicts[k]``;
    ``next`` is the first not applied; ``dropped`` maps a clean frame's
    position to True (a duplicate) or False (a discard), as projected when
    the run was taken."""

    __slots__ = ("times", "frames", "verdicts", "first", "next", "dropped")

    def __init__(self, times: Sequence[float], frames: Sequence[IFrame],
                 verdicts: Sequence[bool], first: int) -> None:
        self.times = times
        self.frames = frames
        self.verdicts = verdicts
        self.first = first
        self.next = 0
        self.dropped = _NONE


def _settled(slot: str, doc: Optional[str] = None) -> property:
    """A read of the receiver's *slot* that settles it first."""
    def read(receiver: "LamsReceiver") -> Any:
        receiver._settle_due()
        return getattr(receiver, slot)
    return property(read, doc=doc)


class LamsReceiver:
    """Receiver state machine for one direction of a LAMS-DLC link.

    Its state is a fixed set of slots, as
    :class:`~repro.core.sender.LamsSender`'s is and for the same reason.
    """

    __slots__ = (
        "sim", "config", "control_channel", "expected_rtt", "name",
        "tracer", "deliver", "delivery_interval", "_cp_index", "_frontier",
        "_next_expected_seq", "_error_log", "_resolving_log", "_running",
        "_checkpoint_tick", "_incoming", "_drain_token", "_held",
        "_depth", "_due", "_made", "_pending", "_next_settle",
        "_stop_go_sink", "_stop_go_armed", "_stop_changes", "_header_protected",
        "_numbering_size", "_zero_duplication", "_rx_capacity",
        "_checkpoint_interval", "_cumulation_depth",
        "_flow_control_enabled", "_high_watermark", "_empty_cframe_bits",
        "_drain_bound", "_drain_delay_value", "_origin_retention_value",
        "_rxqueue_stat", "_rxqueue_stat_name", "_delivered_origins",
        "_origin_prune_queue", "_received", "_corrupted", "_gaps",
        "_duplicates", "_discards", "delivered",
        "_checkpoints_sent", "enforced_sent", "_parked",
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
        # The receive queue's recurrence must never plan a drain into the past.
        if delivery_interval is not None and not 0 <= delivery_interval < _INF:
            raise ValueError("delivery_interval must be non-negative and finite, "
                             f"got {delivery_interval!r}")
        self.delivery_interval = delivery_interval

        self._cp_index = 0
        self._frontier: Optional[int] = None
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
        # The token the live drains carry.  flush() gives its receiver a
        # fresh one, so that a drain it overtook lapses.
        self._drain_token = _SHARED_DRAIN_TOKEN
        # The drains since the last payloads_delivered record, ``(times,
        # payloads)``, while the tracer is active; None when there are none.
        self._held: Optional[tuple[list, list]] = None

        # Receive queue.  With no delivery_interval it drains at one frame
        # per t_proc, so each payload's delivery is planned when it is
        # known, as an item ``(when, _AFTER + arrival number, _drain_one,
        # (token, payload))``.  ``_due`` holds the items not yet replayed
        # into ``_depth`` and the gauge by ``_settle``, oldest first; once
        # settled, the first ``_depth`` of them are the queue proper (their
        # payloads have arrived) and the rest are owed to pending arrivals.
        # While arrivals are pending, the first ``_made`` of them have been
        # made and wait for ``_settle`` too; with none pending, a delivery
        # settles itself as it is made.
        self._depth = 0
        self._due: deque[tuple] = deque()
        self._made = 0
        # The runs not yet fully arrived, oldest first, and the earliest
        # arrival or delivery not yet settled.
        self._pending: list[_Run] = []
        self._next_settle = _INF
        # The co-located sender, whose piggybacked Stop-Go bits a run's
        # frames carry (hear() sets it), and whether an item applies the
        # next one.
        self._stop_go_sink: Any = None
        self._stop_go_armed = False
        # While the co-located sender has a run on the transmitter: where
        # stop_indicated() changes, ``(time, key, bit)`` in the order the
        # replay meets them (LamsSender._stamp).
        self._stop_changes: Optional[list] = None
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
        self._origin_prune_queue: deque[tuple[float, int, Optional[float]]] = deque()

        # Statistics (the arrival counts are read through properties,
        # which settle first).
        self._received = 0
        self._corrupted = 0
        self._gaps = 0
        self.delivered = 0
        self._discards = 0
        self._duplicates = 0
        self._checkpoints_sent = 0
        self.enforced_sent = 0
        # The parked link this receiver belongs to, while it is parked.
        self._parked = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Begin periodic checkpoint emission."""
        if self._running:
            raise RuntimeError("receiver already started")
        self._running = True
        self._checkpoint_tick = self.sim.every(
            self._checkpoint_interval, self._send_checkpoint)

    def stop(self) -> None:
        """Halt checkpoint emission (link teardown)."""
        if self._parked is not None:
            self._parked.wake()
        self._settle_due()
        self._release_delivered()
        self._running = False
        if self._checkpoint_tick is not None:
            self._checkpoint_tick.cancel()

    @property
    def running(self) -> bool:
        return self._running

    def hear(self, channel: Any) -> None:
        """Wire the channel I-frames arrive on (the pair factory calls this,
        after ``link.attach``).

        Only a simulator channel has an agenda for the deliveries to
        share.  The run path is wired when the channel's handler is a
        LAMS-DLC endpoint's own ``on_frame``, whose receiver half this is:
        from then on each I-frame run comes to :meth:`on_run` whole, not
        through the handler.  Called again (after the handler was swapped,
        say), it wires or unwires by the same test.
        """
        if not isinstance(channel, SimplexChannel):
            return
        if self._parked is not None:
            self._parked.wake()
        self._incoming = channel
        from .protocol import LamsDlcEndpoint

        handler = channel.receiver
        owner = getattr(handler, "__self__", None)
        wired = (getattr(handler, "__func__", None) is LamsDlcEndpoint.on_frame
                 and owner.receiver is self)
        if wired:
            channel._run_sink = self
            if self.config.piggyback_flow_control:
                self._stop_go_sink = owner.sender
        elif channel._run_sink is self:
            self.hand_back()
            channel._run_sink = None
            self._stop_go_sink = None

    @property
    def resolving_retention(self) -> float:
        """How long error entries stay available for Enforced-NAKs.

        The resolving period bound of Section 3.3 — any error older than
        this has either been recovered or the link has already failed.
        """
        return self.config.resolving_period(self.expected_rtt)

    @property
    def cp_index(self) -> int:
        """The next checkpoint's index."""
        if self._parked is not None:
            self._parked.settle()
        return self._cp_index

    @property
    def checkpoints_sent(self) -> int:
        """Checkpoints sent, enforced ones included."""
        if self._parked is not None:
            self._parked.settle()
        return self._checkpoints_sent

    frontier = _settled("_frontier", "The highest transmit index heard so far (None before any).")
    iframes_received = _settled("_received")
    iframes_corrupted = _settled("_corrupted")
    gap_losses_detected = _settled("_gaps")
    duplicates_suppressed = _settled("_duplicates")
    discards = _settled("_discards")
    receive_queue_length = _settled("_depth")

    # -- frame input ----------------------------------------------------------

    def on_iframe(self, frame: IFrame, corrupted: bool) -> None:
        """Take an I-frame handed over on its own: a run of one at its own
        item's ``(time, sequence)`` (the latest number taken, where no
        numbered entry runs), applied at once — ahead of the runs pending
        (decided while it was in flight), which are set aside and taken
        again behind it."""
        if self._parked is not None:
            self._parked.wake()
        sim = self.sim
        order = sim._order
        if order > sim._sequence:
            order = sim._sequence
        run = _Run((sim.now,), (frame,), (corrupted,), order)
        runs = self._unplan() if self._pending else ()
        self._take(run, landed=True)
        self._settle()
        if runs:
            self._replan(runs)

    def on_run(self, times: Sequence[float], frames: Sequence[IFrame],
               verdicts: Sequence[bool]) -> None:
        """Take a decided run of I-frames, frame ``k`` landing at
        ``times[k]`` (nondecreasing, none before now) and corrupted when
        ``verdicts[k]``, its arrivals numbered as their items would have
        been: the run path."""
        if self._parked is not None:
            self._parked.wake()
        sim = self.sim
        first = sim._sequence + 1
        sim._sequence = first + len(times) - 1
        run = _Run(times, frames, verdicts, first)
        # The Stop-Go item first: it is due before the deliveries, so the
        # agenda's carrier serves both.
        if self._stop_go_sink is not None and not self._stop_go_armed:
            self._arm_stop_go(run)
        self._take(run)
        # Whatever reads the trace's statistics as complete settles first.
        self.tracer.hold(self._settle_due)

    def _take(self, run: _Run, landed: bool = False) -> None:
        """Pend *run* and plan its frames' deliveries behind every delivery
        owed, projecting in arrival order what decides a clean frame's fate
        as it lands: its origin (zero-duplication), and the queue's depth
        (a full queue discards it).  Each delivery is an item keyed
        ``_AFTER`` plus its arrival's number, after every numbered entry at
        its instant.  A frame that *landed*, handed over on its own, is
        applied at once; its delivery takes a number of its own as it
        lands."""
        self._pending.append(run)
        times, k = run.times, run.next
        if times[k] < self._next_settle:
            self._next_settle = times[k]
        sim = self.sim
        zero_duplication = self._zero_duplication
        if zero_duplication:
            self._prune_origins(sim.now)
        capacity = self._rx_capacity
        checked = capacity is not None or zero_duplication
        if checked:
            dropped, served, first = {}, 0, run.first
        due = self._due
        owed = len(due)
        plan = due.append
        last = due[-1][0] if due else -_INF
        interval = self._drain_delay_value
        bound = self._drain_bound
        token = self._drain_token
        agenda = self._incoming._agenda if self._incoming is not None else None
        lane = agenda.lanes[1] if agenda is not None else None
        key = _AFTER + sim._sequence + 1 - run.first if landed else _AFTER
        rows = zip(count(run.first), times, run.frames, run.verdicts)
        for number, arrival, frame, skipped in islice(rows, k, None) if k else rows:
            if skipped:
                continue
            if checked:
                if zero_duplication and self._is_duplicate_incarnation(frame, arrival):
                    dropped[number - first] = True  # a duplicate
                    continue
                if capacity is not None:
                    # Every payload owed has arrived; those not yet delivered queue.
                    served = bisect_left(due, (arrival, number), served)
                    if len(due) - served >= capacity:
                        dropped[number - first] = False  # a discard
                        continue
            if arrival > last:
                last = arrival + interval
            else:
                last += interval
            item = (last, key + number, bound, (token, frame.payload))
            plan(item)
            if lane is not None:
                lane.append(item)
        if checked:
            run.dropped = dropped or _NONE
        if len(due) > owed:
            if landed:
                sim._sequence += 1  # the number its delivery's key took
            if lane is None:  # no agenda: an entry of its own
                heappush(sim._heap, due[-1])
            else:
                agenda.added(due[owed][0], due[owed][1])

    def _settle_due(self) -> None:
        """Settle, if an arrival or a delivery made is due by now."""
        if self._next_settle <= self.sim.now:
            self._settle()

    def _settle(self) -> None:
        """Replay, in ``(time, key)`` order, what precedes the running
        entry and is not yet applied: each pending arrival — sequence and
        gap tracking, the frontier, the error log, the queue or a discard,
        its records — and each delivery already made, with the ``rxqueue``
        gauge stepped at every one, as a frame at a time would.  An arrival
        of the running entry's instant has passed if its number is at most
        the running entry's key; a delivery made that ties with an arrival
        waits for it (the engine's same-instant rule).  First, the incoming
        channel emits the records it holds of the runs that have landed."""
        sim = self.sim
        now = sim.now
        made = self._made
        # Until the end, a settle that a record emitted here sets off
        # (through Tracer.settle) finds nothing due.
        self._next_settle = _INF
        channel = self._incoming
        if channel is not None and channel._held:
            channel._emit_landed_runs()
        due = self._due
        depth = self._depth
        # TimeWeightedStat.update's arithmetic, on locals; the gauge is
        # made at the first payload queued, as the per-frame path makes it.
        stat = self._rxqueue_stat
        if stat is not None:
            area, last, level, maximum = (
                stat._area, stat._last_time, stat._level, stat.maximum)
        # Where the Stop-Go bit changes, for a sender whose run is out.
        changes = self._stop_changes
        high = self._high_watermark
        pending = self._pending
        if pending:
            tracer = self.tracer
            traced = tracer.active
            expected = self._next_expected_seq
            frontier = self._frontier
            modulus = self._numbering_size
            while pending:
                run = pending[0]
                times, frames, verdicts, first = run.times, run.frames, run.verdicts, run.first
                count = len(times)
                dropped = run.dropped
                k = start = run.next
                while k < count:
                    arrival = times[k]
                    if arrival >= now and (arrival > now or first + k > sim._order):
                        break
                    while made:  # the deliveries made before this arrival
                        when = due[0][0]
                        if when >= arrival:
                            break
                        item = due.popleft()
                        made -= 1
                        depth -= 1
                        if changes is not None and depth == high - 1:
                            changes.append((when, item[1], False))
                        if when < last:
                            stat.update(when, depth)  # raises: time went backwards
                        area += level * (when - last)
                        last = when
                        level = depth
                    frame = frames[k]
                    corrupted = verdicts[k]
                    k += 1
                    if corrupted and not self._header_protected:
                        # Header unreadable: an effective loss. A later
                        # frame's gap or the sender's trailing-loss check
                        # will recover it.
                        self._corrupted += 1
                        if traced:
                            tracer.emit(arrival, self.name, "iframe_header_lost")
                        continue
                    seq = frame.seq
                    if seq != expected:
                        self._next_expected_seq = expected
                        self._detect_gap(seq, arrival)
                    expected = (seq + 1) % modulus
                    index = frame.transmit_index
                    if frontier is None or index > frontier:
                        frontier = index
                    if corrupted:
                        self._corrupted += 1
                        self._log_error(seq, arrival)
                        if traced:
                            tracer.emit(arrival, self.name, "iframe_corrupted", seq=seq)
                        continue
                    if dropped:
                        fate = dropped.get(k - 1)
                        if fate:
                            self._duplicates += 1
                            if traced:
                                tracer.emit(arrival, self.name, "duplicate_suppressed",
                                            origin=frame.effective_origin)
                            continue
                        if fate is False:
                            # Overflow: discarded, but logged as erroneous so the
                            # cumulative NAK recovers it — zero loss is preserved.
                            self._discards += 1
                            self._log_error(seq, arrival)
                            if traced:
                                tracer.emit(arrival, self.name, "overflow_discard", seq=seq)
                            continue
                    depth += 1
                    if changes is not None and depth == high:
                        changes.append((arrival, first + k - 1, True))
                    if stat is None:
                        stat = self._rxqueue_stat = tracer.level_stat(
                            self._rxqueue_stat_name, start_time=arrival)
                        area, last, level, maximum = (
                            stat._area, stat._last_time, stat._level, stat.maximum)
                    # Only a new peak is traced: the first depth above any
                    # bound is one.
                    if traced and depth > maximum:
                        tracer.emit(arrival, self.name, "rxqueue_peak", depth=depth)
                    if arrival < last:
                        stat.update(arrival, depth)  # raises: time went backwards
                    if level:  # an empty queue's step adds +0.0: skip it
                        area += level * (arrival - last)
                    last = arrival
                    level = depth
                    if depth > maximum:
                        maximum = depth
                self._received += k - start
                if k < count:
                    run.next = k
                    break
                del pending[0]
            self._next_expected_seq = expected
            self._frontier = frontier
        for _ in range(made):  # the deliveries made since the last arrival
            item = due.popleft()
            when = item[0]
            depth -= 1
            if changes is not None and depth == high - 1:
                changes.append((when, item[1], False))
            if when < last:
                stat.update(when, depth)  # raises: time went backwards
            area += level * (when - last)
            last = when
            level = depth
        if stat is not None:
            stat._area = area
            stat._last_time = last
            stat._level = level
            stat.maximum = maximum
        self._depth = depth
        self._made = 0
        # The first arrival or delivery not yet settled.
        when = due[0][0] if due else _INF
        if pending:
            run = pending[0]
            arrival = run.times[run.next]
            if arrival < when:
                when = arrival
        self._next_settle = when

    def _unplan(self) -> list[_Run]:
        """Settle, then set the pending runs aside: forget the origins they
        recorded ahead, the deliveries owed for them (the queued payloads'
        stay) and the Stop-Go item armed at one of their arrivals.  Returns
        them."""
        self._settle_due()
        pending = self._pending
        runs = list(pending)
        if self._zero_duplication:
            queue = self._origin_prune_queue
            origins = self._delivered_origins
            for _ in range(sum(not run.verdicts[position]
                               and run.dropped.get(position) is not True
                               for run in runs
                               for position in range(run.next, len(run.times)))):
                _, origin, seen = queue.pop()
                if seen is None:
                    del origins[origin]
                else:
                    origins[origin] = seen
        pending.clear()
        due = self._due
        owed = len(due) - self._depth
        for _ in range(owed):
            due.pop()
        agenda = self._incoming._agenda if self._incoming is not None else None
        if agenda is not None:
            # Settled, the lane holds the deliveries not yet made: the owed
            # ones are its tail.
            agenda.trim(agenda.lanes[1], tail=owed)
            agenda.discard(agenda.lanes[0], lambda item: item[2] != self._stop_go_due)
        self._stop_go_armed = False
        self._next_settle = due[0][0] if due else _INF
        return runs

    def _replan(self, runs: Sequence[_Run]) -> None:
        """Take *runs*, set aside by :meth:`_unplan`, again."""
        for run in runs:
            self._take(run)
        if self._stop_go_sink is not None and self._pending:
            self._arm_stop_go()

    def hand_back(self) -> None:
        """The channel goes down, or ``hear`` unwires the run path: settle,
        then hand the arrivals still in flight back to the channel as the
        items they would have been, which meet the channel's state (and
        handler) as they land."""
        channel = self._incoming
        items = [(run.times[position], run.first + position, channel._deliver,
                  (run.frames[position], run.verdicts[position]))
                 for run in self._unplan() for position in range(run.next, len(run.times))]
        if items:
            channel._agenda.insert(channel._agenda.lanes[0], items)

    # -- piggybacked Stop-Go on the run path ----------------------------------------

    def _arm_stop_go(self, run: Optional[_Run] = None) -> None:
        """Find the next pending arrival whose piggybacked Stop-Go bit the
        sender will apply — its readable header landing a checkpoint
        interval after the last one applied — and apply it there, at an
        item of its own (:meth:`_stop_go_due`).  Searches *run* only when
        given (nothing before it qualified against the same last one)."""
        sender = self._stop_go_sink
        if sender.failed:
            return
        last = sender._last_piggyback_applied
        interval = self._checkpoint_interval
        header_protected = self._header_protected
        for candidate in (run,) if run is not None else self._pending:
            times, verdicts = candidate.times, candidate.verdicts
            if times[-1] - last < interval:
                continue  # arrivals are monotone: none of this run's qualifies
            for position in range(candidate.next, len(times)):
                if times[position] - last < interval:
                    continue
                if verdicts[position] and not header_protected:
                    continue
                self._stop_go_armed = True
                agenda = self._incoming._agenda
                agenda.insert(agenda.lanes[0], [(times[position], candidate.first + position,
                                                 self._stop_go_due, (candidate.frames[position],))])
                return

    def _stop_go_due(self, frame: IFrame) -> None:
        """The item at the arrival armed by :meth:`_arm_stop_go`: settled
        past that arrival, the sender applies *frame*'s Stop-Go bit, and
        the next one is armed."""
        self._stop_go_armed = False
        self._settle_due()
        self._stop_go_sink.note_piggyback_stop_go(frame.stop_go)
        if self._pending:
            self._arm_stop_go()

    # -- zero-duplication extension -----------------------------------------------

    def _is_duplicate_incarnation(self, frame: IFrame, now: float) -> bool:
        """Record-and-test the frame's stable incarnation identity at *now*,
        its arrival: a duplicate when the same origin was delivered no
        longer than the retention before.  The run path tests a run's
        frames when it takes the run, in arrival order, each at its own
        arrival; ``_prune_origins`` forgets only what no later arrival
        can match."""
        # Inlined IFrame.effective_origin (property call per frame).
        origin = frame.origin
        if origin < 0:
            origin = frame.transmit_index
        origins = self._delivered_origins
        seen = origins.get(origin)
        if seen is not None and seen >= now - self._origin_retention_value:
            return True
        origins[origin] = now
        # What it replaced, for hand_back() to put back.
        self._origin_prune_queue.append((now, origin, seen))
        return False

    def _prune_origins(self, now: float) -> None:
        """Forget the origins delivered more than the retention before *now*."""
        horizon = now - self._origin_retention_value
        queue = self._origin_prune_queue
        origins = self._delivered_origins
        while queue and queue[0][0] < horizon:
            when, origin, _ = queue.popleft()
            if origins.get(origin) == when:
                del origins[origin]

    def on_request_nak(self, frame: RequestNakFrame, corrupted: bool) -> None:
        """Answer a (valid) Request-NAK immediately with an Enforced-NAK."""
        if not self._running:
            return  # a dead receiver answers nothing
        if self._parked is not None:
            self._parked.wake()
        self._settle_due()
        if corrupted:
            # An unreadable probe; the sender's failure timer covers this.
            self.tracer.emit(self.sim.now, self.name, "request_nak_corrupted")
            return
        frame = self._send_checkpoint(enforced=True)
        self.enforced_sent += 1
        self.tracer.emit(self.sim.now, self.name, "enforced_nak", naks=len(frame.naks))

    # -- gap / error logging -----------------------------------------------------

    def _detect_gap(self, seq: int, now: float) -> None:
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
            self._log_error(lost, now)
        self._gaps += gap
        if self.tracer.active:
            self.tracer.emit(now, self.name, "gap_detected", count=gap, upto=seq)

    def _log_error(self, seq: int, now: float) -> None:
        if seq in self._error_log:
            return
        entry = ErrorEntry(seq=seq, detect_time=now)
        self._error_log[seq] = entry
        self._resolving_log.append(entry)
        if self.tracer.active:
            self.tracer.emit(now, self.name, "error_logged", seq=seq)

    def _resolving_period_errors(self) -> tuple[int, ...]:
        """All distinct error seqs logged within the resolving period."""
        horizon = self.sim.now - self.resolving_retention
        while self._resolving_log and self._resolving_log[0].detect_time < horizon:
            self._resolving_log.popleft()
        return tuple(dict.fromkeys(entry.seq for entry in self._resolving_log))

    # -- checkpoint emission ---------------------------------------------------------

    def _send_checkpoint(self, enforced: bool = False) -> Optional[CheckpointFrame]:
        """Settle, then build and send a checkpoint: the periodic one (a
        member of the checkpoint round calls this every ``W_cp``), carrying
        the cumulative NAK list, or an *enforced* one, carrying every error
        logged within the resolving period.  Returns the frame, or None
        when the link parks instead (:mod:`repro.core.idle`)."""
        now = self.sim.now
        if self._next_settle <= now:
            self._settle()
        if enforced:
            naks = self._resolving_period_errors()
        elif self._error_log:
            # The cumulative NAK: every entry logged, each aged out once it
            # has been reported C_depth times.
            log = self._error_log
            naks = tuple(log)
            depth = self._cumulation_depth
            for seq in naks:
                entry = log[seq]
                entry.reports += 1
                if entry.reports >= depth:
                    del log[seq]
        else:
            naks = ()
            # Nothing to report: if the peer's checkpoint of this instant
            # is already on its way, the link may be idle, and park (on
            # the engine itself: another clock keeps every frame).
            incoming = self._incoming
            if incoming is not None and self.sim.__class__ is Simulator:
                peer = incoming._run
                if (peer.__class__ is CheckpointFrame and peer.issue_time == now
                        and park(self)):
                    return None
        # stop_indicated(), settled.
        stop_go = self._flow_control_enabled and self._depth >= self._high_watermark
        index = self._cp_index
        frame = CheckpointFrame(
            index, now, naks, self._frontier, enforced, stop_go,
            self.config.cframe_bits(len(naks)) if naks else self._empty_cframe_bits,
        )
        self._cp_index = index + 1
        self._checkpoints_sent += 1
        self.control_channel.send(frame)
        if self.tracer.active:
            if self._held is not None:
                self._release_delivered()
            self.tracer.emit(
                now, self.name, "checkpoint_sent",
                index=index, naks=len(naks), enforced=enforced, stop_go=stop_go,
                seqs=naks,
            )
        return frame

    # -- delivery / flow control --------------------------------------------------------

    def stop_indicated(self) -> bool:
        """Current Stop-Go state of this receiver's queue.

        Public because the co-located sender half piggybacks it onto
        outgoing I-frames (Section 3.1's flow-control piggybacking).
        """
        if not self._flow_control_enabled:
            return False
        self._settle_due()
        return self._depth >= self._high_watermark

    def _drain_one(self, token: object, packet: Any) -> None:
        """One planned delivery: *packet*, the oldest payload owed, goes up."""
        if token is not self._drain_token:
            return  # overtaken by flush()
        sim = self.sim
        if self._pending:
            self._made += 1
            if self._next_settle > sim.now:
                self._next_settle = sim.now  # what reads the queue replays it
        else:
            # Nothing before it left to settle: step the gauge now, as
            # _settle would (a frame handed over on its own's every delivery).
            self._due.popleft()
            self._depth = depth = self._depth - 1
            self._rxqueue_stat.update(sim.now, depth)
            if self._stop_changes is not None and depth == self._high_watermark - 1:
                self._stop_changes.append((sim.now, sim._order, False))
        self.delivered += 1
        tracer = self.tracer
        if tracer.active:
            held = self._held
            if held is None:
                held = self._held = ([], [])
                tracer.hold(self._release_delivered)
            held[0].append(sim.now)
            held[1].append(packet)
        self.deliver(packet)

    def _release_delivered(self) -> None:
        """Emit the drains held since the last record as one
        ``payloads_delivered``, stamped with the first."""
        held = self._held
        if held is not None:
            self._held = None
            times, payloads = held
            self.tracer.emit(times[0], self.name, "payloads_delivered",
                             times=times, payloads=payloads)

    def queued_payloads(self) -> list[Any]:
        """Payloads accepted but not yet drained upward (zero-loss ledger:
        these count as held, not lost, at end of run)."""
        self._settle_due()
        return [item[3][1] for item in islice(self._due, self._depth)]

    def flush(self) -> int:
        """Deliver every queued payload upward immediately; returns count.

        Checkpoint-acknowledged payloads sitting in the receive queue
        have already been released by the sender's ledger, so a teardown
        that discards this receiver without draining them loses them.
        Graceful-teardown paths (session supervisor recycling an
        endpoint generation) call this before dropping the receiver.
        """
        runs = self._unplan()  # taken again behind the flush: they meet an empty queue
        count = self._depth
        self._drain_token = token = object()  # their drains lapse
        due = self._due
        agenda = self._incoming._agenda if self._incoming is not None else None
        if agenda is not None and count:  # settled: the lane holds the queue
            agenda.trim(agenda.lanes[1], head=count)
        for _ in range(count):
            self._drain_one(token, due[0][3][1])  # with nothing pending, it goes now
        self._replan(runs)
        self._release_delivered()
        return count

    def __repr__(self) -> str:
        return (
            f"<LamsReceiver {self.name} cp={self._cp_index} "
            f"errors={len(self._error_log)} delivered={self.delivered}>"
        )
