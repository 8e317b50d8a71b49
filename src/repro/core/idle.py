"""An idle LAMS-DLC link in closed form: parked, and settled when touched.

The paper's receiver sends a Check-Point every ``W_cp`` "so long as the
link is active" (Section 3).  On an idle link that cycle is all there
is, and it is a fixed function of elapsed time and of the checkpoints'
verdicts.  So a link that turns idle *parks* (:func:`park`): its two
receivers leave their checkpoint round, its senders' checkpoint timers
lapse, and a :class:`ParkedLink` owes it every checkpoint from then on.
Nothing is elided: each checkpoint is still sent, drawn, counted and
heard, only later and all at once.

Idle means, in both directions at a checkpoint instant: a sender with
nothing pending, outstanding or queued for retransmission and no
enforced-recovery probe open; a receiver with an empty error log and
receive queue and no run or drain planned; no frame in flight but the
checkpoints of the cycle itself.  The test runs in the receiver that
fires second at the instant (``LamsReceiver._send_checkpoint``, where it
already branches on an empty log): the peer's checkpoint of the instant
is on its channel's transmitter, a plain one, and goes into the span
with the firing receiver's own.

The first touch settles the span up to the running entry ``(now,
sim._order)`` and wakes the link: a packet handed down (``accept`` /
``accept_many``), a frame landing on a receiver, a stop, ``hear``, and
``SimplexChannel.settle`` (a channel going down, an error model being
swapped).  A read of a counter the span moves settles it without waking
it: the channels' ``frames_sent``, ``frames_corrupted`` and
``busy_seconds``, the receivers' ``cp_index`` and ``checkpoints_sent``,
the senders' ``checkpoints_received``, ``checkpoints_corrupted`` and
``checkpoint_deadline``, and the rate and go count of their Stop-Go
controllers.  A settle writes what the per-frame path would have: each
checkpoint's time, ``busy_seconds`` and the rate are built by one
addition per checkpoint in order, never a product, and a span's verdicts
are one ``draw_window`` over its checkpoints' start times on the
channel's own ``{name}.cframe`` stream, which takes the variates the
scalar draws would.

The same-instant rules.  A checkpoint sent at the running entry's
instant has been sent once its round has fired: the round keeps firing
while it holds parked members (the engine's parked-member rule), so
that is when its key has moved past ``now``.  A frame leaving the
transmitter or landing at that instant precedes the running entry if
that entry was numbered after the park, as everything numbered in the
span was; between runs, everything at ``now`` has passed.  A frame
landing exactly on a timer's deadline precedes the timer if it left the
transmitter before the timer's restart (its entry was numbered then),
and follows it if not.  A woken link's frames in flight are pushed
afresh, the timer re-armed between them by the same rule; a timer held
since the park gets back the sequence number it was started with.

A parked link ends its own span when it must: the checkpoint timer
expires if no checkpoint lands intact for ``C_depth * W_cp``.  Its
look-ahead is the verdicts in the error model's buffer, which the park
fills if it is empty, with the variates the next draw would take (a wake
gives back a fill no draw has read, so a model swapped in draws what it
would have).  The parked link holds a sender's deadline from the park
when the timer cannot expire as it stands, the look-ahead landing a
checkpoint of the span intact first, and nothing but the span's own
checkpoints is on its way to that sender: a link parked at its first
checkpoint instant holds both start-up watchdogs so, and the timers'
carriers lapse when they surface.  Otherwise the sender's own timer
holds it until a checkpoint of the span lands intact, and if it expires
first it asks the parked link (:meth:`ParkedLink.expired`).  The parked
link keeps one entry, where the timer would expire on the look-ahead's
verdicts or, past them, a little before the deadline then in force; the
round carries it (``Simulator.carry``), so a parked link takes no room
in the heap.  There the link settles and looks again, or wakes and lets
the timer expire.

What stays on the per-frame path: a traced or monitored link (its tracer
active at the park), a channel whose ``send`` is wrapped, an error model
with no exact look-ahead (anything but
:class:`~repro.simulator.errormodel.PerfectChannel` and
:class:`~repro.simulator.errormodel.BernoulliChannel` on the control
frames: Gilbert–Elliott, a trace replay, the orbit-coupled models, a
wrapped model), a time-varying delay, a handler other than the
endpoints' own ``on_frame``, a clock that is not
:class:`~repro.simulator.engine.Simulator` itself (on the UDP plane a
checkpoint is a real datagram), a checkpoint timeout not over 1.5
``W_cp`` (``C_depth`` = 1, where the timer races every checkpoint), and
the SR-HDLC / NBDT families
(docs/TOPOLOGY.md, docs/TUNING.md §12).
"""

from __future__ import annotations

from functools import reduce
from heapq import heappush
from operator import add
from typing import Any, Optional

from ..simulator.engine import Simulator
from ..simulator.errormodel import BernoulliChannel, PerfectChannel
from ..simulator.link import SimplexChannel
from .frames import CheckpointFrame

__all__ = ["ParkedLink", "park"]

_INF = float("inf")
# The control-frame error models whose verdicts can be looked ahead.
_EXACT = (PerfectChannel, BernoulliChannel)


class _Way:
    """One direction of the cycle: *receiver* sends its checkpoints on
    *channel*, and *sender* (the far endpoint's) hears them."""

    __slots__ = ("receiver", "channel", "sender", "next", "undrawn", "flight",
                 "deadline", "restarted", "interval", "bits", "tx", "delay", "timeout")

    def __init__(self, receiver: Any, sender: Any, first: float,
                 undrawn: list[float]) -> None:
        self.receiver = receiver
        self.channel = channel = receiver.control_channel
        self.sender = sender
        self.next = first  # the next checkpoint's start, not yet settled
        self.undrawn = undrawn  # starts of checkpoints on the transmitter
        # Checkpoints off the transmitter, not yet heard: (start, arrival,
        # corrupted), in order.
        self.flight: list[tuple[float, float, bool]] = []
        # The far sender's checkpoint-timer deadline, once the parked link
        # holds it, and when it was restarted (-inf: before the span, by
        # the timer, which keeps its carrier); None while the sender's
        # timer holds it.
        self.deadline: Optional[float] = None
        self.restarted = -_INF
        self.interval = receiver._checkpoint_interval
        self.bits = bits = receiver._empty_cframe_bits
        self.tx = bits / channel.bit_rate
        self.delay = channel._fixed_delay
        self.timeout = sender._checkpoint_timeout

    def _rng(self) -> Any:
        channel = self.channel
        rng = channel._cframe_rng
        if rng is None:
            rng = channel._cframe_rng = channel.streams.get(f"{channel.name}.cframe")
        return rng

    def _timer(self) -> tuple[float, float]:
        """The far sender's deadline and the instant its timer was
        restarted for it (+inf and -inf with none)."""
        if self.deadline is not None:
            return self.deadline, self.restarted
        deadline = self.sender._checkpoint_timer._deadline
        if deadline is None:
            return _INF, -_INF
        return deadline, deadline - self.timeout

    def advance(self, now: float, fired: bool, after: bool, strict: bool) -> bool:
        """Settle this direction up to the running entry: *fired* if the
        round at *now* has run, *after* if what else falls at *now* has;
        *strict*: as a timer expiring at *now* sees it.  True if it took
        the deadline over from the sender's timer, which it cancels."""
        interval = self.interval
        start = self.next
        sent = 0
        undrawn = self.undrawn
        while start < now or (start == now and fired):
            undrawn.append(start)
            start += interval
            sent += 1
        if sent:
            self.next = start
            receiver = self.receiver
            receiver._cp_index += sent
            receiver._checkpoints_sent += sent
        # Off the transmitter, a frame time after its start: drawn.
        tx = self.tx
        done = 0
        for start in undrawn:
            end = start + tx
            if end < now or (end == now and after):
                done += 1
            else:
                break
        if done:
            starts = undrawn[:done]
            del undrawn[:done]
            channel = self.channel
            verdicts = channel.cframe_errors.draw_window(starts, [self.bits] * done, self._rng())
            channel._frames_sent += done
            channel._frames_corrupted += verdicts.count(True)
            channel._busy_seconds = reduce(add, [tx] * done, channel._busy_seconds)
            last = channel._last_arrival
            delay = self.delay
            flight = self.flight
            for start, corrupted in zip(starts, verdicts):
                arrival = start + tx + delay
                if arrival < last:
                    arrival = last
                last = arrival
                flight.append((start, arrival, corrupted))
            channel._last_arrival = last
        # Heard: each before the timer expires, an intact one restarting
        # it.  One landing on the deadline was numbered as it left the
        # transmitter: before the timer's restart, or after it.
        flight = self.flight
        if not flight:
            return False
        sender = self.sender
        deadline, restarted = self._timer()
        timeout = self.timeout
        heard = intact = 0
        for start, arrival, corrupted in flight:
            numbered_first = start + tx < restarted
            if arrival >= now and (arrival > now or not (numbered_first if strict else after)):
                break
            if arrival > deadline or (arrival == deadline and not numbered_first):
                break
            heard += 1
            if not corrupted:
                intact += 1
                deadline, restarted = arrival + timeout, arrival
        if not heard:
            return False
        del flight[:heard]
        sender._checkpoints_corrupted += heard - intact
        if not intact:
            return False
        sender._checkpoints_received += intact
        sender._seen_any_checkpoint = True
        took_over = self.deadline is None
        if took_over:
            sender._checkpoint_timer.cancel()  # its carrier lapses
        self.deadline, self.restarted = deadline, restarted
        flow = sender.flow
        if flow.enabled:
            flow._go += intact
            rate, step = flow._rate, flow.increase_step
            for _ in range(intact):
                if rate >= 1.0:
                    break
                rate = min(1.0, rate + step)
            flow._rate = rate
        return took_over

    def horizon(self) -> tuple[float, bool]:
        """When the parked link must look again for this direction: the
        instant the far sender's timer expires on the verdicts known or
        buffered; past them, the deadline then in force, the first instant a
        verdict not yet known could matter.  While the sender's own timer
        holds the deadline it looks for itself (its expiry asks the parked
        link): +inf then, as when no expiry can come, unless the next frame
        could restart it to an earlier deadline.  Second, whether the
        sender's timer still holds it then, no intact checkpoint having
        landed before it expires."""
        deadline, restarted = self._timer()
        held = self.deadline is None  # by the sender's own timer
        timeout, interval, tx, delay = self.timeout, self.interval, self.tx, self.delay
        for start, arrival, corrupted in self.flight:
            if arrival > deadline or (arrival == deadline and start + tx >= restarted):
                return (_INF if held else deadline), held
            if not corrupted:
                deadline, restarted, held = arrival + timeout, arrival, False
        verdicts = self.channel.cframe_errors.buffered_verdicts(self.bits, self._rng())
        start = self.undrawn[0] if self.undrawn else self.next
        last = self.channel._last_arrival
        # Intact checkpoints a W_cp apart never let the timeout (over 1.5
        # W_cp, park() makes sure) expire: only the next arrival and the
        # look-ahead's end matter then.
        if verdicts is None or not verdicts.any():
            arrival = max(start + tx + delay, last)
            if arrival > deadline or (arrival == deadline and start + tx >= restarted):
                return (_INF if held else deadline), held
            if verdicts is None:
                return _INF, False
            # The look-ahead's last frame starts len - 1 additions of
            # W_cp on; a product one W_cp short of that chain is early by
            # far more than the chain's rounding, so the look comes early.
            start += max(len(verdicts) - 2, 0) * interval
            return max(start + tx + delay, last) + timeout, False
        for corrupted in verdicts.tolist():
            arrival = start + tx + delay
            if arrival < last:
                arrival = last
            last = arrival
            if arrival > deadline or (arrival == deadline and start + tx >= restarted):
                return (_INF if held else deadline), held
            if not corrupted:
                deadline, restarted, held = arrival + timeout, arrival, False
            start += interval
        if not held:
            return deadline, False
        # The next frame, if intact, would restart the timer the sender
        # holds, earlier than it now stands only after a long start-up
        # watchdog (or with none running).
        restart = max(start + tx + delay, last) + timeout
        return (restart if restart < deadline else _INF), True

    def hold(self, now: float) -> None:
        """At the park: take the far sender's deadline over from its timer,
        which cannot expire as it stands (:meth:`horizon` found a checkpoint
        of the span landing intact first), if nothing but the span's own
        checkpoints is on its way to the sender.  The timer keeps its
        carrier, ``(deadline, its own sequence)``, for :meth:`resume`."""
        timer = self.sender._checkpoint_timer
        if timer._deadline is not None and self.channel._last_arrival < now:
            self.deadline, self.restarted = timer._deadline, -_INF
            timer.cancel()

    def resume(self, sim: Simulator, expiring: bool) -> None:
        """Put back what the per-frame path would hold now: the span's
        checkpoints still on their way, the timer, the round member.  A
        frame landing on the timer's deadline keeps its side of it: a
        timer the parked link holds is re-armed after the frames that
        left the transmitter before it was restarted, and before the
        others; one the sender still holds runs on with its own number,
        unless such a frame lands on its deadline, and is re-armed behind
        that frame then."""
        channel, receiver = self.channel, self.receiver
        index = receiver._cp_index - len(self.undrawn) - len(self.flight)
        frontier, bits, tx = receiver._frontier, self.bits, self.tx
        deadline, restarted = self._timer()
        own = self.deadline is None
        armed = expiring or deadline == _INF
        heap = sim._heap
        for start, arrival, corrupted in self.flight:
            if not armed and start + tx >= restarted:
                armed = True
                if not own:
                    self._arm(deadline, restarted)
            frame = CheckpointFrame(index, start, (), frontier, False, False, bits)
            index += 1
            sim._sequence = sequence = sim._sequence + 1
            heappush(heap, (arrival, sequence, channel._deliver, (frame, corrupted)))
            if not armed and own and arrival == deadline:
                self.sender._checkpoint_timer.start_at(deadline)
                armed = True
        if not (armed or own):
            self._arm(deadline, restarted)
        for start in self.undrawn:
            frame = CheckpointFrame(index, start, (), frontier, False, False, bits)
            index += 1
            channel._transmitting = True
            channel._run = frame
            sim._sequence = sequence = sim._sequence + 1
            heappush(heap, (start + tx, sequence, channel._complete, (frame, start)))
        receiver._checkpoint_tick = sim.every(
            self.interval, receiver._send_checkpoint, first=self.next)

    def _arm(self, deadline: float, restarted: float) -> None:
        """Re-arm the far sender's timer at *deadline*; one held since the
        park, its carrier still in the heap, gets back the sequence number
        it was started with."""
        timer = self.sender._checkpoint_timer
        if restarted == -_INF and timer._carrier_time == deadline:
            timer._deadline = deadline
        else:
            timer.start_at(deadline)


class ParkedLink:
    """The idle span of one LAMS-DLC link, owed to it since its park."""

    __slots__ = ("sim", "ways", "numbered", "_entry")

    def __init__(self, sim: Simulator, ways: tuple[_Way, _Way]) -> None:
        self.sim = sim
        self.ways = ways
        for way in ways:  # what points here while parked
            way.channel._parked = way.receiver._parked = way.sender._parked = self
            way.sender.flow._parked = self
        self.numbered = sim._sequence  # the last number taken before the span
        self._entry: Optional[object] = None  # the live heap entry's token

    def _advance(self, strict: bool) -> bool:
        """Settle both directions up to the running entry; *strict*: as
        seen by a timer expiring now.  True if a direction took its
        deadline over from its sender's timer."""
        sim = self.sim
        now = sim.now
        fired = not strict and (now, self.ways[0].interval) not in sim._rounds
        after = not strict and sim._order > self.numbered
        took_over = False
        for way in self.ways:
            took_over |= way.advance(now, fired, after, strict)
        return took_over

    def _round(self) -> tuple[float, float]:
        """The key of the round that holds this link's members: armed at
        (or, at the park, firing at) its next checkpoint instant, or one
        later if it fired there before the settle counted it (a timer
        expiring first)."""
        interval = self.ways[0].interval
        start = min(way.next for way in self.ways)
        key = (start, interval)
        return key if key in self.sim._rounds else (start + interval, interval)

    def settle(self) -> None:
        """Bring every counter the span moves up to now; stay parked.  A
        timer it takes over no longer looks for itself: look again."""
        if self._advance(False):
            self._schedule()

    def deadline(self, sender: Any) -> Optional[float]:
        """*sender*'s checkpoint-timer deadline, as settled."""
        for way in self.ways:
            if way.sender is sender and way.deadline is not None:
                return way.deadline
        return sender._checkpoint_timer.deadline

    def _schedule(self, park: bool = False) -> None:
        """Keep one entry at the earliest instant a sender's timer could
        expire on the checkpoints of the span, or its look-ahead ends; at
        the *park*, hold each deadline its timer cannot expire at."""
        when = _INF
        for way in self.ways:
            at, held = way.horizon()
            if park and not held:
                way.hold(self.sim.now)
            if at < when:
                when = at
        self._entry = None  # one in the heap lapses
        if when < _INF:
            self._entry = token = object()
            self.sim.carry(self._round(), when, self._due, (token,))

    def _due(self, token: object) -> None:
        if token is not self._entry:
            return  # woken, or rescheduled
        self._entry = None
        self._advance(True)
        now = self.sim.now
        expiring = [way for way in self.ways if way.deadline is not None and way.deadline <= now]
        if not expiring:
            self._advance(False)  # the look-ahead's end: its draw is due
            self._schedule()
            return
        self._wake(expiring)
        for way in expiring:
            way.sender._on_checkpoint_timeout()

    def expired(self, sender: Any) -> bool:
        """*sender*'s own timer went off on the parked link.  True: it has
        expired, and the link is awake; False: a checkpoint of the span
        landed intact before, and the parked link holds the deadline."""
        now = self.sim.now
        way = next(way for way in self.ways if way.sender is sender)
        # The timer as it stood; a checkpoint of the span that landed
        # before it went off moves it on.
        way.deadline, way.restarted = now, now - way.timeout
        self._advance(True)
        if way.deadline > now:
            self._schedule()
            return False
        self._wake([way])
        return True

    def wake(self) -> None:
        """Settle up to the running entry and go back to the per-frame path."""
        self._advance(False)
        self._wake(())

    def _wake(self, expiring) -> None:
        self._entry = None
        for way in self.ways:
            way.channel._parked = way.receiver._parked = way.sender._parked = None
            way.sender.flow._parked = None
            way.channel.cframe_errors.give_back(way._rng())
        sim = self.sim
        sim._rounds[self._round()].held -= 2
        # The peer fired first at the park: it rejoins first.
        for way in reversed(self.ways):
            way.resume(sim, way in expiring)


def park(receiver: Any) -> bool:
    """Park *receiver*'s link if it is idle: *receiver* is firing in its
    checkpoint round, after its peer, whose checkpoint of this instant is
    on the peer's channel.  True if parked; *receiver*'s own checkpoint of
    this instant then belongs to the span."""
    from .protocol import LamsDlcEndpoint  # the endpoints wire the halves

    sim = receiver.sim
    theirs, mine = receiver._incoming, receiver.control_channel
    if type(sim) is not Simulator or type(theirs) is not SimplexChannel \
            or type(mine) is not SimplexChannel:
        return False
    handlers = (theirs.receiver, mine.receiver)
    if any(getattr(handler, "__func__", None) is not LamsDlcEndpoint.on_frame
           for handler in handlers):
        return False
    own, peer = (handler.__self__ for handler in handlers)
    lead = theirs._run  # the peer's checkpoint of this instant
    if (own.receiver is not receiver or peer.receiver.control_channel is not theirs
            or peer.receiver._incoming is not mine or lead.enforced or lead.naks):
        return False
    interval = receiver._checkpoint_interval
    key = (sim.now, interval)
    if key not in sim._rounds:
        return False
    for endpoint in (own, peer):
        sender, half = endpoint.sender, endpoint.receiver
        buffer = sender.buffer
        if (sender.failed or sender.suspended or sender._awaiting_enforced
                or buffer.items or buffer._pending or sender._retransmit_queue
                or sender._run is not None or sender._failure_timer._deadline is not None
                or sender.tracer.active or sender.data_channel is not half.control_channel
                or not sender._checkpoint_timeout > 1.5 * interval):
            return False
        if (not half._running or half._error_log or half._pending or half._due
                or half._stop_go_armed or half._held is not None or half.tracer.active
                or half._checkpoint_interval != interval or half._checkpoint_tick is None
                or (half._flow_control_enabled and half._depth >= half._high_watermark)
                or half._empty_cframe_bits / half.control_channel.bit_rate >= interval):
            return False
    for channel in (mine, theirs):
        agenda = channel._agenda
        if ("send" in channel.__dict__  # wrapped, to watch each frame go
                or channel.tracer.active or not channel._is_up or channel._fixed_delay is None
                or type(channel.cframe_errors) not in _EXACT or channel._queue
                or channel._held or (agenda is not None and any(agenda.lanes))):
            return False
    if mine._transmitting:
        return False
    now = sim.now
    # The peer's checkpoint joins the span on the transmitter: its
    # completion entry lapses (the run is no longer the channel's).
    theirs._run, theirs._transmitting = None, False
    ways = (_Way(receiver, peer.sender, now, []),
            _Way(peer.receiver, own.sender, now + interval, [now]))
    receiver._checkpoint_tick.cancel()
    peer.receiver._checkpoint_tick.cancel()
    sim._rounds[key].held += 2
    ParkedLink(sim, ways)._schedule(park=True)
    return True
