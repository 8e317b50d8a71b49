"""Discrete-event simulation engine.

This module is a small, dependency-free discrete-event simulator: a
:class:`Simulator` owns a clock and an event heap, plain callbacks are
scheduled at absolute or relative times (:meth:`Simulator.push` is the
hot paths' absolute-time push), a :class:`Timer` is a callback
that can be re-armed and cancelled, and :meth:`Simulator.every` runs a
callback once an interval.  Callbacks, timers and periodic callbacks are
the whole programming model, as in the paper: LAMS-DLC is specified as
frame handlers, two timers, and a Check-Point every ``W_cp``.

The engine is deliberately deterministic: events scheduled for the same
time fire in the order they were scheduled (FIFO tie-breaking via a
monotonically increasing sequence number).  This matters for protocol
simulations where, e.g., a frame arrival and a timer expiry at the same
instant must resolve reproducibly.

Hot-path design notes
---------------------
The dispatch loop is the single hottest function in the repository (a
1 Gbps LAMS link simulates millions of frame events per run), so the
inner loop trades a little elegance for speed:

- Heap entries are plain ``(time, sequence, callback, args)`` tuples.
  Slotted record objects were benchmarked as the alternative and lost
  by ~3x: ``heapq`` compares tuples in C, while a slotted record pays a
  Python-level ``__lt__`` call per comparison.  The tuples are still
  "records" in the scheduling contract sense — the ``(time, sequence)``
  prefix is the total order and the trailing fields are opaque.
- ``heappush``/``heappop`` are bound once (keyword-only default
  arguments / loop locals), and :attr:`Simulator.now` is a plain
  attribute rather than a property so callbacks reading the clock do
  not pay descriptor overhead.
- A running :class:`Timer` keeps one heap entry, its *carrier*.
  Restarting it stores the new deadline and reserves the sequence
  number a push would have taken; the heap is touched only when the
  carrier surfaces (re-pushed at the reserved ``(deadline, sequence)``
  if the deadline moved on) or when a restart *shortens* the deadline.
  Every live callback therefore runs at exactly the ``(time,
  sequence)`` a push per restart would have given it, and a link that
  restarts a timeout on every checkpoint pays three attribute stores
  for it.  The loops know nothing of this: a carrier is an ordinary
  entry whose callback is :meth:`Timer._surfaced`.
- Periodic callbacks with the same next deadline and interval share ONE
  heap entry, their *round* (:meth:`Simulator.every`): a thousand idle
  receivers checkpointing in step are one pop and one push per ``W_cp``
  instead of a thousand.  A round is an ordinary entry too.
- Pushes made back to back for one instant share ONE heap entry too, a
  *batch* (:meth:`Simulator.push`, the push rule): the thousand
  checkpoints that round sends leave their idle transmitters as one
  plain ``_complete`` entry and one batch, and land as one ``_deliver``
  entry and one batch, instead of a thousand of each.  A batch is a
  plain list of callbacks and argument tuples inside an ordinary entry
  whose callback, the runner, is bound once per simulator — never an
  object that refers to itself, or every batch is the cyclic
  collector's to free.
- Whoever pushes an entry per frame or per restart puts an object bound
  once into it (``Timer._on_surface``, ``_Round.fire``, the batch
  runner, and the channel's and receiver's ``self._x = self._x``
  lines), not a bound method made for that push: the tuple is then the
  only allocation, and the only thing the cyclic collector gains to
  track, per entry.

The scheduling contract
-----------------------
:class:`Simulator`'s public surface — a monotone ``now``, ``schedule`` /
``schedule_at``, ``push``, ``timer()`` and ``every()`` — is what a
protocol half needs from its event source, whether "now" is simulated
or wall time.  Beneath it, the hot paths in :mod:`repro.core.receiver`
and :mod:`repro.simulator.link` inline ``heappush(clock._heap, (when,
clock._sequence, callback, args))`` instead of calling ``schedule``
(the idle channel's send and a run of one's delivery call ``push``);
the heap list and the ``_sequence`` counter are therefore part of the
scheduling ABI, not private detail.  Every such push takes a sequence
number, which is what closes an open batch of ``push``: that is why the
inlined sites need not know of batches.  What a loop owes an entry it
pops is part of the ABI too: call ``entry[2](*entry[3])`` and nothing
else.  A :class:`Timer` is such an entry — its carrier names
``Timer._surfaced``, the one rule for "a timer entry reached the top"
(fire, re-push at the reserved ``(deadline, sequence)``, or lapse),
which every loop therefore shares by calling it.  A round is another:
its entry names ``_Round._fire``, which runs the members and pushes the
next entry itself, so no loop knows of rounds and a clock pumped late
re-arms them from its own ``now`` exactly as it did a timer restarted
from inside its callback.  A batch is a third: its entry names the
simulator's runner,
which runs the members in push order.  After a ``stop()`` or an
exception leaving a member, a round and a batch alike put the members
not yet run back at the entry's own ``(time, sequence)``, so what runs
next is what would have run next with an entry per member.  A clock
that is not this engine shares that ABI by subclassing
:class:`Simulator` (as :class:`repro.transport.clock.AsyncioClock` does)
rather than re-implementing the surface methods.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> sim.schedule(1.0, log.append, "frame")
>>> watchdog = sim.timer(lambda: log.append(sim.now))
>>> watchdog.start(2.0)
>>> sim.schedule(1.5, watchdog.start, 1.5)    # re-armed before it fires
>>> tick = sim.every(1.25, lambda: log.append("tick"))
>>> sim.schedule(2.75, tick.cancel)
>>> sim.run(until=3.5)
3.5
>>> log
['frame', 'tick', 'tick', 3.0]
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional

__all__ = [
    "Simulator",
    "Timer",
    "SimulationError",
    "engine_backend",
]


class SimulationError(Exception):
    """Raised for illegal engine operations (e.g. exceeding ``max_events``)."""


def engine_backend() -> str:
    """Always ``"pure"``: :meth:`Simulator.run` is the only dispatch loop.

    Kept because ``bench/run.py`` stamps it into every record; a later
    benchmark PR drops the stamp field and this function with it.
    """
    return "pure"


class Timer:
    """A restartable one-shot timer built on the event heap.

    Protocol state machines need timers that can be started, restarted
    (reset to a fresh timeout) and cancelled.  A timer owns at most one
    heap entry that matters, its *carrier*, and the rule is:

    - :meth:`start` stores the deadline and reserves the next engine
      sequence number — the one a push would have used, so every other
      event keeps its number.  It pushes ``(deadline, sequence)`` only
      when there is no carrier, or when the new deadline is *earlier*
      than the carrier's time (the old entry is then left behind and
      ignored when it surfaces).
    - :meth:`cancel` stores ``None``; the carrier stays, and a later
      :meth:`start` reuses it.
    - when the carrier surfaces (:meth:`_surfaced`, the one place either
      event loop meets a timer) it fires the callback if it *is* the
      reserved ``(deadline, sequence)``, re-pushes itself there if the
      deadline has moved on, and otherwise lapses.

    The callback therefore runs at exactly the ``(time, sequence)`` it
    would have had with one push per start, and restarting a running
    timer to a later deadline — a sender hearing a checkpoint — costs
    three attribute stores and no heap operation.
    """

    __slots__ = ("sim", "callback", "_deadline", "_sequence", "_carrier",
                 "_carrier_time", "_on_surface")

    def __init__(self, sim: "Simulator", callback: Callable[[], None]) -> None:
        self.sim = sim
        self.callback = callback
        self._deadline: Optional[float] = None  # None: stopped
        self._sequence = 0  # reserved by the latest start
        self._carrier = 0  # sequence number of the carrier entry
        self._carrier_time: Optional[float] = None  # its time; None: no carrier
        # Bound once: the object every entry of this timer carries.
        self._on_surface = self._surfaced

    @property
    def running(self) -> bool:
        """True while an expiry is pending."""
        return self._deadline is not None

    @property
    def deadline(self) -> Optional[float]:
        """Absolute expiry time, or None when stopped."""
        return self._deadline

    def start(self, delay: float) -> None:
        """(Re)arm the timer to fire *delay* from now."""
        if delay < 0:
            raise ValueError(f"negative timer delay: {delay!r}")
        sim = self.sim
        sim._sequence = self._sequence = sim._sequence + 1
        self._deadline = deadline = sim.now + delay
        carried = self._carrier_time
        if carried is None or deadline < carried:
            self._push(deadline)

    def restart(self, delay: float) -> None:
        """Alias of :meth:`start`; reads better at call sites that reset."""
        self.start(delay)

    def cancel(self) -> None:
        """Disarm the timer; its carrier lapses (or is reused) later."""
        self._deadline = None

    def _push(self, when: float) -> None:
        """Make ``(when, reserved sequence)`` the carrier."""
        self._carrier_time = when
        self._carrier = sequence = self._sequence
        heappush(self.sim._heap, (when, sequence, self._on_surface, (sequence,)))

    def _surfaced(self, sequence: int) -> None:
        """The heap entry pushed with *sequence* reached the top."""
        if sequence != self._carrier:
            return  # left behind by a start that shortened the deadline
        deadline = self._deadline
        if deadline is None:
            self._carrier_time = None  # cancelled, never restarted
        elif sequence == self._sequence:
            self._carrier_time = self._deadline = None
            self.callback()
        else:
            self._push(deadline)


class Periodic:
    """One callback of a round: what :meth:`Simulator.every` returns."""

    __slots__ = ("callback",)

    def __init__(self, callback: Callable[[], None]) -> None:
        self.callback: Optional[Callable[[], None]] = callback  # None: cancelled

    def cancel(self) -> None:
        """Never run again; the round drops the member when it next fires."""
        self.callback = None


class _Round:
    """The periodic callbacks that share one ``(next deadline, interval)``.

    A round owns one heap entry, armed at ``sim._rounds[key]``'s key
    with sequence number ``sequence``.  When the entry surfaces,
    :meth:`_fire` runs the live members in the order they joined and
    re-arms once at ``now + interval`` — or, if a round is already armed
    there, hands its members to that round.  A ``stop()`` or an
    exception leaving a member puts the members not yet run back at the
    entry's own ``(deadline, sequence)``; the round re-arms after its
    last member has run.
    """

    __slots__ = ("sim", "key", "sequence", "members", "fire")

    def __init__(self, sim: "Simulator", key: tuple[float, float],
                 member: Periodic) -> None:
        self.sim = sim
        self.key = key
        self.members = [member]
        # Bound once: the object every entry of this round carries.
        self.fire = self._fire
        self._arm()

    def _arm(self) -> None:
        sim = self.sim
        sim._sequence = self.sequence = sequence = sim._sequence + 1
        heappush(sim._heap, (self.key[0], sequence, self.fire, ()))

    def _fire(self, first: int = 0) -> None:
        """Run the members from index *first* (0: the entry surfaced)."""
        sim = self.sim
        if not first:
            del sim._rounds[self.key]  # joins from here on are for the next instant
        members = self.members
        last = len(members) - 1
        # A later leg cannot know what an earlier one saw cancelled.
        cancelled = first > 0
        try:
            for index in range(first, last + 1):
                member = members[index]
                callback = member.callback
                if callback is not None:
                    callback()
                if member.callback is None:  # before this firing, or just now
                    cancelled = True
                if sim._stopped and index < last:
                    self._pend(index + 1)
                    return
        except BaseException:
            # As a timer whose callback raised: not run again.
            members[index].callback = None
            if index < last:
                self._pend(index + 1)
            else:
                self._rearm(True)
            raise
        self._rearm(cancelled)

    def _pend(self, first: int) -> None:
        """Leave the members from *first* on due at this entry's own
        ``(deadline, sequence)``, for the next run to start with."""
        heappush(self.sim._heap, (self.key[0], self.sequence, self.fire, (first,)))

    def _rearm(self, cancelled: bool) -> None:
        members = self.members
        if cancelled:
            members[:] = [member for member in members
                          if member.callback is not None]
            if not members:
                return
        sim = self.sim
        interval = self.key[1]
        self.key = key = (sim.now + interval, interval)
        armed = sim._rounds.setdefault(key, self)
        if armed is self:
            self._arm()
        else:
            armed.members.extend(members)  # behind those it already has


class Simulator:
    """The event loop: a clock and a heap of scheduled callbacks.

    :attr:`now` is a plain attribute (read it freely, never assign it
    from outside the engine); :attr:`event_count` counts dispatched
    events across all :meth:`run` calls.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable, tuple]] = []
        self._sequence = 0
        self._stopped = False
        self.event_count = 0
        # Armed rounds by (next deadline, interval); see every().
        self._rounds: dict[tuple[float, float], _Round] = {}
        # The tail of push(): time and sequence number of its latest
        # entry, and that entry's call list if it is a batch still open.
        self._tail_time = 0.0
        self._tail_sequence = -1
        self._tail_calls: Optional[list] = None
        # Bound once: the object every batch entry carries.
        self._joined = self._run_joined

    # -- scheduling ------------------------------------------------------

    def schedule(self, delay: float, callback: Callable, *args: Any,
                 _push=heappush) -> None:
        """Run ``callback(*args)`` at ``now + delay``."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay!r})")
        self._sequence = sequence = self._sequence + 1
        _push(self._heap, (self.now + delay, sequence, callback, args))

    def schedule_at(self, when: float, callback: Callable, *args: Any,
                    _push=heappush) -> None:
        """Run ``callback(*args)`` at absolute time *when*."""
        now = self.now
        if when < now:
            raise ValueError(
                f"cannot schedule into the past (delay={when - now!r})"
            )
        self._sequence = sequence = self._sequence + 1
        _push(self._heap, (when, sequence, callback, args))

    def push(self, when: float, callback: Callable, args: tuple,
             _push=heappush) -> None:
        """Run ``callback(*args)`` at absolute time *when* (not checked
        against ``now``), sharing a heap entry with the pushes before it
        where the push rule allows.

        The push rule.  A push for the same instant as the previous
        push made here, with no sequence number taken in between, joins
        it instead of taking an entry of its own: the first push for an
        instant is a plain entry, the second opens a *batch* — one entry
        ``(when, next sequence, runner, (calls, when, sequence))`` whose
        list ``calls`` holds callback, args, callback, args, … — and
        later ones append to it.  The batch closes when anything takes a
        sequence number (any other push, a :class:`Timer` start, a round
        re-arming) and when it starts to run.

        Why the order is exact: the members would have taken consecutive
        sequence numbers at one instant, so no entry could run between
        them; entries pushed while the batch runs would have come after
        them either way.  Every entry is dispatched at the ``(time,
        sequence)`` rank it had with a push per call — only the numbers
        after a batch are fewer.  A ``stop()`` from inside a member, or
        an exception leaving one, leaves the members not yet run due at
        the batch's own ``(when, sequence)``.
        """
        sequence = self._sequence
        if sequence == self._tail_sequence and when == self._tail_time:
            calls = self._tail_calls
            if calls is not None:
                calls.append(callback)
                calls.append(args)
                return
            self._tail_calls = calls = [callback, args]
            self._sequence = self._tail_sequence = sequence = sequence + 1
            _push(self._heap, (when, sequence, self._joined, (calls, when, sequence)))
            return
        self._sequence = self._tail_sequence = sequence = sequence + 1
        self._tail_time = when
        self._tail_calls = None
        _push(self._heap, (when, sequence, callback, args))

    def _run_joined(self, calls: list, when: float, sequence: int) -> None:
        """Run a batch of :meth:`push`: its members, in push order."""
        if calls is self._tail_calls:
            self._tail_calls = None  # closed: later pushes start afresh
        # Popped from the end, each member is let go as it runs, as its
        # own entry would have been: a thousand frames a batch carries
        # then do not stay alive, and counted by the collector, until
        # the last has run.
        calls.reverse()
        pop = calls.pop
        try:
            while calls:
                callback = pop()
                callback(*pop())
                if self._stopped:
                    break
        finally:
            if calls:
                calls.reverse()
                heappush(self._heap, (when, sequence, self._joined,
                                      (calls, when, sequence)))

    def timer(self, callback: Callable[[], None]) -> Timer:
        """A restartable :class:`Timer` invoking *callback* on expiry."""
        return Timer(self, callback)

    def every(self, interval: float, callback: Callable[[], None]) -> Periodic:
        """Run ``callback()`` at ``now + interval`` and every *interval*
        after, until the returned handle's ``cancel()``.

        Each deadline is the previous firing's ``now + interval`` — what
        a :class:`Timer` restarted from inside its own callback computes
        — so the instants are the same floats, and on a clock pumped
        late they drift the same way.  Callbacks whose next deadline
        *and* interval are equal form a *round* with ONE heap entry
        between them: a thousand receivers started together cost one
        pop and one push per interval, not a thousand.  A callback
        joining at any other instant is a round of one, which is one
        event per interval as the timer was.

        The ordering rule.  A round runs its live members in the order
        they joined it, all at its entry's ``(deadline, sequence)``, and
        takes that sequence number when it is armed: at its first
        member's join, and after its last member has run each time it
        fires.  Members that join while a round fires are for the next
        instant: they arm a round of their own there, and the firing
        round, re-arming on the same key, joins *it* — behind them.  Set
        against one self-restarting timer per callback, every callback
        still runs at the same instant and members keep their relative
        order; the one thing that can move is an entry for exactly a
        round's instant whose sequence number would have fallen
        *between* two members' numbers, since a round has only one.  If
        it was pushed from inside a member's callback the last time the
        round fired, it now runs before the whole round (plain event or
        new member alike); if it was pushed between two joins of the
        round's first interval, after it.  A checkpoint's own events are
        a frame time and a propagation delay away, never a whole
        interval, so nothing in the bench, E24, the soak or tier-1 is
        such an entry.

        A ``stop()`` from inside a member, or an exception leaving one,
        ends the dispatch there as it ended the timers': the members not
        yet run stay due at the round's own ``(deadline, sequence)``, so
        the next :meth:`run` starts with them, and the round re-arms
        once its last member has run.  A member whose callback raised is
        dropped (a timer whose callback raised was not restarted).
        """
        if not interval > 0:
            raise ValueError(f"period must be positive, got {interval!r}")
        member = Periodic(callback)
        deadline = self.now + interval
        key = (deadline, interval)
        armed = self._rounds.get(key)
        if armed is None:
            self._rounds[key] = _Round(self, key, member)
        else:
            armed.members.append(member)
        return member

    # -- running ----------------------------------------------------------

    def stop(self) -> None:
        """Halt :meth:`run` after the current callback returns (a member
        of a batch or round too: the rest stay due for the next run)."""
        self._stopped = True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Drain the event heap.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time; the clock is then
            advanced exactly to *until* (events at ``t == until`` run).
            A run ended by :meth:`stop` leaves it at the stopping event.
        max_events:
            Safety valve for runaway simulations.

        Returns the final simulation time.
        """
        self._stopped = False
        heap = self._heap
        pop = heappop
        push = heappush
        bounded = until is not None
        limit = float("inf") if max_events is None else max_events
        processed = 0
        try:
            while heap and not self._stopped:
                entry = pop(heap)
                when = entry[0]
                if bounded and when > until:
                    # Past the horizon: put the entry back (rare — at most
                    # once per run call) and stop at exactly *until*.
                    push(heap, entry)
                    self.now = until
                    return until
                self.now = when
                entry[2](*entry[3])
                processed += 1
                if processed >= limit:
                    raise SimulationError(
                        f"exceeded max_events={max_events} (possible runaway simulation)"
                    )
        finally:
            self.event_count += processed
        if bounded and self.now < until and not self._stopped:
            self.now = until
        return self.now

    def peek(self) -> Optional[float]:
        """Time of the next scheduled event, or None if the heap is empty."""
        return self._heap[0][0] if self._heap else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self.now:.6f} pending={len(self._heap)}>"
