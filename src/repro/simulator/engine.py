"""Discrete-event simulation engine.

A :class:`Simulator` owns a clock and an event heap: plain callbacks
are scheduled at absolute or relative times, a :class:`Timer` is a
callback that can be re-armed and cancelled, and :meth:`Simulator.every`
runs a callback once an interval.  That is the whole programming model,
as in the paper: LAMS-DLC is specified as frame handlers, two timers,
and a Check-Point every ``W_cp``.  Events for the same time fire by the
same-instant rule below, on a monotonically increasing sequence number,
so a frame arrival and a timer expiry at one instant resolve
reproducibly.

Hot-path design notes
---------------------
- Heap entries are plain ``(time, key, callback, args)`` tuples,
  compared by ``heapq`` in C (a slotted record's ``__lt__`` was ~3x
  slower); ``heappush``/``heappop`` are bound once, and ``now`` is a
  plain attribute.
- A running :class:`Timer` keeps one heap entry, its *carrier*.
- Periodic callbacks with the same next deadline and interval
  (:meth:`Simulator.every`) share ONE heap entry, a *round*.  Carriers
  (a timer's, an agenda's) and rounds name their class's function and
  pass the owner in ``args``: nothing pushed per frame or per restart
  is a bound method made for that push, and no engine object refers to
  itself, so a drained simulator is freed by reference counting
  (docs/TUNING.md §12 has the measurements).
- The receiving end of a channel — the arrivals of its runs and the
  drains of the receiver it feeds — is one :class:`Agenda`: items that
  keep their own ``(time, key)`` in FIFO lanes, carried by one heap
  entry that runs them inline (docs/TUNING.md §10).
- The cyclic collector stays out of the loop: :meth:`Simulator.run`
  raises generation 0's threshold to :data:`_GEN0_FLOOR` while it runs
  and puts the caller's thresholds back however it leaves.  That is
  safe because nothing made per frame is cyclic garbage, which
  ``tests/test_cyclic_garbage.py`` holds (docs/TUNING.md §12).

The scheduling contract
-----------------------
:class:`Simulator`'s public surface — a monotone ``now``, ``schedule``
/ ``schedule_at``, ``timer()`` and ``every()`` — is what a protocol half
needs from its event source.  The hot paths in
:mod:`repro.core.receiver` and :mod:`repro.simulator.link` inline
``heappush(clock._heap, (when, key, callback, args))``, or append that
same tuple to an :class:`Agenda` lane and announce it with
:meth:`Agenda.added`, so the heap, the ``_sequence`` counter and
``_AFTER`` are part of the ABI.  Every heap entry and agenda item is
such a 4-tuple.  Its key is a sequence number — every push, item, timer
start and round arming takes one — or, for a *planned delivery*,
``_AFTER + n`` (below).  A loop owes a popped entry
``entry[2](*entry[3])`` and nothing else: a carrier names
``Timer._surfaced`` (fire, re-push at the reserved ``(deadline,
sequence)``, or lapse) or ``Agenda._surfaced``, a round
``_Round._fire``.  A loop also keeps ``_horizon``, the latest time an
agenda may run an item inline: :meth:`Simulator.run` sets it to *until*
(+inf without one); and ``_order``, the key of the entry it is running (an
agenda sets its items'), which a receiver settling arrivals lazily
compares with — :meth:`Simulator.run` leaves it +inf, after every key,
between runs.
A clock that is not this engine subclasses
:class:`Simulator` (as :class:`repro.transport.clock.AsyncioClock`
does); the asyncio clock's horizon is -inf, since its pump dispatches by
wall time, so there every agenda item is an entry of its own.

The same-instant rule.  At one instant, every numbered entry runs
first, in number order; planned deliveries run last, in the order their
arrivals were numbered.  A planned delivery is a receiver's delivery of
a payload, planned before the instant it runs at; its key ``_AFTER +
n``, with ``n`` its arrival's number, is after every number, so the
rule is the heap's own tuple order and no key reads the clock
(docs/TUNING.md §10).

The round rule.  A round runs its members in order, letting each go as
it runs.  A ``stop()`` or an exception leaving a member puts the members
not yet run back at the round's own ``(time, sequence)``, so what runs
next is what would have run next with an entry per member.  Once the
list is empty, however its last member returned, the round re-arms at
``now + interval`` — from the clock's own ``now``, as a timer restarted
inside its callback would — or hands its members to the round already
armed there.

The parked-member rule.  A member may leave its round while another
object owes its firings (an idle link, :mod:`repro.core.idle`): the round
counts it in ``held`` and keeps firing, with no call if need be, so that
its key says whether the instant it would have run at has passed (the
owner keeps the count), and it carries the far entries of its parked members
(:meth:`Simulator.carry`), pushing each at its last firing before it is
due, numbered as it was when carried.  A member rejoins with
``every(interval, callback, first=...)`` at the round's next firing.

The agenda rule.  Each item is the entry one push would have made.  The
heap holds a carrier at the agenda's earliest item; when it surfaces,
the agenda runs items in ``(time, key)`` order while the next one
precedes the heap's top, is within the horizon and no ``stop()`` has
been made, then — however it left, an exception included — carries the
new earliest item.  So nothing runs inline that another entry should
have preceded, and whatever reads the receiver's state runs after every
item before it, as it would with an entry per item.

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

from collections import deque
from gc import get_threshold, set_threshold
from heapq import heappop, heappush
from typing import Any, Callable, Optional

__all__ = ["Agenda", "Simulator", "Timer", "SimulationError", "engine_backend"]

_INF = float("inf")
# A planned delivery's key is ``_AFTER + n``: after every sequence number.
_AFTER = 1 << 62
# ``Agenda._armed`` with no head, and while the agenda runs its items.
_IDLE = (_INF, 0)
_RUNNING = (-_INF, 0)
_GEN0_FLOOR = 10_000
"""Generation 0's collection threshold while :meth:`Simulator.run` runs.

CPython's default, 700, collects generation 0 once per ~600 frames of a
saturated link, and on the benchmark those collections free no object:
0.25 s of ``sat_clean``'s ~2 s window (seed 7) went to 511 generation-0,
47 generation-1 and 4 full collections.  At 10,000 the window makes
34 / 3 / 0 and ``frames_per_s`` reads +10% (ten pairs, ahead in all);
a 50,000 floor gained nothing more, and would let that many objects of
any cyclic garbage wait (docs/TUNING.md §12, "The cyclic collector").
"""


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

    A timer owns at most one heap entry that matters, its *carrier*.
    :meth:`start` stores the deadline and reserves the next sequence
    number — the one a push would have used — and pushes ``(deadline,
    sequence)`` only when there is no carrier or the new deadline is
    *earlier* than the carrier's (the old entry then lapses when it
    surfaces).  :meth:`cancel` stores ``None`` and leaves the carrier for
    a later start to reuse.  When the carrier surfaces
    (:meth:`_surfaced`) it fires the callback if it *is* the reserved
    ``(deadline, sequence)``, re-pushes itself there if the deadline has
    moved on, and otherwise lapses.  The callback therefore runs at
    exactly the ``(time, sequence)`` one push per start would have given
    it, and restarting to a later deadline costs three attribute stores.
    """

    __slots__ = ("sim", "callback", "_deadline", "_sequence", "_carrier",
                 "_carrier_time")

    def __init__(self, sim: "Simulator", callback: Callable[[], None]) -> None:
        self.sim = sim
        self.callback = callback
        self._deadline: Optional[float] = None  # None: stopped
        self._sequence = 0  # reserved by the latest start
        self._carrier = 0  # sequence number of the carrier entry
        self._carrier_time: Optional[float] = None  # its time; None: no carrier

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
        if not delay >= 0:  # NaN too
            raise ValueError(f"negative timer delay: {delay!r}")
        sim = self.sim
        sim._sequence = self._sequence = sim._sequence + 1
        self._deadline = deadline = sim.now + delay
        carried = self._carrier_time
        if carried is None or deadline < carried:
            # No carrier, or one due after the deadline: a new carrier at
            # the deadline, made as one surfacing short of it makes it.
            self._surfaced(self._carrier)

    def restart(self, delay: float) -> None:
        """Alias of :meth:`start`; reads better at call sites that reset."""
        self.start(delay)

    def start_at(self, deadline: float) -> None:
        """(Re)arm the timer to fire at *deadline* exactly (not before now):
        a deadline computed elsewhere, which ``now + (deadline - now)``
        may miss by an ulp."""
        sim = self.sim
        if not deadline >= sim.now:  # NaN too
            raise ValueError(f"timer deadline in the past: {deadline!r}")
        sim._sequence = self._sequence = sim._sequence + 1
        self._deadline = deadline
        carried = self._carrier_time
        if carried is None or deadline < carried:
            self._surfaced(self._carrier)

    def cancel(self) -> None:
        """Disarm the timer; its carrier lapses (or is reused) later."""
        self._deadline = None

    def _surfaced(self, sequence: int) -> None:
        """The heap entry pushed with *sequence* reached the top (or
        :meth:`start` needs a carrier, and passes the current one's)."""
        if sequence != self._carrier:
            return  # left behind by a start that shortened the deadline
        deadline = self._deadline
        if deadline is None:
            self._carrier_time = None  # cancelled, never restarted
        elif sequence == self._sequence:
            self._carrier_time = self._deadline = None
            self.callback()
        else:
            # Short of the deadline: ``(deadline, reserved sequence)``
            # becomes the carrier.
            self._carrier_time = deadline
            self._carrier = sequence = self._sequence
            heappush(self.sim._heap, (deadline, sequence, Timer._surfaced, (self, sequence)))


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

    Armed at ``sim._rounds``' key ``key``, one heap entry ``(when,
    sequence, _Round._fire, (round, sequence))``: :meth:`_fire` runs the
    members in ``calls`` by the round rule (module docstring), and a
    member still live after it has run goes to ``ahead``, the next
    firing's members.  ``held`` counts the members parked off it (the
    parked-member rule): while any is, the round keeps firing with no
    member, so that its key says where the members it would have run
    stand, and ``later`` is a heap of the entries it carries for them
    (:meth:`Simulator.carry`), each pushed at the last firing before it
    is due.
    """

    __slots__ = ("sim", "key", "calls", "ahead", "held", "later")

    def __init__(self, sim: "Simulator", key: tuple[float, float]) -> None:
        self.sim = sim
        self.key = key
        self.calls: list[Periodic] = []
        self.ahead: list[Periodic] = []
        self.held = 0
        self.later: list = []
        sim._rounds[key] = self
        self._arm()

    def _arm(self) -> None:
        sim = self.sim
        sim._sequence = sequence = sim._sequence + 1
        heappush(sim._heap, (self.key[0], sequence, _Round._fire, (self, sequence)))

    def _fire(self, sequence: int) -> None:
        """Run the members — each stays for the next firing unless it raised
        (as a timer whose callback raised was not restarted) or was
        cancelled — then re-arm, or put back the members not yet run."""
        sim = self.sim
        calls, ahead = self.calls, self.ahead
        # Popped from the end, each member is let go as it runs, as its
        # own entry would have been.
        calls.reverse()
        pop = calls.pop
        try:
            while calls:
                member = pop()
                callback = member.callback
                if callback is not None:
                    callback()
                    if member.callback is not None:
                        ahead.append(member)
                if sim._stopped:
                    break
        finally:
            if calls:
                calls.reverse()
                heappush(sim._heap, (self.key[0], sequence, _Round._fire, (self, sequence)))
            else:
                self._rearm()

    def _rearm(self) -> None:
        """Arm the members that stayed at ``now + interval`` (or join the round there)."""
        sim = self.sim
        rounds = sim._rounds
        del rounds[self.key]
        calls, self.ahead = self.ahead, self.calls  # the spent list is empty
        if not calls and not self.held:
            return  # every member cancelled or raised: the round lapses
        interval = self.key[1]
        self.key = key = (sim.now + interval, interval)
        later = self.later
        while later and later[0][0] <= key[0]:
            heappush(sim._heap, heappop(later))
        armed = rounds.setdefault(key, self)
        if armed is self:
            self.calls = calls
            self._arm()
        else:
            armed.calls += calls
            armed.held += self.held
            for entry in later:
                heappush(armed.later, entry)


class Agenda:
    """Items that keep their own ``(time, key)`` but share one heap entry.

    An item is a ``(time, key, callback, args)`` tuple, exactly the heap
    entry one push would have made; it waits in one of the agenda's FIFO
    ``lanes``, each of which its owner fills in ``(time, key)`` order.
    The heap holds a *carrier* at the earliest head: an item added ahead
    of the carried head gets a carrier of its own (the old one stays,
    surfaces, finds a later head and carries that).  When a carrier
    surfaces at its own item, :meth:`_surfaced` runs heads in order, each
    at its own ``now``, for as long as the next one precedes the heap's
    top and lies within the running loop's horizon (``sim._horizon``),
    stopping after a ``stop()``; then, however it left (an exception
    included), it carries the new head.  Every item therefore runs at the
    ``(time, key)`` and in the order one heap entry per item would have
    given it.
    """

    __slots__ = ("sim", "lanes", "_armed", "_carried")

    def __init__(self, sim: "Simulator", lanes: int = 2) -> None:
        self.sim = sim
        self.lanes = tuple(deque() for _ in range(lanes))
        # ``(time, key)`` of the carried head: _IDLE when empty, _RUNNING
        # while running (nothing added then needs a carrier).
        self._armed = _IDLE
        # ``(time, key)`` of this agenda's carriers in the heap: a delivery
        # planned again (behind a frame handed over on its own, or a
        # flush) keeps its key at another time.
        self._carried: set = set()

    def add(self, lane: deque, when: float, callback: Callable, args: tuple) -> None:
        """Put ``callback(*args)`` at ``when`` on *lane*, at the next sequence number."""
        sim = self.sim
        sim._sequence = sequence = sim._sequence + 1
        lane.append((when, sequence, callback, args))
        if (when, sequence) < self._armed:
            self._carry(when, sequence)

    def added(self, when: float, key: int) -> None:
        """An owner appended items itself, the first at ``(when, key)``."""
        if (when, key) < self._armed:
            self._carry(when, key)

    def insert(self, lane: deque, items: list) -> None:
        """Merge *items* — entries numbered earlier, in ``(time, key)``
        order — into *lane*, carrying the first if it now leads (and no
        carrier of its key is in the heap already)."""
        lead = self._head()
        lead = lead[0] if lead is not None else None
        if not lane or lane[-1] < items[0]:
            lane.extend(items)
        else:
            merged = sorted((*lane, *items))
            lane.clear()
            lane.extend(merged)
        when, key = items[0][0], items[0][1]
        if (self._armed is not _RUNNING and (when, key) not in self._carried and (
                lead is None or when < lead[0] or (when == lead[0] and key < lead[1]))):
            self._carry(when, key)

    def discard(self, lane: deque, keep: Callable[[tuple], bool]) -> None:
        """Drop the items of *lane* that *keep* rejects.  A dropped head's
        carrier surfaces, finds a later head and carries that."""
        kept = [item for item in lane if keep(item)]
        if len(kept) != len(lane):
            lane.clear()
            lane.extend(kept)
            self._dropped()

    def trim(self, lane: deque, head: int = 0, tail: int = 0) -> None:
        """Drop *head* items from the front of *lane* and *tail* from its back."""
        for _ in range(head):
            lane.popleft()
        for _ in range(tail):
            lane.pop()
        if head or tail:
            self._dropped()

    def _dropped(self) -> None:
        if self._armed is not _RUNNING:  # while running, the run carries at its end
            self._rearm()

    def _carry(self, when: float, key: int) -> None:
        self._armed = (when, key)
        self._carried.add((when, key))
        heappush(self.sim._heap, (when, key, Agenda._surfaced, (self, key)))

    def _head(self) -> Optional[deque]:
        """The lane whose head comes first."""
        head = None
        for lane in self.lanes:
            if lane:
                if head is None:
                    head = lane
                    continue
                first, item = lane[0], head[0]
                if first[0] < item[0] or (first[0] == item[0] and first[1] < item[1]):
                    head = lane
        return head

    def _surfaced(self, key: int) -> None:
        """A carrier reached the top at ``(now, key)``.  If the head is its
        item, run the heads that precede everything else; then carry the
        new head."""
        sim = self.sim
        heap = sim._heap
        horizon = sim._horizon
        lanes = self.lanes
        self._carried.discard((sim.now, key))
        self._armed = _RUNNING
        try:
            head = self._head()
            if head is None or head[0][1] != key or head[0][0] != sim.now:
                return  # not its item: a later one (its own was dropped or moved)
            item = head.popleft()
            sim._order = key
            item[2](*item[3])
            while not sim._stopped:
                item = None
                for lane in lanes:
                    if lane:
                        first = lane[0]
                        if item is None or first[0] < item[0] or (
                                first[0] == item[0] and first[1] < item[1]):
                            item, head = first, lane
                if item is None:
                    break
                when = item[0]
                if when > horizon:
                    break
                if heap:
                    top = heap[0]
                    if when > top[0] or (when == top[0] and item[1] >= top[1]):
                        break
                head.popleft()
                sim.now = when
                sim._order = item[1]
                item[2](*item[3])
        finally:
            self._rearm()

    def _rearm(self) -> None:
        """Carry the head, unless a carrier of its own is still in the heap."""
        head = self._head()
        if head is None:
            self._armed = _IDLE
            return
        when, key = head[0][0], head[0][1]
        if (when, key) in self._carried:
            self._armed = (when, key)
        else:
            self._carry(when, key)


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
        # The running loop's horizon: an agenda runs nothing inline past it.
        self._horizon = _INF
        # The key of the entry or agenda item being run (a round's for
        # each of its members); +inf between runs, after every key.
        # What settles lazily (LamsReceiver._settle) compares with it.
        self._order = _INF
        self.event_count = 0
        # Armed rounds by (next deadline, interval); see every().
        self._rounds: dict[tuple[float, float], _Round] = {}

    # -- scheduling ------------------------------------------------------

    def schedule(self, delay: float, callback: Callable, *args: Any,
                 _push=heappush) -> None:
        """Run ``callback(*args)`` at ``now + delay``."""
        if not delay >= 0:  # NaN too
            raise ValueError(f"cannot schedule into the past (delay={delay!r})")
        self._sequence = sequence = self._sequence + 1
        _push(self._heap, (self.now + delay, sequence, callback, args))

    def schedule_at(self, when: float, callback: Callable, *args: Any,
                    _push=heappush) -> None:
        """Run ``callback(*args)`` at absolute time *when*."""
        now = self.now
        if not when >= now:  # NaN too
            raise ValueError(f"cannot schedule into the past (delay={when - now!r})")
        self._sequence = sequence = self._sequence + 1
        _push(self._heap, (when, sequence, callback, args))

    def timer(self, callback: Callable[[], None]) -> Timer:
        """A restartable :class:`Timer` invoking *callback* on expiry."""
        return Timer(self, callback)

    def every(self, interval: float, callback: Callable[[], None],
              first: Optional[float] = None) -> Periodic:
        """Run ``callback()`` at ``now + interval`` (at *first*, when given:
        not before now) and every *interval* after, until the returned
        handle's ``cancel()``.

        Each deadline is the previous firing's ``now + interval``, the
        floats a :class:`Timer` restarted inside its callback computes.
        Callbacks whose next deadline *and* interval are equal form a
        *round*, one heap entry: a thousand receivers started together
        cost one pop and one push per interval.

        The ordering rule.  A round runs its live members in the order
        they joined, and takes its one sequence number when it is armed:
        at its first member's join, and after its last member has run
        each time it fires.  Members that join while a round fires arm a
        round of their own at the next instant; the firing round joins it
        there, behind them.  Set against one self-restarting timer per
        callback, every callback runs at the same instant and members
        keep their relative order.  What can move is an entry for exactly
        a round's instant whose number would have fallen *between* two
        members': it now runs before the whole round if a member pushed
        it the last time the round fired, after it if it was pushed
        between two joins of the first interval.  Nothing in the bench,
        E24, the soak or tier-1 is such an entry.  A member whose
        callback raised is dropped, as a raising timer was not restarted.
        """
        if not interval > 0:
            raise ValueError(f"period must be positive, got {interval!r}")
        if first is None:
            first = self.now + interval
        elif not first >= self.now:  # NaN too
            raise ValueError(f"cannot start a round in the past (first={first!r})")
        member = Periodic(callback)
        key = (first, interval)
        armed = self._rounds.get(key) or _Round(self, key)
        armed.calls.append(member)
        return member

    def carry(self, key: tuple[float, float], when: float, callback: Callable,
              args: tuple) -> None:
        """Run ``callback(*args)`` at *when* (not before the next firing of
        the round armed at *key*, which holds parked members), numbered
        now.  Past that firing, the round carries the entry and pushes it
        at its last firing before *when*: the far entries of all its
        parked members take no room in the heap."""
        self._sequence = sequence = self._sequence + 1
        entry = (when, sequence, callback, args)
        if when <= key[0]:
            heappush(self._heap, entry)
        else:
            heappush(self._rounds[key].later, entry)

    # -- running ----------------------------------------------------------

    def stop(self) -> None:
        """Halt :meth:`run` after the current callback (or round member) returns."""
        self._stopped = True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Drain the event heap; return the final simulation time.

        With *until*, stop once the clock would pass it and advance the
        clock exactly to it (events at ``t == until`` run) — never back:
        an *until* behind ``now`` runs nothing and leaves the clock where
        it is.  A run ended by :meth:`stop` leaves the clock at the
        stopping event.  An infinite *until* is no bound; a NaN one is a
        ``ValueError``.  *max_events* is a safety valve for runaway
        simulations.

        While it runs, the cyclic collector's generation-0 threshold is
        at least :data:`_GEN0_FLOOR` (a caller's threshold at or above
        it, or 0, is left alone), and the caller's thresholds are back
        when it returns or raises.
        """
        if until != until:  # NaN: every ``when > until`` would be false
            raise ValueError(f"cannot run until {until!r}")
        if until == _INF:
            until = None
        self._stopped = False
        heap = self._heap
        pop = heappop
        push = heappush
        bounded = until is not None
        self._horizon = until if bounded else _INF
        limit = float("inf") if max_events is None else max_events
        processed = 0
        thresholds = get_threshold()
        raised = 0 < thresholds[0] < _GEN0_FLOOR
        if raised:
            set_threshold(_GEN0_FLOOR, *thresholds[1:])
        try:
            while heap and not self._stopped:
                entry = pop(heap)
                when = entry[0]
                if bounded and when > until:
                    # Past the horizon: put the entry back (rare — at most
                    # once per run call) and stop at *until*.
                    push(heap, entry)
                    break
                self.now = when
                self._order = entry[1]
                entry[2](*entry[3])
                processed += 1
                if processed >= limit:
                    raise SimulationError(
                        f"exceeded max_events={max_events} (possible runaway simulation)"
                    )
        finally:
            self.event_count += processed
            if raised:
                set_threshold(*thresholds)
        if not self._stopped:
            self._order = _INF
            if bounded and self.now < until:
                self.now = until
        return self.now

    def peek(self) -> Optional[float]:
        """Time of the next scheduled event, or None if the heap is empty."""
        return self._heap[0][0] if self._heap else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self.now:.6f} pending={len(self._heap)}>"
