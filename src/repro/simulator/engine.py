"""Discrete-event simulation engine.

A :class:`Simulator` owns a clock and an event heap: plain callbacks
are scheduled at absolute or relative times (:meth:`Simulator.push` is
the hot paths' absolute-time push), a :class:`Timer` is a callback that
can be re-armed and cancelled, and :meth:`Simulator.every` runs a
callback once an interval.  That is the whole programming model, as in
the paper: LAMS-DLC is specified as frame handlers, two timers, and a
Check-Point every ``W_cp``.  Events for the same time fire in the order
they were scheduled (a monotonically increasing sequence number breaks
ties), so a frame arrival and a timer expiry at one instant resolve
reproducibly.

Hot-path design notes
---------------------
- Heap entries are plain ``(time, sequence, callback, args)`` tuples,
  compared by ``heapq`` in C (a slotted record's ``__lt__`` was ~3x
  slower); ``heappush``/``heappop`` are bound once, and ``now`` is a
  plain attribute.
- A running :class:`Timer` keeps one heap entry, its *carrier*.
- Several calls share ONE heap entry where their order allows: pushes
  made back to back for one instant (:meth:`Simulator.push`, a *batch*)
  and periodic callbacks with the same next deadline and interval
  (:meth:`Simulator.every`, a *round*).  A shared entry's calls are a
  plain list and its runner, :meth:`Simulator._run_joined`, is bound
  once per simulator; nothing pushed per frame or per restart is a
  bound method made for that push, or an object that refers to itself
  (docs/TUNING.md §12 has the measurements).
- The receiving end of a channel — the arrivals of its runs and the
  drains of the receiver it feeds — is one :class:`Agenda`: items that
  keep their own ``(time, sequence)`` in FIFO lanes, carried by one heap
  entry that runs them inline (docs/TUNING.md §10).  A delivery planned
  ahead of its arrival keeps that arrival's rank (the rank rule).

The scheduling contract
-----------------------
:class:`Simulator`'s public surface — a monotone ``now``, ``schedule`` /
``schedule_at``, ``push``, ``timer()`` and ``every()`` — is what a
protocol half needs from its event source.  The hot paths in
:mod:`repro.core.receiver` and :mod:`repro.simulator.link` inline
``heappush(clock._heap, (when, clock._sequence, callback, args))``, or
append that same tuple to an :class:`Agenda` lane and announce it with
:meth:`Agenda.added`, so the heap and the ``_sequence`` counter are part
of the ABI; every such push or item takes a number, which closes an open
batch — but a *planned* item (the rank rule, below), which takes its
arrival's.  A loop
owes a popped entry ``entry[2](*entry[3])`` and nothing else: a carrier
names ``Timer._surfaced`` (fire, re-push at the reserved ``(deadline,
sequence)``, or lapse) or ``Agenda._surfaced`` (through ``_ranked``
for a carrier at a rank), a shared entry the
runner.  A loop also keeps ``_horizon``, the latest time an agenda may
run an item inline: :meth:`Simulator.run` sets it to *until* (+inf
without one); ``_order``, the sequence number of the entry it is
running (an agenda sets its items' own, and ``_item`` to the item),
which a receiver settling arrivals lazily compares with —
:meth:`Simulator.run` leaves it "after everything" between runs; and the
dispatch log, a ``_note`` after each dispatch that moved ``_sequence``.
A clock that is not this engine subclasses
:class:`Simulator` (as :class:`repro.transport.clock.AsyncioClock`
does); the asyncio clock's horizon is -inf, since its pump dispatches by
wall time, so there every agenda item is an entry of its own.

The shared-entry rule.  The runner runs the entry's calls in order,
letting each go as it runs.  A ``stop()`` or an exception leaving a call
puts the calls not yet run back at the entry's own ``(time, sequence)``,
so what runs next is what would have run next with an entry per call.
Once the list is empty, however its last call returned, the runner makes
the entry's trailing call: a round's re-arm at ``now + interval`` — from
the clock's own ``now``, as a timer restarted inside its callback would
— and nothing for a batch.

The agenda rule.  Each item is the entry one push would have made.  The
heap holds a carrier at the agenda's earliest item; when it surfaces,
the agenda runs items in ``(time, sequence)`` order while the next one
precedes the heap's top, is within the horizon and no ``stop()`` has
been made, then — however it left, an exception included — carries the
new earliest item.  So nothing runs inline that another entry should
have preceded, and whatever reads the receiver's state runs after every
item before it, as it would with an entry per item.

The rank rule.  A delivery planned when its run is decided, before its
arrival lands, is a *planned* item ``(time, arrival sequence, callback,
args, arrival time)``: it keeps the rank a delivery numbered at its
arrival would have had.  Against any entry or item of its own instant it
runs after everything numbered before the dispatch passed its arrival's
``(time, sequence)`` and before everything numbered after; planned items
tied with each other go in arrival order.  That rank is
``(time, c + 0.5, arrival)`` (:meth:`Simulator._key`), where ``c`` is the
counter when the dispatch passed the arrival: the dispatch log keeps
``(key, counter)`` for each dispatch that moved the counter, so ``c`` is
a bisect away, and the log is pruned behind the oldest arrival a planned
item not yet made keeps the rank of.  The rank is read only where a
planned item ties in time with another entry — an agenda's head against
the heap's top or another lane's head, a receiver's delivery against an
arrival or the running entry — and a planned head that must let a tied
entry go first is carried again at its rank, once its arrival has passed.

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

from bisect import bisect_left
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Optional

__all__ = ["Agenda", "Simulator", "Timer", "SimulationError", "engine_backend"]

_INF = float("inf")
# ``Simulator._order`` outside a dispatch: after every number taken so far.
_AFTER = 1 << 62
# Entries the dispatch log holds before it is pruned behind the oldest
# arrival a planned item still keeps the rank of.
_LOG_LIMIT = 1024


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
        if not delay >= 0:  # NaN too
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

    __slots__ = ("callback", "run")

    def __init__(self, callback: Callable[[], None]) -> None:
        self.callback: Optional[Callable[[], None]] = callback  # None: cancelled
        # Bound once: the call a round's list holds for this member.
        self.run = self._run

    def cancel(self) -> None:
        """Never run again; the round drops the member when it next fires."""
        self.callback = None

    def _run(self, home: "_Round") -> None:
        """Run the callback and stay for *home*'s next firing — unless it
        raised (as a timer whose callback raised was not restarted) or
        cancelled this member."""
        callback = self.callback
        if callback is not None:
            callback()
            if self.callback is not None:
                ahead = home.ahead
                ahead.append(self.run)
                ahead.append(home.args)


class _Round:
    """The periodic callbacks that share one ``(next deadline, interval)``.

    A shared entry armed at ``sim._rounds``' key ``key``: its ``calls``
    are its members' ``run``, each passed the round, and its trailing
    call is :meth:`_rearm`.  A member still live after it has run
    appends itself to ``ahead``, the next firing's calls.
    """

    __slots__ = ("sim", "key", "calls", "ahead", "args", "rearm")

    def __init__(self, sim: "Simulator", key: tuple[float, float]) -> None:
        self.sim = sim
        self.key = key
        self.calls: list = []
        self.ahead: list = []
        self.args = (self,)
        # Bound once: the trailing call every entry of this round carries.
        self.rearm = self._rearm
        sim._rounds[key] = self
        sim._share(key[0], self.calls, self.rearm)

    def _rearm(self) -> None:
        """Arm the members that stayed at ``now + interval`` (or join the round there)."""
        sim = self.sim
        rounds = sim._rounds
        del rounds[self.key]
        calls, self.ahead = self.ahead, self.calls  # the spent list is empty
        if not calls:
            return  # every member cancelled or raised: the round lapses
        interval = self.key[1]
        self.key = key = (sim.now + interval, interval)
        armed = rounds.setdefault(key, self)
        if armed is self:
            self.calls = calls
            sim._share(key[0], calls, self.rearm)
        else:
            calls[1::2] = (armed.args,) * (len(calls) // 2)
            armed.calls += calls


def _ranked(key: float, arrival: tuple, agenda: "Agenda") -> None:
    """A carrier at a rank (:meth:`Agenda._defer`): *agenda*'s head
    surfaced at ``(now, key)``.  A function, not a bound method, so that
    two carriers at one rank compare by their arrivals, never by agenda."""
    agenda._surfaced(key)


class Agenda:
    """Items that keep their own ``(time, sequence)`` but share one heap entry.

    An item is a ``(time, sequence, callback, args)`` tuple, exactly the
    heap entry one push would have made; it waits in one of the agenda's
    FIFO ``lanes``, each of which its owner fills in ``(time, sequence)``
    order.  The heap holds a *carrier* at the earliest head: an item added
    earlier than the carried head gets a carrier of its own (the old one
    stays, surfaces, finds a later head and carries that).  When a carrier
    surfaces at its own item, :meth:`_surfaced` runs heads in order, each
    at its own ``now``, for as long as the next one precedes the heap's
    top — ties broken by rank — and lies within the running loop's horizon
    (``sim._horizon``), stopping after a ``stop()``; then, however it left
    (an exception included), it carries the new head.  Every item
    therefore runs at the ``(time, sequence)`` and in the order one heap
    entry per item would have given it.

    A *planned* item, ``(time, arrival sequence, callback, args, arrival
    time)``, is made ahead of the arrival it belongs to and takes no
    number: it keeps the rank that arrival gives it (:meth:`Simulator._key`,
    the rank rule), for which its arrival's number is a lower bound that
    stands in except where it ties with another entry.  There the rank
    decides, and a planned head that must let a tied entry go first is
    carried again at its rank (:meth:`_defer`).
    """

    __slots__ = ("sim", "lanes", "_armed", "_carried", "_on_surface")

    def __init__(self, sim: "Simulator", lanes: int = 2) -> None:
        self.sim = sim
        self.lanes = tuple(deque() for _ in range(lanes))
        # Time of the carried head: +inf when empty, -inf while running
        # (nothing added then needs a carrier).
        self._armed = _INF
        self._carried: set = set()  # keys of this agenda's carriers in the heap
        # Bound once: the object every carrier at a number carries.
        self._on_surface = self._surfaced

    def add(self, lane: deque, when: float, callback: Callable, args: tuple) -> None:
        """Put ``callback(*args)`` at ``when`` on *lane*, at the next sequence number."""
        sim = self.sim
        sim._sequence = sequence = sim._sequence + 1
        lane.append((when, sequence, callback, args))
        if when < self._armed:
            self._carry(when, sequence)

    def added(self, when: float, sequence: int) -> None:
        """An owner appended items itself, the first at ``(when, sequence)``."""
        if when < self._armed:
            self._carry(when, sequence)

    def insert(self, lane: deque, items: list) -> None:
        """Merge *items* — entries numbered earlier, in ``(time, sequence)``
        order — into *lane*, carrying the first if it now leads (and no
        carrier of its number is in the heap already)."""
        lead = self._head()
        lead = lead[0] if lead is not None else None
        if not lane or lane[-1] < items[0]:
            lane.extend(items)
        else:
            merged = sorted((*lane, *items))
            lane.clear()
            lane.extend(merged)
        first = items[0]
        if (self._armed != -_INF and (lead is None or first[0] < lead[0] or (
                first[0] == lead[0] and self.sim._key(first) < self.sim._key(lead)))
                and first[1] not in self._carried):
            self._carry(first[0], first[1])

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
        if self._armed != -_INF:  # while running, the run carries at its end
            self._rearm()

    def _carry(self, when: float, key: float, arrival: Optional[tuple] = None) -> None:
        self._armed = when
        self._carried.add(key)
        if arrival is None:
            heappush(self.sim._heap, (when, key, self._on_surface, (key,)))
        else:
            heappush(self.sim._heap, (when, key, _ranked, (key, arrival, self)))

    def _head(self) -> Optional[deque]:
        """The lane whose head comes first (a tie decided by rank)."""
        head = None
        for lane in self.lanes:
            if lane:
                if head is None:
                    head = lane
                    continue
                first, item = lane[0], head[0]
                if first[0] < item[0] or (
                        first[0] == item[0] and self.sim._key(first) < self.sim._key(item)):
                    head = lane
        return head

    def _surfaced(self, key: float) -> None:
        """A carrier reached the top at ``(now, key)``.  If the head is its
        item, run the heads that precede everything else; then carry the
        new head."""
        sim = self.sim
        heap = sim._heap
        horizon = sim._horizon
        lanes = self.lanes
        self._carried.discard(key)
        self._armed = -_INF
        counted = sim._counted
        deferred = False
        try:
            item = None
            for lane in lanes:
                if lane:
                    first = lane[0]
                    if item is None or first[0] < item[0]:
                        item, head = first, lane
                    elif first[0] == item[0] and sim._key(first) < sim._key(item):
                        item, head = first, lane
            if item is None:
                return
            when = item[0]
            if when != sim.now or (item[1] != key and (
                    len(item) < 5 or key != sim._key(item)[1])):
                return  # not its item: a later one (its own was dropped)
            if len(item) > 4 and key == item[1] and heap:
                top = heap[0]
                if top[0] == when and not sim._key(item) < sim._key(top):
                    self._defer(item)
                    deferred = True
                    return
            head.popleft()
            sim._order = item[1]
            sim._item = item
            item[2](*item[3])
            while not sim._stopped:
                if sim._sequence != counted:
                    sim._note(item)
                    counted = sim._counted
                item = None
                for lane in lanes:
                    if lane:
                        first = lane[0]
                        if item is None or first[0] < item[0]:
                            item, head = first, lane
                        elif first[0] == item[0] and sim._key(first) < sim._key(item):
                            item, head = first, lane
                if item is None:
                    break
                when = item[0]
                if when > horizon:
                    break
                if heap:
                    top = heap[0]
                    if when >= top[0] and (when > top[0] or not (
                            item[1] < top[1] if len(item) < 5 else sim._key(item) < sim._key(top))):
                        if when == top[0] and len(item) > 4 and item[1] < top[1]:
                            # Its number said first, its rank says later: the
                            # next dispatch is past its arrival, so the rank holds.
                            self._defer(item)
                            deferred = True
                        break
                head.popleft()
                sim.now = when
                sim._order = item[1]
                sim._item = item
                item[2](*item[3])
        finally:
            if sim._sequence != counted:  # moved by the last item run
                sim._note(sim._item)
            if not deferred:
                self._rearm()

    def _defer(self, item: tuple) -> None:
        """Carry the planned head *item*, whose arrival has passed, at its rank."""
        key = self.sim._key(item)
        self._armed = item[0]
        if key[1] not in self._carried:
            self._carry(item[0], key[1], key[2:])

    def _rearm(self) -> None:
        """Carry the head, unless a carrier of its own is still in the heap
        — at its rank, if it is planned, its arrival has passed and the
        heap's top ties with it."""
        head = self._head()
        if head is None:
            self._armed = _INF
            return
        item = head[0]
        when, sequence = item[0], item[1]
        if len(item) > 4:
            sim = self.sim
            heap = sim._heap
            if heap and heap[0][0] == when and (item[4], sequence) < (sim.now, sim._order):
                self._defer(item)
                return
        self._armed = when
        carried = self._carried
        if sequence not in carried:
            carried.add(sequence)
            heappush(self.sim._heap, (when, sequence, self._on_surface, (sequence,)))


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
        # The sequence number of the entry or agenda item being run (a
        # shared entry's for each of its calls); _AFTER between runs.
        # What settles lazily (LamsReceiver._settle) compares with it.
        self._order = _AFTER
        # The agenda item being run last (a planned one's rank is read from
        # it by _running_key).
        self._item: Optional[tuple] = None
        # The dispatch log: ``(*key, counter)`` for each dispatch after
        # which ``_sequence`` had moved, keys in dispatch order, so the
        # counter at any position already passed is a bisect away
        # (_counter_at).  ``_counted`` is the counter last logged; each
        # object in ``_planners`` names, by ``_oldest_arrival()``, the
        # oldest arrival whose rank it may still ask for.  With no
        # planner there is no planned item and the loops log nothing.
        self._log: list[tuple] = [(-_INF, 0, 0)]
        self._counted = 0
        self._log_limit = _LOG_LIMIT
        self._planners: list = []
        self.event_count = 0
        # Armed rounds by (next deadline, interval); see every().
        self._rounds: dict[tuple[float, float], _Round] = {}
        # The tail of push(): time and sequence number of its latest
        # entry, and that entry's call list if it is a batch still open.
        self._tail_time = 0.0
        self._tail_sequence = -1
        self._tail_calls: Optional[list] = None
        # Bound once: the object every shared entry carries.
        self._joined = self._run_joined

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

    def push(self, when: float, callback: Callable, args: tuple,
             _push=heappush) -> None:
        """Run ``callback(*args)`` at absolute time *when* (not checked
        against ``now``), sharing a heap entry where the push rule allows.

        The push rule.  A push for the same instant as the previous push
        made here, with no sequence number taken in between, joins it:
        the first push for an instant is a plain entry, the second opens
        a *batch* — a shared entry whose list holds callback, args,
        callback, args, … — and later ones append to it.  The batch
        closes when anything takes a number (any other push, a
        :class:`Timer` start, a round arming) and when it starts to run.
        The order is exact: the members would have taken consecutive
        numbers at one instant, so nothing could run between them, and
        what is pushed while they run would have come after them either
        way.  Only the numbers taken after a batch are fewer.
        """
        sequence = self._sequence
        if sequence == self._tail_sequence and when == self._tail_time:
            calls = self._tail_calls
            if calls is not None:
                calls.append(callback)
                calls.append(args)
                return
            self._tail_calls = calls = [callback, args]
            self._tail_sequence = self._share(when, calls, None)
            return
        self._sequence = self._tail_sequence = sequence = sequence + 1
        self._tail_time = when
        self._tail_calls = None
        _push(self._heap, (when, sequence, callback, args))

    def _share(self, when: float, calls: list, then: Optional[Callable]) -> int:
        """Push *calls* as one shared entry at *when*; its sequence number."""
        self._sequence = sequence = self._sequence + 1
        heappush(self._heap, (when, sequence, self._joined, (calls, when, sequence, then)))
        return sequence

    def _run_joined(self, calls: list, when: float, sequence: int,
                    then: Optional[Callable]) -> None:
        """Run a shared entry by the shared-entry rule (module docstring)."""
        if calls is self._tail_calls:
            self._tail_calls = None  # closed: later pushes start afresh
        # Popped from the end, each call is let go as it runs, as its own
        # entry would have been, not kept alive until the last has run.
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
                                      (calls, when, sequence, then)))
            elif then is not None:
                then()

    # -- the rank rule ----------------------------------------------------

    def _key(self, entry: tuple) -> tuple:
        """The full dispatch key of an entry or agenda item: ``(time,
        sequence)``, or for a planned item ``(time, c + 0.5, arrival time,
        arrival sequence)``, where ``c`` is the counter when the dispatch
        passed its arrival (``_counter_at``).  That is the rank a
        delivery numbered at its arrival would have had: after every entry
        numbered before the arrival was passed, before every entry numbered
        after, and among planned items in arrival order.  Compared only
        where two entries tie in time."""
        if len(entry) > 4:
            when, sequence = entry[4], entry[1]
            return (entry[0], self._counter_at(when, sequence) + 0.5, when, sequence)
        if entry[2] is _ranked:
            return (entry[0], entry[1], *entry[3][1])  # a carrier at a rank
        return (entry[0], entry[1])

    def _running_key(self) -> tuple:
        """The dispatch key of the entry or item being run."""
        item = self._item
        if (item is not None and len(item) > 4 and item[1] == self._order
                and item[0] == self.now):
            return self._key(item)
        return (self.now, self._order)

    def _counter_at(self, when: float, sequence: int) -> int:
        """``_sequence`` as the dispatch passed position ``(when, sequence)``:
        the counter after the last logged dispatch before it, or — not
        passed yet — the counter now, which every entry made before it is
        passed stays at or under."""
        log = self._log
        index = bisect_left(log, (when, sequence))
        if index == len(log) and (when > self.now or (
                when == self.now and sequence > self._order)):
            return self._sequence
        return log[index - 1][-1] if index else log[0][-1]

    def _plan(self, planner: Any) -> None:
        """*planner* may make planned items from now on: keep the dispatch
        log (from here, the first time) and prune it behind *planner*'s
        oldest arrival too."""
        if not self._planners:
            self._note((self.now, self._order, None, ()))
        if planner not in self._planners:
            self._planners.append(planner)

    def _note(self, entry: tuple) -> None:
        """Log that ``_sequence`` moved during the dispatch of *entry*."""
        self._counted = counter = self._sequence
        log = self._log
        if len(entry) < 5 and entry[2] is not _ranked:
            log.append((entry[0], entry[1], counter))
        else:
            log.append((*self._key(entry), counter))
        if len(log) > self._log_limit:
            oldest = None
            for planner in self._planners:
                arrival = planner._oldest_arrival()
                if arrival is not None and (oldest is None or arrival < oldest):
                    oldest = arrival
            keep = len(log) - 1 if oldest is None else bisect_left(log, oldest) - 1
            if keep > 0:
                del log[:keep]
            self._log_limit = max(_LOG_LIMIT, 2 * len(log))

    def timer(self, callback: Callable[[], None]) -> Timer:
        """A restartable :class:`Timer` invoking *callback* on expiry."""
        return Timer(self, callback)

    def every(self, interval: float, callback: Callable[[], None]) -> Periodic:
        """Run ``callback()`` at ``now + interval`` and every *interval*
        after, until the returned handle's ``cancel()``.

        Each deadline is the previous firing's ``now + interval``, the
        floats a :class:`Timer` restarted inside its callback computes.
        Callbacks whose next deadline *and* interval are equal form a
        *round*, one shared entry: a thousand receivers started together
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
        member = Periodic(callback)
        key = (self.now + interval, interval)
        armed = self._rounds.get(key) or _Round(self, key)
        armed.calls += member.run, armed.args
        return member

    # -- running ----------------------------------------------------------

    def stop(self) -> None:
        """Halt :meth:`run` after the current callback (or shared call) returns."""
        self._stopped = True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Drain the event heap; return the final simulation time.

        With *until*, stop once the clock would pass it and advance the
        clock exactly to it (events at ``t == until`` run); a run ended
        by :meth:`stop` leaves the clock at the stopping event.
        *max_events* is a safety valve for runaway simulations.
        """
        self._stopped = False
        if self._planners and self._sequence != self._counted:  # numbers taken between runs
            self._note((self.now, self._order, None, ()))
        heap = self._heap
        pop = heappop
        push = heappush
        bounded = until is not None
        self._horizon = until if bounded else _INF
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
                    self._order = _AFTER
                    return until
                self.now = when
                self._order = entry[1]
                entry[2](*entry[3])
                processed += 1
                if self._planners and self._sequence != self._counted:
                    self._note(entry)
                if processed >= limit:
                    raise SimulationError(
                        f"exceeded max_events={max_events} (possible runaway simulation)"
                    )
        finally:
            self.event_count += processed
        if not self._stopped:
            self._order = _AFTER
        if bounded and self.now < until and not self._stopped:
            self.now = until
        return self.now

    def peek(self) -> Optional[float]:
        """Time of the next scheduled event, or None if the heap is empty."""
        return self._heap[0][0] if self._heap else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self.now:.6f} pending={len(self._heap)}>"
