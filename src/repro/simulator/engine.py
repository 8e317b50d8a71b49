"""Discrete-event simulation engine.

This module is a small, dependency-free discrete-event simulator in the
style of SimPy: a :class:`Simulator` owns a clock and an event heap,
*processes* are Python generators that ``yield`` events to wait on, and
plain callbacks can be scheduled at absolute or relative times.

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

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def proc(sim, log):
...     yield sim.timeout(1.0)
...     log.append(sim.now)
...     yield sim.timeout(2.0)
...     log.append(sim.now)
>>> _ = sim.process(proc(sim, log))
>>> sim.run()
3.0
>>> log
[1.0, 3.0]
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Timer",
    "SimulationError",
    "StopSimulation",
    "engine_backend",
]


class SimulationError(Exception):
    """Raised for illegal engine operations (e.g. double-firing an event)."""


class StopSimulation(Exception):
    """Raised inside a process to halt the whole simulation immediately."""


def engine_backend() -> str:
    """Always ``"pure"``: :meth:`Simulator.run` is the only dispatch loop.

    Kept because ``bench/run.py`` stamps it into every record; a later
    benchmark PR drops the stamp field and this function with it.
    """
    return "pure"


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*, is *triggered* exactly once via
    :meth:`succeed` or :meth:`fail`, and then calls back every waiter.
    Events may be waited on after they have fired; the waiter resumes
    immediately at the current simulation time.
    """

    __slots__ = ("sim", "_value", "_ok", "_fired", "_callbacks")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._value: Any = None
        self._ok: bool = True
        self._fired: bool = False
        self._callbacks: list[Callable[["Event"], None]] = []

    # -- state ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been succeeded or failed."""
        return self._fired

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception."""
        return self._value

    # -- triggering ----------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional value."""
        self._trigger(value, ok=True)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception; waiters will raise it."""
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._trigger(exception, ok=False)
        return self

    def _trigger(self, value: Any, ok: bool) -> None:
        if self._fired:
            raise SimulationError("event already triggered")
        self._fired = True
        self._ok = ok
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            self.sim.schedule(0.0, callback, self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register *callback(event)*; runs now if already triggered."""
        if self._fired:
            self.sim.schedule(0.0, callback, self)
        else:
            self._callbacks.append(callback)


class Timeout(Event):
    """An event that succeeds after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        super().__init__(sim)
        self.delay = delay
        sim.schedule(delay, self._expire, value)

    def _expire(self, value: Any) -> None:
        self.succeed(value)


class Process(Event):
    """A running generator; itself an event that fires on completion.

    The generator yields :class:`Event` instances.  When a yielded event
    succeeds, the generator is resumed with the event's value; when it
    fails, the exception is thrown into the generator (and propagates,
    failing the process, unless caught).
    """

    __slots__ = ("generator",)

    def __init__(self, sim: "Simulator", generator: Generator) -> None:
        super().__init__(sim)
        self.generator = generator
        sim.schedule(0.0, self._resume, None, True)

    def _on_wait_done(self, event: Event) -> None:
        self._resume(event.value, event.ok)

    def _resume(self, value: Any, ok: bool) -> None:
        if self.triggered:
            # A stale wakeup: the process already finished (e.g. it was
            # interrupted out of the wait this event belonged to).
            return
        try:
            if ok:
                target = self.generator.send(value)
            else:
                target = self.generator.throw(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except StopSimulation:
            self.sim.stop()
            self.succeed(None)
            return
        except BaseException as exc:  # process died: fail the process event
            self.fail(exc)
            return
        if not isinstance(target, Event):
            self.generator.throw(
                SimulationError(f"process yielded a non-event: {target!r}")
            )
            return
        target.add_callback(self._on_wait_done)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise SimulationError("cannot interrupt a finished process")
        self.sim.schedule(0.0, self._resume, Interrupt(cause), False)


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class AnyOf(Event):
    """Succeeds when the first of several events succeeds.

    The value is the triggering event itself, so callers can identify
    which condition fired.  Failure of any constituent fails the AnyOf.
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        if not self.events:
            raise ValueError("AnyOf requires at least one event")
        for event in self.events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if event.ok:
            self.succeed(event)
        else:
            self.fail(event.value)


class AllOf(Event):
    """Succeeds when every constituent event has succeeded.

    The value is the list of constituent values in construction order.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        if not self.events:
            raise ValueError("AllOf requires at least one event")
        self._remaining = len(self.events)
        for event in self.events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e.value for e in self.events])


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
        heappush(self.sim._heap, (when, sequence, self._surfaced, (sequence,)))

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


class Simulator:
    """The event loop: clock, heap, and process bookkeeping.

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

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event succeeding *delay* seconds from now."""
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def process(self, generator: Generator) -> Process:
        """Start a generator as a process; returns its completion event."""
        return Process(self, generator)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event firing when the first of *events* succeeds."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event firing when all of *events* have succeeded."""
        return AllOf(self, events)

    def timer(self, callback: Callable[[], None]) -> Timer:
        """A restartable :class:`Timer` invoking *callback* on expiry."""
        return Timer(self, callback)

    # -- running ----------------------------------------------------------

    def stop(self) -> None:
        """Halt :meth:`run` after the current callback returns."""
        self._stopped = True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Drain the event heap.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time; the clock is then
            advanced exactly to *until* (events at ``t == until`` run).
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
        if bounded and self.now < until:
            self.now = until
        return self.now

    def peek(self) -> Optional[float]:
        """Time of the next scheduled event, or None if the heap is empty."""
        return self._heap[0][0] if self._heap else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self.now:.6f} pending={len(self._heap)}>"
