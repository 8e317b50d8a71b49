"""The specification's event engine: a clock and one heap entry per event.

Every ``schedule``, timer start and periodic firing is an entry of its
own, and a periodic callback is a timer restarted from inside the
callback, as the paper's receiver restarts its Check-Point timer every
``W_cp`` (Section 3.1).  Entries for one instant run by the same-instant
rule, stated here as the heap's sort key, which never changes:

- ``(time, 0, sequence)``: every numbered entry, in number order;
- ``(time, 1, arrival sequence)``: a planned delivery, made at its
  I-frame's arrival, after every numbered entry.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional


class Engine:
    """A clock, a sequence counter and a heap of entries
    ``(time, group, number, sequence, callback, args)``: the sort key, then
    the entry's own sequence number, so that no two entries tie."""

    def __init__(self) -> None:
        self.now, self._heap, self._sequence, self.event_count = 0.0, [], 0, 0
        self.running = 0  # the sequence number of the entry being run
        self._stopped = False
        self.log: list[tuple] = []  # (time, source, event, detail), as the parts write them

    def push(self, when: float, callback: Callable, args: tuple) -> None:
        self._sequence += 1
        heappush(self._heap, (when, 0, self._sequence, self._sequence, callback, args))

    def schedule(self, delay: float, callback: Callable, *args: Any) -> None:
        if not delay >= 0:
            raise ValueError(f"cannot schedule into the past (delay={delay!r})")
        self.push(self.now + delay, callback, args)

    def schedule_at(self, when: float, callback: Callable, *args: Any) -> None:
        if not when >= self.now:
            raise ValueError(f"cannot schedule into the past (delay={when - self.now!r})")
        self.push(when, callback, args)

    def plan(self, when: float, callback: Callable, *args: Any) -> None:
        """A delivery planned by the entry being run, an I-frame's arrival."""
        self._sequence += 1
        heappush(self._heap, (when, 1, self.running, self._sequence, callback, args))

    def timer(self, callback: Callable[[], None]) -> "Timer":
        return Timer(self, callback)

    def every(self, interval: float, callback: Callable[[], None]) -> "Periodic":
        return Periodic(self, interval, callback)

    def stop(self) -> None:
        self._stopped = True

    def run(self, until: Optional[float] = None) -> float:
        """Run entries in key order, none later than *until* (inf: no
        bound; NaN is refused); the clock ends at a finite *until* unless
        ``stop()`` ended the run."""
        if until != until:
            raise ValueError(f"cannot run until {until!r}")
        until = None if until == float("inf") else until
        self._stopped = False
        heap = self._heap
        while heap and not self._stopped and (until is None or heap[0][0] <= until):
            entry = heappop(heap)
            self.now, self.running = entry[0], entry[3]
            entry[4](*entry[5])
            self.event_count += 1  # as the shipped loop counts: once it returns
        if until is not None and self.now < until and not self._stopped:
            self.now = until
        return self.now

    def pending(self) -> list[tuple[float, Callable, tuple]]:
        """``(time, callback, args)`` of every entry not yet run, in run order."""
        return [(entry[0], entry[4], entry[5]) for entry in sorted(self._heap)]


class Timer:
    """A one-shot timer: each start is an entry, and only the latest
    start's fires, unless the timer was cancelled since."""

    def __init__(self, engine: Engine, callback: Callable[[], None]) -> None:
        self.engine, self.callback = engine, callback
        self.deadline: Optional[float] = None
        self._start: Optional[object] = None

    running = property(lambda self: self.deadline is not None)

    def start(self, delay: float) -> None:
        if not delay >= 0:
            raise ValueError(f"negative timer delay: {delay!r}")
        self.deadline = self.engine.now + delay
        self._start = start = object()
        self.engine.schedule(delay, self._expire, start)

    restart = start

    def cancel(self) -> None:
        self.deadline = self._start = None

    def _expire(self, start: object) -> None:
        if start is self._start:
            self.deadline = self._start = None
            self.callback()


class Periodic:
    """*callback* every *interval* until ``cancel()``, each firing
    scheduled by the one before; a callback that raises is not run again."""

    def __init__(self, engine: Engine, interval: float, callback: Callable[[], None]) -> None:
        if not interval > 0:
            raise ValueError(f"period must be positive, got {interval!r}")
        self.engine, self.interval = engine, interval
        self.callback: Optional[Callable[[], None]] = callback
        engine.schedule(interval, self._fire)

    def cancel(self) -> None:
        self.callback = None

    def _fire(self) -> None:
        if self.callback is not None:
            self.callback()
            if self.callback is not None:
                self.engine.schedule(self.interval, self._fire)
