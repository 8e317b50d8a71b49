"""A differential oracle for :class:`repro.simulator.engine.Timer`.

:class:`ReferenceTimer` is the timer the engine had before a running
timer kept one carrier entry: every ``start`` pushes a heap entry
stamped with a generation, ``cancel`` and ``start`` bump the
generation, and an entry whose generation is no longer current is a
no-op when it surfaces.  It is kept here, and only here, as the thing
the carrier rule must agree with: the same live callbacks at the same
``(time, sequence)``, and the same final engine ``_sequence`` (a
``start`` that pushes nothing still reserves its number).

It schedules through the public ``schedule``, so it runs on anything
that drains the engine heap — :meth:`Simulator.run` and
:meth:`AsyncioClock._pump` alike.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.simulator.engine import Simulator


def timer_entries(sim: Simulator, timer) -> list[tuple]:
    """The heap entries that will surface for *timer* (carrier or left behind)."""
    return [entry for entry in sim._heap
            if getattr(entry[2], "__self__", None) is timer]


class ReferenceTimer:
    """One heap push per start; stale generations skipped as they surface."""

    def __init__(self, sim: Simulator, callback: Callable[[], None]) -> None:
        self.sim = sim
        self.callback = callback
        self._generation = 0
        self._deadline: Optional[float] = None
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    @property
    def deadline(self) -> Optional[float]:
        return self._deadline if self._running else None

    def start(self, delay: float) -> None:
        if delay < 0:
            raise ValueError(f"negative timer delay: {delay!r}")
        self._generation += 1
        self._running = True
        self._deadline = self.sim.now + delay
        self.sim.schedule(delay, self._expire, self._generation)

    restart = start

    def cancel(self) -> None:
        self._generation += 1
        self._running = False
        self._deadline = None

    def _expire(self, generation: int) -> None:
        if generation == self._generation and self._running:
            self._running = False
            self._deadline = None
            self.callback()
