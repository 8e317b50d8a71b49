"""The asyncio implementation of the engine's scheduling contract.

The protocol halves do not only call ``schedule``/``timer()`` — their
hot paths push ``(time, sequence, callback, args)`` tuples straight
onto the engine heap (see :mod:`repro.simulator.engine` for why that
ABI is public).  :class:`AsyncioClock` therefore *subclasses*
:class:`~repro.simulator.engine.Simulator` instead of re-implementing
the surface: the heap, the ``_sequence`` counter and the
:class:`Timer` carrier rule are all inherited unchanged.  What
changes is who drains the heap — instead of :meth:`Simulator.run`
looping in virtual time, a *pump* dispatches every entry that is due in
wall time and arms one ``loop.call_at`` alarm for the earliest
remaining deadline.

Time base: ``now`` is seconds since the clock's epoch (by default the
loop time at construction), so protocol timestamps start near 0.0
exactly like a DES run.  ``now`` advances monotonically: each pumped
entry sets it to the entry's scheduled time, and the pump finally snaps
it up to wall time, so a callback observing ``now`` sees at most its
own lateness, never time running backwards.

The epoch can be pinned explicitly: two processes on the same host that
construct ``AsyncioClock(epoch=0.0)`` share the machine-wide monotonic
clock as their time axis, which the two-process transport mode
(``serve`` / ``transmit --connect``) requires — LAMS-DLC checkpoint
coverage compares the receiver's ``issue_time`` against the sender's
``expected_arrival``, timestamps minted on *different* endpoints.

Re-entry contract: every *external* entry into protocol code — a
datagram arriving, an application ``accept()`` — must be bracketed by
:meth:`kick` so due work runs first and newly pushed work re-arms the
alarm.  Callbacks dispatched *by* the pump need no bracketing; the pump
re-arms after draining.
"""

from __future__ import annotations

import asyncio
from heapq import heappop
from typing import Optional

from ..simulator.engine import Simulator

__all__ = ["AsyncioClock"]


class AsyncioClock(Simulator):
    """A :class:`Simulator` whose heap is drained by the asyncio loop."""

    def __init__(
        self,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        *,
        epoch: Optional[float] = None,
    ) -> None:
        super().__init__()
        self._loop = loop if loop is not None else asyncio.get_event_loop()
        self._epoch = self._loop.time() if epoch is None else epoch
        # With a pinned epoch, "now" starts at the current position on
        # that shared axis instead of 0.0, so pre-pump timer starts
        # (endpoint.start() before the first datagram) get sane deadlines.
        self.now = self._loop.time() - self._epoch
        self._alarm: Optional[asyncio.TimerHandle] = None
        self._alarm_deadline: Optional[float] = None
        self._pumping = False
        # Never run an agenda item inline: the pump dispatches what is due
        # in wall time, one heap entry per item.
        self._horizon = float("-inf")

    # -- time ------------------------------------------------------------

    def wall_now(self) -> float:
        """Wall time on this clock's axis (seconds since the epoch)."""
        return self._loop.time() - self._epoch

    # -- pumping ---------------------------------------------------------

    def kick(self) -> None:
        """Dispatch everything due in wall time and re-arm the alarm.

        Safe to call from anywhere, including from inside a pumped
        callback (re-entrant calls are no-ops; the outer pump finishes
        the drain and re-arms).
        """
        if self._pumping:
            return
        self._pump()

    def _pump(self) -> None:
        self._pumping = True
        processed = 0
        heap = self._heap
        pop = heappop
        loop_time = self._loop.time
        epoch = self._epoch
        try:
            while heap and heap[0][0] <= loop_time() - epoch:
                entry = pop(heap)
                when = entry[0]
                if when > self.now:
                    self.now = when
                self._order = entry[1]
                entry[2](*entry[3])
                processed += 1
                if self._planners and self._sequence != self._counted:
                    self._note(entry)
            # Snap to wall time so externally triggered work (frame
            # dispatch, accepts) is stamped with its real arrival time.
            wall = loop_time() - epoch
            if wall > self.now:
                self.now = wall
        finally:
            self.event_count += processed
            self._pumping = False
        self._rearm()

    def _rearm(self) -> None:
        heap = self._heap
        if not heap:
            if self._alarm is not None:
                self._alarm.cancel()
                self._alarm = None
                self._alarm_deadline = None
            return
        deadline = heap[0][0]
        if (self._alarm is not None and self._alarm_deadline is not None
                and abs(self._alarm_deadline - deadline) < 1e-9):
            return
        if self._alarm is not None:
            self._alarm.cancel()
        self._alarm_deadline = deadline
        self._alarm = self._loop.call_at(self._epoch + deadline, self._on_alarm)

    def _on_alarm(self) -> None:
        self._alarm = None
        self._alarm_deadline = None
        if not self._pumping:
            self._pump()

    async def drain(self, settle: float = 0.0) -> None:
        """Sleep until the heap is idle past ``wall_now() + settle``.

        Utility for shutdown paths: waits (in real time) for pending
        events within the settle horizon to fire, so timers can be
        cancelled from a quiescent state.
        """
        horizon = self.wall_now() + settle
        while True:
            self.kick()
            pending = self.peek()
            if pending is None or pending > horizon:
                return
            await asyncio.sleep(max(0.0, pending - self.wall_now()) + 1e-4)

    def close(self) -> None:
        """Cancel the armed alarm (pending heap entries are dropped)."""
        if self._alarm is not None:
            self._alarm.cancel()
            self._alarm = None
            self._alarm_deadline = None

    # -- disabled DES surface -------------------------------------------

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        raise RuntimeError(
            "AsyncioClock is driven by the asyncio event loop; "
            "use repro.transport.session runners instead of run()"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<AsyncioClock t={self.now:.6f} wall={self.wall_now():.6f} "
                f"pending={len(self._heap)}>")
