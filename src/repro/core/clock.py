"""The scheduling contract protocol halves are written against.

The LAMS-DLC sender and receiver halves were historically annotated
with the concrete DES :class:`~repro.simulator.engine.Simulator`.  With
the :mod:`repro.transport` backend the same state machines also run on
an asyncio event loop, so the seam they actually depend on is captured
here as a structural :class:`typing.Protocol`: any object satisfying
:class:`Clock` can drive the protocol halves, whether its notion of
"now" is a simulated clock or wall time.

The contract has two tiers:

**Public surface** — what :class:`Clock` declares: a monotone ``now``,
``schedule``/``schedule_at`` for one-shot callbacks, and ``timer()``
returning a restartable :class:`~repro.simulator.engine.Timer`-shaped
object (``start``/``restart``/``cancel``/``running``/``deadline``).

**Engine heap ABI** — the hot paths in
:mod:`repro.core.receiver` and :mod:`repro.simulator.link` inline
``heappush(clock._heap, (when, clock._sequence, callback, args))``
instead of calling ``schedule``; the heap list and the ``_sequence``
counter are therefore part of the scheduling ABI, not private detail.
So is what a loop owes an entry it pops: call ``entry[2](*entry[3])``
and nothing else.  A :class:`~repro.simulator.engine.Timer` is such an
entry — its carrier names ``Timer._surfaced``, the one rule for "a timer
entry reached the top" (fire, re-push at the reserved ``(deadline,
sequence)``, or lapse), which every loop therefore shares by calling it.
Implementations that are not the DES engine must share that ABI by
subclassing :class:`~repro.simulator.engine.Simulator` (as
:class:`repro.transport.clock.AsyncioClock` does) rather than
re-implementing the surface methods.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Protocol, runtime_checkable

__all__ = ["Clock", "TimerLike"]


class TimerLike(Protocol):
    """Restartable one-shot timer (the :class:`Timer` shape)."""

    callback: Callable[[], None]

    @property
    def running(self) -> bool: ...

    @property
    def deadline(self) -> Optional[float]: ...

    def start(self, delay: float) -> None: ...

    def restart(self, delay: float) -> None: ...

    def cancel(self) -> None: ...


@runtime_checkable
class Clock(Protocol):
    """What a protocol half needs from its event source.

    Satisfied by the DES :class:`~repro.simulator.engine.Simulator`
    (virtual time, ``run()`` drains the heap) and by
    :class:`repro.transport.clock.AsyncioClock` (wall time, the asyncio
    loop drains the heap).  See the module docstring for the heap ABI
    that implementations must share.
    """

    now: float
    event_count: int

    def schedule(self, delay: float, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` at ``now + delay``."""
        ...

    def schedule_at(self, when: float, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` at absolute time *when* (>= now)."""
        ...

    def timer(self, callback: Callable[[], None]) -> TimerLike:
        """A restartable one-shot timer invoking *callback* on expiry."""
        ...
