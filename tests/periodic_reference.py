"""A differential oracle for :meth:`repro.simulator.engine.Simulator.every`.

:class:`ReferencePeriodic` is how a periodic callback was driven before
callbacks of one phase shared a heap entry: one :class:`Timer` per
callback, restarted from inside the callback (``LamsReceiver`` armed its
checkpoint timer in ``start()`` and again at the end of every
``_emit_periodic_checkpoint``).  It is kept here, and only here, as the
thing a round must agree with: the same callbacks at the same instants,
bit for bit, and in the same order wherever no sequence number falls
between two members of a round (the one ordering consequence, spelled
out in ``every``'s docstring).

Like :mod:`tests.timer_reference` it runs on anything that drains the
engine heap — :meth:`Simulator.run` and :meth:`AsyncioClock._pump` alike.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.simulator.engine import Periodic, Simulator


def round_entries(sim: Simulator) -> list[tuple]:
    """The heap entries that belong to rounds of ``sim.every``: shared
    entries whose trailing call re-arms them."""
    return [entry for entry in sim._heap
            if entry[2] is sim._joined and entry[3][3] is not None]


def round_members(entry: tuple) -> list[Periodic]:
    """The members a round's heap entry runs next, in order."""
    return [call.__self__ for call in entry[3][0][::2]]


class ReferencePeriodic:
    """``every(interval, callback)`` as a self-restarting timer."""

    def __init__(self, sim: Simulator, interval: float,
                 callback: Callable[[], None]) -> None:
        if not interval > 0:
            raise ValueError(f"period must be positive, got {interval!r}")
        self.interval = interval
        self.callback: Optional[Callable[[], None]] = callback
        self._timer = sim.timer(self._expired)
        self._timer.start(interval)

    def cancel(self) -> None:
        self.callback = None
        self._timer.cancel()

    def _expired(self) -> None:
        self.callback()
        if self.callback is not None:  # not cancelled from inside
            self._timer.start(self.interval)
