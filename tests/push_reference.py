"""A differential oracle for :meth:`repro.simulator.engine.Simulator.push`.

:func:`reference_push` is how ``SimplexChannel.send`` and the run-of-one
path of ``SimplexChannel._decide`` pushed before back-to-back pushes for
one instant shared a heap entry: one ``(when, sequence, callback,
args)`` entry per call, each taking the next sequence number.  It is
kept here, and only here, as the thing the push rule must agree with:
the same callbacks at the same ``(now, who)``, and the same entries
left pending in the same order, on anything that drains the engine heap
— :meth:`Simulator.run` and :meth:`AsyncioClock._pump` alike.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable

from repro.simulator.engine import Simulator


def reference_push(sim: Simulator, when: float, callback: Callable,
                   args: tuple) -> None:
    """One heap entry per call, at the next sequence number."""
    sim._sequence = sequence = sim._sequence + 1
    heappush(sim._heap, (when, sequence, callback, args))


def pending_calls(sim: Simulator) -> list[tuple[float, Callable, tuple]]:
    """``(time, callback, args)`` of every call still due, in dispatch
    order: a shared entry (a batch of :meth:`Simulator.push`, a round of
    :meth:`Simulator.every`) counts once per call."""
    calls = []
    for entry in sorted(sim._heap):
        when, _, callback, args = entry
        if callback is sim._joined:
            members = args[0]
            calls.extend((when, members[index], members[index + 1])
                         for index in range(0, len(members), 2))
        else:
            calls.append((when, callback, args))
    return calls
