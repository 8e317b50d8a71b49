"""A differential oracle for :class:`repro.simulator.engine.Agenda`.

:class:`ReferenceAgenda` has the agenda's surface but gives every item
the heap entry of its own that it had before a channel's arrivals and
its receiver's drains shared one: each lane's ``append`` is a
``heappush`` of the item as it stands, ``(time, sequence, callback,
args)``.  It is kept here, and only here, as what the agenda must agree
with: the same callbacks at the same ``(now, who)``, the same
``_sequence``, on :meth:`Simulator.run` and :meth:`AsyncioClock._pump`
alike.  Patched in as ``repro.simulator.link.Agenda`` it turns a whole
link back into one entry per arrival and per drain.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Callable

from repro.simulator.engine import Simulator


class _PushLane(deque):
    """A lane whose every item goes straight onto the heap."""

    def __init__(self, sim: Simulator) -> None:
        super().__init__()
        self.heap = sim._heap

    def append(self, item: tuple) -> None:
        heappush(self.heap, item)
        super().append(item)  # kept only so owners can read back what they added


class ReferenceAgenda:
    """One heap entry per item, at the sequence number the item took."""

    def __init__(self, sim: Simulator, lanes: int = 2) -> None:
        self.sim = sim
        self.lanes = tuple(_PushLane(sim) for _ in range(lanes))

    def add(self, lane: _PushLane, when: float, callback: Callable, args: tuple) -> None:
        sim = self.sim
        sim._sequence = sequence = sim._sequence + 1
        lane.append((when, sequence, callback, args))

    def added(self, when: float, sequence: int) -> None:
        pass

    def insert(self, lane: _PushLane, items: list) -> None:
        for item in items:
            lane.append(item)
