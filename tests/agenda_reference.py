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
from heapq import heapify, heappush
from typing import Callable

from repro.simulator.engine import Simulator


def _run(planned: bool, lane: "_PushLane", item: tuple) -> None:
    """An item's own entry surfaced: it leaves its lane and runs — a
    planned one at its rank, pushed again there if a tied entry ranks
    first (the engine's rank rule, entry by entry)."""
    sim = lane.sim
    heap = sim._heap
    if (len(item) > 4 and sim._order == item[1] and heap and heap[0][0] == item[0]
            and not sim._key(item) < sim._key(heap[0])):
        rank = sim._key(item)[1]
        heappush(heap, (item[0], rank, _run_ranked, ((item[4], item[1]), lane, item)))
        return
    lane.remove(item)
    sim._item = item
    item[2](*item[3])


def _run_ranked(arrival: tuple, lane: "_PushLane", item: tuple) -> None:
    """A planned item's entry at its rank (two at one rank go in arrival order)."""
    _run(True, lane, item)


class _PushLane(deque):
    """A lane whose every item goes straight onto the heap, as an entry of
    its own at the item's ``(time, sequence)``; the lane keeps the items
    not yet run, so owners can read back and drop what they added."""

    def __init__(self, sim: Simulator) -> None:
        super().__init__()
        self.sim = sim

    def append(self, item: tuple) -> None:
        # A planned item takes its arrival's number, which the item at the
        # arrival has too: at one instant, that one goes first.
        heappush(self.sim._heap, (item[0], item[1], _run, (len(item) > 4, self, item)))
        super().append(item)


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

    def discard(self, lane: _PushLane, keep: Callable[[tuple], bool]) -> None:
        self._drop(lane, [item for item in lane if not keep(item)])

    def trim(self, lane: _PushLane, head: int = 0, tail: int = 0) -> None:
        items = list(lane)
        self._drop(lane, items[:head] + (items[len(items) - tail:] if tail else []))

    def _drop(self, lane: _PushLane, items: list) -> None:
        gone = {id(item) for item in items}
        for item in items:
            deque.remove(lane, item)
        heap = self.sim._heap
        heap[:] = [entry for entry in heap
                   if not (entry[2] in (_run, _run_ranked) and id(entry[3][-1]) in gone)]
        heapify(heap)
