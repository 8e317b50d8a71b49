"""The parent's per-packet acceptance, kept as the oracle for ``accept_many``.

Before senders took a stretch of packets in one call, every packet went
in on its own: the sender's ``accept`` enqueued it, sampled the
``sendbuf`` gauge, emitted one ``payload_accepted`` record (LAMS-DLC
only) and woke the transmitter; the sources called ``accept`` in a loop.
Those bodies are kept here verbatim in effect, written against the
sender's and the buffer's fields, and only here:

- :func:`accept_each` is the loop ``accept_many`` stands for;
- :func:`enqueue`, :func:`lams_accept` and :func:`buffered_accept` are
  ``SendBuffer.enqueue``, ``LamsSender.accept`` and
  ``BufferedSender.accept`` as they were;
- :class:`OneByOne` offers to a sender through them, and
  :class:`ReferenceFiniteBatch` / :class:`ReferenceSaturatedSource`
  are the sources' per-packet loops.

``tests/test_accept_many.py`` drives them beside the shipped code.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.core.sendbuf import BufferedSender
from repro.workloads.generators import FiniteBatch, SaturatedSource


def accept_each(accept: Callable[[Any], bool], packets: Iterable[Any]) -> int:
    """``for p in packets: if not accept(p): break``, counting acceptances."""
    accepted = 0
    for packet in packets:
        if not accept(packet):
            break
        accepted += 1
    return accepted


def enqueue(buffer: Any, packet: Any, now: float) -> bool:
    """``SendBuffer.enqueue`` before stretches."""
    occ = len(buffer._pending) + buffer.live
    if buffer.capacity is not None and occ >= buffer.capacity:
        buffer.refused_total += 1
        return False
    buffer._pending.append((packet, now))
    buffer.enqueued_total += 1
    occ += 1
    if occ > buffer.peak_occupancy:
        buffer.peak_occupancy = occ
    return True


def lams_accept(sender: Any, packet: Any) -> bool:
    """``LamsSender.accept`` before stretches: one record, one sample a packet."""
    if sender.failed:
        return False
    now = sender.sim.now
    buffer = sender.buffer
    accepted = enqueue(buffer, packet, now)
    if accepted:
        if sender.tracer.active:
            sender.tracer.emit(now, sender.name, "payload_accepted", payload=packet)
        stat = sender._sendbuf_stat
        if stat is None:
            stat = sender._sendbuf_stat = sender.tracer.level_stat(
                sender._sendbuf_stat_name, start_time=now
            )
        stat.update(now, len(buffer._pending) + buffer.live)
        channel = sender.data_channel
        try:
            busy = channel._transmitting or channel._queue
        except AttributeError:
            busy = not channel.is_idle
        if not busy:
            sender._maybe_send()
    return accepted


def buffered_accept(sender: Any, packet: Any) -> bool:
    """``BufferedSender.accept`` before stretches: a sample and a wake a packet."""
    if not enqueue(sender.buffer, packet, sender.sim.now):
        return False
    sender._record_occupancy()
    sender._wake()
    return True


class OneByOne:
    """A target offering to *sender* one packet at a time, the old way.

    It has no ``accept_many``, so ``repro.core.endpoint.offer`` falls
    back to its ``accept`` per packet; :meth:`offer` is that loop.
    """

    def __init__(self, sender: Any) -> None:
        self.sender = sender
        self._accept = buffered_accept if isinstance(sender, BufferedSender) else lams_accept

    def accept(self, packet: Any) -> bool:
        return self._accept(self.sender, packet)

    def offer(self, packets: Iterable[Any]) -> int:
        return accept_each(self.accept, packets)


class ReferenceFiniteBatch(FiniteBatch):
    """``FiniteBatch`` with its per-packet loop."""

    def start(self) -> None:
        for index in range(self.count):
            packet = self.make_packet(index, self.sim.now)
            if self.target.accept(packet):
                self.offered += 1
            else:
                self.refused += 1


class ReferenceSaturatedSource(SaturatedSource):
    """``SaturatedSource`` with its per-packet refill loop."""

    def _tick(self, chain: int) -> None:
        if chain != self._chain or not self._running:
            return
        if self.limit is not None and self.offered >= self.limit:
            self._running = False
            return
        if self.backlog_fn() < self.low_water:
            budget = self.chunk
            if self.limit is not None:
                budget = min(budget, self.limit - self.offered)
            for _ in range(budget):
                packet = self.make_packet(self.offered + self.refused, self.sim.now)
                if self.target.accept(packet):
                    self.offered += 1
                else:
                    self.refused += 1
                    break
        self.sim.schedule(self.poll_interval, self._tick, chain)
