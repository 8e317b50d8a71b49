"""Destination-side resequencing and deduplication.

This is the component that makes the paper's relaxed reliability model
whole: the subnet's DLCs guarantee *no loss* but neither ordering nor
(in the enforced-recovery corner of Section 3.2) uniqueness, so the
destination must (a) drop duplicates and (b) restore per-source order
before handing data to the user.

Because the LAMS DLC layer guarantees zero loss, every per-source
sequence number eventually arrives and in-order release never stalls
forever — the buffering the destination needs is bounded by the
end-to-end delay spread, which Section 2.3 notes is "easily computed"
given the bounded total delay.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Optional

from ..simulator.trace import Tracer
from .packet import Datagram

__all__ = ["Resequencer", "FlowState"]


class FlowState:
    """Per-source ordering state."""

    __slots__ = ("next_expected", "held", "peak_held")

    def __init__(self) -> None:
        self.next_expected = 0
        self.held: dict[int, Datagram] = {}
        self.peak_held = 0

    def __repr__(self) -> str:
        return f"FlowState(next={self.next_expected}, held={len(self.held)})"


class Resequencer:
    """Orders and deduplicates datagrams per source before delivery.

    A datagram with ``sequence < next_expected`` or already held is a
    duplicate and is dropped.  Anything else is held until the in-order
    prefix is complete, then released through *deliver*.
    """

    def __init__(
        self,
        deliver: Optional[Callable[[Datagram], None]] = None,
        tracer: Optional[Tracer] = None,
        clock: Optional[Callable[[], float]] = None,
        name: str = "dest",
    ) -> None:
        # Explicit None check: callables with __len__ (e.g. DeliveryLog)
        # are falsy when empty and must not be replaced.
        self.deliver = deliver if deliver is not None else (lambda dg: None)
        # Optional trace wiring: with a tracer, every in-order release
        # emits ``dest_deliver`` (and drops emit ``duplicate_dropped``),
        # which the destination-ordering invariant monitor consumes.
        self.tracer = tracer
        self.clock = clock or (lambda: 0.0)
        self.name = name
        self.flows: dict[Hashable, FlowState] = {}
        self.delivered = 0
        self.duplicates_dropped = 0
        self.out_of_order_arrivals = 0

    def _flow(self, source: Hashable) -> FlowState:
        state = self.flows.get(source)
        if state is None:
            state = self.flows[source] = FlowState()
        return state

    def push(self, datagram: Datagram) -> list[Datagram]:
        """Accept one datagram; returns the datagrams released in order."""
        flow = self._flow(datagram.source)
        seq = datagram.sequence
        if seq < flow.next_expected or seq in flow.held:
            self.duplicates_dropped += 1
            if self.tracer is not None and self.tracer.active:
                self.tracer.emit(
                    self.clock(), self.name, "duplicate_dropped",
                    flow=datagram.source, seq=seq,
                )
            return []
        if seq != flow.next_expected:
            self.out_of_order_arrivals += 1
        flow.held[seq] = datagram
        if len(flow.held) > flow.peak_held:
            flow.peak_held = len(flow.held)
        released: list[Datagram] = []
        tracer = self.tracer
        trace_active = tracer is not None and tracer.active
        while flow.next_expected in flow.held:
            out = flow.held.pop(flow.next_expected)
            flow.next_expected += 1
            released.append(out)
            self.delivered += 1
            if trace_active:
                tracer.emit(
                    self.clock(), self.name, "dest_deliver",
                    flow=out.source, seq=out.sequence,
                )
            self.deliver(out)
        return released

    def held_count(self, source: Hashable | None = None) -> int:
        """Datagrams currently buffered (for one source or all)."""
        if source is not None:
            flow = self.flows.get(source)
            return len(flow.held) if flow else 0
        return sum(len(flow.held) for flow in self.flows.values())

    def __repr__(self) -> str:
        return (
            f"Resequencer(delivered={self.delivered}, "
            f"dups={self.duplicates_dropped}, held={self.held_count()})"
        )
