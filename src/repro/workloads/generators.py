"""Traffic generators.

Three source models cover the paper's two analytic regimes and the
offered loads between them:

- :class:`FiniteBatch` — N frames available at t=0, then silence: the
  "low traffic" assumption of Section 4 ("the sender receives no
  I-frames until N I-frames are successfully transmitted").
- :class:`SaturatedSource` — the sending buffer never runs dry: the
  "high traffic" regime (incoming rate pinned at ``1/t_f``).
- :class:`ConstantRateSource` — packets at a fixed rate (offered load
  sweeps, flow-control experiments).

All generators target anything exposing ``accept(packet) -> bool`` —
i.e. either protocol's endpoint — and tag packets with creation time.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Protocol

from ..simulator.engine import Simulator

__all__ = [
    "AcceptsPackets",
    "FiniteBatch",
    "SaturatedSource",
    "ConstantRateSource",
]


class AcceptsPackets(Protocol):
    """Target interface: a DLC endpoint (or anything packet-shaped)."""

    def accept(self, packet: Any) -> bool: ...


def _default_packet(index: int, now: float) -> tuple[str, int, float]:
    return ("pkt", index, now)


class FiniteBatch:
    """All N packets offered at start time (the low-traffic model)."""

    def __init__(
        self,
        sim: Simulator,
        target: AcceptsPackets,
        count: int,
        make_packet: Optional[Callable[[int, float], Any]] = None,
    ) -> None:
        if count < 0:
            raise ValueError("count cannot be negative")
        self.sim = sim
        self.target = target
        self.count = count
        self.make_packet = make_packet or _default_packet
        self.offered = 0
        self.refused = 0

    def start(self) -> None:
        """Offer the whole batch immediately."""
        for index in range(self.count):
            packet = self.make_packet(index, self.sim.now)
            if self.target.accept(packet):
                self.offered += 1
            else:
                self.refused += 1


class SaturatedSource:
    """Keeps the target's buffer topped up: the high-traffic model.

    Refills whenever the backlog (as reported by *backlog_fn*) drops
    below *low_water*, in chunks of *chunk*; checks every
    *poll_interval* seconds.  Uses polling rather than callbacks so it
    works with any endpoint without protocol hooks.
    """

    def __init__(
        self,
        sim: Simulator,
        target: AcceptsPackets,
        backlog_fn: Callable[[], int],
        low_water: int = 64,
        chunk: int = 128,
        poll_interval: float = 0.001,
        make_packet: Optional[Callable[[int, float], Any]] = None,
        limit: Optional[int] = None,
    ) -> None:
        if low_water < 0 or chunk < 1 or poll_interval <= 0:
            raise ValueError("invalid saturation parameters")
        self.sim = sim
        self.target = target
        self.backlog_fn = backlog_fn
        self.low_water = low_water
        self.chunk = chunk
        self.poll_interval = poll_interval
        self.make_packet = make_packet or _default_packet
        self.limit = limit
        self.offered = 0
        self.refused = 0
        self._running = False
        self._chain = 0  # bumped by start(): a tick pending from before is void

    def start(self) -> None:
        self._running = True
        self._chain += 1
        self._tick(self._chain)

    def stop(self) -> None:
        self._running = False

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
        # self._tick, looked up on the instance: the benchmark shadows it
        # there to time the source.
        self.sim.schedule(self.poll_interval, self._tick, chain)


class ConstantRateSource:
    """One packet every ``1/rate`` seconds."""

    def __init__(
        self,
        sim: Simulator,
        target: AcceptsPackets,
        rate: float,
        make_packet: Optional[Callable[[int, float], Any]] = None,
        limit: Optional[int] = None,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.target = target
        self.interval = 1.0 / rate
        self.make_packet = make_packet or _default_packet
        self.limit = limit
        self.offered = 0
        self.refused = 0
        self._running = False
        self._chain = 0  # bumped by start(): an emission pending from before is void

    def start(self) -> None:
        self._running = True
        self._chain += 1
        self._emit(self._chain)

    def stop(self) -> None:
        self._running = False

    def _emit(self, chain: int) -> None:
        if chain != self._chain or not self._running:
            return
        if self.limit is not None and self.offered + self.refused >= self.limit:
            self._running = False
            return
        packet = self.make_packet(self.offered + self.refused, self.sim.now)
        if self.target.accept(packet):
            self.offered += 1
        else:
            self.refused += 1
        self.sim.schedule(self.interval, self._emit, chain)
