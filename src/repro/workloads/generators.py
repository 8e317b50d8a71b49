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
i.e. any protocol's endpoint — and tag packets with creation time.  The
two that offer several packets at one instant hand them over as one
lazily consumed stretch through the target's ``accept_many`` when it
has one (every endpoint does), so ``make_packet`` runs exactly as often
as packet-at-a-time offering would call it.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional, Protocol

from ..core.config import as_count
from ..core.endpoint import offer
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
        self.sim = sim
        self.target = target
        self.count = as_count("count", count, 0)
        self.make_packet = make_packet or _default_packet
        self.offered = 0
        self.refused = 0

    def start(self) -> None:
        """Offer the whole batch immediately (a refused packet is counted
        and the next one offered)."""
        make, now, count = self.make_packet, self.sim.now, self.count
        index = 0
        while index < count:
            accepted = offer(self.target, (make(i, now) for i in range(index, count)))
            self.offered += accepted
            index += accepted
            if index < count:  # packet ``index`` was refused
                self.refused += 1
                index += 1


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
        # Each test is written so that NaN fails it: NaN compares false.
        if not 0 <= low_water < math.inf:
            raise ValueError(f"low_water must be non-negative and finite, got {low_water!r}")
        if not 0 < poll_interval < math.inf:
            raise ValueError(
                f"poll_interval must be positive and finite, got {poll_interval!r}")
        self.sim = sim
        self.target = target
        self.backlog_fn = backlog_fn
        self.low_water = low_water
        self.chunk = as_count("chunk", chunk, 1)
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
            make, now, first = self.make_packet, self.sim.now, self.offered + self.refused
            accepted = offer(self.target, (make(first + k, now) for k in range(budget)))
            self.offered += accepted
            if accepted < budget:  # the stretch stopped at a refusal
                self.refused += 1
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
        # A rate so small that its interval overflows is refused too.
        if not 0 < rate < math.inf or not 1.0 / rate < math.inf:
            raise ValueError(f"rate must be positive and finite, got {rate!r}")
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
