"""Link-session management across visibility passes.

The paper's environment gives every inter-satellite link a *short
lifetime* (minutes) separated by gaps, with a "large retargeting
overhead which occupies a significant portion of the link lifetime"
(Section 1).  Its design goal follows: "LAMS-DLC should be designed to
minimize the impact of idle time due to link initialization and link
(re)synchronization".

This module supplies the session layer that turns those passes into a
continuous service:

- a :class:`PassSchedule` of ``[start, end)`` windows;
- a :class:`LinkSessionManager` that, for each pass: waits out the
  retargeting/initialisation overhead, stands up a *fresh* protocol
  endpoint pair over the link, replays every datagram left unresolved
  by the previous pass, feeds queued traffic, and tears down at pass
  end, carrying the unresolved remainder forward;
- :func:`reclaim_backlog`, that teardown's backlog hand-back, which the
  UDP session supervisor runs too.

Carrying frames across passes can re-send data the receiver already
delivered (the sender cannot know about frames acknowledged by
checkpoints that never arrived before cutoff) — the destination
resequencer or the zero-duplication receiver removes those duplicates;
*loss* never occurs, which is the property the paper's network layer
relies on.

The manager is protocol-agnostic: an ``endpoint_factory`` builds the
pair, so LAMS-DLC and SR-HDLC sessions are directly comparable
(benchmark E13).
"""

from __future__ import annotations

import inspect
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from ..core.endpoint import offer
from ..simulator.engine import Simulator
from ..simulator.link import FullDuplexLink
from ..simulator.trace import Tracer

__all__ = ["LinkPass", "PassSchedule", "LinkSessionManager", "reclaim_backlog"]


@dataclass(frozen=True)
class LinkPass:
    """One visibility window during which the link can operate."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("pass must have positive duration")

    @property
    def duration(self) -> float:
        return self.end - self.start


class PassSchedule:
    """An ordered sequence of non-overlapping link passes."""

    def __init__(self, passes: Sequence[LinkPass]) -> None:
        ordered = sorted(passes, key=lambda p: p.start)
        for earlier, later in zip(ordered, ordered[1:]):
            if later.start < earlier.end:
                raise ValueError("passes overlap")
        self.passes = list(ordered)

    @classmethod
    def periodic(cls, first_start: float, duration: float, gap: float, count: int) -> "PassSchedule":
        """``count`` equal passes separated by ``gap`` seconds."""
        if count < 1:
            raise ValueError("need at least one pass")
        if duration <= 0:
            raise ValueError(f"pass duration must be positive, got {duration!r}")
        if gap < 0:
            raise ValueError(f"pass gap cannot be negative, got {gap!r}")
        passes = []
        start = first_start
        for _ in range(count):
            passes.append(LinkPass(start, start + duration))
            start += duration + gap
        return cls(passes)

    @property
    def total_link_time(self) -> float:
        return sum(p.duration for p in self.passes)

    def __len__(self) -> int:
        return len(self.passes)

    def __iter__(self):
        return iter(self.passes)


EndpointFactory = Callable[[Simulator, FullDuplexLink, Callable[[Any], None], float], tuple[Any, Any]]
"""``factory(sim, link, deliver, pass_remaining) -> (endpoint_a, endpoint_b)``.

The factory creates and *starts* both endpoints; ``deliver`` receives
payloads at the B side; ``pass_remaining`` is the usable time left in
the current pass (for protocols that take a link-lifetime hint).

A factory may additionally accept an ``on_failure`` keyword: the
manager then passes a callback the protocol should invoke when it
declares the link failed (LAMS-DLC's enforced-recovery outcome), and
the manager tears the session down early, carrying the backlog to the
next pass.  Factories built by :func:`repro.session.factories.session_factory`
support this automatically.
"""


def reclaim_backlog(
    clock: Simulator,
    endpoint_a: Any,
    endpoint_b: Any,
    pending: deque,
    tracer: Tracer,
    source: str,
    reason: str,
    **detail: Any,
) -> tuple[int, int]:
    """Tear a session's endpoint pair down and hand its backlog back.

    The one teardown of both backends (this module's
    :class:`LinkSessionManager` and the UDP
    :class:`~repro.transport.supervisor.SessionSupervisor`):

    1. the sender's held (unacknowledged) payloads go back to the
       *front* of *pending*, in their original order;
    2. the receiver's queue, which the sender already saw acknowledged,
       is flushed upward, so a teardown never un-delivers a payload;
    3. both endpoints stop;
    4. the tracer settles, so deliveries it still holds are recorded
       ahead of the reclaim;
    5. when anything was reclaimed or flushed, one ``backlog_reclaimed``
       record: ``payloads``, ``reclaimed``, ``flushed``, ``reason``,
       ``backlog`` (``len(pending)`` afterwards) and *detail*.

    Endpoints without those halves (another protocol family's, a test
    double) skip the step they lack.  Returns ``(reclaimed, flushed)``.
    """
    held_payloads = getattr(getattr(endpoint_a, "sender", None), "held_payloads", None)
    held = list(held_payloads()) if held_payloads is not None else []
    pending.extendleft(reversed(held))
    flush = getattr(getattr(endpoint_b, "receiver", None), "flush", None)
    flushed = flush() if flush is not None else 0
    endpoint_a.stop()
    endpoint_b.stop()
    tracer.settle()
    if held or flushed:
        tracer.emit(
            clock.now, source, "backlog_reclaimed",
            payloads=tuple(held), reclaimed=len(held), flushed=flushed,
            reason=reason, backlog=len(pending), **detail,
        )
    return len(held), flushed


class LinkSessionManager:
    """Drives one traffic flow across a schedule of link passes."""

    def __init__(
        self,
        sim: Simulator,
        link: FullDuplexLink,
        schedule: PassSchedule,
        endpoint_factory: EndpointFactory,
        init_time: float = 0.0,
        deliver: Optional[Callable[[Any], None]] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if init_time < 0:
            raise ValueError("init_time cannot be negative")
        self.sim = sim
        self.link = link
        self.schedule = schedule
        self.endpoint_factory = endpoint_factory
        self.init_time = init_time
        self.deliver = deliver if deliver is not None else (lambda payload: None)
        self.tracer = tracer or Tracer()

        self._queue: deque[Any] = deque()
        self._endpoint_a: Optional[Any] = None
        self._endpoint_b: Optional[Any] = None
        self._session_up = False
        self._current_pass: Optional[LinkPass] = None
        self.passes_run = 0
        self.delivered_count = 0
        self.carried_over = 0
        self.failures = 0
        self.session_history: list[dict[str, Any]] = []
        try:
            parameters = inspect.signature(endpoint_factory).parameters
            self._factory_takes_failure = "on_failure" in parameters
        except (TypeError, ValueError):
            self._factory_takes_failure = False

        self.link.down()  # no pass active until the schedule says so
        for link_pass in self.schedule:
            sim.schedule_at(link_pass.start, self._begin_pass, link_pass)
            sim.schedule_at(link_pass.end, self._end_pass, link_pass)

    # -- traffic input --------------------------------------------------------

    def send(self, payload: Any) -> None:
        """Queue a payload; transmitted in the current or a later pass."""
        self._queue.append(payload)
        self._feed()

    @property
    def backlog(self) -> int:
        """Payloads waiting for link time."""
        return len(self._queue)

    # -- pass lifecycle -----------------------------------------------------------

    def _begin_pass(self, link_pass: LinkPass) -> None:
        self.tracer.emit(self.sim.now, "session", "pass_start", at=link_pass.start)
        # Retargeting / initialisation overhead burns link time first.
        self.sim.schedule(self.init_time, self._activate, link_pass)

    def _activate(self, link_pass: LinkPass) -> None:
        if self.sim.now >= link_pass.end:
            return  # the whole pass fit inside the overhead
        self.link.up()
        remaining = link_pass.end - self.sim.now
        kwargs = (
            {"on_failure": self._on_link_failure}
            if self._factory_takes_failure else {}
        )
        self._endpoint_a, self._endpoint_b = self.endpoint_factory(
            self.sim, self.link, self._on_deliver, remaining, **kwargs
        )
        self._session_up = True
        self._current_pass = link_pass
        self.passes_run += 1
        self.tracer.emit(self.sim.now, "session", "session_up", remaining=remaining)
        self._feed()

    def _end_pass(self, link_pass: LinkPass) -> None:
        if not self._session_up:
            self.link.down()
            return
        self._teardown(link_pass, reason="pass_end")

    def _on_link_failure(self) -> None:
        """The protocol declared the link failed mid-pass.

        Invoked from inside the sender's failure path, so the sender has
        already marked itself failed; tearing down here is re-entrancy
        safe.  The backlog — queued payloads plus everything reclaimed
        from the dying sender — survives for the next pass, preserving
        the zero-loss property across declared failures.
        """
        if not self._session_up or self._current_pass is None:
            return
        self.failures += 1
        self.tracer.emit(self.sim.now, "session", "session_failure")
        self._teardown(self._current_pass, reason="link_failure")

    def _teardown(self, link_pass: LinkPass, reason: str) -> None:
        self._session_up = False
        self.link.down()
        # Everything the sender could not resolve in time is replayed on
        # the next pass (duplicates possible, loss not).
        reclaimed, _ = reclaim_backlog(
            self.sim, self._endpoint_a, self._endpoint_b, self._queue,
            self.tracer, "session", reason,
        )
        self._endpoint_a = self._endpoint_b = None
        self._current_pass = None
        self.carried_over += reclaimed
        self.session_history.append(
            {
                "pass_start": link_pass.start,
                "pass_end": link_pass.end,
                "reclaimed": reclaimed,
                "delivered_so_far": self.delivered_count,
                "reason": reason,
            }
        )
        self.tracer.emit(
            self.sim.now, "session", "session_down",
            reclaimed=reclaimed, reason=reason,
        )

    # -- plumbing --------------------------------------------------------------------

    def _on_deliver(self, payload: Any) -> None:
        self.delivered_count += 1
        self.deliver(payload)

    def _feed(self) -> None:
        if not self._session_up or self._endpoint_a is None:
            return
        queue = self._queue
        # The refused payload, if any, was only looked at: it stays queued.
        for _ in range(offer(self._endpoint_a, queue)):
            queue.popleft()

    def __repr__(self) -> str:
        return (
            f"<LinkSessionManager passes={self.passes_run} "
            f"delivered={self.delivered_count} backlog={self.backlog}>"
        )
