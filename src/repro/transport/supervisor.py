"""Supervised resilient sessions over the UDP backend.

:func:`~repro.transport.session.run_transfer` drives one fixed session:
if the peer dies mid-transfer, the session hangs until the watchdog
expires and the payloads still sitting in the sender's ledger are simply
reported as undelivered.  The :class:`SessionSupervisor` wraps the same
machinery in a supervised lifecycle with the classic operational
guarantees:

- **bounded establishment** — a session that never hears the peer
  (handshake blackhole, dead address) is declared failed within
  ``handshake_timeout`` instead of hanging;
- **dead-peer detection** — the receiver's periodic checkpoints double
  as a keepalive; ``heartbeat_timeout`` of socket silence on an
  established session kills the generation even when the protocol's own
  watchdog cannot run;
- **reconnect with backoff** — each dead generation is torn down and a
  fresh endpoint pair is built over the *same* sockets after an
  exponential-backoff delay with decorrelated jitter, up to
  ``max_attempts`` establishments;
- **session resumption** — teardown reclaims the sender's
  unacknowledged backlog (and flushes the receiver's already-acked
  queue upward) exactly like the DES
  :class:`~repro.session.manager.LinkSessionManager`, and the next
  generation replays it, so no checkpoint-acknowledged payload is ever
  lost across a restart;
- **graceful degradation** — when every attempt is exhausted the
  supervisor returns a reason-tagged declared-failure
  :class:`~repro.transport.session.TransportResult`; it may fail, but
  it never hangs past its deadline and never loses acknowledged data.

Monitor integration: the supervisor emits ``checkpoint_timeout`` /
``link_failure_declared`` trace events when *it* (not the protocol)
declares a generation dead, so the
:class:`~repro.invariants.monitors.FailureLatencyMonitor` sees every
declared failure on the same event vocabulary — and its spurious-check
polices the supervisor's detectors exactly like the protocol's: a
heartbeat kill with no checkpoint-threatening fault window behind it is
a violation.  Each generation renames the link (``name#g2``, ...), so
per-source monitors (checkpoint coverage) never mix checkpoint streams
from different generations.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass
from typing import Any, Optional

from ..core.endpoint import make_endpoint_pair
from ..faults.metrics import declared_failure_bound
from ..faults.plan import FaultPlan
from ..simulator.trace import Tracer
from ..workloads.scenarios import DeliveredList, LinkScenario
from .clock import AsyncioClock
from .impair import Impairments, TransportFaultInjector
from .session import (
    _POLL,
    Deadline,
    TransportResult,
    TransportSetup,
    _require_wire_family,
    _settle_budget,
    install_signal_stop,
)
from .conformance import (
    make_payload,
    payload_digest,
    payload_index,
    resequence_digest,
)
from .udp import UdpLink

__all__ = [
    "DecorrelatedJitterBackoff",
    "SessionSupervisor",
    "SupervisorPolicy",
    "run_supervised_transfer",
]

# Floors for the derived timeouts: real loopback sessions schedule on
# the asyncio loop, so sub-100ms bounds would race scheduler noise.
_MIN_HANDSHAKE = 0.2
_MIN_HEARTBEAT = 0.5


@dataclass(frozen=True)
class SupervisorPolicy:
    """Knobs governing one supervised session's lifecycle.

    ``for_scenario`` derives the timeouts from the protocol
    configuration so the supervisor is always *slower* than the
    protocol's own detection machinery: the sender's ``C_depth * W_cp``
    watchdog and failure timer get first claim on every outage, and the
    heartbeat only fires where the protocol cannot see (a peer that
    stops scheduling entirely).
    """

    handshake_timeout: float = 1.0
    heartbeat_timeout: float = 5.0
    max_attempts: int = 5
    backoff_base: float = 0.05
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if self.handshake_timeout <= 0:
            raise ValueError("handshake_timeout must be positive")
        if self.heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_base <= 0 or self.backoff_cap < self.backoff_base:
            raise ValueError("need 0 < backoff_base <= backoff_cap")

    @classmethod
    def for_scenario(
        cls,
        scenario: LinkScenario,
        config: Optional[Any] = None,
        **overrides: Any,
    ) -> "SupervisorPolicy":
        """Timeouts derived from the scenario's protocol configuration.

        The handshake budget covers the sender's startup watchdog
        (``C_depth * W_cp``) plus one checkpoint period and a round
        trip, so a blackholed establishment still lets the protocol
        emit its own detection probe first.  The heartbeat budget
        exceeds the declared-failure bound, so on any fault the
        protocol can perceive, ``link_failure_declared`` arrives before
        the supervisor's keepalive gives up.
        """
        if config is None:
            config = scenario.protocol_config("lams")
        rtt = scenario.round_trip_time
        derived: dict[str, Any] = {
            "handshake_timeout": max(
                config.checkpoint_timeout + config.checkpoint_interval + 2 * rtt,
                _MIN_HANDSHAKE,
            ),
            "heartbeat_timeout": max(
                declared_failure_bound(config, rtt) + 2 * rtt,
                _MIN_HEARTBEAT,
            ),
        }
        derived.update(overrides)
        return cls(**derived)


class DecorrelatedJitterBackoff:
    """Exponential backoff with decorrelated jitter.

    Each delay is drawn uniformly from ``[base, prev * 3]`` and capped:
    successive failures spread reconnect attempts apart (and apart from
    *each other* across concurrent sessions) without the synchronized
    thundering-herd retries plain exponential backoff produces.  The
    generator comes from the session's seeded stream registry, so a
    supervised run's retry schedule is as reproducible as its drops.
    """

    def __init__(self, base: float, cap: float, rng: Any) -> None:
        self.base = base
        self.cap = cap
        self._rng = rng
        self._prev = base

    def next(self) -> float:
        """The next delay (seconds); grows the decorrelated window."""
        high = max(self.base, self._prev * 3.0)
        delay = min(self.cap, float(self._rng.uniform(self.base, high)))
        self._prev = delay
        return delay

    def reset(self) -> None:
        """Back to the base window (call after a healthy generation)."""
        self._prev = self.base


class _Generation:
    """One endpoint-pair establishment inside a supervised session."""

    __slots__ = ("number", "endpoint_a", "endpoint_b", "sender", "receiver")

    def __init__(self, number: int, endpoint_a: Any, endpoint_b: Any) -> None:
        self.number = number
        self.endpoint_a = endpoint_a
        self.endpoint_b = endpoint_b
        self.sender = endpoint_a.sender
        self.receiver = endpoint_b.receiver


class SessionSupervisor:
    """Run a loopback transfer under a supervised session lifecycle.

    The clock, the socket pair, and the fault timeline live for the
    whole supervised session (sockets are the NIC, not the session);
    what a *generation* owns is one wired endpoint pair.  On a
    generation's death the sender's unacknowledged backlog is reclaimed
    to the front of the pending queue, the receiver's already-acked
    queue is flushed upward, and — budget permitting — a fresh pair is
    built over the same sockets after a backoff delay.
    """

    def __init__(
        self,
        scenario: LinkScenario,
        protocol: str = "lams",
        seed: int = 0,
        *,
        policy: Optional[SupervisorPolicy] = None,
        overrides: Optional[dict] = None,
        jitter: float = 0.0,
        drop: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        run_with_invariants: bool = True,
        tracer: Optional[Tracer] = None,
        host: str = "127.0.0.1",
    ) -> None:
        _require_wire_family(protocol)
        self.scenario = scenario
        self.protocol = protocol
        self.seed = seed
        self.config = scenario.protocol_config(protocol, **(overrides or {}))
        self.policy = policy or SupervisorPolicy.for_scenario(
            scenario, config=self.config,
        )
        self.jitter = jitter
        self.drop = drop
        self.fault_plan = fault_plan
        self.run_with_invariants = run_with_invariants
        self.tracer = tracer or Tracer()
        self.host = host
        # Outcome counters (readable after run()).
        self.attempts = 0
        self.reconnects = 0
        self.payloads_reclaimed = 0
        self.payloads_flushed = 0
        self._retransmissions = 0

    # -- lifecycle --------------------------------------------------------

    async def run(
        self,
        payloads: list[bytes],
        *,
        timeout: float = 30.0,
        stop_event: Optional[asyncio.Event] = None,
        install_signals: bool = False,
    ) -> TransportResult:
        """Drive *payloads* to completion or declared failure.

        Never hangs past *timeout*: every wait in the lifecycle draws
        from one :class:`~repro.transport.session.Deadline`.
        """
        policy = self.policy
        stop = stop_event if stop_event is not None else asyncio.Event()
        uninstall = install_signal_stop(stop) if install_signals else (lambda: None)
        clock = AsyncioClock()
        tracer = self.tracer
        impairments = Impairments.from_scenario(
            self.scenario, jitter=self.jitter, drop=self.drop,
        )
        reverse_impairments = Impairments.from_scenario(
            self.scenario, jitter=self.jitter, drop=self.drop,
            direction="reverse",
        )
        link = await UdpLink.open(
            clock, name=self.scenario.name, bit_rate=self.scenario.bit_rate,
            impairments=impairments, reverse_impairments=reverse_impairments,
            seed=self.seed, tracer=tracer,
            host=self.host,
        )
        base_name = link.name
        restart = asyncio.Event()
        injector = recovery = None
        if self.fault_plan is not None and len(self.fault_plan):
            from ..faults.metrics import RecoveryMetrics

            recovery = RecoveryMetrics(tracer)
            injector = TransportFaultInjector(
                clock, link, self.fault_plan, tracer=tracer,
            )
            injector.on_peer_restart = lambda fault: restart.set()
        backoff = DecorrelatedJitterBackoff(
            policy.backoff_base, policy.backoff_cap,
            link.streams.get("supervisor.backoff"),
        )

        deadline = Deadline(timeout)
        pending: deque[bytes] = deque(payloads)
        n_frames = len(payloads)
        delivered = DeliveredList()
        seen: set[int] = set()

        def on_delivery() -> None:
            index = payload_index(delivered[-1])
            if index is not None:
                seen.add(index)

        delivered.on_append = on_delivery

        suite = None
        generation: Optional[_Generation] = None
        completed = False
        failure_reason: Optional[str] = None
        try:
            while True:
                if stop.is_set():
                    failure_reason = "interrupted"
                    break
                if deadline.expired:
                    failure_reason = failure_reason or "watchdog"
                    break
                if self.attempts >= policy.max_attempts:
                    break
                self.attempts += 1
                if self.attempts > 1:
                    # Fresh trace-source names per generation: the
                    # checkpoint-coverage monitor keys pendings by
                    # source, so generations must not share one.
                    link.name = f"{base_name}#g{self.attempts}"
                restart.clear()
                protocol_failed = asyncio.Event()
                # Snap the clock to wall time before construction: after
                # a backoff sleep ``now`` still sits at the last pumped
                # event, and endpoints built against a stale clock would
                # arm their startup watchdogs in the past.
                clock.kick()
                endpoint_a, endpoint_b = make_endpoint_pair(
                    self.protocol, clock, link, self.config,
                    tracer=tracer, deliver_b=delivered.append,
                    on_failure_a=protocol_failed.set,
                )
                generation = _Generation(self.attempts, endpoint_a, endpoint_b)
                endpoint_a.start(send=True, receive=False)
                endpoint_b.start(send=False, receive=True)
                clock.kick()
                if self.run_with_invariants and suite is None:
                    from ..invariants.harness import attach_monitors

                    shape = TransportSetup(
                        clock, link, endpoint_a, endpoint_b, delivered, tracer,
                    )
                    suite = attach_monitors(
                        shape, self.scenario, fault_plan=self.fault_plan,
                        context={"scenario": self.scenario.name,
                                 "protocol": self.protocol, "seed": self.seed,
                                 "backend": "udp", "supervised": True},
                    )
                if suite is not None:
                    self._point_snapshot_at(suite, pending, generation)
                tracer.emit(
                    clock.now, "supervisor", "session_attempt",
                    attempt=self.attempts, pending=len(pending),
                )
                reason = await self._run_generation(
                    clock, link, generation, pending, seen, n_frames,
                    deadline, stop, protocol_failed, restart,
                )
                if reason is None:
                    completed = True
                    break
                self._teardown_generation(
                    clock, link, tracer, generation, pending, reason,
                )
                generation = None
                failure_reason = reason
                if reason == "interrupted":
                    break
                if (self.attempts >= policy.max_attempts
                        or deadline.expired or stop.is_set()):
                    break
                self.reconnects += 1
                delay = min(backoff.next(), deadline.remaining())
                tracer.emit(
                    clock.now, "supervisor", "reconnect_backoff",
                    attempt=self.attempts, delay=delay, reason=reason,
                )
                await asyncio.sleep(delay)
        finally:
            delivered.on_append = None
            uninstall()
        if completed:
            failure_reason = None
        elapsed = deadline.elapsed()
        if suite is not None:
            suite.finalize(clock.now)
        # Final teardown (success path, or an interrupted live generation).
        if generation is not None:
            generation.endpoint_a.stop()
            generation.endpoint_b.stop()
            self._retransmissions += generation.sender.retransmissions
        clock.kick()
        link.close()
        clock.close()
        await asyncio.sleep(0)
        return self._result(
            clock, link, delivered, seen, n_frames, payloads, pending,
            completed, failure_reason, elapsed, suite,
        )

    # -- one generation ---------------------------------------------------

    async def _run_generation(
        self,
        clock: AsyncioClock,
        link: UdpLink,
        generation: _Generation,
        pending: deque,
        seen: set,
        n_frames: int,
        deadline: Deadline,
        stop: asyncio.Event,
        protocol_failed: asyncio.Event,
        restart: asyncio.Event,
    ) -> Optional[str]:
        """Drive one generation; ``None`` on completion, else the reason
        it died (``handshake-timeout`` / ``peer-dead`` /
        ``protocol-failure`` / ``peer-restart`` / ``watchdog`` /
        ``interrupted``)."""
        policy = self.policy
        loop_time = asyncio.get_running_loop().time
        socket_a = link.socket_a
        last_count = socket_a.datagrams_received
        started = loop_time()
        last_heard = started
        connected = False
        endpoint_a = generation.endpoint_a
        while True:
            clock.kick()
            if stop.is_set():
                return "interrupted"
            if deadline.expired:
                return "watchdog"
            if protocol_failed.is_set():
                return "protocol-failure"
            if restart.is_set():
                # The peer process came back with no protocol state —
                # the surviving half must re-establish, not limp on.
                return "peer-restart"
            while pending:
                if not endpoint_a.accept(pending[0]):
                    break
                pending.popleft()
                clock.kick()
            # Heartbeat: periodic checkpoints are the keepalive, and
            # *any* arriving datagram proves the peer is scheduling.
            count = socket_a.datagrams_received
            now = loop_time()
            if count > last_count:
                last_count = count
                last_heard = now
                connected = True
            elif not connected and now - started >= policy.handshake_timeout:
                return "handshake-timeout"
            elif connected and now - last_heard >= policy.heartbeat_timeout:
                return "peer-dead"
            if not pending and len(seen) >= n_frames:
                await self._settle(clock, generation, deadline)
                return None
            await asyncio.sleep(_POLL)

    async def _settle(
        self,
        clock: AsyncioClock,
        generation: _Generation,
        deadline: Deadline,
    ) -> None:
        """Wait for the sender's ledger to drain (checkpoint releases
        for the last payloads are still in flight at delivery time)."""
        budget = _settle_budget(
            generation.sender.config, self.scenario.round_trip_time,
        )
        settle = deadline.sub(budget)
        while not settle.expired:
            clock.kick()
            if not generation.sender.held_payloads():
                return
            await asyncio.sleep(_POLL)

    def _teardown_generation(
        self,
        clock: AsyncioClock,
        link: UdpLink,
        tracer: Tracer,
        generation: _Generation,
        pending: deque,
        reason: str,
    ) -> None:
        """Declare the generation dead and reclaim its backlog.

        Mirrors the DES session manager's teardown: the sender's held
        (unacknowledged) payloads go back to the *front* of the pending
        queue in order; the receiver's queue — payloads the peer
        already acknowledged via checkpoints — is flushed upward so an
        acked payload is never un-delivered by a restart.
        """
        if reason in ("handshake-timeout", "peer-dead"):
            # The supervisor, not the protocol, is the detector here;
            # emit the declared-failure vocabulary so the failure-
            # latency monitor both credits the detection and polices it
            # (a kill with no fault window behind it is a violation).
            tracer.emit(
                clock.now, "supervisor", "checkpoint_timeout",
                attempt=generation.number, reason=reason,
            )
            tracer.emit(
                clock.now, "supervisor", "link_failure_declared",
                attempt=generation.number, reason=reason,
            )
        sender = generation.sender
        held = list(sender.held_payloads())
        generation.endpoint_a.stop()
        flushed = generation.receiver.flush()
        generation.endpoint_b.stop()
        clock.kick()
        pending.extendleft(reversed(held))
        self.payloads_reclaimed += len(held)
        self.payloads_flushed += flushed
        self._retransmissions += sender.retransmissions
        tracer.settle()  # deliveries still held back go ahead of the reclaim
        tracer.emit(
            clock.now, "supervisor", "backlog_reclaimed",
            attempt=generation.number, reason=reason,
            reclaimed=len(held), flushed=flushed, payloads=tuple(held),
        )

    def _point_snapshot_at(
        self, suite: Any, pending: deque, generation: _Generation,
    ) -> None:
        """Aim the suite's held-backlog snapshot at the live generation.

        The zero-loss ledger's finalize counts anything in this
        snapshot as safely held: the supervisor's pending queue (which
        includes every reclaimed payload) plus the current sender's
        ledger and receiver's undrained queue.
        """
        sender, receiver = generation.sender, generation.receiver

        def held_snapshot() -> list[Any]:
            held = list(pending)
            held.extend(sender.held_payloads())
            held.extend(receiver.queued_payloads())
            return held

        suite.held_snapshot = held_snapshot

    # -- reporting --------------------------------------------------------

    def _result(
        self,
        clock: AsyncioClock,
        link: UdpLink,
        delivered: DeliveredList,
        seen: set,
        n_frames: int,
        payloads: list[bytes],
        pending: deque,
        completed: bool,
        failure_reason: Optional[str],
        elapsed: float,
        suite: Any,
    ) -> TransportResult:
        digest, duplicates = resequence_digest(list(delivered))
        forward, reverse = link.forward, link.reverse
        socket_a, socket_b = link.socket_a, link.socket_b
        stats = {
            "forward_frames_sent": forward.frames_sent,
            "forward_frames_corrupted": forward.frames_corrupted,
            "forward_frames_dropped": forward.frames_dropped,
            "reverse_frames_sent": reverse.frames_sent,
            "reverse_frames_corrupted": reverse.frames_corrupted,
            "reverse_frames_dropped": reverse.frames_dropped,
            "datagrams_received_a": socket_a.datagrams_received,
            "datagrams_received_b": socket_b.datagrams_received,
            "send_errors": socket_a.send_errors + socket_b.send_errors,
            "datagrams_stalled": (socket_a.datagrams_stalled
                                  + socket_b.datagrams_stalled),
            "datagrams_blackholed": (socket_a.datagrams_blackholed
                                     + socket_b.datagrams_blackholed),
            "retransmissions": self._retransmissions,
            "payloads_reclaimed": self.payloads_reclaimed,
            "payloads_flushed": self.payloads_flushed,
            "pending_remaining": len(pending),
            "event_count": clock.event_count,
        }
        return TransportResult(
            scenario=self.scenario.name, protocol=self.protocol,
            seed=self.seed, n_frames=n_frames, completed=completed,
            delivered_unique=len(seen), duplicates=duplicates,
            digest=digest, expected_digest=payload_digest(payloads),
            elapsed=elapsed, monitors=suite, stats=stats,
            failure_reason=failure_reason,
            attempts=self.attempts, reconnects=self.reconnects,
        )


def run_supervised_transfer(
    scenario: LinkScenario,
    protocol: str = "lams",
    seed: int = 0,
    *,
    n_frames: int = 48,
    payload_bytes: int = 256,
    timeout: float = 30.0,
    policy: Optional[SupervisorPolicy] = None,
    overrides: Optional[dict] = None,
    jitter: float = 0.0,
    drop: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
    run_with_invariants: bool = True,
    tracer: Optional[Tracer] = None,
    host: str = "127.0.0.1",
    stop_event: Optional[asyncio.Event] = None,
    install_signals: bool = False,
) -> TransportResult:
    """One supervised loopback transfer (blocking facade).

    The supervised twin of
    :func:`~repro.transport.session.run_transfer`: same arguments plus
    the :class:`SupervisorPolicy` (derived from the scenario when not
    given).  The result's ``attempts`` / ``reconnects`` /
    ``failure_reason`` fields report the lifecycle's outcome.
    """
    supervisor = SessionSupervisor(
        scenario, protocol, seed, policy=policy, overrides=overrides,
        jitter=jitter, drop=drop, fault_plan=fault_plan,
        run_with_invariants=run_with_invariants, tracer=tracer, host=host,
    )

    async def _run() -> TransportResult:
        return await supervisor.run(
            [make_payload(i, payload_bytes) for i in range(n_frames)],
            timeout=timeout, stop_event=stop_event,
            install_signals=install_signals,
        )

    return asyncio.run(_run())
