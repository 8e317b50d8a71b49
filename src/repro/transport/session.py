"""Live LAMS-DLC sessions over the UDP backend.

Two ways to run the protocol on real sockets:

- :func:`open_loopback` / :func:`run_transfer` — both endpoints in one
  process over a localhost socket pair, with the full invariant
  :class:`~repro.invariants.monitors.MonitorSuite` attached to the
  live traffic.  This is the transport twin of
  :func:`repro.workloads.scenarios.build_simulation`:
  :class:`TransportSetup` mirrors ``SimulationSetup``'s shape, so
  :func:`~repro.invariants.harness.attach_monitors` works unchanged.
  :func:`run_transfer` is a
  :class:`~repro.transport.supervisor.SessionSupervisor` run of one
  attempt over an :func:`open_loopback` session.
- :func:`run_serve` / :func:`run_client` — one endpoint per process
  (the ``python -m repro serve`` / ``transmit --connect`` pair), for
  sessions across a real network path.

Completion semantics: a transfer is complete when the destination
resequencer has released every offered payload in order *and* the
sender's zero-loss ledger is empty (every copy released by a
checkpoint), so the monitor suite finalizes from a quiescent state.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import signal
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..core.endpoint import make_endpoint_pair, offer, resolve_protocol
from ..faults.plan import FaultPlan
from ..simulator.rng import StreamRegistry
from ..simulator.trace import Tracer
from ..workloads.scenarios import DeliveredList, LinkScenario
from .clock import AsyncioClock
from .conformance import make_payload, payload_index, resequence_digest
from .impair import Impairments
from .udp import UdpEndpointSocket, UdpLink

__all__ = [
    "ClientReport",
    "Deadline",
    "ServeReport",
    "TransportResult",
    "TransportSetup",
    "install_signal_stop",
    "open_loopback",
    "run_client",
    "run_serve",
    "run_transfer",
]

# Polling cadence for real-time waits (offers refused by Stop-Go,
# settle loops).  Coarse enough to stay off the hot path, fine enough
# that golden-scenario sessions finish promptly.
_POLL = 0.005


class Deadline:
    """One monotonic wall-clock budget shared by every real-time wait.

    Every loop that used to hand-roll ``loop.time() < deadline`` spins
    (offer retries, completion waits, settle drains, supervisor
    watchdogs) draws from a single :class:`Deadline`, so a session's
    timeout is accounted uniformly no matter which phase consumes it.
    """

    __slots__ = ("_time", "_start", "_until")

    def __init__(self, timeout: float,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self._time = clock if clock is not None else (
            asyncio.get_running_loop().time
        )
        self._start = self._time()
        self._until = self._start + max(0.0, timeout)

    @property
    def expired(self) -> bool:
        return self._time() >= self._until

    def remaining(self) -> float:
        """Seconds left (never negative)."""
        return max(0.0, self._until - self._time())

    def elapsed(self) -> float:
        return self._time() - self._start

    def sub(self, budget: float) -> "Deadline":
        """A child deadline of at most *budget* seconds, capped by this one."""
        return Deadline(min(budget, self.remaining()), clock=self._time)

    def __repr__(self) -> str:
        return f"<Deadline remaining={self.remaining():.3f}s>"


def install_signal_stop(stop: asyncio.Event) -> Callable[[], None]:
    """Route SIGINT/SIGTERM into *stop*; returns an uninstall callback.

    Lets live CLI sessions (``serve`` / ``transmit``) shut down
    gracefully — close sockets, emit a partial reason-tagged report —
    instead of dying with a traceback.  On loops/platforms without
    ``add_signal_handler`` (Windows, nested loops) this is a no-op and
    the uninstaller does nothing.
    """
    loop = asyncio.get_running_loop()
    installed: list[int] = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError, ValueError):
            continue
        installed.append(signum)

    def uninstall() -> None:
        for signum in installed:
            with contextlib.suppress(Exception):
                loop.remove_signal_handler(signum)

    return uninstall


@dataclass
class TransportSetup:
    """A live loopback session (the transport twin of ``SimulationSetup``).

    ``sim`` is the :class:`AsyncioClock` — named for shape-compatibility
    with harness code written against ``SimulationSetup``.  Under a
    :class:`~repro.transport.supervisor.SessionSupervisor`,
    ``endpoint_a`` / ``endpoint_b`` are the live generation's pair.
    """

    sim: AsyncioClock
    link: UdpLink
    endpoint_a: Any
    endpoint_b: Any
    delivered: DeliveredList
    tracer: Tracer
    fault_injector: Optional[Any] = None
    recovery: Optional[Any] = None
    monitors: Optional[Any] = None

    def finalize_monitors(self) -> Any:
        """Run the monitors' end-of-run checks; returns the suite."""
        if self.monitors is not None:
            self.monitors.finalize(self.sim.now)
        return self.monitors

    async def close(self) -> None:
        """Stop both endpoints and release sockets and timers."""
        await _close(self.sim, self.link, self.endpoint_a, self.endpoint_b)


@dataclass
class TransportResult:
    """Outcome of one loopback transfer (plain or supervised).

    ``failure_reason`` is ``None`` on success; a declared failure tags
    why the session degraded (``"handshake-timeout"``, ``"peer-dead"``,
    ``"protocol-failure"``, ``"watchdog"``, ``"interrupted"``).
    ``attempts`` counts session establishments, ``reconnects`` the
    supervised teardown-and-replay cycles that preceded the outcome.
    """

    scenario: str
    protocol: str
    seed: int
    n_frames: int
    completed: bool
    delivered_unique: int
    duplicates: int
    digest: str
    expected_digest: str
    elapsed: float
    monitors: Optional[Any] = None
    stats: dict[str, Any] = field(default_factory=dict)
    failure_reason: Optional[str] = None
    attempts: int = 1
    reconnects: int = 0

    @property
    def ok(self) -> bool:
        """Complete, byte-exact, and every invariant held."""
        return (self.completed
                and self.digest == self.expected_digest
                and (self.monitors is None or self.monitors.ok))

    @property
    def violations(self) -> list[Any]:
        return [] if self.monitors is None else self.monitors.violations


def _require_wire_family(protocol: str) -> None:
    """Reject a protocol the UDP plane cannot carry, before any socket.

    Frames cross a socket as :mod:`repro.core.wire` bytes, and only the
    LAMS family has that codec; the comparison protocols (SR-HDLC/GBN,
    NBDT) are simulation-only baselines.
    """
    family, _ = resolve_protocol(protocol)
    if family != "lams":
        raise ValueError(
            f"protocol {protocol!r} cannot run over UDP: family {family!r} "
            "has no wire codec (only the LAMS family does)"
        )


async def open_loopback(
    scenario: LinkScenario,
    protocol: str = "lams",
    seed: int = 0,
    *,
    overrides: Optional[dict] = None,
    jitter: float = 0.0,
    drop: Optional[float] = None,
    iframe_errors: Optional[Any] = None,
    cframe_errors: Optional[Any] = None,
    error_model: Optional[Any] = None,
    fault_plan: Optional[FaultPlan] = None,
    run_with_invariants: bool = True,
    tracer: Optional[Tracer] = None,
    host: str = "127.0.0.1",
) -> TransportSetup:
    """Open a one-way loopback session: A sends, B receives.

    Construction order matches ``build_simulation`` exactly — link,
    endpoints, start, fault injector, monitors — so the two backends
    observe the same event sequence at startup.  *error_model* /
    *iframe_errors* / *cframe_errors* override the scenario's error
    processes exactly like their ``build_simulation`` namesakes.  This
    is the one place a loopback link is opened:
    :class:`~repro.transport.supervisor.SessionSupervisor` (and so
    :func:`run_transfer`) starts its sessions here.
    """
    _require_wire_family(protocol)
    errors = {"error_model": error_model, "iframe_errors": iframe_errors,
              "cframe_errors": cframe_errors}
    impairments = Impairments.from_scenario(
        scenario, jitter=jitter, drop=drop, **errors,
    )
    reverse_impairments = Impairments.from_scenario(
        scenario, jitter=jitter, drop=drop, direction="reverse", **errors,
    )
    clock = AsyncioClock()
    tracer = tracer or Tracer()
    delivered = DeliveredList()
    link = await UdpLink.open(
        clock, name=scenario.name, bit_rate=scenario.bit_rate,
        impairments=impairments, reverse_impairments=reverse_impairments,
        seed=seed, tracer=tracer, host=host,
    )
    config = scenario.protocol_config(protocol, **(overrides or {}))
    endpoint_a, endpoint_b = make_endpoint_pair(
        protocol, clock, link, config,
        tracer=tracer, deliver_b=delivered.append,
    )
    endpoint_a.start(send=True, receive=False)
    endpoint_b.start(send=False, receive=True)
    injector = recovery = None
    if fault_plan is not None and len(fault_plan):
        from ..faults.metrics import RecoveryMetrics
        from .impair import TransportFaultInjector

        recovery = RecoveryMetrics(tracer)
        injector = TransportFaultInjector(clock, link, fault_plan, tracer=tracer)
    setup = TransportSetup(
        clock, link, endpoint_a, endpoint_b, delivered, tracer,
        fault_injector=injector, recovery=recovery,
    )
    if run_with_invariants:
        from ..invariants.harness import attach_monitors

        setup.monitors = attach_monitors(
            setup, scenario, fault_plan=fault_plan,
            context={"scenario": scenario.name, "protocol": protocol,
                     "seed": seed, "backend": "udp"},
        )
    clock.kick()
    return setup


def _settle_budget(config: Any, rtt: float) -> float:
    """Real-time allowance for the sender's ledger to drain after the
    last in-order delivery (resolving period + one extra round)."""
    resolving = config.resolving_period(rtt)
    return 2.0 * resolving + rtt + 0.1


def _offer(clock: AsyncioClock, endpoint: Any, pending: deque) -> None:
    """Offer *pending* to *endpoint* from the front, up to the first
    refusal (Stop-Go); what it accepted leaves the queue."""
    for _ in range(offer(endpoint, pending)):
        pending.popleft()
    clock.kick()


async def _settle(
    clock: AsyncioClock,
    endpoint: Any,
    pending: deque,
    deadline: Deadline,
    stop: asyncio.Event,
) -> bool:
    """Offer *pending* while Stop-Go refuses, then wait for the sender's
    ledger to empty (every copy released by a checkpoint).

    True once both are empty; False if *deadline* expires or *stop* is
    set first.
    """
    sender = endpoint.sender
    while not (deadline.expired or stop.is_set()):
        clock.kick()
        _offer(clock, endpoint, pending)
        if not pending and not sender.held_payloads():
            return True
        await asyncio.sleep(_POLL)
    return False


async def _close(clock: AsyncioClock, link: Any, *endpoints: Any) -> None:
    """Stop *endpoints*, then release *link*'s sockets and *clock*'s alarm."""
    for endpoint in endpoints:
        endpoint.stop()
    clock.kick()
    link.close()
    clock.close()
    # Let the loop process the transport close callbacks.
    await asyncio.sleep(0)


def run_transfer(
    scenario: LinkScenario,
    protocol: str = "lams",
    seed: int = 0,
    *,
    n_frames: int = 48,
    payload_bytes: int = 256,
    timeout: float = 30.0,
    overrides: Optional[dict] = None,
    jitter: float = 0.0,
    drop: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
    run_with_invariants: bool = True,
    tracer: Optional[Tracer] = None,
    host: str = "127.0.0.1",
    install_signals: bool = False,
) -> TransportResult:
    """Run one complete loopback transfer (blocking facade).

    Opens the session, offers *n_frames* payloads, waits (in real time,
    capped by *timeout*) for in-order delivery plus sender-ledger
    drain, finalizes the monitors, and tears everything down.  With
    *install_signals*, SIGINT/SIGTERM end the session gracefully and
    the result carries ``failure_reason="interrupted"``.

    This is a supervised session of one attempt whose supervisor
    declares nothing itself: no handshake or heartbeat timeout, no
    reconnect.  The protocol's declared link failure ends it at once,
    ``failure_reason="protocol-failure"``; a peer the protocol cannot
    perceive as dead ends it in ``"watchdog"`` at *timeout*.
    """
    # Lazy: the supervisor is built on this module.
    from .supervisor import SupervisorPolicy, run_supervised_transfer

    return run_supervised_transfer(
        scenario, protocol, seed, n_frames=n_frames,
        payload_bytes=payload_bytes, timeout=timeout,
        policy=SupervisorPolicy(
            max_attempts=1, handshake_timeout=math.inf,
            heartbeat_timeout=math.inf,
        ),
        overrides=overrides, jitter=jitter, drop=drop, fault_plan=fault_plan,
        run_with_invariants=run_with_invariants, tracer=tracer, host=host,
        install_signals=install_signals,
    )


# -- two-process endpoints (serve / transmit --connect) -------------------


@dataclass
class ServeReport:
    """Outcome of one receive-side (``serve``) session.

    ``reason`` tags how the session ended: ``"completed"`` (the
    configured duration elapsed) or ``"interrupted"`` (SIGINT/SIGTERM
    — still a full report over whatever was received).
    """

    received_unique: int
    duplicates: int
    digest: str
    datagrams_received: int
    datagrams_undecodable: int
    elapsed: float
    reason: str = "completed"


@dataclass
class ClientReport:
    """Outcome of one send-side (``transmit --connect``) session.

    ``reason`` is ``"completed"``, ``"watchdog"`` (timeout with work
    outstanding), or ``"interrupted"`` (signal-driven early exit).
    """

    offered: int
    completed: bool
    held_remaining: int
    retransmissions: int
    elapsed: float
    reason: str = "completed"


def _open_single_endpoint(
    clock: AsyncioClock,
    scenario: LinkScenario,
    seed: int,
    overrides: Optional[dict],
    tracer: Tracer,
    role: str,
    **socket_kwargs: Any,
):
    """Coroutine factory shared by serve/client: one socket, one endpoint."""
    from ..core.protocol import LamsDlcEndpoint

    async def _open(deliver=None):
        streams = StreamRegistry(seed=seed)
        outgoing = "fwd" if role == "A" else "rev"
        incoming = "rev" if role == "A" else "fwd"
        sock = await UdpEndpointSocket.open(
            clock,
            outgoing_name=f"{scenario.name}.{outgoing}",
            incoming_name=f"{scenario.name}.{incoming}",
            bit_rate=scenario.bit_rate,
            impairments=Impairments.from_scenario(
                # A's outgoing datagrams ride the forward direction, B's
                # the feedback (reverse) direction.
                scenario, direction="forward" if role == "A" else "reverse",
            ),
            streams=streams, tracer=tracer, **socket_kwargs,
        )
        config = scenario.protocol_config("lams", **(overrides or {}))
        endpoint = LamsDlcEndpoint(
            clock, config, outgoing=sock.channel,
            expected_rtt=scenario.round_trip_time,
            name=f"{scenario.name}.{role}", tracer=tracer, deliver=deliver,
            link_start_time=clock.now,
        )
        sock.attach(endpoint.on_frame)
        return sock, endpoint

    return _open


async def _serve(
    scenario: LinkScenario,
    bind: tuple[str, int],
    seed: int,
    duration: float,
    overrides: Optional[dict],
    tracer: Optional[Tracer],
    stop_event: Optional[asyncio.Event] = None,
    install_signals: bool = False,
) -> ServeReport:
    # Pinned epoch: both processes of a two-process session sit on the
    # machine-wide monotonic clock, so cross-endpoint timestamps
    # (checkpoint issue_time vs expected_arrival) are comparable.
    clock = AsyncioClock(epoch=0.0)
    tracer = tracer or Tracer()
    delivered: list[bytes] = []
    stop = stop_event if stop_event is not None else asyncio.Event()
    uninstall = install_signal_stop(stop) if install_signals else (lambda: None)
    opener = _open_single_endpoint(
        clock, scenario, seed, overrides, tracer, role="B",
        bind=bind, learn_peer=True,
    )
    sock, endpoint = await opener(deliver=delivered.append)
    endpoint.start(send=False, receive=True)
    clock.kick()
    deadline = Deadline(duration)
    try:
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(stop.wait(), timeout=deadline.remaining())
        clock.kick()
    finally:
        uninstall()
        await _close(clock, sock, endpoint)
    digest, duplicates = resequence_digest(delivered)
    unique = len({payload_index(d) for d in delivered
                  if payload_index(d) is not None})
    return ServeReport(
        received_unique=unique, duplicates=duplicates, digest=digest,
        datagrams_received=sock.datagrams_received,
        datagrams_undecodable=sock.datagrams_undecodable,
        elapsed=deadline.elapsed(),
        reason="interrupted" if stop.is_set() else "completed",
    )


def run_serve(
    scenario: LinkScenario,
    *,
    bind: tuple[str, int] = ("127.0.0.1", 47901),
    seed: int = 0,
    duration: float = 30.0,
    overrides: Optional[dict] = None,
    tracer: Optional[Tracer] = None,
    stop_event: Optional[asyncio.Event] = None,
    install_signals: bool = False,
) -> ServeReport:
    """Run the receive side of a two-process session for *duration*.

    The peer address is learned from the first arriving datagram, so
    the server needs no prior knowledge of the client.  *stop_event*
    (or SIGINT/SIGTERM with *install_signals*) ends the session early
    with a partial report tagged ``reason="interrupted"``.
    """
    return asyncio.run(_serve(scenario, bind, seed, duration, overrides,
                              tracer, stop_event=stop_event,
                              install_signals=install_signals))


async def _client(
    scenario: LinkScenario,
    connect: tuple[str, int],
    seed: int,
    n_frames: int,
    payload_bytes: int,
    timeout: float,
    overrides: Optional[dict],
    tracer: Optional[Tracer],
    stop_event: Optional[asyncio.Event] = None,
    install_signals: bool = False,
) -> ClientReport:
    # Same pinned epoch as the serving process — see _serve.
    clock = AsyncioClock(epoch=0.0)
    tracer = tracer or Tracer()
    stop = stop_event if stop_event is not None else asyncio.Event()
    uninstall = install_signal_stop(stop) if install_signals else (lambda: None)
    opener = _open_single_endpoint(
        clock, scenario, seed, overrides, tracer, role="A", peer=connect,
    )
    sock, endpoint = await opener()
    endpoint.start(send=True, receive=False)
    clock.kick()
    pending = deque(make_payload(index, payload_bytes) for index in range(n_frames))
    deadline = Deadline(timeout)
    try:
        completed = await _settle(clock, endpoint, pending, deadline, stop)
    finally:
        uninstall()
        await _close(clock, sock, endpoint)
    if completed:
        reason = "completed"
    elif stop.is_set():
        reason = "interrupted"
    else:
        reason = "watchdog"
    return ClientReport(
        offered=n_frames - len(pending), completed=completed,
        held_remaining=len(endpoint.sender.held_payloads()),
        retransmissions=endpoint.sender.retransmissions,
        elapsed=deadline.elapsed(),
        reason=reason,
    )


def run_client(
    scenario: LinkScenario,
    *,
    connect: tuple[str, int],
    seed: int = 0,
    n_frames: int = 48,
    payload_bytes: int = 256,
    timeout: float = 30.0,
    overrides: Optional[dict] = None,
    tracer: Optional[Tracer] = None,
    stop_event: Optional[asyncio.Event] = None,
    install_signals: bool = False,
) -> ClientReport:
    """Run the send side of a two-process session against *connect*.

    *stop_event* / *install_signals* end the session early with a
    partial report tagged ``reason="interrupted"``.
    """
    return asyncio.run(_client(
        scenario, connect, seed, n_frames, payload_bytes, timeout,
        overrides, tracer, stop_event=stop_event,
        install_signals=install_signals,
    ))
