"""UDP channels and links that duck-type the DES link layer.

The registered LAMS pair factory
(:func:`repro.core.protocol._make_lams_pair`) only touches a link
through ``link.forward`` / ``link.reverse`` / ``link.attach`` /
``link.round_trip_time`` / ``link.name``, and the sender half only
touches a channel through ``bit_rate``, ``send``, ``on_idle``,
``is_idle``, ``propagation_delay`` (plus the ``_fixed_delay`` /
``_transmitting`` / ``_queue`` fast-path attributes).  This module
provides socket-backed implementations of both shapes, so the exact
same factory wires endpoints over real sockets:

- :class:`UdpChannel` — one outgoing direction: FIFO serialization at
  ``bit_rate`` (paced on the :class:`~repro.transport.clock.AsyncioClock`),
  the :mod:`~repro.transport.impair` shim (delay/jitter/drop/corruption),
  then a real ``sendto``.  Supports ``down()``/``up()`` and live
  ``iframe_errors``/``cframe_errors`` swaps, so the
  :class:`~repro.faults.injector.FaultInjector` drives it unchanged.
- :class:`UdpEndpointSocket` — one bound datagram socket plus its
  outgoing channel; arriving datagrams are decoded (with a CRC-less
  salvage pass for corrupted-but-parseable frames) and dispatched to
  the attached endpoint between clock kicks.
- :class:`UdpLink` — a loopback pair of sockets presenting the
  :class:`~repro.simulator.link.FullDuplexLink` surface.  Both ends live
  in one process, so each ``sendto`` is followed by one non-blocking
  read of the peer's socket: the datagram is dispatched in the pump
  that sent it, at its emulated arrival instant, without a pass of the
  event loop.  What is not there yet the loop's reader picks up.
"""

from __future__ import annotations

import asyncio
import math
import socket
from collections import deque
from typing import Any, Callable, Optional

from ..core.wire import WireFormatError, decode_frame, encode_frame
from ..simulator.rng import StreamRegistry
from ..simulator.trace import Tracer
from .clock import AsyncioClock
from .impair import Impairments, corrupt_crc

__all__ = ["UdpChannel", "UdpEndpointSocket", "UdpLink", "decode_datagram"]

# Larger than any UDP datagram.
_MAX_DATAGRAM = 65536


def decode_datagram(data: bytes) -> tuple[Optional[Any], bool]:
    """Decode one datagram leniently; returns ``(frame, corrupted)``.

    A CRC-passing frame arrives clean; a CRC-failing one is re-parsed
    without verification (the DES channel's "corrupted but header
    readable" delivery); anything structurally unparseable is lost
    entirely (``(None, True)``).
    """
    try:
        return decode_frame(data), False
    except WireFormatError:
        pass
    try:
        return decode_frame(data, verify=False), True
    except WireFormatError:
        return None, True


class UdpChannel:
    """One emulated direction: serializer + impairment shim + socket.

    Mirrors :class:`~repro.simulator.link.SimplexChannel` closely —
    same FIFO/serialization semantics, same counters, same monotone
    arrival clamp, same per-class error-model attributes — but the
    "delivery" is a real datagram handed to *emit* at the emulated
    arrival instant.

    A frame's serialisation end keeps its own heap entry, but it wakes
    the loop no sooner than its frame can reach the wire, a propagation
    delay later (:meth:`AsyncioClock.defer_wakeup`): nothing else sees
    the end of serialisation before that.  So a frame costs one wake-up.
    """

    def __init__(
        self,
        clock: AsyncioClock,
        name: str,
        emit: Callable[[bytes], None],
        bit_rate: float,
        impairments: Optional[Impairments] = None,
        streams: Optional[StreamRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if not 0 < bit_rate < math.inf:  # NaN fails both comparisons
            raise ValueError(f"bit_rate must be positive and finite, got {bit_rate!r}")
        self.sim = clock
        self.name = name
        self.bit_rate = bit_rate
        self.impairments = impairments if impairments is not None else Impairments()
        self.streams = streams or StreamRegistry()
        self.tracer = tracer or Tracer()
        self._emit = emit
        # Fast-path ABI shared with SimplexChannel (the sender half
        # reads these attributes directly).
        self._fixed_delay = float(self.impairments.propagation_delay)
        if not 0 <= self._fixed_delay < math.inf:
            raise ValueError(
                "propagation_delay must be non-negative and finite, "
                f"got {self._fixed_delay!r}"
            )
        # Bound once: the object every serialisation end pushes, which
        # the clock recognises by identity.
        self._serialised = self._transmit_done
        clock.defer_wakeup(self._serialised, self._fixed_delay)
        self._queue: deque[Any] = deque()
        self._transmitting = False
        self._last_arrival = -1.0
        self._is_up = True
        self.idle_callbacks: list[Callable[[], None]] = []
        self.iframe_errors, self.cframe_errors, self.drop_errors = (
            self.impairments.resolve_models(bit_rate)
        )
        self._jitter = float(self.impairments.jitter)
        self._iframe_rng = None
        self._cframe_rng = None
        self._drop_rng = None
        self._jitter_rng = None
        self.busy_seconds = 0.0
        self.frames_sent = 0
        self.frames_corrupted = 0
        self.frames_dropped = 0
        self.frames_lost_outage = 0
        self.bytes_sent = 0

    # -- wiring ----------------------------------------------------------

    def on_idle(self, callback: Callable[[], None]) -> None:
        """Register a callback fired whenever the transmit queue drains."""
        self.idle_callbacks.append(callback)

    # -- state -----------------------------------------------------------

    def propagation_delay(self, when: float) -> float:
        """The emulated (jitter-free) one-way delay."""
        return self._fixed_delay

    @property
    def is_idle(self) -> bool:
        return not self._transmitting and not self._queue

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def is_up(self) -> bool:
        return self._is_up

    def down(self) -> None:
        """Cut the direction: everything sent from now on is lost.

        Kicks the clock first, so a serialisation end that is due but
        waiting for its wake-up finds the direction as it was.
        """
        self.sim.kick()
        self._is_up = False

    def up(self) -> None:
        """Restore the direction."""
        self.sim.kick()
        self._is_up = True

    # -- transmission ----------------------------------------------------

    def send(self, frame: Any) -> None:
        """Queue *frame* for serialization (FIFO behind any busy frame)."""
        if self._transmitting:
            self._queue.append(frame)
            return
        self._begin_transmit(frame)

    def transmission_time(self, frame: Any) -> float:
        return frame.size_bits / self.bit_rate

    def _begin_transmit(self, frame: Any) -> None:
        self._transmitting = True
        tx_time = frame.size_bits / self.bit_rate
        self.busy_seconds += tx_time
        clock = self.sim
        clock.schedule(tx_time, self._serialised, frame, clock.now)

    def _start_next(self) -> None:
        if not self._queue:
            self._transmitting = False
            callbacks = self.idle_callbacks
            if len(callbacks) == 1:
                # Single registered callback (the usual wiring): skip the
                # defensive snapshot copy — this runs once per frame.
                callbacks[0]()
            else:
                for callback in list(callbacks):
                    callback()
            return
        self._begin_transmit(self._queue.popleft())

    def _transmit_done(self, frame: Any, departure: float) -> None:
        self.frames_sent += 1
        if not self._is_up:
            self._lose_to_outage(frame, phase="serialize")
            self._start_next()
            return
        clock = self.sim
        delay = self._fixed_delay
        if self._jitter:
            rng = self._jitter_rng
            if rng is None:
                rng = self._jitter_rng = self.streams.get(f"{self.name}.jitter")
            delay += rng.random() * self._jitter
        arrival = clock.now + delay
        if arrival < self._last_arrival:
            arrival = self._last_arrival
        self._last_arrival = arrival
        # Per-class corruption draw: same models, same named streams,
        # same size_bits as the DES channel would use for this frame.
        if frame.is_control:
            rng = self._cframe_rng
            if rng is None:
                rng = self._cframe_rng = self.streams.get(f"{self.name}.cframe")
            model = self.cframe_errors
        else:
            rng = self._iframe_rng
            if rng is None:
                rng = self._iframe_rng = self.streams.get(f"{self.name}.iframe")
            model = self.iframe_errors
        corrupted = model.frame_error(departure, frame.size_bits, rng)
        dropped = False
        if self.drop_errors is not None:
            rng = self._drop_rng
            if rng is None:
                rng = self._drop_rng = self.streams.get(f"{self.name}.drop")
            dropped = self.drop_errors.frame_error(departure, frame.size_bits, rng)
        data = self._encode(frame)
        if corrupted:
            self.frames_corrupted += 1
            data = corrupt_crc(data)
        if dropped:
            self.frames_dropped += 1
            if self.tracer.active:
                self.tracer.emit(clock.now, self.name, "udp_dropped",
                                 control=frame.is_control)
        else:
            clock.schedule_at(arrival, self._emit_datagram, data,
                              frame.is_control, corrupted)
        self._start_next()

    def _encode(self, frame: Any) -> bytes:
        payload = getattr(frame, "payload", None)
        if frame.is_control or payload is None:
            return encode_frame(frame)
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            raise TypeError(
                f"the UDP backend carries real octets; I-frame payloads must "
                f"be bytes, got {type(payload).__name__}"
            )
        return encode_frame(frame, bytes(payload))

    def _emit_datagram(self, data: bytes, control: bool, corrupted: bool) -> None:
        if not self._is_up:
            self.frames_lost_outage += 1
            if self.tracer.active:
                self.tracer.emit(self.sim.now, self.name, "frame_lost_outage",
                                 phase="propagate", control=control)
            return
        self.bytes_sent += len(data)
        if self.tracer.active:
            self.tracer.emit(self.sim.now, self.name, "udp_sendto",
                             control=control, corrupted=corrupted,
                             size=len(data))
        self._emit(data)

    def _lose_to_outage(self, frame: Any, phase: str) -> None:
        self.frames_lost_outage += 1
        self.tracer.emit(
            self.sim.now, self.name, "frame_lost_outage",
            phase=phase, control=frame.is_control,
        )

    def utilization(self, now: Optional[float] = None) -> float:
        end = self.sim.now if now is None else now
        return self.busy_seconds / end if end > 0 else 0.0

    def __repr__(self) -> str:
        return f"<UdpChannel {self.name} rate={self.bit_rate:g}bps>"


class _UdpPeerProtocol(asyncio.DatagramProtocol):
    """Thin adapter handing datagrams to the owning socket object."""

    def __init__(self, owner: "UdpEndpointSocket") -> None:
        self._owner = owner

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._owner._transport = transport

    def datagram_received(self, data: bytes, addr: Any) -> None:
        self._owner._on_datagram(data, addr)

    def error_received(self, exc: Exception) -> None:
        owner = self._owner
        if owner._sending:
            # Raised by the kernel inside our own transport.sendto call,
            # which asyncio catches and reports here instead.
            owner._send_failed(exc)
        else:
            owner.socket_errors += 1


def _bound_socket(bind: tuple[str, int]) -> socket.socket:
    """A non-blocking datagram socket bound to *bind*: the first address
    it resolves to that binds, as ``create_datagram_endpoint`` picks."""
    error: Optional[OSError] = None
    for family, kind, proto, _, address in socket.getaddrinfo(
            *bind, type=socket.SOCK_DGRAM):
        sock = socket.socket(family, kind, proto)
        try:
            sock.setblocking(False)
            sock.bind(address)
        except OSError as exc:
            sock.close()
            error = exc
            continue
        return sock
    raise error if error is not None else OSError(f"cannot bind {bind!r}")


class UdpEndpointSocket:
    """One bound UDP socket, its outgoing channel, and frame dispatch.

    ``incoming_name`` labels receive-side trace events with the name of
    the emulated channel delivering *into* this socket (the peer's
    outgoing direction), matching the DES channel's ``deliver`` events.
    """

    def __init__(
        self,
        clock: AsyncioClock,
        channel: UdpChannel,
        incoming_name: str,
        tracer: Tracer,
        learn_peer: bool = False,
    ) -> None:
        self.clock = clock
        self.channel = channel
        self.incoming_name = incoming_name
        self.tracer = tracer
        self.learn_peer = learn_peer
        self.peer_addr: Optional[tuple] = None
        self.handler: Optional[Callable[[Any, bool], None]] = None
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._recvfrom: Optional[Callable[[int], tuple[bytes, Any]]] = None
        # The other end of a UdpLink, whose socket is read after each send.
        self.loopback_peer: Optional["UdpEndpointSocket"] = None
        self._sending = False  # inside transport.sendto (error_received)
        self.datagrams_received = 0
        self.datagrams_undecodable = 0
        self.datagrams_unaddressed = 0
        self.bytes_received = 0
        self.socket_errors = 0
        # Fault surfaces driven by the TransportFaultInjector: a frozen
        # socket emulates a stalled/absent peer process (nothing out,
        # arrivals discarded), a blackholed one a dead network path;
        # forced_send_error_rate emulates kernel send-path failures.
        self.frozen = False
        self.blackholed = False
        self.forced_send_error_rate = 0.0
        self.send_errors = 0
        self.forced_send_errors = 0
        self.datagrams_stalled = 0
        self.datagrams_blackholed = 0
        self._fault_rng = None

    @classmethod
    async def open(
        cls,
        clock: AsyncioClock,
        *,
        outgoing_name: str,
        incoming_name: str,
        bit_rate: float,
        impairments: Optional[Impairments] = None,
        streams: Optional[StreamRegistry] = None,
        tracer: Optional[Tracer] = None,
        bind: tuple[str, int] = ("127.0.0.1", 0),
        peer: Optional[tuple[str, int]] = None,
        learn_peer: bool = False,
    ) -> "UdpEndpointSocket":
        """Bind a datagram socket and build its outgoing channel."""
        tracer = tracer or Tracer()
        channel = UdpChannel(
            clock, outgoing_name, emit=lambda data: None, bit_rate=bit_rate,
            impairments=impairments, streams=streams, tracer=tracer,
        )
        self = cls(clock, channel, incoming_name, tracer, learn_peer=learn_peer)
        channel._emit = self.sendto
        sock = _bound_socket(bind)
        self._recvfrom = sock.recvfrom
        loop = asyncio.get_running_loop()
        await loop.create_datagram_endpoint(
            lambda: _UdpPeerProtocol(self), sock=sock,
        )
        if peer is not None:
            self.peer_addr = peer
        return self

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port)."""
        if self._transport is None:
            raise RuntimeError("socket not open")
        return self._transport.get_extra_info("sockname")[:2]

    def attach(self, handler: Callable[[Any, bool], None]) -> None:
        """Set the ``(frame, corrupted)`` callback for arriving frames."""
        self.handler = handler

    def freeze(self) -> None:
        """Emulate a stalled peer process: drop traffic in both directions."""
        self.frozen = True

    def unfreeze(self) -> None:
        self.frozen = False

    def sendto(self, data: bytes) -> None:
        """Ship one already-impaired datagram to the peer.

        A kernel send-path failure (EMSGSIZE, ENOBUFS, ECONNREFUSED on a
        connected socket, ...) is a send error: UDP promises no delivery
        anyway, so the datagram is accounted as lost, a ``udp_send_error``
        record (``forced=False``, its ``errno``) is emitted, and the pump
        keeps running.  asyncio's transport catches the ``OSError`` and
        reports it through ``error_received`` during the call; one that
        lets it raise is accounted the same way.  On EAGAIN asyncio
        queues the datagram and sends it when the socket is writable:
        nothing is lost, and nothing is counted.
        """
        if self._transport is None or self.peer_addr is None:
            self.datagrams_unaddressed += 1
            return
        if self.frozen:
            self.datagrams_stalled += 1
            return
        if self.blackholed:
            self.datagrams_blackholed += 1
            return
        rate = self.forced_send_error_rate
        if rate:
            rng = self._fault_rng
            if rng is None:
                rng = self._fault_rng = self.channel.streams.get(
                    f"{self.channel.name}.senderr"
                )
            if rng.random() < rate:
                self.send_errors += 1
                self.forced_send_errors += 1
                if self.tracer.active:
                    self.tracer.emit(self.clock.now, self.channel.name,
                                     "udp_send_error", forced=True)
                return
        self._sending = True
        try:
            self._transport.sendto(data, self.peer_addr)
        except OSError as error:
            self._send_failed(error)
            return
        finally:
            self._sending = False
        peer = self.loopback_peer
        if peer is not None:
            peer._read_one()

    def _read_one(self) -> None:
        """Read at most one waiting datagram and dispatch it now.

        Once, not until ``EAGAIN``: a datagram not there yet is the loop
        reader's, and the failing call would cost as much as it saves.
        """
        try:
            data, addr = self._recvfrom(_MAX_DATAGRAM)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self.socket_errors += 1
            return
        self._on_datagram(data, addr)

    def _send_failed(self, error: Exception) -> None:
        """Account one datagram the kernel refused to send as lost."""
        self.send_errors += 1
        if self.tracer.active:
            self.tracer.emit(self.clock.now, self.channel.name,
                             "udp_send_error", forced=False,
                             errno=getattr(error, "errno", None))

    def _on_datagram(self, data: bytes, addr: Any) -> None:
        if self.frozen:
            self.datagrams_stalled += 1
            return
        if self.blackholed:
            self.datagrams_blackholed += 1
            return
        self.datagrams_received += 1
        self.bytes_received += len(data)
        if self.peer_addr is None and self.learn_peer:
            self.peer_addr = addr
        frame, corrupted = decode_datagram(data)
        if frame is None:
            self.datagrams_undecodable += 1
            if self.tracer.active:
                self.tracer.emit(self.clock.now, self.incoming_name,
                                 "udp_undecodable", size=len(data))
            return
        # Bracketing kicks: run due timers before the arrival, stamp the
        # dispatch at wall time, and re-arm for whatever it scheduled.
        # Read in the dispatch that sent it, both are no-ops and the
        # arrival is stamped at its emulated instant.
        self.clock.kick()
        if self.tracer.active:
            now = self.clock.now
            self.tracer.emit(now, self.incoming_name, "frames_delivered", times=(now,),
                             control=frame.is_control, corrupted=(0,) if corrupted else ())
        handler = self.handler
        if handler is not None:
            handler(frame, corrupted)
        self.clock.kick()

    def close(self) -> None:
        if self._transport is not None:
            self._transport.close()
            self._transport = None


class UdpLink:
    """A loopback socket pair with the :class:`FullDuplexLink` surface.

    ``forward`` carries A→B (socket A's outgoing channel), ``reverse``
    B→A; :meth:`attach` wires each endpoint's ``on_frame`` to the
    socket its traffic arrives at, exactly like the DES link.
    """

    def __init__(
        self,
        clock: AsyncioClock,
        name: str,
        socket_a: UdpEndpointSocket,
        socket_b: UdpEndpointSocket,
        streams: StreamRegistry,
        tracer: Tracer,
    ) -> None:
        self.sim = clock
        self.name = name
        self.socket_a = socket_a
        self.socket_b = socket_b
        socket_a.loopback_peer, socket_b.loopback_peer = socket_b, socket_a
        self.forward = socket_a.channel
        self.reverse = socket_b.channel
        self.streams = streams
        self.tracer = tracer

    @classmethod
    async def open(
        cls,
        clock: AsyncioClock,
        *,
        name: str = "udp",
        bit_rate: float,
        impairments: Optional[Impairments] = None,
        reverse_impairments: Optional[Impairments] = None,
        seed: int = 0,
        streams: Optional[StreamRegistry] = None,
        tracer: Optional[Tracer] = None,
        host: str = "127.0.0.1",
    ) -> "UdpLink":
        """Open both localhost sockets and point them at each other."""
        streams = streams or StreamRegistry(seed=seed)
        tracer = tracer or Tracer()
        socket_a = await UdpEndpointSocket.open(
            clock, outgoing_name=f"{name}.fwd", incoming_name=f"{name}.rev",
            bit_rate=bit_rate, impairments=impairments, streams=streams,
            tracer=tracer, bind=(host, 0),
        )
        socket_b = await UdpEndpointSocket.open(
            clock, outgoing_name=f"{name}.rev", incoming_name=f"{name}.fwd",
            bit_rate=bit_rate,
            impairments=(reverse_impairments if reverse_impairments is not None
                         else impairments),
            streams=streams, tracer=tracer, bind=(host, 0),
        )
        socket_a.peer_addr = socket_b.address
        socket_b.peer_addr = socket_a.address
        return cls(clock, name, socket_a, socket_b, streams, tracer)

    def attach(
        self,
        endpoint_a: Callable[[Any, bool], None],
        endpoint_b: Callable[[Any, bool], None],
    ) -> None:
        """Wire receive handlers: A hears the reverse direction, B the forward."""
        self.socket_a.attach(endpoint_a)
        self.socket_b.attach(endpoint_b)

    def round_trip_time(self, when: float = 0.0) -> float:
        """Emulated propagation-only RTT (no serialization, no jitter)."""
        return (self.forward.propagation_delay(when)
                + self.reverse.propagation_delay(when))

    def down(self) -> None:
        self.forward.down()
        self.reverse.down()

    def up(self) -> None:
        self.forward.up()
        self.reverse.up()

    def close(self) -> None:
        """Close both sockets (pending emulated arrivals are dropped)."""
        self.socket_a.close()
        self.socket_b.close()

    def __repr__(self) -> str:
        return f"<UdpLink {self.name}>"
