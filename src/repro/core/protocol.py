"""LAMS-DLC endpoint: sender + receiver halves wired to one link side.

A full-duplex LAMS-DLC association is two endpoints, each containing a
*sender half* (I-frames out, checkpoint commands in) and a *receiver
half* (I-frames in, checkpoint commands out).  All of an endpoint's
outgoing traffic — I-frames, Request-NAKs, and its receiver half's
checkpoint commands — shares its outgoing simplex channel, which is
what makes the paper's "no piggybacking" rule (assumption 4) a real
design decision rather than a formality: control frames compete with
data for the channel and are separately FEC-protected.

Incoming frame dispatch:

====================  ==========================================
frame type            handled by
====================  ==========================================
``IFrame``            receiver half (deliver / log error)
``CheckpointFrame``   sender half (recovery / release / flow)
``RequestNakFrame``   receiver half (answer with Enforced-NAK)
====================  ==========================================
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from ..simulator.engine import Simulator
from ..simulator.link import FullDuplexLink, SimplexChannel
from ..simulator.trace import Tracer
from .config import LamsDlcConfig
from .endpoint import register_pair_factory
from .frames import CheckpointFrame, IFrame, RequestNakFrame
from .receiver import LamsReceiver
from .sender import LamsSender

__all__ = ["LamsDlcEndpoint"]


class LamsDlcEndpoint:
    """One side of a LAMS-DLC link."""

    def __init__(
        self,
        sim: Simulator,
        config: LamsDlcConfig,
        outgoing: SimplexChannel,
        expected_rtt: float,
        name: str = "lams",
        tracer: Optional[Tracer] = None,
        deliver: Optional[Callable[[Any], None]] = None,
        on_failure: Optional[Callable[[], None]] = None,
        delivery_interval: Optional[float] = None,
        link_start_time: float = 0.0,
    ) -> None:
        self.sim = sim
        self.config = config
        self.name = name
        self.tracer = tracer or Tracer()
        self.sender = LamsSender(
            sim,
            config,
            data_channel=outgoing,
            expected_rtt=expected_rtt,
            name=f"{name}.tx",
            tracer=self.tracer,
            on_failure=on_failure,
            link_start_time=link_start_time,
        )
        self.receiver = LamsReceiver(
            sim,
            config,
            control_channel=outgoing,
            expected_rtt=expected_rtt,
            name=f"{name}.rx",
            tracer=self.tracer,
            deliver=deliver,
            delivery_interval=delivery_interval,
        )
        # Section 3.1 piggybacking: outgoing I-frames carry the local
        # receive queue's Stop-Go state.
        self.sender.stop_go_provider = self.receiver.stop_indicated
        self.sender._stop_source = self.receiver
        # Hoisted per-frame dispatch constants.
        self._piggyback = config.piggyback_flow_control
        self._header_protected = config.header_protected
        # Fast path: bind accept / accept_many straight to the sender
        # half unless a subclass overrides them.
        if type(self).accept is LamsDlcEndpoint.accept:
            self.accept = self.sender.accept
        if type(self).accept_many is LamsDlcEndpoint.accept_many:
            self.accept_many = self.sender.accept_many

    # -- lifecycle --------------------------------------------------------

    def start(self, send: bool = True, receive: bool = True) -> None:
        """Bring the endpoint up.

        One-way experiments disable the unused halves: a pure data
        source runs only its sender half (``receive=False`` silences its
        checkpoint chatter), a pure sink only its receiver half.
        """
        if send:
            self.sender.start()
        if receive:
            self.receiver.start()

    def stop(self) -> None:
        self.sender.stop()
        self.receiver.stop()

    # -- node-facing interface ------------------------------------------------

    def accept(self, packet: Any) -> bool:
        """Queue a packet for transmission (node/network-layer entry point).

        Bound to the sender half's ``accept`` in ``__init__`` so the
        per-packet hot path skips this wrapper; kept as the documented
        interface (and for subclasses that override it).
        """
        return self.sender.accept(packet)

    def accept_many(self, packets: Iterable[Any]) -> int:
        """Queue *packets* up to the first refusal; returns how many
        (the sender half's :meth:`~repro.core.sender.LamsSender.accept_many`,
        bound the same way as :meth:`accept`)."""
        return self.sender.accept_many(packets)

    # -- link-facing interface ---------------------------------------------------

    def on_frame(self, frame: Any, corrupted: bool) -> None:
        """Dispatch one arriving frame to the proper half."""
        # The three frame classes are final (nothing subclasses them), so
        # class identity decides: I-frames dominate a busy link's arrival
        # stream, checkpoints are all of an idle one's.
        kind = type(frame)
        if kind is IFrame:
            self.receiver.on_iframe(frame, corrupted)
            # The piggybacked Stop-Go bit rides in the (FEC-protected)
            # header, so it is readable whenever the header is.
            if self._piggyback and (not corrupted or self._header_protected):
                self.sender.note_piggyback_stop_go(frame.stop_go)
        elif kind is CheckpointFrame:
            self.sender.on_checkpoint(frame, corrupted)
        elif kind is RequestNakFrame:
            self.receiver.on_request_nak(frame, corrupted)
        else:
            raise TypeError(f"unknown frame type: {kind.__name__}")

    def __repr__(self) -> str:
        return f"<LamsDlcEndpoint {self.name}>"


@register_pair_factory("lams")
def _make_lams_pair(
    sim: Simulator,
    link: FullDuplexLink,
    config: LamsDlcConfig,
    *,
    config_b: Optional[LamsDlcConfig] = None,
    tracer: Optional[Tracer] = None,
    deliver_a: Optional[Callable[[Any], None]] = None,
    deliver_b: Optional[Callable[[Any], None]] = None,
    on_failure_a: Optional[Callable[[], None]] = None,
    on_failure_b: Optional[Callable[[], None]] = None,
    delivery_interval_b: Optional[float] = None,
) -> tuple[LamsDlcEndpoint, LamsDlcEndpoint]:
    """The registered ``"lams"`` pair factory (see ``repro.api``).

    Endpoint A transmits on the link's forward channel, B on the
    reverse.  Both endpoints share the link's expected RTT, evaluated at
    the link-establishment instant (the paper's deterministic-distance
    assumption lets both ends know it).
    """
    rtt = link.round_trip_time(sim.now)
    endpoint_a = LamsDlcEndpoint(
        sim, config, outgoing=link.forward, expected_rtt=rtt,
        name=f"{link.name}.A", tracer=tracer, deliver=deliver_a,
        on_failure=on_failure_a, link_start_time=sim.now,
    )
    endpoint_b = LamsDlcEndpoint(
        sim, config_b or config, outgoing=link.reverse, expected_rtt=rtt,
        name=f"{link.name}.B", tracer=tracer, deliver=deliver_b,
        on_failure=on_failure_b, delivery_interval=delivery_interval_b,
        link_start_time=sim.now,
    )
    link.attach(endpoint_a.on_frame, endpoint_b.on_frame)
    endpoint_a.receiver.hear(link.reverse)
    endpoint_b.receiver.hear(link.forward)
    return endpoint_a, endpoint_b

