"""HDLC endpoint wiring, mirroring the LAMS-DLC endpoint shape.

An :class:`HdlcEndpoint` bundles a sender and receiver half onto one
side of a full-duplex link, with frame dispatch:

====================  ==========================================
frame type            handled by
====================  ==========================================
``HdlcIFrame``        receiver half
``RrFrame``           sender half
``SrejFrame``         sender half
``RejFrame``          sender half
====================  ==========================================

Built by the same :func:`repro.api.make_endpoint_pair` call as a LAMS-DLC
pair, so experiments can be written once and parameterised by protocol.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..core.endpoint import register_pair_factory
from ..simulator.engine import Simulator
from ..simulator.link import FullDuplexLink, SimplexChannel
from ..simulator.trace import Tracer
from .config import HdlcConfig
from .frames import HdlcIFrame, RejFrame, RrFrame, SrejFrame
from .receiver import HdlcReceiver
from .sender import HdlcSender

__all__ = ["HdlcEndpoint"]


class HdlcEndpoint:
    """One side of an HDLC link (SR or GBN per the config)."""

    def __init__(
        self,
        sim: Simulator,
        config: HdlcConfig,
        outgoing: SimplexChannel,
        name: str = "hdlc",
        tracer: Optional[Tracer] = None,
        deliver: Optional[Callable[[Any], None]] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.name = name
        self.tracer = tracer or Tracer()
        self.sender = HdlcSender(
            sim, config, data_channel=outgoing, name=f"{name}.tx", tracer=self.tracer
        )
        self.receiver = HdlcReceiver(
            sim, config, control_channel=outgoing, name=f"{name}.rx",
            tracer=self.tracer, deliver=deliver,
        )

    def start(self, send: bool = True, receive: bool = True) -> None:
        """Bring the endpoint up (the receiver half is purely reactive)."""
        if send:
            self.sender.start()

    def stop(self) -> None:
        self.sender.stop()

    def accept(self, packet: Any) -> bool:
        """Queue a packet for transmission."""
        return self.sender.accept(packet)

    def on_frame(self, frame: Any, corrupted: bool) -> None:
        """Dispatch one arriving frame to the proper half."""
        if isinstance(frame, HdlcIFrame):
            self.receiver.on_iframe(frame, corrupted)
        elif isinstance(frame, RrFrame):
            self.sender.on_rr(frame, corrupted)
        elif isinstance(frame, SrejFrame):
            self.sender.on_srej(frame, corrupted)
        elif isinstance(frame, RejFrame):
            self.sender.on_rej(frame, corrupted)
        else:
            raise TypeError(f"unknown frame type: {type(frame).__name__}")

    def __repr__(self) -> str:
        return f"<HdlcEndpoint {self.name}>"


@register_pair_factory("hdlc")
def _make_hdlc_pair(
    sim: Simulator,
    link: FullDuplexLink,
    config: HdlcConfig,
    *,
    config_b: Optional[HdlcConfig] = None,
    tracer: Optional[Tracer] = None,
    deliver_a: Optional[Callable[[Any], None]] = None,
    deliver_b: Optional[Callable[[Any], None]] = None,
) -> tuple[HdlcEndpoint, HdlcEndpoint]:
    """The registered ``"hdlc"`` pair factory (see ``repro.api``)."""
    endpoint_a = HdlcEndpoint(
        sim, config, outgoing=link.forward, name=f"{link.name}.A",
        tracer=tracer, deliver=deliver_a,
    )
    endpoint_b = HdlcEndpoint(
        sim, config_b or config, outgoing=link.reverse, name=f"{link.name}.B",
        tracer=tracer, deliver=deliver_b,
    )
    link.attach(endpoint_a.on_frame, endpoint_b.on_frame)
    return endpoint_a, endpoint_b

