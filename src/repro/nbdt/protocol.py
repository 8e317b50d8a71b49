"""NBDT endpoint wiring, matching the other protocols' endpoint shape."""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..core.endpoint import register_pair_factory
from ..simulator.engine import Simulator
from ..simulator.link import FullDuplexLink, SimplexChannel
from ..simulator.trace import Tracer
from .config import NbdtConfig
from .frames import NbdtIFrame, NbdtReport, NbdtReportRequest
from .receiver import NbdtReceiver
from .sender import NbdtSender

__all__ = ["NbdtEndpoint"]


class NbdtEndpoint:
    """One side of an NBDT link (multiphase or continuous)."""

    def __init__(
        self,
        sim: Simulator,
        config: NbdtConfig,
        outgoing: SimplexChannel,
        name: str = "nbdt",
        tracer: Optional[Tracer] = None,
        deliver: Optional[Callable[[Any], None]] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.name = name
        self.tracer = tracer or Tracer()
        self.sender = NbdtSender(
            sim, config, data_channel=outgoing, name=f"{name}.tx", tracer=self.tracer
        )
        self.receiver = NbdtReceiver(
            sim, config, control_channel=outgoing, name=f"{name}.rx",
            tracer=self.tracer, deliver=deliver,
        )

    def start(self, send: bool = True, receive: bool = True) -> None:
        if send:
            self.sender.start()

    def stop(self) -> None:
        self.sender.stop()

    def accept(self, packet: Any) -> bool:
        return self.sender.accept(packet)

    def on_frame(self, frame: Any, corrupted: bool) -> None:
        if isinstance(frame, NbdtIFrame):
            self.receiver.on_iframe(frame, corrupted)
        elif isinstance(frame, NbdtReport):
            self.sender.on_report(frame, corrupted)
        elif isinstance(frame, NbdtReportRequest):
            self.receiver.on_report_request(frame, corrupted)
        else:
            raise TypeError(f"unknown frame type: {type(frame).__name__}")

    def __repr__(self) -> str:
        return f"<NbdtEndpoint {self.name} mode={self.config.mode}>"


@register_pair_factory("nbdt")
def _make_nbdt_pair(
    sim: Simulator,
    link: FullDuplexLink,
    config: NbdtConfig,
    *,
    config_b: Optional[NbdtConfig] = None,
    tracer: Optional[Tracer] = None,
    deliver_a: Optional[Callable[[Any], None]] = None,
    deliver_b: Optional[Callable[[Any], None]] = None,
) -> tuple[NbdtEndpoint, NbdtEndpoint]:
    """The registered ``"nbdt"`` pair factory (see ``repro.api``)."""
    endpoint_a = NbdtEndpoint(
        sim, config, outgoing=link.forward, name=f"{link.name}.A",
        tracer=tracer, deliver=deliver_a,
    )
    endpoint_b = NbdtEndpoint(
        sim, config_b or config, outgoing=link.reverse, name=f"{link.name}.B",
        tracer=tracer, deliver=deliver_b,
    )
    link.attach(endpoint_a.on_frame, endpoint_b.on_frame)
    return endpoint_a, endpoint_b

