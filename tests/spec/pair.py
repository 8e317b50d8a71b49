"""Two specification endpoints on a pair of simplex channels.

An endpoint's sender half and its receiver half's Check-Points share its
outgoing channel; what arrives is dispatched by frame type, and an
I-frame's piggybacked Stop-Go bit goes to the co-located sender
(Section 3.1).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.config import LamsDlcConfig
from repro.core.frames import CheckpointFrame, IFrame

from .channel import Channel
from .engine import Engine
from .receiver import Receiver
from .sender import Sender


class Endpoint:
    """One side of a link: a sender and a receiver half."""

    def __init__(self, engine: Engine, config: LamsDlcConfig, outgoing: Channel,
                 expected_rtt: float, deliver: Optional[Callable[[Any], None]] = None,
                 delivery_interval: Optional[float] = None, name: str = "lams") -> None:
        self.config = config
        self.sender = Sender(engine, config, outgoing, expected_rtt, name=f"{name}.tx")
        self.receiver = Receiver(engine, config, outgoing, expected_rtt, deliver,
                                 delivery_interval, f"{name}.rx")
        self.sender.stop_go_provider = self.receiver.stop_indicated
        self.accept = self.sender.accept

    def start(self, send: bool = True, receive: bool = True) -> None:
        if send:
            self.sender.start()
        if receive:
            self.receiver.start()

    def on_frame(self, frame: Any, corrupted: bool) -> None:
        if type(frame) is IFrame:
            self.receiver.on_iframe(frame, corrupted)
            if self.config.piggyback_flow_control and (
                    not corrupted or self.config.header_protected):
                self.sender.note_piggyback_stop_go(frame.stop_go)
        elif type(frame) is CheckpointFrame:
            self.sender.on_checkpoint(frame, corrupted)
        else:
            self.receiver.on_request_nak(frame, corrupted)


def make_pair(engine: Engine, config: LamsDlcConfig, forward: Channel, reverse: Channel,
              deliver_a: Optional[Callable[[Any], None]] = None,
              deliver_b: Optional[Callable[[Any], None]] = None,
              delivery_interval_b: Optional[float] = None,
              name: str = "lams") -> tuple[Endpoint, Endpoint]:
    """A sends on *forward* and hears *reverse*; B the other way round.
    Both know the round trip at the instant the link is made.  Their
    records' sources are named as a shipped link *name*'s."""
    rtt = forward.propagation_delay(engine.now) + reverse.propagation_delay(engine.now)
    a = Endpoint(engine, config, forward, rtt, deliver_a, name=f"{name}.A")
    b = Endpoint(engine, config, reverse, rtt, deliver_b, delivery_interval_b, f"{name}.B")
    forward.receiver, reverse.receiver = b.on_frame, a.on_frame
    return a, b
