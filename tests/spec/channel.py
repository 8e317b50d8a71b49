"""The specification's simplex channel (the paper's link model, Section 2).

One frame at a time occupies the transmitter for ``size_bits /
bit_rate``; frames sent meanwhile wait in FIFO order.  When a frame has
left, its verdict is drawn from the error model of its class (I-frame or
control, each on its own named random stream) and it lands a propagation
delay later, never before the frame ahead of it.  While the channel is
down, a frame that leaves the transmitter or lands is lost.  Each frame's
fate is counted and written to the log: landed (``deliver``), corrupted,
or lost while serializing or while propagating (``frame_lost_outage``).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional, Union

from repro.simulator.errormodel import ErrorModel
from repro.simulator.rng import StreamRegistry

from .engine import Engine


class Channel:
    """A FIFO simplex channel: serialization, propagation, errors, outages."""

    def __init__(self, engine: Engine, name: str, bit_rate: float,
                 delay: Union[float, Callable[[float], float]],
                 iframe_errors: ErrorModel, cframe_errors: ErrorModel,
                 streams: StreamRegistry) -> None:
        self.engine, self.name, self.bit_rate, self.delay = engine, name, bit_rate, delay
        self.errors, self.streams = {False: iframe_errors, True: cframe_errors}, streams
        self.receiver: Optional[Callable[[Any, bool], None]] = None
        self.idle_callbacks: list[Callable[[], None]] = []
        self.queue: deque = deque()
        self.transmitting, self.is_up, self.last_arrival = False, True, -1.0
        self.sent = self.corrupted = self.busy_seconds = 0
        self.lost = {"serialize": 0, "propagate": 0}
        self.log = engine.log if isinstance(engine, Engine) else []  # a stub's own on a clock

    is_idle = property(lambda self: not self.transmitting and not self.queue)

    def propagation_delay(self, when: float) -> float:
        return self.delay(when) if callable(self.delay) else self.delay

    def on_idle(self, callback: Callable[[], None]) -> None:
        self.idle_callbacks.append(callback)

    def send(self, frame: Any) -> None:
        self.queue.append(frame)
        if not self.transmitting:
            self._start_next()

    def down(self) -> None:
        self.is_up = False

    def up(self) -> None:
        self.is_up = True

    def _start_next(self) -> None:
        if not self.queue:
            self.transmitting = False
            for callback in list(self.idle_callbacks):
                callback()
            return
        self.transmitting = True
        frame = self.queue.popleft()
        start = self.engine.now
        self.engine.schedule_at(start + frame.size_bits / self.bit_rate,
                                self._left, frame, start)

    def _left(self, frame: Any, start: float) -> None:
        """The frame that began at *start* is off the transmitter."""
        self.sent += 1
        self.busy_seconds += frame.size_bits / self.bit_rate
        if self.is_up:
            stream = self.streams.get(f"{self.name}.{'cframe' if frame.is_control else 'iframe'}")
            corrupted = self.errors[frame.is_control].frame_error(start, frame.size_bits, stream)
            self.corrupted += corrupted
            arrival = start + frame.size_bits / self.bit_rate + self.propagation_delay(start)
            self.last_arrival = arrival = max(arrival, self.last_arrival)
            self.engine.schedule_at(arrival, self._land, frame, corrupted)
        else:
            self._lose(frame, "serialize")
        self._start_next()

    def _lose(self, frame: Any, phase: str) -> None:
        self.lost[phase] += 1
        self.log.append((self.engine.now, self.name, "frame_lost_outage",
                         {"phase": phase, "control": frame.is_control}))

    def _land(self, frame: Any, corrupted: bool) -> None:
        if not self.is_up:
            return self._lose(frame, "propagate")
        self.log.append((self.engine.now, self.name, "deliver", (frame.is_control, corrupted)))
        self.receiver(frame, corrupted)

