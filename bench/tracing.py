"""Span recording and the timing shims of the traced run.

The traced run measures each layer *from outside*: every shim below
wraps a callable or object that is reachable through a public attribute
of an already-built link or endpoint (``channel.iframe_errors``,
``channel.send`` / ``send_burst``, ``channel.receiver``,
``channel.idle_callbacks``, ``receiver.deliver``, ``endpoint.accept``,
``tracer.emit``, ``tracer.listeners``).  Whatever the engine dispatches straight into a
layer's private callbacks (channel serialisation events, the receiver's
per-frame drain, protocol timers) is covered by no span and is reported
as the residual, never folded into a layer.

A span is ``(name, start, end, parent)``.  A layer's *self time* is its
spans' duration minus the part their child spans cover.
"""

from __future__ import annotations

import json
from time import perf_counter_ns
from typing import Any, Callable

from repro.core.frames import CheckpointFrame
from repro.simulator.errormodel import scalar_draw_window

# Raw spans kept for the trace file; the aggregates cover every span.
KEEP_SPANS = 50_000


class SpanRecorder:
    """Aggregates self time per layer and keeps the first raw spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.self_ns: list[int] = []
        self.span_count: list[int] = []
        self.counts: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.total = 0
        self._stack: list[list[int]] = []
        self._tracers: set[int] = set()

    def _layer_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.self_ns.append(0)
            self.span_count.append(0)
        return self.names.index(name)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """*fn* with every call recorded as one span of layer *name*."""
        layer = self._layer_id(name)
        stack = self._stack
        self_ns = self.self_ns
        span_count = self.span_count
        spans = self.spans
        clock = perf_counter_ns

        def timed(*args: Any, **kwargs: Any) -> Any:
            index = self.total
            self.total = index + 1
            parent = stack[-1][0] if stack else -1
            frame = [index, 0, clock()]  # index, child ns, start
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                self_ns[layer] += duration - frame[1]
                span_count[layer] += 1
                if stack:
                    stack[-1][1] += duration
                if index < KEEP_SPANS:
                    spans.append((index, layer, frame[2], end, parent))

        return timed

    def count(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def layers(self) -> dict[str, dict[str, int]]:
        return {
            name: {"self_ns": self.self_ns[i], "spans": self.span_count[i]}
            for i, name in enumerate(self.names)
        }

    def write(self, path: str, header: dict[str, Any]) -> None:
        """Write the trace file: aggregates plus the first raw spans."""
        self.spans.sort()
        payload = dict(header)
        payload.update({
            "clock": "perf_counter_ns",
            "layers": self.layers(),
            "counts": self.counts,
            "spans_total": self.total,
            "spans_recorded": len(self.spans),
            "span_fields": ["index", "layer", "start_ns", "end_ns", "parent"],
            "layer_names": self.names,
            "spans": self.spans,
        })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.write("\n")


class _TimedErrorModel:
    """A wrapping error model: same verdicts, same draws, timed."""

    def __init__(self, rec: SpanRecorder, inner: Any) -> None:
        self.inner = inner
        count = rec.count
        frame_error = inner.frame_error
        bulk = getattr(inner, "draw_window", None)

        def scalar(start: float, bits: int, rng: Any) -> bool:
            count("errormodel.scalar_frames")
            return frame_error(start, bits, rng)

        def window(starts: list, sizes: list, rng: Any) -> list:
            count("errormodel.window_frames", len(sizes))
            if bulk is not None:
                return bulk(starts, sizes, rng)
            return scalar_draw_window(inner, starts, sizes, rng)

        self.frame_error = rec.wrap("simulator.errormodel", scalar)
        self.draw_window = rec.wrap("simulator.errormodel", window)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)


def instrument_channel(rec: SpanRecorder, channel: Any, layer: str) -> None:
    """Time a channel's ``send`` / ``send_burst`` by shadowing them on
    the instance.

    A proxy object in front of the channel would also work, but the
    sender half reads the channel's fast-path fields on every accept and
    every idle callback, and the proxy's forwarding of those reads would
    be charged to the sender's self time.
    """
    count = rec.count
    inner_send = channel.send

    def send(frame: Any) -> None:
        count("link.scalar_frames")
        inner_send(frame)

    channel.send = rec.wrap(layer, send)
    inner_burst = getattr(channel, "send_burst", None)
    if inner_burst is not None:
        def send_burst(frames: Any) -> None:
            count("link.burst_frames", len(frames))
            inner_burst(frames)

        channel.send_burst = rec.wrap(layer, send_burst)


def _frame_handler(rec: SpanRecorder, handler: Callable[[Any, bool], None]):
    """The ``(frame, corrupted)`` handler, attributed by frame class:
    checkpoints are sender-half work, everything else receiver-half."""
    as_sender = rec.wrap("core.sender", handler)
    as_receiver = rec.wrap("core.receiver", handler)
    count = rec.count

    def on_frame(frame: Any, corrupted: bool) -> None:
        if isinstance(frame, CheckpointFrame):
            count("sender.checkpoints")
            as_sender(frame, corrupted)
        else:
            count("receiver.frames")
            as_receiver(frame, corrupted)

    return on_frame


def instrument_tracer(rec: SpanRecorder, tracer: Any) -> None:
    """Time ``emit`` and every *already attached* listener.

    No listener is added: a tracer that was inactive stays inactive, so
    an unmonitored workload records no listener span at all.
    """
    if id(tracer) in rec._tracers:
        return
    rec._tracers.add(id(tracer))
    tracer.emit = rec.wrap("simulator.trace", tracer.emit)
    for i, listener in enumerate(tracer.listeners):
        tracer.listeners[i] = rec.wrap("invariants.monitors", listener)


def instrument_endpoint(rec: SpanRecorder, endpoint: Any) -> None:
    """Shim one LAMS-DLC endpoint: accept and the deliver callback."""
    accept, count = endpoint.accept, rec.count

    def counted_accept(packet: Any) -> bool:
        count("sender.accepts")
        return accept(packet)

    endpoint.accept = rec.wrap("core.sender", counted_accept)
    endpoint.receiver.deliver = rec.wrap("netlayer.deliver", endpoint.receiver.deliver)
    instrument_tracer(rec, endpoint.tracer)


def instrument_des_link(rec: SpanRecorder, link: Any, endpoint_a: Any,
                        endpoint_b: Any) -> None:
    """Install every DES shim on one built, started link."""
    for channel in (link.forward, link.reverse):
        channel.iframe_errors = _TimedErrorModel(rec, channel.iframe_errors)
        channel.cframe_errors = _TimedErrorModel(rec, channel.cframe_errors)
        channel.attach_receiver(_frame_handler(rec, channel.receiver))
        # The sender half's drain re-enters through the idle callback.
        channel.idle_callbacks[:] = [
            rec.wrap("core.sender", callback) for callback in channel.idle_callbacks
        ]
        instrument_channel(rec, channel, "simulator.link")
        instrument_tracer(rec, channel.tracer)
    instrument_endpoint(rec, endpoint_a)
    instrument_endpoint(rec, endpoint_b)


def instrument_udp_link(rec: SpanRecorder, link: Any, endpoint_a: Any,
                        endpoint_b: Any) -> None:
    """Install every shim on one open loopback session.

    Wire encode/decode and the socket calls happen inside private
    channel/socket callbacks the event loop dispatches, so they are
    covered by no span; the runner attributes them from the
    ``core.wire`` drive numbers and labels them *derived*.
    """
    for sock in (link.socket_a, link.socket_b):
        channel = sock.channel
        channel.iframe_errors = _TimedErrorModel(rec, channel.iframe_errors)
        channel.cframe_errors = _TimedErrorModel(rec, channel.cframe_errors)
        sock.attach(_frame_handler(rec, sock.handler))
        sock.channel.idle_callbacks[:] = [
            rec.wrap("core.sender", callback)
            for callback in sock.channel.idle_callbacks
        ]
        instrument_channel(rec, channel, "transport.udp")
        instrument_tracer(rec, sock.tracer)
    instrument_endpoint(rec, endpoint_a)
    instrument_endpoint(rec, endpoint_b)
