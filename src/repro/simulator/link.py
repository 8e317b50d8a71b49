"""Point-to-point full-duplex link with bandwidth, delay, and errors.

A :class:`FullDuplexLink` is two independent :class:`SimplexChannel`
instances (forward and reverse), matching the paper's link-model
assumption 2 ("all links operate in full-duplex mode").

Each simplex channel models:

- **Serialization**: one frame at a time occupies the transmitter for
  ``size_bits / bit_rate`` seconds; frames pushed while busy queue FIFO.
  Back-to-back frames form a *run*, decided (verdicts drawn, deliveries
  scheduled) when its last frame leaves — see docs/TUNING.md §10.
- **Propagation**: a fixed delay or a time-varying ``delay(t)`` callable
  (driven by the orbit model); arrivals are clamped monotone so frames
  never overtake each other.
- **Errors**: separate :class:`~repro.simulator.errormodel.ErrorModel`
  instances for I-frames and control frames, reflecting the paper's
  assumption 4 that control frames use a more powerful FEC.  Corrupted
  frames are still *delivered* with ``corrupted=True`` — the paper's
  assumption 9 makes every error CRC-detectable, and whether a corrupted
  frame's header remains readable is the receiving protocol's business.
- **Outages**: the channel can be cut (``down()``) and restored
  (``up()``); frames sent while down are silently lost (link failure /
  retargeting episodes, Section 3.2).

While its tracer is active a channel traces a run, not a frame: one
``frames_delivered`` record (``times``, ``control``, ``corrupted``
positions) per decided run, held until its last frame lands (a run of
one: as it lands) and stamped with its first arrival; a frame lost in
propagation keeps its ``frame_lost_outage`` record and is left out.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from heapq import heappush
from typing import Any, Callable, Optional, Protocol, Sequence, Union

from .engine import Agenda, Simulator
from .errormodel import ErrorModel, PerfectChannel, scalar_draw_window
from .rng import StreamRegistry
from .trace import Tracer

__all__ = ["Transmittable", "SimplexChannel", "FullDuplexLink", "LIGHT_SPEED_KM_S"]

LIGHT_SPEED_KM_S = 299_792.458
"""Speed of light in km/s, for distance → propagation-delay conversion."""


class Transmittable(Protocol):
    """Anything a channel can carry: needs a size and a class."""

    @property
    def size_bits(self) -> int: ...

    @property
    def is_control(self) -> bool: ...


DelaySpec = Union[float, Callable[[float], float]]
FrameHandler = Callable[[Any, bool], None]


class SimplexChannel:
    """One direction of a link: serializer + propagation pipe + errors."""

    # The receiving end, made on the first run of two or more: lane 0
    # holds the arrivals of runs, lane 1 the drains of the receiver this
    # channel feeds (docs/TUNING.md §10).  Until then the class's None
    # answers, so an idle channel, whose runs are all of one, holds
    # nothing for it.
    _agenda: Optional[Agenda] = None
    # While the tracer is active: the runs decided but not yet landed,
    # oldest first, each ``(times, verdicts, frames, last sequence,
    # positions lost)``; its frames_delivered record waits for its last
    # frame.  None until the first.
    _held: Optional[deque] = None
    # The receiver whose ``hear`` wired its run path: an I-frame run is
    # handed to its ``on_run`` whole (docs/TUNING.md §10).  None: every
    # arrival is an item of its own.
    _run_sink: Any = None

    def __init__(
        self,
        sim: Simulator,
        name: str,
        bit_rate: float,
        propagation_delay: DelaySpec,
        iframe_errors: Optional[ErrorModel] = None,
        cframe_errors: Optional[ErrorModel] = None,
        streams: Optional[StreamRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if not 0 < bit_rate < math.inf:  # NaN fails both comparisons
            raise ValueError(f"bit_rate must be positive and finite, got {bit_rate!r}")
        self.sim = sim
        self.name = name
        self.bit_rate = bit_rate
        self._delay_spec = propagation_delay
        # Constant-delay fast path: most scenarios use a fixed float, so
        # hot paths can skip the callable dispatch in propagation_delay.
        if callable(propagation_delay):
            self._fixed_delay: Optional[float] = None
        else:
            if not 0 <= propagation_delay < math.inf:
                raise ValueError(
                    "propagation_delay must be non-negative and finite, "
                    f"got {propagation_delay!r}"
                )
            self._fixed_delay = float(propagation_delay)
        self.iframe_errors: ErrorModel = iframe_errors or PerfectChannel()
        self.cframe_errors: ErrorModel = cframe_errors or PerfectChannel()
        self.streams = streams or StreamRegistry()
        self.tracer = tracer or Tracer()
        self.receiver: Optional[FrameHandler] = None
        self.idle_callbacks: list[Callable[[], None]] = []
        self._queue: deque[Any] = deque()
        self._transmitting = False
        self._last_arrival = -1.0
        self._is_up = True
        self._run: Any = None  # on the transmitter: a frame, or a list of frames
        self._run_start = 0.0  # of a list run (settle() needs it)
        # Cached RNG streams for the per-frame error draws; the registry
        # returns the same generator per name, so caching is free and
        # skips an f-string build plus a dict probe per frame.
        self._iframe_rng = None
        self._cframe_rng = None
        self.busy_seconds = 0.0
        self.frames_sent = 0
        self.frames_corrupted = 0
        self.frames_lost_outage = 0
        # Bound once: the two objects every heap entry of this channel
        # carries.  A bound method made per push is one more allocation
        # the collector tracks per in-flight frame.
        self._complete = self._complete
        self._deliver = self._deliver

    # -- wiring ----------------------------------------------------------

    def attach_receiver(self, handler: FrameHandler) -> None:
        """Set the callback receiving ``(frame, corrupted)`` deliveries."""
        self.receiver = handler

    def on_idle(self, callback: Callable[[], None]) -> None:
        """Register a callback fired whenever the transmit queue drains."""
        self.idle_callbacks.append(callback)

    # -- state -----------------------------------------------------------

    def propagation_delay(self, when: float) -> float:
        """Propagation delay for a frame departing at time *when*."""
        spec = self._delay_spec
        delay = spec(when) if callable(spec) else spec
        if not 0 <= delay < math.inf:
            raise ValueError(
                f"propagation_delay must be non-negative and finite, got {delay!r} at t={when}"
            )
        return delay

    @property
    def is_idle(self) -> bool:
        """True when nothing is queued or being serialized."""
        return not self._transmitting and not self._queue

    @property
    def queue_length(self) -> int:
        """Frames waiting behind the one being serialized."""
        return len(self._queue)

    @property
    def is_up(self) -> bool:
        return self._is_up

    def down(self) -> None:
        """Cut the channel: queued/in-flight sends from now on are lost."""
        self.settle()
        sink = self._run_sink
        if sink is not None:
            sink.hand_back()
        self._is_up = False

    def up(self) -> None:
        """Restore the channel."""
        self._is_up = True

    # -- transmission ----------------------------------------------------
    #
    # Every transmission is a *run*: one or more frames that occupy the
    # transmitter back to back and are decided together when the last
    # one leaves (one completion event per run, carrying the run and its
    # start).  ``_run`` is the bare frame for a run of one — an idle
    # channel must keep nothing more alive per send than its event, or
    # a thousand idle links pay for it — and the list of frames otherwise.
    # Frame i starts where frame i-1 ended; those instants are never
    # stored, always re-derived by the same accumulation (``cursor +=
    # size_bits / bit_rate``) — and a sender pacing against a run's end
    # accumulates the same way: ``now + total`` differs in the last bit.

    def send(self, frame: Transmittable) -> None:
        """Queue *frame* for transmission (FIFO behind any busy frame)."""
        if self._transmitting:
            self._queue.append(frame)
            return
        # Idle channel: a run of one, inlined (_start_next without the
        # queue round-trip — this is the per-frame common case).  Idle
        # channels sending at one instant share its heap entry.
        self._transmitting = True
        sim = self.sim
        self._run = frame
        start = sim.now
        sim.push(start + frame.size_bits / self.bit_rate, self._complete,
                 (frame, start))

    def transmission_time(self, frame: Transmittable) -> float:
        """Seconds the transmitter is occupied serializing *frame*."""
        return frame.size_bits / self.bit_rate

    def send_burst(self, frames: Sequence[Transmittable]) -> None:
        """Queue a FIFO window of frames; an idle channel starts it as one run.

        Identical in every outcome to ``for f in frames: self.send(f)``
        — deliveries, losses, counters, RNG draws — at ``k`` deliveries
        plus one completion event instead of ``2k`` events.
        """
        self._queue.extend(frames)
        if self._queue and not self._transmitting:
            self._start_next()

    def settle(self) -> None:
        """Pin down the active run before something changes its frames' fate.

        Must be called before the channel goes down or an error model is
        swapped.  Frames already off the transmitter are decided now,
        under the state they were sent in; the frame on the wire finishes
        as a run of one; the rest return to the head of the queue.
        """
        frames = self._run
        if frames.__class__ is not list or len(frames) < 2:
            return
        now = self.sim.now
        bit_rate = self.bit_rate
        start = self._run_start
        for on_wire, frame in enumerate(frames):
            end = start + frame.size_bits / bit_rate
            if end >= now:
                break
            start = end
        if on_wire:
            self._decide(frames[:on_wire], self._run_start)
        self._queue.extendleft(reversed(frames[on_wire + 1:]))
        self._run = frame
        sim = self.sim
        sim._sequence = sequence = sim._sequence + 1
        heappush(sim._heap, (end, sequence, self._complete, (frame, start)))

    def _start_next(self) -> None:
        """Start the next run from the queue head, or go idle."""
        queue = self._queue
        if not queue:
            self._transmitting = False
            self._run = None
            callbacks = self.idle_callbacks
            if len(callbacks) == 1:
                # Single registered callback (the usual wiring): skip the
                # defensive snapshot copy — this runs once per run.
                callbacks[0]()
            else:
                for callback in list(callbacks):
                    callback()
            return
        self._transmitting = True
        sim = self.sim
        bit_rate = self.bit_rate
        first = queue.popleft()
        self._run = frames = [first]
        self._run_start = start = sim.now
        end = start + first.size_bits / bit_rate
        if queue and self._is_up:
            # The run grows while its frames can be decided together:
            # same class (one RNG stream), and serialized before the
            # first frame lands (no arrival precedes the decision).  A
            # down channel gets one frame at a time: up() does not
            # settle, so each frame must meet the state at its own end.
            control = first.is_control
            delay = self._fixed_delay
            if delay is None:
                delay = self.propagation_delay(start)
            first_arrival = end + delay
            while queue:
                frame = queue[0]
                if frame.is_control is not control:
                    break
                finish = end + frame.size_bits / bit_rate
                if finish > first_arrival:
                    break
                frames.append(queue.popleft())
                end = finish
        sim._sequence = sequence = sim._sequence + 1
        heappush(sim._heap, (end, sequence, self._complete, (frames, start)))

    def _complete(self, run: Any, start: float) -> None:
        """The run that began at *start* has left the transmitter: decide it."""
        if run is not self._run:
            return  # settled: a shorter run replaced this one
        frames = run if run.__class__ is list else (run,)
        if self._is_up:
            self._decide(frames, start)
        else:
            frame = frames[0]  # runs started or settled while down hold one frame
            self.frames_sent += 1
            self.busy_seconds += frame.size_bits / self.bit_rate
            self._lose_to_outage(frame, phase="serialize")
        self._start_next()

    def _decide(self, frames: Sequence[Transmittable], start: float) -> None:
        """Draw verdicts for frames that left an up transmitter back to
        back from *start*, and schedule their deliveries — the one place
        corruption is decided.

        The error model is looked up here, never cached: fault injection
        and instrumentation reassign it on a live channel.
        """
        first = frames[0]
        if first.is_control:
            rng = self._cframe_rng
            if rng is None:
                rng = self._cframe_rng = self.streams.get(f"{self.name}.cframe")
            model = self.cframe_errors
        else:
            rng = self._iframe_rng
            if rng is None:
                rng = self._iframe_rng = self.streams.get(f"{self.name}.iframe")
            model = self.iframe_errors
        sim = self.sim
        bit_rate = self.bit_rate
        fixed_delay = self._fixed_delay
        if len(frames) == 1:
            # A run of one, straight-line.  The loop below computes the
            # same thing; going through it for a single frame costs
            # constellation_1000 (2000 idle channels, every checkpoint a
            # run of one) 5-7% (measurement in CHANGES.md, PR 15).
            bits = first.size_bits
            corrupted = model.frame_error(start, bits, rng)
            self.frames_sent += 1
            tx_time = bits / bit_rate
            self.busy_seconds += tx_time
            if corrupted:
                self.frames_corrupted += 1
            delay = fixed_delay
            if delay is None:
                delay = self.propagation_delay(start)
            arrival = start + tx_time + delay
            if arrival < self._last_arrival:
                arrival = self._last_arrival
            self._last_arrival = arrival
            traced = self.tracer.active
            # A single I-frame (a retransmission, say) on a channel whose
            # runs made an agenda is a run of one for a wired receiver, or
            # joins that agenda; otherwise, and for a single control
            # frame, it keeps the per-instant batching push, which it
            # shares with the checkpoints of other links sent at the same
            # instant.
            deliver = self._deliver_traced if traced else self._deliver
            agenda = self._agenda
            if agenda is None or first.is_control:
                sim.push(arrival, deliver, (first, corrupted))
                return
            sink = self._run_sink
            if sink is not None:
                sink.on_run((arrival,), (first,), (corrupted,))
                return
            agenda.add(agenda.lanes[0], arrival, deliver, (first, corrupted))
            return
        # Frame k starts where frame k-1 ended, and lands a delay later,
        # clamped so that frames cannot overtake.
        starts = []
        sizes = []
        times = []
        busy = self.busy_seconds
        last_arrival = self._last_arrival
        cursor = start
        for frame in frames:
            bits = frame.size_bits
            starts.append(cursor)
            sizes.append(bits)
            tx_time = bits / bit_rate
            busy += tx_time
            delay = fixed_delay
            if delay is None:
                delay = self.propagation_delay(cursor)
            cursor += tx_time
            arrival = cursor + delay
            if arrival < last_arrival:
                arrival = last_arrival
            last_arrival = arrival
            times.append(arrival)
        bulk = getattr(model, "draw_window", None)
        if bulk is not None:
            verdicts = bulk(starts, sizes, rng)
        else:
            verdicts = scalar_draw_window(model, starts, sizes, rng)
        self.frames_sent += len(frames)
        self.frames_corrupted += sum(map(bool, verdicts))
        self.busy_seconds = busy
        self._last_arrival = last_arrival
        agenda = self._agenda
        if agenda is None:
            agenda = self._agenda = Agenda(sim)
        # Each arrival is the item one push would have made, numbered as
        # that push would have been; it never precedes now — delays are
        # non-negative and a run ends before its first frame lands.
        sequence = sim._sequence + len(times)
        traced = self.tracer.active
        if traced:
            # The run's record is held until its last frame lands.
            held = self._held
            if held is None:
                held = self._held = deque()
            held.append((times, verdicts, frames, sequence, []))
            self.tracer.hold(self._emit_landed)
        sink = self._run_sink
        if sink is not None and not first.is_control:
            sink.on_run(times, frames, verdicts)  # numbers them the same way
            return
        arrivals = agenda.lanes[0]
        append = arrivals.append
        number = sim._sequence
        deliver = self._deliver
        for arrival, frame, corrupted in zip(times, frames, verdicts):
            number += 1
            append((arrival, number, deliver, (frame, corrupted)))
        agenda.added(times[0], sim._sequence + 1)
        sim._sequence = sequence
        if traced:
            last = arrivals[-1]
            arrivals[-1] = (last[0], sequence, self._deliver_last, last[3])

    def _emit_run(self, times: list, verdicts: Sequence[bool],
                  frames: Sequence[Transmittable], lost: list) -> None:
        """Emit one ``frames_delivered`` record: the frames not lost."""
        if lost:
            kept = [k for k in range(len(times)) if k not in lost]
            times = [times[k] for k in kept]
            verdicts = [verdicts[k] for k in kept]
        if times:
            self.tracer.emit(
                times[0], self.name, "frames_delivered", times=times,
                control=frames[0].is_control,
                corrupted=[k for k, bad in enumerate(verdicts) if bad] if any(verdicts) else [],
            )

    def _emit_landed(self) -> None:
        """``Tracer.settle``: emit the frames of the oldest held run that
        have already landed; the rest wait for their last frame."""
        held = self._held
        if not held:
            return
        times, verdicts, frames, last, lost = held[0]
        first = last - len(times) + 1
        # Landed: the arrivals the dispatch has passed, however they were
        # taken (an item each, or a run handed to the receiver whole).
        sim = self.sim
        now, order = sim.now, sim._order
        landed = bisect_left(times, now)
        while landed < len(times) and times[landed] == now and first + landed <= order:
            landed += 1
        if landed:
            self._emit_run(times[:landed], verdicts[:landed], frames[:landed],
                           [k for k in lost if k < landed])
            held[0] = (times[landed:], verdicts[landed:], frames[landed:], last,
                       [k - landed for k in lost if k >= landed])
        self.tracer.hold(self._emit_landed)

    def _lose_to_outage(self, frame: Transmittable, phase: str) -> None:
        """Account one frame swallowed by a down channel.

        ``phase`` distinguishes where the outage caught the frame:
        ``"serialize"`` (still occupying the transmitter) vs
        ``"propagate"`` (in flight when the channel went down).
        """
        self.frames_lost_outage += 1
        self.tracer.emit(
            self.sim.now, self.name, "frame_lost_outage",
            phase=phase, control=frame.is_control,
        )

    def _deliver(self, frame: Transmittable, corrupted: bool) -> None:
        if not self._is_up:
            self._lose_to_outage(frame, phase="propagate")
            held = self._held
            if held:  # leave it out of its held run's record
                _, _, frames, _, lost = held[0]
                for position in range(lost[-1] + 1 if lost else 0, len(frames)):
                    if frames[position] is frame:
                        lost.append(position)
                        break
            return
        if self.receiver is None:
            raise RuntimeError(f"channel {self.name!r} has no receiver attached")
        self.receiver(frame, corrupted)

    def _deliver_traced(self, frame: Transmittable, corrupted: bool) -> None:
        """A run of one lands: its one-frame record goes out ahead of it."""
        if self._is_up:
            self._emit_one(frame, corrupted)
        self._deliver(frame, corrupted)

    def _deliver_last(self, frame: Transmittable, corrupted: bool) -> None:
        """The last frame of a held run lands: the run's record goes out
        ahead of it, as a frame's own record did."""
        if not self._is_up:
            self._deliver(frame, corrupted)  # lost, and left out
        self._emit_held()
        if self._is_up:
            self._deliver(frame, corrupted)

    def _emit_one(self, frame: Transmittable, corrupted: bool) -> None:
        """A run of one lands now: its record."""
        now = self.sim.now
        self.tracer.emit(now, self.name, "frames_delivered", times=(now,),
                         control=frame.is_control, corrupted=(0,) if corrupted else ())

    def _emit_held(self) -> None:
        """The last frame of the oldest held run lands: the run's record."""
        times, verdicts, frames, _, lost = self._held.popleft()
        self._emit_run(times, verdicts, frames, lost)

    def utilization(self, now: Optional[float] = None) -> float:
        """Fraction of elapsed time the transmitter was busy."""
        end = self.sim.now if now is None else now
        return self.busy_seconds / end if end > 0 else 0.0

    def __repr__(self) -> str:
        return f"<SimplexChannel {self.name} rate={self.bit_rate:g}bps>"


class FullDuplexLink:
    """A pair of simplex channels between endpoints A and B.

    Construct with per-direction (or shared) error models, then wire the
    two protocol endpoints with :meth:`attach`.
    """

    def __init__(
        self,
        sim: Simulator,
        bit_rate: float,
        propagation_delay: DelaySpec,
        name: str = "link",
        iframe_errors: Optional[ErrorModel] = None,
        cframe_errors: Optional[ErrorModel] = None,
        reverse_iframe_errors: Optional[ErrorModel] = None,
        reverse_cframe_errors: Optional[ErrorModel] = None,
        streams: Optional[StreamRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.streams = streams or StreamRegistry()
        self.tracer = tracer or Tracer()
        self.forward = SimplexChannel(
            sim, f"{name}.fwd", bit_rate, propagation_delay,
            iframe_errors=iframe_errors, cframe_errors=cframe_errors,
            streams=self.streams, tracer=self.tracer,
        )
        self.reverse = SimplexChannel(
            sim, f"{name}.rev", bit_rate, propagation_delay,
            iframe_errors=reverse_iframe_errors or iframe_errors,
            cframe_errors=reverse_cframe_errors or cframe_errors,
            streams=self.streams, tracer=self.tracer,
        )

    def attach(self, endpoint_a: FrameHandler, endpoint_b: FrameHandler) -> None:
        """Wire receive handlers: A hears the reverse channel, B the forward."""
        self.forward.attach_receiver(endpoint_b)
        self.reverse.attach_receiver(endpoint_a)

    def round_trip_time(self, when: float = 0.0) -> float:
        """Propagation-only RTT at time *when* (no serialization)."""
        return self.forward.propagation_delay(when) + self.reverse.propagation_delay(when)

    def down(self) -> None:
        """Cut both directions."""
        self.forward.down()
        self.reverse.down()

    def up(self) -> None:
        """Restore both directions."""
        self.forward.up()
        self.reverse.up()

    def __repr__(self) -> str:
        return f"<FullDuplexLink {self.name}>"
