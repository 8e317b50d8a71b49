"""Layer drives: timed loops over each layer's public functions.

Each drive builds the layer alone (stub neighbours, inputs generated
from the seed), times a batch of calls with ``perf_counter_ns`` and
reports the *median batch* cost per operation, in the unit its metric
declares.  ``scale`` shrinks the batches (``--quick`` uses 0.1).

The numbers say what one call costs in isolation; ``run`` multiplies
them by the traced run's exact counts and prints the product beside the
traced self time, so a layer whose drive cost and in-situ cost disagree
is visible rather than assumed away.
"""

from __future__ import annotations

import asyncio
import random
import statistics
from time import perf_counter_ns
from typing import Any, Callable

import numpy as np

from repro.core.frames import CheckpointFrame, IFrame
from repro.core.receiver import LamsReceiver
from repro.core.sender import LamsSender
from repro.core.wire import (
    decode_checkpoint,
    decode_iframe,
    encode_checkpoint,
    encode_iframe,
)
from repro.fec.crc import crc32_ieee
from repro.netlayer.packet import Datagram
from repro.netlayer.resequencer import Resequencer
from repro.simulator.engine import Simulator
from repro.simulator.errormodel import BernoulliChannel, resolve_error_model
from repro.simulator.link import SimplexChannel
from repro.simulator.trace import Tracer
from repro.transport.clock import AsyncioClock
from repro.transport.impair import corrupt_crc
from repro.transport.udp import UdpChannel, UdpEndpointSocket, decode_datagram
from repro.workloads.scenarios import build_simulation, preset

from .workloads import BURSTY_MODEL, UDP_PAYLOAD_BYTES

BATCHES = 5
WINDOW = 64
ENGINE_PENDING = 1024
NOMINAL = preset("nominal")
IFRAME_BITS = NOMINAL.iframe_bits
FRAME_TIME = NOMINAL.iframe_time
# I-frames one checkpoint interval covers on the nominal link.
FRAMES_PER_CHECKPOINT = round(NOMINAL.checkpoint_interval / FRAME_TIME)


def _noop(*_args: Any) -> None:
    pass


def _median_cost(batch: Callable[[], tuple[int, int]]) -> float:
    """Median over batches of ``elapsed ns / operations``."""
    costs = []
    for _ in range(BATCHES):
        elapsed, operations = batch()
        costs.append(elapsed / operations)
    return statistics.median(costs)


def _timed_loop(fn: Callable[[Any], Any], items: list) -> int:
    start = perf_counter_ns()
    for item in items:
        fn(item)
    return perf_counter_ns() - start


# -- simulator.engine -------------------------------------------------------

def engine_dispatch(rng: random.Random, ops: int) -> float:
    """Schedule and dispatch no-ops, ``PENDING`` on the heap at a time
    (a saturated nominal link keeps ~600 deliveries in flight)."""
    def batch() -> tuple[int, int]:
        sim = Simulator()
        schedule = sim.schedule
        delays = [rng.random() * 1e-3 for _ in range(ENGINE_PENDING)]
        rounds = max(1, ops // ENGINE_PENDING)
        start = perf_counter_ns()
        for _ in range(rounds):
            for delay in delays:
                schedule(delay, _noop)
            sim.run()
        return perf_counter_ns() - start, rounds * ENGINE_PENDING

    return _median_cost(batch)


def engine_timer_restart(rng: random.Random, ops: int) -> float:
    armed = 16_384
    sim = Simulator()
    timers = [sim.timer(_noop) for _ in range(armed)]
    for timer in timers:
        timer.start(1.0 + rng.random())

    def batch() -> tuple[int, int]:
        order = [timers[rng.randrange(armed)] for _ in range(ops)]
        return _timed_loop(lambda timer: timer.restart(1.5), order), ops

    return _median_cost(batch)


# -- simulator.errormodel ---------------------------------------------------

def _errormodel(model_factory: Callable[[], Any], seed: int, ops: int,
                windowed: bool) -> float:
    def batch() -> tuple[int, int]:
        model = model_factory()
        generator = np.random.Generator(np.random.PCG64(seed))
        starts = [i * FRAME_TIME for i in range(ops)]
        if not windowed:
            frame_error = model.frame_error
            start = perf_counter_ns()
            for when in starts:
                frame_error(when, IFRAME_BITS, generator)
            return perf_counter_ns() - start, ops
        sizes = [IFRAME_BITS] * WINDOW
        draw_window = model.draw_window
        start = perf_counter_ns()
        for first in range(0, ops - WINDOW + 1, WINDOW):
            draw_window(starts[first:first + WINDOW], sizes, generator)
        return perf_counter_ns() - start, ops - ops % WINDOW

    return _median_cost(batch)


def _bernoulli() -> Any:
    return BernoulliChannel(NOMINAL.iframe_ber)


def _gilbert_elliott() -> Any:
    return resolve_error_model(BURSTY_MODEL, bit_rate=NOMINAL.bit_rate)


# -- simulator.link ---------------------------------------------------------

def _link(ops: int, burst: bool) -> float:
    """Cost of carrying one frame through a perfect channel to a null
    receiver, the channel's own serialisation/delivery events included."""
    frames = [IFrame(seq=i, payload=None, size_bits=IFRAME_BITS, transmit_index=i)
              for i in range(WINDOW)]

    def batch() -> tuple[int, int]:
        sim = Simulator()
        channel = SimplexChannel(sim, "drive", NOMINAL.bit_rate,
                                 NOMINAL.one_way_delay)
        channel.attach_receiver(_noop)
        windows = max(1, ops // WINDOW)
        start = perf_counter_ns()
        for _ in range(windows):
            if burst:
                channel.send_burst(frames)
            else:
                for frame in frames:
                    channel.send(frame)
            sim.run()
        return perf_counter_ns() - start, windows * WINDOW

    return _median_cost(batch)


# -- core.sender / core.receiver --------------------------------------------

class _StubChannel:
    """The channel surface the protocol halves touch, carrying nothing.

    A send occupies the stub for the frames' serialisation time and then
    fires the idle callbacks, so a started sender drains at line rate.
    """

    bit_rate = NOMINAL.bit_rate
    _fixed_delay = NOMINAL.one_way_delay
    _is_up = True
    _queue = ()

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._transmitting = False
        self.idle_callbacks: list[Callable[[], None]] = []

    def on_idle(self, callback: Callable[[], None]) -> None:
        self.idle_callbacks.append(callback)

    def propagation_delay(self, when: float) -> float:
        return self._fixed_delay

    @property
    def is_idle(self) -> bool:
        return not self._transmitting

    def send(self, frame: Any) -> None:
        self._occupy(frame.size_bits / self.bit_rate)

    def send_burst(self, frames: list) -> None:
        self._occupy(sum(frame.size_bits for frame in frames) / self.bit_rate)

    def _occupy(self, seconds: float) -> None:
        self._transmitting = True
        self.sim.schedule(seconds, self._idle)

    def _idle(self) -> None:
        self._transmitting = False
        for callback in self.idle_callbacks:
            callback()


def sender_accept(ops: int) -> float:
    """``accept`` while the channel is busy: the saturated-source case."""
    def batch() -> tuple[int, int]:
        sim = Simulator()
        channel = _StubChannel(sim)
        channel._transmitting = True
        sender = LamsSender(sim, NOMINAL.lams_config(), channel,
                            NOMINAL.round_trip_time)
        sender.start()
        return _timed_loop(sender.accept, list(range(ops))), ops

    return _median_cost(batch)


def sender_rounds(rng: random.Random, rounds: int, naks: int) -> tuple[float, float]:
    """Steady-state sender rounds on a stub channel: drain one checkpoint
    interval of frames, then handle the checkpoint covering them (with
    *naks* of them NAK'd).  Returns ``(drain ns/frame, checkpoint ns)``."""
    drain_costs, checkpoint_costs = [], []
    for _ in range(BATCHES):
        sim = Simulator()
        channel = _StubChannel(sim)
        sender = LamsSender(sim, NOMINAL.lams_config(), channel,
                            NOMINAL.round_trip_time)
        sender.start()
        drain_ns = checkpoint_ns = frames = 0
        offered = 0
        for cp_index in range(rounds):
            channel._transmitting = True
            for _ in range(FRAMES_PER_CHECKPOINT):
                sender.accept(offered)
                offered += 1
            channel._transmitting = False
            sent_before = sender.iframes_sent
            start = perf_counter_ns()
            channel._idle()
            sim.run(until=sim.now + NOMINAL.checkpoint_interval)
            drain_ns += perf_counter_ns() - start
            frames += sender.iframes_sent - sent_before
            outstanding = [record.seq for record in sender.buffer.outstanding_frames()]
            checkpoint = CheckpointFrame(
                cp_index=cp_index, issue_time=sim.now + 1.0,
                naks=tuple(rng.sample(outstanding, min(naks, len(outstanding)))),
                frontier=sender.iframes_sent - 1,
            )
            start = perf_counter_ns()
            sender.on_checkpoint(checkpoint, False)
            checkpoint_ns += perf_counter_ns() - start
        drain_costs.append(drain_ns / frames)
        checkpoint_costs.append(checkpoint_ns / rounds)
    return statistics.median(drain_costs), statistics.median(checkpoint_costs)


def sender_idle_checkpoint(ops: int) -> float:
    """``on_checkpoint`` with nothing outstanding: what every link of an
    idle constellation does once per checkpoint interval."""
    def batch() -> tuple[int, int]:
        sim = Simulator()
        sender = LamsSender(sim, NOMINAL.lams_config(), _StubChannel(sim),
                            NOMINAL.round_trip_time)
        sender.start()
        checkpoints = [CheckpointFrame(cp_index=index, issue_time=0.0)
                       for index in range(ops)]
        return _timed_loop(lambda cp: sender.on_checkpoint(cp, False), checkpoints), ops

    return _median_cost(batch)


def _receiver(sim: Simulator) -> LamsReceiver:
    return LamsReceiver(sim, NOMINAL.lams_config(), _StubChannel(sim),
                        NOMINAL.round_trip_time)


def receiver_on_iframe(rng: random.Random, ops: int, gaps: bool) -> float:
    """``on_iframe`` plus the per-frame drain event it schedules.  With
    *gaps*, every other arrival skips a number and one in ten is
    corrupted (the NAK-logging paths)."""
    def batch() -> tuple[int, int]:
        sim = Simulator()
        receiver = _receiver(sim)
        arrivals, seq = [], 0
        for index in range(ops):
            seq += 2 if gaps and index % 2 else 1
            frame = IFrame(seq=seq % 65_536, payload=index,
                           size_bits=IFRAME_BITS, transmit_index=seq)
            arrivals.append((frame, gaps and rng.random() < 0.1))
        on_iframe = receiver.on_iframe
        run = sim.run
        start = perf_counter_ns()
        for frame, corrupted in arrivals:
            on_iframe(frame, corrupted)
            run()
        return perf_counter_ns() - start, ops

    return _median_cost(batch)


def receiver_checkpoint_build(ops: int) -> float:
    """One periodic checkpoint (timer expiry to ``send``), with four
    fresh errors logged per interval so the NAK list is never empty."""
    def batch() -> tuple[int, int]:
        sim = Simulator()
        receiver = _receiver(sim)
        receiver.start()
        interval = NOMINAL.checkpoint_interval
        elapsed, seq = 0, 0
        for round_index in range(ops):
            for _ in range(4):
                seq += 2
                receiver.on_iframe(
                    IFrame(seq=seq % 65_536, payload=None,
                           size_bits=IFRAME_BITS, transmit_index=seq), False)
            sim.run(until=(round_index + 0.5) * interval)
            start = perf_counter_ns()
            sim.run(until=(round_index + 1.25) * interval)
            elapsed += perf_counter_ns() - start
        return elapsed, ops

    return _median_cost(batch)


# -- netlayer.resequencer ---------------------------------------------------

def resequencer_push(rng: random.Random, ops: int, reordered: bool) -> float:
    def batch() -> tuple[int, int]:
        order = list(range(ops))
        if reordered:
            for first in range(0, ops, 8):
                block = order[first:first + 8]
                rng.shuffle(block)
                order[first:first + 8] = block
        datagrams = [Datagram("src", "dst", index, 0.0) for index in order]
        return _timed_loop(Resequencer().push, datagrams), ops

    return _median_cost(batch)


# -- simulator.trace / invariants.monitors ----------------------------------

def tracer_emit(ops: int, mode: str) -> float:
    def batch() -> tuple[int, int]:
        tracer = Tracer(record_timeline=mode == "timeline")
        if mode == "active":
            tracer.listeners.append(_noop)
        emit = tracer.emit
        start = perf_counter_ns()
        for index in range(ops):
            emit(0.0, "drive", "iframe_sent", seq=index, index=index, retx=0)
        return perf_counter_ns() - start, ops

    return _median_cost(batch)


def monitor_suite(seed: int, sim_seconds: float) -> float:
    """Replay a recorded monitored run's trace through a fresh suite."""
    recording = build_simulation(NOMINAL, "lams", seed=seed,
                                 tracer=Tracer(record_timeline=True))
    for index in range(4 * FRAMES_PER_CHECKPOINT):
        recording.endpoint_a.accept((index, 0.0))
    recording.sim.run(until=sim_seconds)
    records = recording.tracer.records

    def batch() -> tuple[int, int]:
        fresh = build_simulation(NOMINAL, "lams", seed=seed,
                                 run_with_invariants=True)
        (listener,) = fresh.tracer.listeners
        return _timed_loop(listener, records), len(records)

    return _median_cost(batch)


# -- core.wire / fec.crc ----------------------------------------------------

def wire(rng: random.Random, ops: int) -> dict[str, float]:
    payload = rng.randbytes(UDP_PAYLOAD_BYTES)
    iframe = IFrame(seq=1234, payload=payload, size_bits=8 * UDP_PAYLOAD_BYTES + 80,
                    transmit_index=98_765)
    checkpoint = CheckpointFrame(cp_index=77, issue_time=1.25, naks=(3, 9, 27, 81),
                                 frontier=98_765)
    iframe_bytes = encode_iframe(iframe, payload)
    checkpoint_bytes = encode_checkpoint(checkpoint)
    damaged = corrupt_crc(iframe_bytes)
    calls: dict[str, Callable[[], Any]] = {
        "encode_iframe_ns": lambda: encode_iframe(iframe, payload),
        "decode_iframe_ns": lambda: decode_iframe(iframe_bytes),
        "encode_checkpoint_ns": lambda: encode_checkpoint(checkpoint),
        "decode_checkpoint_ns": lambda: decode_checkpoint(checkpoint_bytes),
        "decode_salvage_ns": lambda: decode_datagram(damaged),
        "crc_256B_ns": lambda: crc32_ieee(payload),
    }
    result = {}
    for name, call in calls.items():
        def batch(call: Callable[[], Any] = call) -> tuple[int, int]:
            start = perf_counter_ns()
            for _ in range(ops):
                call()
            return perf_counter_ns() - start, ops

        result[name] = _median_cost(batch)
    return result


# -- transport.clock / transport.udp ----------------------------------------

async def _clock_pump(ops: int) -> float:
    clock = AsyncioClock()
    try:
        def batch() -> tuple[int, int]:
            for _ in range(ops):
                clock.schedule(0.0, _noop)
            start = perf_counter_ns()
            clock.kick()
            return perf_counter_ns() - start, ops

        return _median_cost(batch)
    finally:
        clock.close()


def _drive_datagram(rng: random.Random) -> tuple[IFrame, bytes]:
    payload = rng.randbytes(UDP_PAYLOAD_BYTES)
    frame = IFrame(seq=7, payload=payload, size_bits=8 * UDP_PAYLOAD_BYTES + 80,
                   transmit_index=7)
    return frame, encode_iframe(frame, payload)


async def _socket_hop(rng: random.Random, ops: int) -> float:
    """One datagram through a bare loopback socket pair and the real
    event loop (decode and clock kicks included, no protocol)."""
    clock = AsyncioClock()
    sockets = [
        await UdpEndpointSocket.open(clock, outgoing_name=out, incoming_name=back,
                                     bit_rate=1e9)
        for out, back in (("drive.fwd", "drive.rev"), ("drive.rev", "drive.fwd"))
    ]
    sender, receiver = sockets
    sender.peer_addr, receiver.peer_addr = receiver.address, sender.address
    _, data = _drive_datagram(rng)
    group = 16
    arrived = asyncio.Event()
    pending = 0

    def handler(frame: Any, corrupted: bool) -> None:
        nonlocal pending
        pending -= 1
        if pending == 0:
            arrived.set()

    receiver.attach(handler)
    try:
        costs = []
        for _ in range(BATCHES):
            elapsed = delivered = 0
            for _ in range(max(1, ops // group)):
                pending = group
                arrived.clear()
                start = perf_counter_ns()
                for _ in range(group):
                    sender.sendto(data)
                try:
                    await asyncio.wait_for(arrived.wait(), timeout=2.0)
                except asyncio.TimeoutError:
                    pass  # a dropped datagram: cost over what did arrive
                elapsed += perf_counter_ns() - start
                delivered += group - pending
            costs.append(elapsed / max(1, delivered))
        return statistics.median(costs)
    finally:
        for sock in sockets:
            sock.close()
        clock.close()
        await asyncio.sleep(0)


async def _channel_send(rng: random.Random, ops: int) -> float:
    """``UdpChannel.send`` through serialisation, encode and emit, into
    a stub socket."""
    clock = AsyncioClock()
    frame, _ = _drive_datagram(rng)
    emitted = 0

    def emit(data: bytes) -> None:
        nonlocal emitted
        emitted += 1

    try:
        def batch() -> tuple[int, int]:
            nonlocal emitted
            emitted = 0
            channel = UdpChannel(clock, "drive.fwd", emit, bit_rate=1e12)
            start = perf_counter_ns()
            for _ in range(ops):
                channel.send(frame)
            while emitted < ops:
                clock.kick()
            return perf_counter_ns() - start, ops

        return _median_cost(batch)
    finally:
        clock.close()


async def _transport(rng: random.Random, scale: float) -> dict[str, float]:
    return {
        "transport.clock.pump_ns_per_event": await _clock_pump(_ops(50_000, scale)),
        "transport.udp.socket_hop_us_per_datagram":
            await _socket_hop(rng, _ops(2_000, scale)) / 1e3,
        "transport.udp.channel_send_us_per_frame":
            await _channel_send(rng, _ops(5_000, scale)) / 1e3,
    }


def _ops(base: int, scale: float) -> int:
    return max(WINDOW, int(base * scale))


def run_all(seed: int, scale: float = 1.0) -> dict[str, float]:
    """Every drive metric, keyed by its per-layer metric name."""
    rng = random.Random(seed)
    rounds = max(3, int(40 * scale))
    drain, checkpoint_clean = sender_rounds(rng, rounds, naks=0)
    _, checkpoint_nak = sender_rounds(rng, rounds, naks=8)
    metrics = {
        "simulator.engine.dispatch_ns_per_event": engine_dispatch(rng, _ops(50_000, scale)),
        "simulator.engine.timer_restart_ns": engine_timer_restart(rng, _ops(50_000, scale)),
        "simulator.errormodel.bernoulli_frame_error_ns":
            _errormodel(_bernoulli, seed, _ops(50_000, scale), windowed=False),
        "simulator.errormodel.bernoulli_draw_window_ns_per_frame":
            _errormodel(_bernoulli, seed, _ops(50_000, scale), windowed=True),
        "simulator.errormodel.ge_frame_error_ns":
            _errormodel(_gilbert_elliott, seed, _ops(30_000, scale), windowed=False),
        "simulator.errormodel.ge_draw_window_ns_per_frame":
            _errormodel(_gilbert_elliott, seed, _ops(30_000, scale), windowed=True),
        "simulator.link.send_ns_per_frame": _link(_ops(20_000, scale), burst=False),
        "simulator.link.send_burst_ns_per_frame": _link(_ops(20_000, scale), burst=True),
        "core.sender.accept_ns_per_payload": sender_accept(_ops(30_000, scale)),
        "core.sender.drain_ns_per_frame": drain,
        "core.sender.on_checkpoint_idle_ns": sender_idle_checkpoint(_ops(20_000, scale)),
        "core.sender.on_checkpoint_clean_ns": checkpoint_clean,
        "core.sender.on_checkpoint_nak_ns": checkpoint_nak,
        "core.receiver.on_iframe_clean_ns":
            receiver_on_iframe(rng, _ops(20_000, scale), gaps=False),
        "core.receiver.on_iframe_gap_ns":
            receiver_on_iframe(rng, _ops(20_000, scale), gaps=True),
        "core.receiver.checkpoint_build_ns":
            receiver_checkpoint_build(max(8, int(200 * scale))),
        "netlayer.resequencer.push_inorder_ns":
            resequencer_push(rng, _ops(30_000, scale), reordered=False),
        "netlayer.resequencer.push_reordered_ns":
            resequencer_push(rng, _ops(30_000, scale), reordered=True),
        "simulator.trace.emit_inactive_ns": tracer_emit(_ops(100_000, scale), "inactive"),
        "simulator.trace.emit_active_ns": tracer_emit(_ops(50_000, scale), "active"),
        "simulator.trace.emit_timeline_ns": tracer_emit(_ops(50_000, scale), "timeline"),
        "invariants.monitors.suite_ns_per_record":
            monitor_suite(seed, max(0.01, 0.1 * scale)),
    }
    for name, value in wire(rng, _ops(5_000, scale)).items():
        metrics[f"core.wire.{name}"] = value
    metrics.update(asyncio.run(_transport(rng, scale)))
    return metrics
