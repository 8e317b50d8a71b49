"""A differential oracle for the sender's outstanding window.

:class:`ReferenceBookkeeping` is the bookkeeping ``LamsSender`` had
before its window became columns: one record per outstanding frame in a
dict keyed by sequence number, numbers issued by a cursor that refuses
to pass a live one, a checkpoint that walks every record.  It is kept
here, and only here, as the thing the columns must agree with.

:class:`SenderRig` drives a real ``LamsSender`` over a stub channel,
feeds the reference everything the sender put on the channel and every
checkpoint it was handed, and after each step asserts that both tell
the same story: the same trace records in the same order (the sender's
run records expanded frame by frame, ``tests/trace_runs.py``; its
acceptance records are ``tests/test_accept_many.py``'s), the same
retransmission queue, the same holding statistics to the bit, the same
held payloads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

import pytest

from repro.core.config import LamsDlcConfig
from repro.core.frames import CheckpointFrame
from repro.core.sender import LamsSender, PendingRetransmission
from repro.core.seqspace import SequenceExhausted
from repro.simulator.engine import Simulator
from repro.simulator.trace import SampleStat, Tracer

from .trace_runs import expand

RTT = 0.008
FRAME_TIME = 1e-4


@dataclass
class Record:
    seq: int
    payload: Any
    enqueue_time: float
    expected_arrival: float
    transmit_index: int
    retransmit_count: int
    first_send_time: float
    origin: int


class ReferenceBookkeeping:
    """Record-per-frame sender bookkeeping (the parent's, verbatim in effect)."""

    def __init__(self, config: LamsDlcConfig, expected_rtt: float) -> None:
        self.modulus = config.numbering_size
        self.guard = config.processing_time
        self.resolving_period = config.resolving_period(expected_rtt)
        self.cursor = 0
        self.records: dict[int, Record] = {}
        self.queue: deque[PendingRetransmission] = deque()
        self.holding_sum = 0.0
        self.holding = SampleStat("reference.holding_time")
        self.log: list[tuple] = []

    def allocate(self) -> int:
        seq = self.cursor
        if seq in self.records:
            raise SequenceExhausted(
                f"sequence number {seq} is still outstanding "
                f"({len(self.records)}/{self.modulus} numbers in use); "
                "the numbering space is undersized for this link"
            )
        self.cursor = (seq + 1) % self.modulus
        return seq

    def sent(self, frame, enqueue_time: float, departure: float, arrival: float) -> None:
        seq = self.allocate()
        first_send, count, origin = departure, 0, frame.transmit_index
        if frame.origin >= 0:  # a retransmission: the head of the queue
            job = self.queue.popleft()
            assert job.payload == frame.payload
            enqueue_time, first_send = job.enqueue_time, job.first_send_time
            count, origin = job.retransmit_count, job.origin
        self.records[seq] = Record(seq, frame.payload, enqueue_time, arrival,
                                   frame.transmit_index, count, first_send, origin)
        self.log.append(("iframe_sent", departure, seq, frame.transmit_index, count))

    def in_transmit_order(self) -> list[Record]:
        return sorted(self.records.values(), key=lambda r: r.transmit_index)

    def requeue(self, record: Record, cause: str, now: float) -> None:
        del self.records[record.seq]
        self.queue.append(PendingRetransmission(
            record.payload, record.enqueue_time, record.first_send_time,
            record.retransmit_count + 1, cause, record.origin,
        ))
        self.log.append(("requeue", now, record.seq, cause))

    def checkpoint(self, cp: CheckpointFrame, now: float, awaiting_enforced: bool) -> None:
        for seq in cp.naks:
            if seq in self.records:
                self.requeue(self.records[seq], "enforced" if cp.enforced else "nak", now)
        if awaiting_enforced:
            return
        horizon = cp.issue_time - self.resolving_period if cp.enforced else None
        release, retransmit = [], []
        for record in self.in_transmit_order():
            if record.expected_arrival + self.guard > cp.issue_time:
                continue
            if cp.frontier is None or record.transmit_index > cp.frontier:
                retransmit.append((record, "trailing"))
            elif horizon is not None and record.expected_arrival < horizon:
                retransmit.append((record, "enforced"))
            else:
                release.append(record)
        for record, cause in retransmit:
            self.requeue(record, cause, now)
        for record in release:
            del self.records[record.seq]
            holding = now - record.first_send_time
            self.holding_sum += holding
            self.holding.add(holding)
            self.log.append(("iframe_released", now, record.seq, holding,
                             record.retransmit_count))


class StubChannel:
    """The channel surface the sender touches; records every run it is handed.

    *delay* is a constant (exposed as ``_fixed_delay``, like
    ``SimplexChannel``) or a function of the departure time.  With
    ``burst=False`` the stub has neither ``send_burst`` nor
    ``_fixed_delay`` nor the private idle fields — the duck-typed shape
    of ``UdpChannel`` and the bench's stubs.
    """

    bit_rate = LamsDlcConfig().iframe_bits / FRAME_TIME

    def __init__(self, sim: Simulator, delay: Union[float, Callable[[float], float]],
                 burst: bool = True) -> None:
        self.sim = sim
        self._delay = delay if callable(delay) else (lambda when: delay)
        self.busy = False
        self.idle_callbacks: list[Callable[[], None]] = []
        self.runs: list[tuple[float, list]] = []
        if burst:
            self.send_burst = self._send_burst
            self._queue = ()
            if not callable(delay):
                self._fixed_delay = delay

    _transmitting = property(lambda self: self.busy)
    is_idle = property(lambda self: not self.busy)

    def on_idle(self, callback: Callable[[], None]) -> None:
        self.idle_callbacks.append(callback)

    def propagation_delay(self, when: float) -> float:
        return self._delay(when)

    def send(self, frame: Any) -> None:
        self._send_burst([frame])

    def _send_burst(self, frames: list) -> None:
        if not frames[0].is_control:
            self.runs.append((self.sim.now, list(frames)))
        self.busy = True
        self.sim.schedule(sum(f.size_bits for f in frames) / self.bit_rate, self.idle)

    def idle(self) -> None:
        self.busy = False
        for callback in self.idle_callbacks:
            callback()


class SenderRig:
    """One ``LamsSender`` on a stub channel, shadowed by the reference."""

    def __init__(self, numbering_bits: int = 16, batch_window: int = 64,
                 delay: Union[float, Callable[[float], float]] = RTT / 2,
                 burst: bool = True) -> None:
        self.sim = Simulator()
        self.channel = StubChannel(self.sim, delay, burst)
        self.config = LamsDlcConfig(numbering_bits=numbering_bits, batch_window=batch_window)
        self.tracer = Tracer()
        self.log: list[tuple] = []
        self.tracer.listeners.append(self._on_record)
        self.sender = LamsSender(self.sim, self.config, self.channel, RTT, tracer=self.tracer)
        self.reference = ReferenceBookkeeping(self.config, RTT)
        self.tx_time = self.config.iframe_bits / self.channel.bit_rate
        self.enqueued: dict[Any, float] = {}
        # Departures of the retransmissions handed over and not yet gone:
        # one counts in occupancy from its departure.
        self.undeparted: list[float] = []
        self.offered = 0
        self.exhausted: Optional[SequenceExhausted] = None
        self.sender.start()

    def _on_record(self, record) -> None:
        if record.event == "requeue":
            self.log.append(("requeue", record.time, record.detail["seq"],
                             record.detail["cause"]))
        elif record.event != "payloads_accepted":  # tests/test_accept_many.py
            self.log.extend(expand(
                (record.time, record.source, record.event, record.detail),
                self.config.numbering_size,
            ))

    # -- steps ---------------------------------------------------------------

    def offer(self, count: int, together: bool = True) -> None:
        """Accept *count* payloads; *together* holds the channel busy
        meanwhile so they leave as windows rather than one by one."""
        def step() -> None:
            if self.sender.failed:
                return
            held = together and not self.channel.busy
            if held:
                self.channel.busy = True
            for _ in range(count):
                self.enqueued[self.offered] = self.sim.now
                assert self.sender.accept(self.offered)
                self.offered += 1
            if held:
                self.channel.idle()
        self._guarded(step)

    def run(self, seconds: float) -> None:
        self._guarded(lambda: self.sim.run(until=self.sim.now + seconds))

    def timeout(self) -> None:
        """The checkpoint timer expires: suspected failure, Request-NAK."""
        self._guarded(self.sender._on_checkpoint_timeout)

    def checkpoint(self, issue_time: float, naks=(), frontier: Optional[int] = None,
                   enforced: bool = False) -> None:
        cp = CheckpointFrame(cp_index=0, issue_time=issue_time, naks=tuple(naks),
                             frontier=frontier, enforced=enforced)
        if self.sender.failed or self.exhausted is not None:
            return
        now = self.sim.now
        try:
            self.sender.on_checkpoint(cp, False)
        except SequenceExhausted as exc:
            self.exhausted = exc
        # Bookkeeping precedes the sends the checkpoint triggers.
        self.reference.checkpoint(cp, now, self.sender._awaiting_enforced)
        self.check()

    def _guarded(self, step: Callable[[], None]) -> None:
        if self.exhausted is None:
            try:
                step()
            except SequenceExhausted as exc:
                self.exhausted = exc
        self.check()

    # -- the comparison ------------------------------------------------------

    def check(self) -> None:
        sender, reference, buffer = self.sender, self.reference, self.sender.buffer
        for start, frames in self.channel.runs:
            departure = start
            for frame in frames:
                reference.sent(
                    frame, self.enqueued[frame.payload], departure,
                    departure + self.tx_time + self.channel.propagation_delay(departure),
                )
                if frame.origin >= 0:
                    self.undeparted.append(departure)
                departure += self.tx_time
        self.channel.runs.clear()
        self.undeparted = [when for when in self.undeparted if when > self.sim.now]
        if self.exhausted is not None:
            # Raised at the same send, with the same message.
            with pytest.raises(SequenceExhausted) as expected:
                reference.allocate()
            assert str(self.exhausted) == str(expected.value)
        assert self.log == reference.log
        assert list(sender._retransmit_queue) == list(reference.queue)
        assert buffer.holding_time_sum == reference.holding_sum
        assert buffer.holding_samples == reference.holding.count == sender.releases
        stat = self.tracer.samples.get("lams.tx.holding_time")
        assert (stat is None) == (sender.releases == 0)  # created by the first release
        if stat is not None:
            assert (stat.count, stat._mean, stat._m2, stat.minimum, stat.maximum) == (
                reference.holding.count, reference.holding._mean, reference.holding._m2,
                reference.holding.minimum, reference.holding.maximum)
        records = reference.in_transmit_order()
        assert [tuple(view) for view in buffer.outstanding_frames()] == [
            (r.seq, r.payload, r.enqueue_time, r.expected_arrival, r.transmit_index,
             r.retransmit_count, r.first_send_time, r.origin) for r in records]
        pending = buffer.pending_payloads()
        assert sender.held_payloads() == (
            pending + [r.payload for r in records] + [job.payload for job in reference.queue])
        departed = len(records) - len(self.undeparted)
        assert sender.occupancy == len(pending) + departed
        assert buffer.outstanding_count == buffer.live == departed
        assert sender.unresolved_count == (
            sender.occupancy + len(self.undeparted) + len(reference.queue))
        assert buffer.peak_occupancy >= sender.occupancy
        assert len(buffer.items) == len(buffer.arrivals) == len(buffer.first_sends) == len(buffer.retx)
        assert sender.iframes_sent == buffer.next_index
