"""The specification's SR-HDLC and Go-Back-N sender (paper Section 4).

Section 4 compares LAMS-DLC with selective-repeat HDLC as its analysis
models it: new I-frames while the window is open, the last that can go
carrying the Poll bit and starting the poll timer; cumulative RRs; SREJs
naming frames to send again; a poll timeout re-sending the oldest held
frame.  Section 1's Go-Back-N (REJ) and Stutter variants ride along.  A
frame is held until an RR acknowledges it: ``B_HDLC = oo``.

Numbers are not circular: frame ``n`` is the ``n``-th sent and carries
``N(S) = n mod M``; the window is ``[base, next_seq)``, at most ``W``
wide; the buffer is a dict keyed by number.  A field off the wire names
the number at or after ``base`` with its residue (N(R) is read modulo
``M``; a SREJ entry outside ``Z_M`` names no frame).  A frame owed a
retransmission goes out ahead of new frames; one acknowledged while it
waits is skipped at its turn (until then it counts as queued).  Frames
held with nothing to send keep the poll timer running.  ``log`` holds the
trace records as the ``Tracer`` delivers them.
"""

from __future__ import annotations

from collections import deque
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Optional

from repro.hdlc.config import HdlcConfig
from repro.hdlc.frames import HdlcIFrame, RejFrame, RrFrame, SrejFrame

from .receiver import Gauge


class Held:
    """What both baselines share (Section 4): a packet is held from its
    acceptance until positively acknowledged, a retransmission keeps its
    number, and one timer (poll or report) guards the silence."""

    def __init__(self, engine: Any, config: Any, channel: Any, name: str, on_timeout: Callable):
        self.engine, self.config, self.channel, self.name = engine, config, channel, name
        self.pending, self.buffer = deque(), {}  # (payload, enqueue time); number -> frame
        self.next_seq, self.retransmit = 0, deque()  # retransmit: numbers owed one
        self.timer, self.started, self.gauge = engine.timer(on_timeout), False, None
        self.log, self.holdings, self.holding_sum = [], [], 0.0
        self.iframes_sent = self.retransmissions = self.releases = self.polls_sent = 0
        self.timeouts = self.enqueued = self.refused = self.peak_occupancy = 0
        channel.on_idle(self.maybe_send)

    occupancy = unresolved_count = property(lambda self: len(self.pending) + len(self.buffer))
    pending_count = property(lambda self: len(self.pending))
    mean_holding_time = property(
        lambda self: self.holding_sum / len(self.holdings) if self.holdings else 0.0)

    def held_payloads(self) -> list[Any]:
        return ([payload for payload, _ in self.pending]
                + [frame.payload for frame in self.buffer.values()])

    def record(self, event: str, **detail: Any) -> None:
        self.log.append((self.engine.now, self.name, event, detail))

    def record_occupancy(self) -> None:
        """The ``sendbuf`` gauge: at each acceptance, release and (SR-HDLC) send."""
        if self.gauge is None:
            self.gauge = Gauge(self.engine.now)
        self.gauge.update(self.engine.now, self.occupancy)

    def start(self) -> None:
        if self.started:
            raise RuntimeError("sender already started")
        self.started = True
        self.wake()

    def stop(self) -> None:
        self.timer.cancel()
        self.started = False

    def accept(self, packet: Any) -> bool:
        """One packet from the network layer, unless the buffer is full."""
        capacity = self.config.send_buffer_capacity
        if capacity is not None and self.occupancy >= capacity:
            self.refused += 1
            return False
        self.pending.append((packet, self.engine.now))
        self.enqueued += 1
        self.peak_occupancy = max(self.peak_occupancy, self.occupancy)
        self.record_occupancy()
        self.wake()
        return True

    def admit(self) -> int:
        """The next pending packet becomes frame ``next_seq``, sent now."""
        number, self.next_seq = self.next_seq, self.next_seq + 1
        payload, enqueue_time = self.pending.popleft()
        self.buffer[number] = SimpleNamespace(  # NBDT's in-flight guard reads ``last_send``
            payload=payload, enqueue_time=enqueue_time, first_send=self.engine.now,
            retransmit_count=0, last_send=self.engine.now)
        return number

    def next_retransmission(self) -> Optional[int]:
        """The first queued number still held, counted as re-sent; or None."""
        while self.retransmit:
            number = self.retransmit.popleft()
            if number in self.buffer:
                self.buffer[number].retransmit_count += 1
                self.retransmissions += 1
                return number
        return None

    def release(self, numbers: Iterable[int]) -> None:
        """Positive acknowledgement: each frame's holding time is a sample."""
        for number in numbers:
            holding = self.engine.now - self.buffer.pop(number).first_send
            self.holding_sum += holding
            self.holdings.append(holding)
            self.releases += 1


class HdlcSender(Held):
    """One direction's SR-HDLC (or, with ``selective=False``, GBN) sender."""

    def __init__(self, engine: Any, config: HdlcConfig, channel: Any, name: str = "hdlc.tx"):
        super().__init__(engine, config, channel, name, self.on_poll_timeout)
        self.base, self.window_size, self.modulus = 0, config.window_size, config.modulus
        self.stutter_cursor = self.stutter_transmissions = 0

    def number(self, field: int) -> int:  # the number at or after ``base`` with that residue
        return self.base + (field - self.base) % self.modulus

    def window_open(self) -> bool:
        return bool(self.pending) and self.next_seq - self.base < self.window_size

    def last_sendable(self) -> bool:
        """Nothing can follow at once: this frame polls (the paper's RR(p))."""
        return not self.retransmit and not self.window_open()

    def maybe_send(self) -> None:
        """On an idle line (Section 4): a frame owed a retransmission, else a
        new frame while the window is open, else (Stutter) a held one's copy;
        with none of these and frames held, the poll timer runs."""
        if not self.started or not self.channel.is_idle:
            return
        number = self.next_retransmission()
        if number is None and self.window_open():
            number = self.admit()
        if number is not None:
            self.send(number, poll=self.last_sendable())
        elif self.config.stutter and self.buffer:
            self.stutter()
        elif self.buffer and not self.timer.running:
            self.timer.start(self.config.timeout)

    wake = maybe_send  # new work: send if the line allows

    def put(self, number: int, poll: bool) -> int:
        """Frame *number* onto the line under its N(S), returned."""
        ns, bits = number % self.modulus, self.config.iframe_bits
        self.channel.send(HdlcIFrame(ns, self.buffer[number].payload, bits, poll))
        self.iframes_sent += 1
        return ns

    def send(self, number: int, poll: bool) -> None:
        ns = self.put(number, poll)
        self.record_occupancy()
        if poll:
            self.polls_sent += 1
            self.timer.start(self.config.timeout)
        self.record("iframe_sent", ns=ns, poll=poll, retx=self.buffer[number].retransmit_count)

    def stutter(self) -> None:
        """Section 1's Stutter: a stalled window's line sends held frames
        round-robin in number order, with no Poll bit and no timer."""
        position = self.stutter_cursor % len(self.buffer)
        self.stutter_cursor = position + 1
        self.stutter_transmissions += 1
        self.record("stutter_sent", ns=self.put(self.base + position, False))

    def acknowledge(self, nr: int) -> bool:
        """N(R) releases every frame before it (Section 4), if it lies in
        ``(base, next_seq]``; any other N(R) is stale and ignored."""
        number = self.number(nr)
        if number == self.base or number > self.next_seq:
            return False
        self.release(range(self.base, number))
        self.base = number
        return True

    def on_rr(self, frame: RrFrame, corrupted: bool) -> None:
        """RR (Section 4): a Final one ends the poll cycle; if frames are still
        held and nothing can follow, the poll timer restarts for them."""
        if corrupted:
            return self.record("rr_corrupted")
        if self.acknowledge(frame.nr):
            self.record_occupancy()
        if frame.final:
            self.timer.cancel()
            if self.buffer and self.last_sendable():
                self.timer.start(self.config.timeout)
        self.maybe_send()

    def on_srej(self, frame: SrejFrame, corrupted: bool) -> None:
        """SREJ (Section 4): each frame it names that is still held is owed one."""
        if corrupted:
            return self.record("srej_corrupted")
        for field in frame.nrs:
            number = self.number(field)
            if 0 <= field < self.modulus and number in self.buffer \
                    and number not in self.retransmit:
                self.retransmit.append(number)
        if frame.final:
            self.timer.cancel()
        self.record("srej", count=len(frame.nrs))
        self.maybe_send()

    def on_rej(self, frame: RejFrame, corrupted: bool) -> None:
        """Section 1's Go-Back-N REJ: all held from N(R) on is sent again, in order."""
        if corrupted:
            return
        self.acknowledge(frame.nr)
        self.retransmit = deque(self.buffer)
        if frame.final:
            self.timer.cancel()
        self.record_occupancy()
        self.maybe_send()

    def on_poll_timeout(self) -> None:
        """No response to the poll (Section 4): the oldest held frame goes first."""
        if not self.buffer:
            return
        self.timeouts += 1
        if self.base not in self.retransmit:
            self.retransmit.appendleft(self.base)
        self.record("poll_timeout", ns=self.base % self.modulus)
        self.timer.start(self.config.timeout)
        self.maybe_send()
