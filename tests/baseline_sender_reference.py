"""A differential oracle for the two baseline senders' windows.

``SenderWindow``, ``HdlcSender`` and ``NbdtSender`` below are the
SR-HDLC/GBN and NBDT senders as they were before their windows became
the sending buffer's columns (:mod:`repro.core.sendbuf`): one
``HdlcOutstanding`` / ``NbdtOutstanding`` record per unacknowledged
frame in a dict, a pending deque, their own capacity, occupancy and
holding-time bookkeeping, and ``sorted`` / ``min`` passes over the dict
where the columns now have an order.  They are kept here verbatim, and
only here, as the thing the shipped senders must agree with; the one
addition is an ``accept_many`` that offers packets one ``accept`` at a
time, so an endpoint can hand them a stretch.  Beside them, for
``tests/test_accept_many.py``: the shipped senders' per-packet ``accept``
as it was before they took stretches (:func:`buffered_accept`), and the
sources' per-packet loops (:class:`ReferenceFiniteBatch`,
:class:`ReferenceSaturatedSource`).

:class:`BaselineRig` drives a shipped sender and its reference through
one history — each on its own simulator, stub channel and tracer — and
after every step asserts they tell the same story: the same frames on
the channel, the same trace records, the same armed timer deadline, the
same counters, the same holding-time sum to the bit, the same occupancy,
peak, outstanding records and ``held_payloads()``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.hdlc import sender as hdlc_sender
from repro.hdlc.config import HdlcConfig
from repro.hdlc.frames import HdlcIFrame, RejFrame, RrFrame, SrejFrame
from repro.hdlc.window import increment, window_offset
from repro.nbdt import sender as nbdt_sender
from repro.nbdt.config import NbdtConfig
from repro.nbdt.frames import NbdtIFrame, NbdtReport, NbdtReportRequest
from repro.simulator.engine import Simulator
from repro.simulator.link import SimplexChannel
from repro.simulator.trace import Tracer
from repro.workloads.generators import FiniteBatch, SaturatedSource



# -- per-packet acceptance, as before senders took stretches ---------------


def accept_each(accept: Callable[[Any], bool], packets) -> int:
    """``for p in packets: if not accept(p): break``, counting acceptances."""
    accepted = 0
    for packet in packets:
        if not accept(packet):
            break
        accepted += 1
    return accepted


def enqueue(buffer: Any, packet: Any, now: float) -> bool:
    """``SendBuffer.enqueue`` before stretches."""
    occ = len(buffer._pending) + buffer.live
    if buffer.capacity is not None and occ >= buffer.capacity:
        buffer.refused_total += 1
        return False
    buffer._pending.append((packet, now))
    buffer.enqueued_total += 1
    occ += 1
    if occ > buffer.peak_occupancy:
        buffer.peak_occupancy = occ
    return True


def buffered_accept(sender: Any, packet: Any) -> bool:
    """``BufferedSender.accept`` before stretches: a sample and a wake a packet."""
    if not enqueue(sender.buffer, packet, sender.sim.now):
        return False
    sender._record_occupancy()
    sender._wake()
    return True


class ReferenceFiniteBatch(FiniteBatch):
    """``FiniteBatch`` with its per-packet loop."""

    def start(self) -> None:
        for index in range(self.count):
            packet = self.make_packet(index, self.sim.now)
            if self.target.accept(packet):
                self.offered += 1
            else:
                self.refused += 1


class ReferenceSaturatedSource(SaturatedSource):
    """``SaturatedSource`` with its per-packet refill loop."""

    def _tick(self, chain: int) -> None:
        if chain != self._chain or not self._running:
            return
        if self.limit is not None and self.offered >= self.limit:
            self._running = False
            return
        if self.backlog_fn() < self.low_water:
            budget = self.chunk
            if self.limit is not None:
                budget = min(budget, self.limit - self.offered)
            for _ in range(budget):
                packet = self.make_packet(self.offered + self.refused, self.sim.now)
                if self.target.accept(packet):
                    self.offered += 1
                else:
                    self.refused += 1
                    break
        self.sim.schedule(self.poll_interval, self._tick, chain)


# -- the parent's SR-HDLC / GBN sender (hdlc/window.py, hdlc/sender.py) ------


class SenderWindow:
    """Sender-side window state: V(A) (ack base) and V(S) (next send)."""

    def __init__(self, size: int, modulus: int) -> None:
        if size < 1:
            raise ValueError("window size must be >= 1")
        if modulus < 2 or size > modulus - 1:
            raise ValueError("window size must be < modulus")
        self.size = size
        self.modulus = modulus
        self.va = 0
        self.vs = 0

    @property
    def outstanding(self) -> int:
        """Frames sent but not cumulatively acknowledged."""
        return window_offset(self.va, self.vs, self.modulus)

    @property
    def can_send(self) -> bool:
        """True while V(S) has not exhausted the window."""
        return self.outstanding < self.size

    def next_ns(self) -> int:
        """Consume the next send sequence number."""
        if not self.can_send:
            raise RuntimeError("window exhausted")
        ns = self.vs
        self.vs = increment(self.vs, self.modulus)
        return ns

    def acknowledge(self, nr: int) -> list[int]:
        """Apply a cumulative N(R); returns the newly acked numbers.

        N(R) acknowledges every frame *before* it.  Values outside
        ``(V(A), V(S)]`` are stale or insane and are ignored (HDLC
        treats an N(R) outside that range as a protocol error; for the
        simulation we drop it and let the timeout recover).
        """
        advance = window_offset(self.va, nr, self.modulus)
        if advance == 0 or advance > self.outstanding:
            return []
        acked = [increment(self.va, self.modulus, i) for i in range(advance)]
        self.va = nr
        return acked

    def holds(self, ns: int) -> bool:
        """True if *ns* is currently outstanding (unacked and sent)."""
        return window_offset(self.va, ns, self.modulus) < self.outstanding

    def __repr__(self) -> str:
        return f"SenderWindow(va={self.va}, vs={self.vs}, size={self.size})"


@dataclass
class HdlcOutstanding:
    """Bookkeeping for one unacknowledged I-frame."""

    ns: int
    payload: Any
    enqueue_time: float
    first_send_time: float
    retransmit_count: int = 0


class HdlcSender:
    """Sender state machine for one direction of an HDLC link."""

    def __init__(
        self,
        sim: Simulator,
        config: HdlcConfig,
        data_channel: SimplexChannel,
        name: str = "hdlc.tx",
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.data_channel = data_channel
        self.name = name
        self.tracer = tracer or Tracer()

        self.window = SenderWindow(config.window_size, config.modulus)
        self._pending: deque[tuple[Any, float]] = deque()
        self._outstanding: dict[int, HdlcOutstanding] = {}
        self._retransmit_queue: deque[int] = deque()
        self._requeued: set[int] = set()
        self._poll_timer = sim.timer(self._on_poll_timeout)
        self._started = False
        self._stutter_cursor = 0

        self.data_channel.on_idle(self._maybe_send)

        # Statistics.
        self.iframes_sent = 0
        self.retransmissions = 0
        self.stutter_transmissions = 0
        self.releases = 0
        self.polls_sent = 0
        self.timeouts = 0
        self.enqueued_total = 0
        self.refused_total = 0
        self.holding_time_sum = 0.0
        self.holding_samples = 0
        self.peak_occupancy = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            raise RuntimeError("sender already started")
        self._started = True
        self._maybe_send()

    def stop(self) -> None:
        self._poll_timer.cancel()
        self._started = False

    # -- network-layer interface -------------------------------------------------

    def accept(self, packet: Any) -> bool:
        """Offer a packet; False if the sending buffer refuses it."""
        capacity = self.config.send_buffer_capacity
        if capacity is not None and self.occupancy >= capacity:
            self.refused_total += 1
            return False
        self._pending.append((packet, self.sim.now))
        self.enqueued_total += 1
        self._record_occupancy()
        self._maybe_send()
        return True

    def accept_many(self, packets: Any) -> int:
        """The loop ``accept_many`` stands for (:func:`accept_each`)."""
        return accept_each(self.accept, packets)

    @property
    def occupancy(self) -> int:
        """Sending-buffer occupancy: pending plus unacknowledged frames.

        This is the quantity Section 4 proves has *no transparent size*
        for SR-HDLC: under sustained input it grows without bound while
        the window stalls awaiting RR.
        """
        return len(self._pending) + len(self._outstanding)

    @property
    def unresolved_count(self) -> int:
        return self.occupancy

    @property
    def pending_count(self) -> int:
        """Frames awaiting *first* transmission (the drainable backlog)."""
        return len(self._pending)

    @property
    def mean_holding_time(self) -> float:
        if self.holding_samples == 0:
            return 0.0
        return self.holding_time_sum / self.holding_samples

    def held_payloads(self) -> list[Any]:
        """Every payload not yet cumulatively acknowledged.

        Pending plus outstanding — the frames a session layer must carry
        over to the next link pass if this one ends now.
        """
        payloads = [packet for packet, _ in self._pending]
        payloads.extend(record.payload for record in self._outstanding.values())
        return payloads

    # -- transmission -----------------------------------------------------------------

    def _maybe_send(self) -> None:
        if not self._started or not self.data_channel.is_idle:
            return
        if self._retransmit_queue:
            ns = self._retransmit_queue.popleft()
            self._requeued.discard(ns)
            record = self._outstanding.get(ns)
            if record is None:
                self._maybe_send()  # acked while queued; try the next one
                return
            record.retransmit_count += 1
            self.retransmissions += 1
            self._emit(record, poll=self._is_last_sendable())
            return
        if self._pending and self.window.can_send:
            packet, enqueue_time = self._pending.popleft()
            ns = self.window.next_ns()
            record = HdlcOutstanding(
                ns=ns,
                payload=packet,
                enqueue_time=enqueue_time,
                first_send_time=self.sim.now,
            )
            self._outstanding[ns] = record
            self._emit(record, poll=self._is_last_sendable())
            return
        if self.config.stutter and self._outstanding:
            # Stutter: the line would idle while the window stalls —
            # re-send unacknowledged frames round-robin instead.  No
            # Poll bit and no timer interaction: these are opportunistic
            # extra copies, not recovery actions.
            self._emit_stutter()

    def _emit_stutter(self) -> None:
        """One round-robin stutter copy of an unacknowledged frame."""
        ordered = sorted(
            self._outstanding,
            key=lambda ns: window_offset(self.window.va, ns, self.config.modulus),
        )
        cursor = self._stutter_cursor % len(ordered)
        self._stutter_cursor = cursor + 1
        record = self._outstanding[ordered[cursor]]
        frame = HdlcIFrame(
            ns=record.ns,
            payload=record.payload,
            size_bits=self.config.iframe_bits,
            poll=False,
        )
        self.data_channel.send(frame)
        self.iframes_sent += 1
        self.stutter_transmissions += 1
        self.tracer.emit(self.sim.now, self.name, "stutter_sent", ns=record.ns)

    def _is_last_sendable(self) -> bool:
        """True if no further frame can follow immediately — poll now."""
        if self._retransmit_queue:
            return False
        if self._pending and self.window.can_send:
            return False
        return True

    def _emit(self, record: HdlcOutstanding, poll: bool) -> None:
        frame = HdlcIFrame(
            ns=record.ns,
            payload=record.payload,
            size_bits=self.config.iframe_bits,
            poll=poll,
        )
        self.data_channel.send(frame)
        self.iframes_sent += 1
        self._record_occupancy()
        if poll:
            self.polls_sent += 1
            self._poll_timer.start(self.config.timeout)
        self.tracer.emit(
            self.sim.now, self.name, "iframe_sent",
            ns=record.ns, poll=poll, retx=record.retransmit_count,
        )

    # -- responses -----------------------------------------------------------------------

    def on_rr(self, frame: RrFrame, corrupted: bool) -> None:
        if corrupted:
            self.tracer.emit(self.sim.now, self.name, "rr_corrupted")
            return
        acked = self.window.acknowledge(frame.nr)
        for ns in acked:
            self._release(ns)
        if acked:
            self._record_occupancy()
        if frame.final:
            self._poll_timer.cancel()
            # The poll cycle ended but frames beyond N(R) may remain
            # unacknowledged with no SREJ coming (they were all lost in
            # one sweep).  If nothing else will trigger recovery,
            # re-poll via timeout-style retransmission of the oldest.
            nothing_sendable = not self._retransmit_queue and not (
                self._pending and self.window.can_send
            )
            if self._outstanding and nothing_sendable:
                self._poll_timer.start(self.config.timeout)
        self._maybe_send()

    def _release(self, ns: int) -> None:
        """Frame *ns* is acknowledged: drop its record, sample its holding time."""
        record = self._outstanding.pop(ns, None)
        if record is None:
            return
        held = self.sim.now - record.first_send_time
        self.releases += 1
        self.holding_time_sum += held
        self.holding_samples += 1
        self.tracer.sample(f"{self.name}.holding_time", held)

    def on_srej(self, frame: SrejFrame, corrupted: bool) -> None:
        if corrupted:
            self.tracer.emit(self.sim.now, self.name, "srej_corrupted")
            return
        for ns in frame.nrs:
            if ns in self._outstanding and ns not in self._requeued:
                self._retransmit_queue.append(ns)
                self._requeued.add(ns)
        if frame.final:
            self._poll_timer.cancel()
        self.tracer.emit(self.sim.now, self.name, "srej", count=len(frame.nrs))
        self._maybe_send()

    def on_rej(self, frame: RejFrame, corrupted: bool) -> None:
        """Go-Back-N: resend everything from N(R) in order."""
        if corrupted:
            return
        for ns in self.window.acknowledge(frame.nr):
            self._release(ns)
        # Rebuild the retransmission queue in sequence order from N(R).
        self._retransmit_queue.clear()
        self._requeued.clear()
        ordered = sorted(
            self._outstanding,
            key=lambda ns: window_offset(frame.nr, ns, self.config.modulus),
        )
        for ns in ordered:
            self._retransmit_queue.append(ns)
            self._requeued.add(ns)
        if frame.final:
            self._poll_timer.cancel()
        self._record_occupancy()
        self._maybe_send()

    # -- timeout recovery ---------------------------------------------------------------------

    def _on_poll_timeout(self) -> None:
        """No response to the poll within t_out: retransmit and re-poll."""
        if not self._outstanding:
            return
        self.timeouts += 1
        oldest = min(
            self._outstanding,
            key=lambda ns: window_offset(self.window.va, ns, self.config.modulus),
        )
        if oldest not in self._requeued:
            self._retransmit_queue.appendleft(oldest)
            self._requeued.add(oldest)
        self.tracer.emit(self.sim.now, self.name, "poll_timeout", ns=oldest)
        self._poll_timer.start(self.config.timeout)
        self._maybe_send()

    # -- instrumentation --------------------------------------------------------------------------

    def _record_occupancy(self) -> None:
        if self.occupancy > self.peak_occupancy:
            self.peak_occupancy = self.occupancy
        self.tracer.level(f"{self.name}.sendbuf", self.sim.now, self.occupancy)

    def __repr__(self) -> str:
        return (
            f"<HdlcSender {self.name} sent={self.iframes_sent} "
            f"retx={self.retransmissions} released={self.releases}>"
        )


# -- the parent's NBDT sender (nbdt/sender.py) ------------------------------


@dataclass
class NbdtOutstanding:
    """One transmitted, not-yet-acknowledged frame."""

    fid: int
    payload: Any
    first_send_time: float
    retransmit_count: int = 0
    last_send_time: float = -1.0


class NbdtSender:
    """Sender state machine for one direction of an NBDT link."""

    def __init__(
        self,
        sim: Simulator,
        config: NbdtConfig,
        data_channel: SimplexChannel,
        name: str = "nbdt.tx",
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.data_channel = data_channel
        self.name = name
        self.tracer = tracer or Tracer()

        self._pending: deque[Any] = deque()
        self._outstanding: dict[int, NbdtOutstanding] = {}
        self._retransmit_queue: deque[int] = deque()
        self._requeued: set[int] = set()
        self._next_fid = 0
        self._started = False
        self._report_timer = sim.timer(self._on_report_timeout)

        # Multiphase state: frames still owed to the current phase.
        self._phase_new_remaining = 0
        self._awaiting_report = False

        self.data_channel.on_idle(self._maybe_send)

        self.iframes_sent = 0
        self.retransmissions = 0
        self.releases = 0
        self.reports_received = 0
        self.polls_sent = 0
        self.timeouts = 0
        self.holding_time_sum = 0.0
        self.holding_samples = 0
        self.peak_occupancy = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            raise RuntimeError("sender already started")
        self._started = True
        self._begin_phase_if_idle()
        self._maybe_send()

    def stop(self) -> None:
        self._report_timer.cancel()
        self._started = False

    # -- network-layer interface -------------------------------------------------

    def accept(self, packet: Any) -> bool:
        capacity = self.config.send_buffer_capacity
        if capacity is not None and self.occupancy >= capacity:
            return False
        self._pending.append(packet)
        if self.occupancy > self.peak_occupancy:
            self.peak_occupancy = self.occupancy
        if self._started:
            self._begin_phase_if_idle()
            self._maybe_send()
        return True

    def accept_many(self, packets: Any) -> int:
        """The loop ``accept_many`` stands for (:func:`accept_each`)."""
        return accept_each(self.accept, packets)

    @property
    def occupancy(self) -> int:
        """Sender memory: pending plus everything awaiting positive ack."""
        return len(self._pending) + len(self._outstanding)

    @property
    def unresolved_count(self) -> int:
        return self.occupancy

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def mean_holding_time(self) -> float:
        if self.holding_samples == 0:
            return 0.0
        return self.holding_time_sum / self.holding_samples

    def held_payloads(self) -> list[Any]:
        payloads = list(self._pending)
        payloads.extend(record.payload for record in self._outstanding.values())
        return payloads

    # -- transmission ----------------------------------------------------------------

    def _begin_phase_if_idle(self) -> None:
        """Multiphase: open a transmission phase when nothing is owed."""
        if self.config.mode != "multiphase":
            return
        if self._awaiting_report or self._retransmit_queue or self._phase_new_remaining:
            return
        if self._pending:
            self._phase_new_remaining = len(self._pending)

    def _maybe_send(self) -> None:
        if not self._started or not self.data_channel.is_idle:
            return
        if self.config.mode == "continuous":
            self._maybe_send_continuous()
        else:
            self._maybe_send_multiphase()

    def _maybe_send_continuous(self) -> None:
        if self._retransmit_queue:
            fid = self._retransmit_queue.popleft()
            self._requeued.discard(fid)
            record = self._outstanding.get(fid)
            if record is None:
                self._maybe_send_continuous()
                return
            record.retransmit_count += 1
            self.retransmissions += 1
            self._emit(record, poll=self._nothing_else_sendable())
        elif self._pending:
            self._emit(self._admit(), poll=self._nothing_else_sendable())

    def _maybe_send_multiphase(self) -> None:
        if self._awaiting_report:
            return
        if self._retransmit_queue:
            fid = self._retransmit_queue.popleft()
            record = self._outstanding.get(fid)
            if record is None:
                self._maybe_send_multiphase()
                return
            record.retransmit_count += 1
            self.retransmissions += 1
            last = not self._retransmit_queue
            self._emit(record, poll=last)
            if last:
                self._close_phase()
        elif self._phase_new_remaining > 0 and self._pending:
            record = self._admit()
            self._phase_new_remaining -= 1
            last = self._phase_new_remaining == 0 or not self._pending
            self._emit(record, poll=last)
            if last:
                self._phase_new_remaining = 0
                self._close_phase()

    def _close_phase(self) -> None:
        self._awaiting_report = True
        self._report_timer.start(self.config.timeout)

    def _nothing_else_sendable(self) -> bool:
        return not self._retransmit_queue and not self._pending

    def _admit(self) -> NbdtOutstanding:
        payload = self._pending.popleft()
        record = NbdtOutstanding(
            fid=self._next_fid, payload=payload, first_send_time=self.sim.now
        )
        self._next_fid += 1
        self._outstanding[record.fid] = record
        return record

    def _emit(self, record: NbdtOutstanding, poll: bool) -> None:
        frame = NbdtIFrame(
            fid=record.fid,
            payload=record.payload,
            size_bits=self.config.iframe_bits,
            poll=poll,
        )
        record.last_send_time = self.sim.now
        self.data_channel.send(frame)
        self.iframes_sent += 1
        if poll:
            self.polls_sent += 1
            if self.config.mode == "continuous":
                self._report_timer.start(self.config.timeout)
        if self.occupancy > self.peak_occupancy:
            self.peak_occupancy = self.occupancy
        self.tracer.emit(
            self.sim.now, self.name, "iframe_sent", fid=record.fid, poll=poll,
        )

    # -- report handling --------------------------------------------------------------

    def on_report(self, report: NbdtReport, corrupted: bool) -> None:
        if corrupted:
            return  # the report timer recovers a lost/corrupted report
        self.reports_received += 1
        self._awaiting_report = False
        missing = set(report.missing)
        # Positive acknowledgement: everything at or below highest_seen
        # that the receiver does not list as missing.
        for fid in [f for f in self._outstanding if f <= report.highest_seen]:
            if fid in missing:
                continue
            record = self._outstanding.pop(fid)
            self.releases += 1
            self.holding_time_sum += self.sim.now - record.first_send_time
            self.holding_samples += 1
        # Retransmission work: the reported gaps.  In continuous mode a
        # gap can be re-reported while its retransmission is still in
        # flight (the report was issued before the re-sent copy could
        # arrive), so those are guarded by one timeout (>= RTT by
        # configuration).  Multiphase reports always postdate the whole
        # previous phase — every listed gap genuinely needs a re-send.
        in_flight_possible = self.config.mode == "continuous"
        for fid in sorted(missing):
            record = self._outstanding.get(fid)
            if record is None or fid in self._requeued:
                continue
            if (
                in_flight_possible
                and record.retransmit_count > 0
                and self.sim.now - record.last_send_time < self.config.timeout
            ):
                continue
            self._retransmit_queue.append(fid)
            self._requeued.add(fid)
        # Trailing losses: frames beyond the receiver's highest seen id
        # can never appear in its gap list.  Anything we sent more than
        # one timeout ago that the report does not cover was lost off
        # the tail — retransmit it.  (Freshly sent frames are protected
        # by the same guard; the next report covers them.)
        for fid in sorted(self._outstanding):
            if fid <= report.highest_seen or fid in self._requeued:
                continue
            record = self._outstanding[fid]
            if self.sim.now - record.last_send_time < self.config.timeout:
                continue
            self._retransmit_queue.append(fid)
            self._requeued.add(fid)
        if self.config.mode == "multiphase":
            self._requeued.clear()
            if not self._retransmit_queue:
                self._begin_phase_if_idle()
        if self._outstanding or self._pending:
            self._report_timer.start(self.config.timeout)
        else:
            self._report_timer.cancel()
        self.tracer.emit(
            self.sim.now, self.name, "report",
            acked=self.releases, missing=len(missing),
        )
        self._maybe_send()

    def _on_report_timeout(self) -> None:
        """No report arrived: poll again (NBDT has no failure handling)."""
        if not self._outstanding and not self._pending:
            return
        self.timeouts += 1
        self.data_channel.send(NbdtReportRequest(request_time=self.sim.now))
        self._report_timer.start(self.config.timeout)
        self.tracer.emit(self.sim.now, self.name, "report_request")

    def __repr__(self) -> str:
        return (
            f"<NbdtSender {self.name} mode={self.config.mode} "
            f"sent={self.iframes_sent} outstanding={len(self._outstanding)}>"
        )


# -- the rig -------------------------------------------------------------------


class StubChannel:
    """The channel surface the senders touch.

    Records every frame, keeps the line busy for each frame's
    serialization time and calls the idle callbacks when the last one
    has left.
    """

    def __init__(self, sim: Simulator, bit_rate: float, delay: float) -> None:
        self.sim = sim
        self.bit_rate = bit_rate
        self.delay = delay
        self.frames: list = []
        self.busy = 0
        self.idle_callbacks: list[Callable[[], None]] = []

    @property
    def is_idle(self) -> bool:
        return not self.busy

    def on_idle(self, callback: Callable[[], None]) -> None:
        self.idle_callbacks.append(callback)

    def propagation_delay(self, when: float) -> float:
        return self.delay

    def send(self, frame: Any) -> None:
        self.frames.append(frame)
        self.busy += 1
        self.sim.schedule(frame.size_bits / self.bit_rate, self._sent)

    def _sent(self) -> None:
        self.busy -= 1
        if not self.busy:
            for callback in self.idle_callbacks:
                callback()


class Side:
    """One sender on its own simulator, stub channel and tracer."""

    def __init__(self, sender_class: type, config: Any, frame_time: float) -> None:
        self.sim = Simulator()
        self.channel = StubChannel(self.sim, config.iframe_bits / frame_time, 2 * frame_time)
        self.tracer = Tracer()
        self.records: list[tuple] = []
        self.tracer.listeners.append(
            lambda r: self.records.append((r.time, r.source, r.event, r.detail))
        )
        self.sender = sender_class(self.sim, config, self.channel, tracer=self.tracer)


def sample_state(stat) -> tuple:
    return (stat.count, stat._mean, stat._m2, stat.minimum, stat.maximum)


def level_state(stat) -> tuple:
    return (stat._level, stat._last_time, stat._area, stat._start, stat.maximum)


class BaselineRig:
    """A shipped baseline sender and its reference, driven through one history.

    An I-frame takes *frame_time* to serialize and twice that to
    propagate.  With a dyadic *frame_time* (and timeout) every instant is
    exact, so "exactly one timeout after the last send" happens; with
    any other, float sums depend on their order.
    """

    def __init__(self, config: Any, frame_time: float) -> None:
        self.family = "hdlc" if isinstance(config, HdlcConfig) else "nbdt"
        shipped, reference = {
            "hdlc": (hdlc_sender.HdlcSender, HdlcSender),
            "nbdt": (nbdt_sender.NbdtSender, NbdtSender),
        }[self.family]
        self.config = config
        self.frame_time = frame_time
        self.shipped = Side(shipped, config, frame_time)
        self.reference = Side(reference, config, frame_time)
        self.offered = 0
        self.check()

    # -- steps ---------------------------------------------------------------

    def both(self, call: Callable[[Any], Any]) -> None:
        """Apply *call* to both senders: same result, or the same refusal."""
        outcomes = []
        for side in (self.shipped, self.reference):
            try:
                outcomes.append(("returned", call(side.sender)))
            except RuntimeError as exc:
                outcomes.append(("raised", str(exc)))
        assert outcomes[0] == outcomes[1]
        self.check()

    def offer(self, count: int) -> None:
        for _ in range(count):
            self.both(lambda sender, payload=self.offered: sender.accept(payload))
            self.offered += 1

    def run(self, seconds: float) -> None:
        until = self.reference.sim.now + seconds
        for side in (self.shipped, self.reference):
            side.sim.run(until=until)
        self.check()

    def expire(self) -> None:
        """Run to the armed poll / report deadline, firing the timer."""
        deadline = self.reference_timer.deadline
        if deadline is not None:
            self.run(deadline - self.reference.sim.now)

    def response(self, handler: str, frame: Any, corrupted: bool) -> None:
        self.both(lambda sender: getattr(sender, handler)(frame, corrupted))

    def stop(self) -> None:
        self.both(lambda sender: sender.stop())

    def start(self) -> None:
        self.both(lambda sender: sender.start())

    # -- what the steps read off the reference ----------------------------------

    @property
    def reference_timer(self):
        old = self.reference.sender
        return old._poll_timer if self.family == "hdlc" else old._report_timer

    def live_numbers(self) -> list[int]:
        """N(S) (HDLC) or frame ids (NBDT) of the unacknowledged frames."""
        return list(self.reference.sender._outstanding)

    # -- the comparison ------------------------------------------------------

    def check(self) -> None:
        shipped, reference = self.shipped, self.reference
        new, old = shipped.sender, reference.sender
        buffer = new.buffer
        assert shipped.sim.now == reference.sim.now
        assert shipped.channel.frames == reference.channel.frames
        assert shipped.records == reference.records
        assert new._timer.deadline == self.reference_timer.deadline
        for counter in ("iframes_sent", "retransmissions", "releases", "polls_sent",
                        "timeouts"):
            assert getattr(new, counter) == getattr(old, counter), counter
        assert buffer.holding_time_sum == old.holding_time_sum  # to the bit
        assert buffer.holding_samples == old.holding_samples
        assert buffer.peak_occupancy == old.peak_occupancy
        assert new.mean_holding_time == old.mean_holding_time
        assert new.occupancy == new.unresolved_count == old.occupancy == old.unresolved_count
        assert new.pending_count == old.pending_count
        assert new.held_payloads() == old.held_payloads()
        # One entry per column per position; the arrival column is filled.
        assert len(buffer.items) == len(buffer.arrivals) == len(buffer.first_sends) \
            == len(buffer.retx)
        assert buffer.live == len(old._outstanding)
        frames = list(buffer.outstanding_frames())
        channel = shipped.channel
        for frame in frames:
            assert frame.expected_arrival == (
                frame.first_send_time + self.config.iframe_bits / channel.bit_rate
                + channel.delay)
        gauge = shipped.tracer.levels.get(f"{new.name}.sendbuf")
        holding = shipped.tracer.samples.get(f"{new.name}.holding_time")
        assert (holding is None) == (old.releases == 0)
        if holding is not None:
            assert holding.count == old.holding_samples
        if self.family == "hdlc":
            assert new.stutter_transmissions == old.stutter_transmissions
            assert (buffer.enqueued_total, buffer.refused_total) == (
                old.enqueued_total, old.refused_total)
            # (An N(R) of M or more becomes the parent's V(A) as given.)
            modulus = buffer.space.modulus
            assert buffer.space.seq_of(buffer.base) == old.window.va % modulus
            assert buffer.space.seq_of(buffer.next_index) == old.window.vs
            assert [(f.seq, f.payload, f.enqueue_time, f.first_send_time,
                     f.retransmit_count) for f in frames] == [
                (r.ns, r.payload, r.enqueue_time, r.first_send_time, r.retransmit_count)
                for r in old._outstanding.values()]
            # The parent's gauge and samples, stat for stat.
            assert {name: sample_state(s) for name, s in shipped.tracer.samples.items()} \
                == {name: sample_state(s) for name, s in reference.tracer.samples.items()}
            assert {name: level_state(s) for name, s in shipped.tracer.levels.items()} \
                == {name: level_state(s) for name, s in reference.tracer.levels.items()}
        else:
            assert new.reports_received == old.reports_received
            assert buffer.next_index == old._next_fid
            assert len(new._last_sends) == len(buffer.items)
            assert [(f.transmit_index, f.payload, f.first_send_time, f.retransmit_count,
                     new._last_sends[f.transmit_index - buffer.base]) for f in frames] == [
                (r.fid, r.payload, r.first_send_time, r.retransmit_count, r.last_send_time)
                for r in old._outstanding.values()]
            # The gauge the parent lacked follows the parent's peak.
            assert (gauge is None) == (old.peak_occupancy == 0)
            if gauge is not None:
                assert (gauge.maximum, gauge.level) == (old.peak_occupancy, old.occupancy)
