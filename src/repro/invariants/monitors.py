"""Online invariant monitors over the simulation trace stream.

The paper states LAMS-DLC's guarantees as *invariants* — zero loss
across recovery (Section 3.2/3.3), no duplicate delivery past the
destination resequencer (Section 2.3), bounded receiver buffering
(Section 3.4), cumulative-NAK coverage of the last ``C_depth``
checkpoint intervals (Section 3.2), a bounded frame holding time
(Section 3.3), and the Section 3.2 detection / declared-failure
latency bounds.  The curated tests check these pointwise; this module
checks them *continuously*, on any simulation, by listening to the
shared :class:`~repro.simulator.trace.Tracer`.

Each :class:`InvariantMonitor` consumes trace events as they are
emitted and records :class:`Violation` objects the moment an invariant
breaks — with the recent trace window attached, so a violation from a
randomized chaos episode is immediately debuggable and reproducible
from its seed (see :mod:`repro.chaos`).

Monitors never raise into the simulation: a violation is data, not an
exception, so one broken invariant cannot mask another.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

from ..simulator.trace import Entry, Hook, Router, TraceRecord, Tracer

__all__ = [
    "Violation",
    "InvariantMonitor",
    "MonitorSuite",
    "ZeroLossLedger",
    "DestinationOrderingMonitor",
    "ReceiverQueueBoundMonitor",
    "HoldingTimeBoundMonitor",
    "CheckpointCoverageMonitor",
    "FailureLatencyMonitor",
]


@dataclass
class Violation:
    """One observed breach of a protocol invariant."""

    invariant: str
    time: float
    message: str
    detail: dict[str, Any] = field(default_factory=dict)
    trace_window: tuple[str, ...] = ()
    context: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """Plain-data form (JSON-safe) for soak results and caches."""
        return {
            "invariant": self.invariant,
            "time": self.time,
            "message": self.message,
            "detail": {k: repr(v) for k, v in self.detail.items()},
            "trace_window": list(self.trace_window),
            "context": {k: repr(v) for k, v in self.context.items()},
        }

    def format(self) -> str:
        """Multi-line human-readable report for one violation."""
        lines = [f"INVARIANT VIOLATION [{self.invariant}] at t={self.time:.6f}"]
        lines.append(f"  {self.message}")
        for key, value in sorted(self.detail.items()):
            lines.append(f"  {key} = {value!r}")
        if self.context:
            ctx = " ".join(f"{k}={v}" for k, v in sorted(self.context.items()))
            lines.append(f"  context: {ctx}")
        if self.trace_window:
            lines.append("  trace window (most recent last):")
            for entry in self.trace_window:
                lines.append(f"    {entry}")
        return "\n".join(lines)


class InvariantMonitor:
    """Base class: consume trace events, accumulate violations.

    A subclass passes its per-event *handlers* up — ``event →
    handler(entry)``, where an entry is the raw ``(time, source, event,
    detail)`` — and :attr:`events` is derived from them; the suite calls
    each handler for its own event only.  A monitor that reads every
    record overrides :meth:`on_event` instead and leaves :attr:`events`
    at ``None`` (or names the events its :meth:`on_event` reads).
    :meth:`finalize` is called once, after the simulation has run, for
    end-of-run accounting like the zero-loss ledger.
    """

    name = "invariant"
    events: Optional[frozenset[str]] = None

    def __init__(self, handlers: Optional[dict[str, Hook]] = None) -> None:
        self.violations: list[Violation] = []
        self._suite: Optional["MonitorSuite"] = None
        self.handlers: dict[str, Hook] = dict(handlers or {})
        if self.handlers:
            self.events = frozenset(self.handlers)

    # -- wiring -----------------------------------------------------------

    def bind(self, suite: "MonitorSuite") -> None:
        self._suite = suite

    def violate(self, time: float, message: str, **detail: Any) -> Violation:
        """Record one violation (annotated with the suite's context).

        The tracer is settled first, so the window shows the arrivals
        and drains held back when the invariant broke; raised from a
        handler, they follow the entry that raised it.
        """
        violation = Violation(
            invariant=self.name, time=time, message=message, detail=detail,
        )
        if self._suite is not None:
            self._suite.tracer.settle()
            violation.trace_window = self._suite.window_snapshot(time)
            violation.context = dict(self._suite.context)
        self.violations.append(violation)
        return violation

    # -- hooks ------------------------------------------------------------

    def on_event(self, record: TraceRecord) -> None:
        """Hand *record* to the handler for its event, if there is one."""
        handler = self.handlers.get(record.event)
        if handler is not None:
            handler((record.time, record.source, record.event, record.detail))

    def _hook(self, event: Optional[str]) -> Hook:
        """What the suite calls for *event*: its handler, or else
        :meth:`on_event` with a record built from the entry."""
        handler = self.handlers.get(event)
        if handler is not None:
            return handler
        on_event = self.on_event
        return lambda entry: on_event(TraceRecord(*entry))

    def finalize(self, now: float) -> None:  # pragma: no cover - override
        pass


class MonitorSuite(Router):
    """A set of monitors attached to one simulation's tracer.

    Construction attaches the suite to *tracer* as its one listener, a
    :class:`~repro.simulator.trace.Router`: every event's hooks are an
    append of the raw entry to the last-*window* window plus the hook of
    each monitor whose :attr:`InvariantMonitor.events` name it (or name
    nothing).  A violation captures the window up to its own time,
    formatted at that moment.  The monitor list is fixed at
    construction.  Call :meth:`finalize` once after the run;
    :attr:`violations` / :meth:`report` aggregate across monitors.

    *context* carries the reproducer identity (seed, scenario name,
    fault-plan name, episode index); it is stamped onto every
    violation so a failing chaos episode names its own repro command.
    """

    def __init__(
        self,
        tracer: Tracer,
        monitors: Sequence[InvariantMonitor],
        context: Optional[dict[str, Any]] = None,
        window: int = 40,
        held_snapshot: Optional[Callable[[], list[Any]]] = None,
    ) -> None:
        self.tracer = tracer
        self.monitors = list(monitors)
        self.context = dict(context or {})
        self.held_snapshot = held_snapshot or (lambda: [])
        self._window: deque[Entry] = deque(maxlen=window)
        self._finalized = False
        # Every event goes to the window first; one no monitor names goes
        # only to the monitors that read everything after that.
        keep = self._window.append
        declared = {e for m in self.monitors for e in m.events or ()}
        self.routes = {
            event: (keep, *(m._hook(event) for m in self.monitors
                            if m.events is None or event in m.events))
            for event in declared
        }
        self.unrouted = (keep, *(m._hook(None) for m in self.monitors
                                 if m.events is None))
        for monitor in self.monitors:
            monitor.bind(self)
        tracer.listeners.append(self)

    # -- trace plumbing ---------------------------------------------------

    def window_snapshot(self, until: float = math.inf) -> tuple[str, ...]:
        """The retained entries up to time *until*, formatted as records.

        A monitor reporting from ``finalize`` stamps its violation with
        the instant the invariant broke, which the window may have left
        behind long ago; what was recorded after that instant explains
        nothing, so when nothing older is retained one line says so.
        Records are dropped from the newest end only: nothing makes a
        source stamp its records in emission order, and a violation
        raised from a handler must keep everything emitted before the
        entry that raised it.
        """
        entries = list(self._window)
        while entries and entries[-1][0] > until:
            entries.pop()
        if self._window and not entries:
            return (f"trace window had moved past t={until:.6f}; "
                    f"oldest retained record t={self._window[0][0]:.6f}",)
        return tuple(TraceRecord(*entry).format() for entry in entries)

    def detach(self) -> None:
        """Stop listening (accumulated violations stay readable)."""
        try:
            self.tracer.listeners.remove(self)
        except ValueError:
            pass

    # -- lifecycle --------------------------------------------------------

    def finalize(self, now: float) -> None:
        """Settle the tracer, then run every monitor's end-of-run checks
        (idempotent)."""
        if self._finalized:
            return
        self._finalized = True
        self.tracer.settle()
        for monitor in self.monitors:
            monitor.finalize(now)
        self.detach()

    # -- results ----------------------------------------------------------

    @property
    def violations(self) -> list[Violation]:
        result: list[Violation] = []
        for monitor in self.monitors:
            result.extend(monitor.violations)
        result.sort(key=lambda v: v.time)
        return result

    @property
    def ok(self) -> bool:
        return not any(monitor.violations for monitor in self.monitors)

    def report(self) -> str:
        """All violations as one printable block ('all invariants held'
        when clean)."""
        violations = self.violations
        if not violations:
            return "all invariants held"
        return "\n\n".join(v.format() for v in violations)

    def summary(self) -> dict[str, int]:
        """Violation counts per monitor (zero entries included)."""
        return {m.name: len(m.violations) for m in self.monitors}

    def __repr__(self) -> str:
        return (
            f"<MonitorSuite monitors={len(self.monitors)} "
            f"violations={len(self.violations)}>"
        )


_NOTHING = object()


def _payload_key(payload: Any) -> Any:
    """A hashable identity for a payload (repr fallback)."""
    try:
        hash(payload)
    except TypeError:
        return repr(payload)
    return payload


class ZeroLossLedger(InvariantMonitor):
    """Every accepted payload is delivered or held in a reclaimable
    backlog — the paper's zero-loss guarantee (Sections 3.2-3.3).

    Listens to the sender's ``payloads_accepted`` (one record per
    stretch of packets accepted together) and the receiver's
    ``payloads_delivered`` (one per checkpoint interval's drains) and
    keeps only what is in flight, copy
    by copy: a value accepted twice is owed twice, a delivery takes one
    copy off the ledger, and a delivery of a value owed nothing (a DLC
    duplicate) is ignored.  A ``backlog_reclaimed`` record listing the
    ``payloads`` a torn-down sender handed back makes the next
    acceptance of each one still owed the same copy, not another.  At
    finalize, every copy still on the ledger and not matched by a copy
    in the suite's held-backlog snapshot
    (sender buffer + requeue + receiver's undrained queue) was *lost*.
    Payloads are told apart by value, so a lost copy whose twin was
    delivered twice goes unseen (docs/INVARIANTS.md).
    :attr:`accepted` / :attr:`delivered` count payloads.
    """

    name = "zero-loss"

    def __init__(self) -> None:
        super().__init__({
            "payloads_accepted": self._on_accepted,
            "payloads_delivered": self._on_delivered,
            "backlog_reclaimed": self._on_reclaimed,
        })
        self.accepted = 0
        self.delivered = 0
        # key -> payload for every value owed at least once, and key ->
        # further copies owed for the few values accepted again while
        # in flight; the dict operation itself hashes the payload.
        self._in_flight: dict[Any, Any] = {}
        self._copies: dict[Any, int] = {}
        self._reclaimed: dict[Any, int] = {}  # key -> re-acceptances due

    def _on_accepted(self, entry: Entry) -> None:
        payloads = entry[3].get("payloads", ())
        in_flight, copies, reclaimed = self._in_flight, self._copies, self._reclaimed
        for payload in payloads:
            owed = len(in_flight)
            try:
                in_flight.setdefault(payload, payload)
                key = payload
            except TypeError:
                key = repr(payload)
                in_flight.setdefault(key, payload)
            if len(in_flight) == owed:
                due = reclaimed.pop(key, 0)
                if due:
                    if due > 1:
                        reclaimed[key] = due - 1
                else:
                    copies[key] = copies.get(key, 0) + 1
        self.accepted += len(payloads)

    def _on_delivered(self, entry: Entry) -> None:
        payloads = entry[3].get("payloads", ())
        in_flight, copies, reclaimed = self._in_flight, self._copies, self._reclaimed
        for payload in payloads:
            try:
                owed = in_flight.pop(payload, _NOTHING)
                key = payload
            except TypeError:
                key = repr(payload)
                owed = in_flight.pop(key, _NOTHING)
            if owed is not _NOTHING:
                if copies and key in copies:
                    in_flight[key] = owed
                    left = copies[key] - 1
                    if left:
                        copies[key] = left
                    else:
                        del copies[key]
                elif reclaimed:
                    reclaimed.pop(key, None)  # owed nothing now
        self.delivered += len(payloads)

    def _on_reclaimed(self, entry: Entry) -> None:
        for payload in entry[3].get("payloads", ()):
            key = _payload_key(payload)
            due = self._reclaimed.get(key, 0)
            if key in self._in_flight and due <= self._copies.get(key, 0):
                self._reclaimed[key] = due + 1

    def finalize(self, now: float) -> None:
        held: dict[Any, int] = {}
        for payload in self._suite.held_snapshot() if self._suite else []:
            key = _payload_key(payload)
            held[key] = held.get(key, 0) + 1
        missing = [
            payload for key, payload in self._in_flight.items()
            for _ in range(1 + self._copies.get(key, 0) - held.get(key, 0))
        ]
        if missing:
            self.violate(
                now,
                f"{len(missing)} accepted payload(s) neither delivered nor "
                f"held in a reclaimable backlog",
                lost_count=len(missing),
                sample=missing[:5],
                accepted=self.accepted,
                delivered=self.delivered,
                held=len(held),
            )


class DestinationOrderingMonitor(InvariantMonitor):
    """Past the destination resequencer, delivery is duplicate-free and
    in per-flow order (Section 2.3).

    Consumes ``dest_deliver`` events (emitted by a
    :class:`~repro.netlayer.resequencer.Resequencer` constructed with a
    tracer): each flow's released sequence numbers must be exactly
    0, 1, 2, ... with no repeats and no skips.

    With *dlc_no_duplicates* set (the receiver's ``zero_duplication``
    extension armed), the payloads of link-level ``payloads_delivered``
    records are additionally required to be duplicate-free — the "more
    recent version ... guarantees zero duplication" claim of Section
    3.2 — and a duplicate is reported at its own delivery time.
    """

    name = "destination-ordering"

    def __init__(self, dlc_no_duplicates: bool = False) -> None:
        handlers = {"dest_deliver": self._on_dest_deliver}
        if dlc_no_duplicates:
            handlers["payloads_delivered"] = self._on_payloads_delivered
        super().__init__(handlers)
        self.dlc_no_duplicates = dlc_no_duplicates
        self._next_expected: dict[Any, int] = {}
        self._dlc_delivered: set[Any] = set()

    def _on_dest_deliver(self, entry: Entry) -> None:
        time, _, _, detail = entry
        flow = detail.get("flow")
        seq = detail.get("seq")
        expected = self._next_expected.get(flow, 0)
        if seq != expected:
            kind = "duplicate" if seq < expected else "out-of-order/skipped"
            self.violate(
                time,
                f"destination released {kind} sequence {seq} for flow "
                f"{flow!r} (expected {expected})",
                flow=flow, seq=seq, expected=expected,
            )
            # Resynchronise so one fault yields one violation, not a
            # cascade for every subsequent in-order delivery.
            self._next_expected[flow] = max(seq + 1, expected)
        else:
            self._next_expected[flow] = expected + 1

    def _on_payloads_delivered(self, entry: Entry) -> None:
        detail = entry[3]
        delivered = self._dlc_delivered
        for time, payload in zip(detail["times"], detail["payloads"]):
            key = _payload_key(payload)
            if key in delivered:
                self.violate(
                    time,
                    "zero-duplication receiver delivered the same payload twice",
                    payload=payload,
                )
            else:
                delivered.add(key)


class ReceiverQueueBoundMonitor(InvariantMonitor):
    """The receiver's resequencing/receive queue stays bounded.

    The paper's receive-buffer argument (Sections 3.1/3.4): with the
    DCE processing frames faster than the line serialises them
    (``t_proc < t_f``), arrivals are spaced at least one frame time
    apart, so the queue never builds beyond transient bursts plus the
    Stop-Go watermark.  An explicit ``receive_queue_capacity`` takes
    precedence as the bound when configured.

    Checked live on ``rxqueue_peak`` hook events — the receiver reports
    each depth above its queue's maximum so far, and the first depth
    above any bound is one of them — and once more against the tracer's
    time-weighted maxima at finalize.
    """

    name = "receiver-queue-bound"

    def __init__(self, bound: float) -> None:
        super().__init__({"rxqueue_peak": self._on_rxqueue_peak})
        self.bound = bound
        self._tripped: set[str] = set()

    def _on_rxqueue_peak(self, entry: Entry) -> None:
        depth = entry[3].get("depth", 0)
        if depth > self.bound and entry[1] not in self._tripped:
            time, source, _, _ = entry
            self._tripped.add(source)
            self.violate(
                time,
                f"receive queue {source} reached {depth} frames, "
                f"above the bound {self.bound:g}",
                depth=depth, bound=self.bound,
            )

    def finalize(self, now: float) -> None:
        if self._suite is None:
            return
        for name, stat in self._suite.tracer.levels.items():
            if name.endswith(".rxqueue") and stat.maximum > self.bound:
                source = name.rsplit(".", 1)[0]
                if source not in self._tripped:
                    self._tripped.add(source)
                    self.violate(
                        now,
                        f"receive queue {name} peaked at {stat.maximum:g} "
                        f"frames, above the bound {self.bound:g}",
                        peak=stat.maximum, bound=self.bound,
                    )


class HoldingTimeBoundMonitor(InvariantMonitor):
    """Sender holding time and buffer occupancy stay bounded.

    Section 3.3 bounds how long one transmission of an I-frame can
    remain unresolved by the resolving period ``R + W_cp/2 +
    C_depth*W_cp``; a frame retransmitted *k* times is therefore held
    at most ``(k+1)`` resolving periods in fault-free operation.  The
    monitor is fault-aware: any overlap between the frame's lifetime
    and a fault window (padded by the declared-failure budget, during
    which recovery is legitimately stalled) extends the allowance.

    Reads the sender's ``iframes_released`` records, one per release:
    a frame held within its fault-free allowance ``(retx+1)*R + guard``
    is cleared there, and only one above it has its fault overlap
    summed.

    When ``send_buffer_capacity`` is configured, the send-buffer
    occupancy maximum is additionally checked at finalize.
    """

    name = "holding-time-bound"

    def __init__(
        self,
        resolving_period: float,
        fault_windows: Sequence[tuple[float, float]] = (),
        guard: float = 0.0,
        send_buffer_capacity: Optional[int] = None,
    ) -> None:
        super().__init__({"iframes_released": self._on_iframes_released})
        self.resolving_period = resolving_period
        self.fault_windows = list(fault_windows)
        self.guard = guard
        self.send_buffer_capacity = send_buffer_capacity

    def _fault_overlap(self, start: float, end: float) -> float:
        total = 0.0
        for w_start, w_end in self.fault_windows:
            total += max(0.0, min(end, w_end) - max(start, w_start))
        return total

    def _on_iframes_released(self, entry: Entry) -> None:
        time, _, _, detail = entry
        holdings = detail["holdings"]
        period, guard = self.resolving_period, self.guard
        # Every allowance is at least R + guard (rounding is monotone).
        if max(holdings, default=0.0) <= period + guard:
            return
        for seq, holding, retx in zip(detail["seqs"], holdings, detail["retx"]):
            if holding > (retx + 1) * period + guard:
                self._check(time, seq, holding, retx)

    def _check(self, time: float, seq: int, holding: float, retx: int) -> None:
        """One frame over its fault-free allowance: add its fault overlap."""
        allowance = (
            (retx + 1) * self.resolving_period
            + self._fault_overlap(time - holding, time)
            + self.guard
        )
        if holding > allowance:
            self.violate(
                time,
                f"frame seq={seq} held {holding:.6f}s, "
                f"above the allowance {allowance:.6f}s "
                f"({retx} retransmission(s))",
                holding=holding, allowance=allowance, retx=retx, seq=seq,
            )

    def finalize(self, now: float) -> None:
        if self.send_buffer_capacity is None or self._suite is None:
            return
        for name, stat in self._suite.tracer.levels.items():
            if name.endswith(".sendbuf") and stat.maximum > self.send_buffer_capacity:
                self.violate(
                    now,
                    f"send buffer {name} peaked at {stat.maximum:g} frames, "
                    f"above its capacity {self.send_buffer_capacity}",
                    peak=stat.maximum, capacity=self.send_buffer_capacity,
                )


class CheckpointCoverageMonitor(InvariantMonitor):
    """Every logged error rides the next ``C_depth`` periodic
    checkpoints' cumulative NAK list (Section 3.2).

    Listens to the receiver's ``error_logged`` hook and the NAK
    sequence list on ``checkpoint_sent`` events; an error detected
    before a periodic checkpoint's issue time must appear in that
    checkpoint's list until it has been reported ``C_depth`` times.
    Enforced-NAKs are extra reports and do not consume coverage,
    matching the receiver's cumulation accounting.
    """

    name = "checkpoint-coverage"

    def __init__(self, cumulation_depth: int) -> None:
        super().__init__({
            "error_logged": self._on_error_logged,
            "checkpoint_sent": self._on_checkpoint_sent,
        })
        self.cumulation_depth = cumulation_depth
        # receiver source -> seq -> [remaining reports, detect time]
        self._pending: dict[str, dict[int, list[float]]] = {}

    def _on_error_logged(self, entry: Entry) -> None:
        time, source, _, detail = entry
        self._pending.setdefault(source, {}).setdefault(
            detail["seq"], [float(self.cumulation_depth), time],
        )

    def _on_checkpoint_sent(self, entry: Entry) -> None:
        time, source, _, detail = entry
        if detail.get("enforced"):
            return
        seqs = detail.get("seqs")
        pending = self._pending.get(source)
        if seqs is None or not pending:
            return
        listed = set(seqs)
        for seq in list(pending):
            remaining, detected = pending[seq]
            if detected >= time:
                continue  # logged at/after issue; next checkpoint covers it
            if seq not in listed:
                self.violate(
                    time,
                    f"error seq={seq} (detected t={detected:.6f}) missing "
                    f"from cumulative NAK with {int(remaining)} of "
                    f"{self.cumulation_depth} reports outstanding",
                    seq=seq, detected=detected,
                    remaining=int(remaining), listed=len(listed),
                )
                del pending[seq]  # report once, not per checkpoint
                continue
            remaining -= 1
            if remaining <= 0:
                del pending[seq]
            else:
                pending[seq][0] = remaining


def merge_windows(windows: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """Merge overlapping/adjacent ``(start, end)`` intervals."""
    ordered = sorted(w for w in windows if w[1] > w[0])
    merged: list[tuple[float, float]] = []
    for start, end in ordered:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


class FailureLatencyMonitor(InvariantMonitor):
    """Section 3.2 detection / declared-failure latency bounds, aware
    of the run's :class:`~repro.faults.plan.FaultPlan` timeline.

    Three checks:

    - **detection** — a checkpoint-silence window (an outage or
      blackout cutting the feedback direction, or deterministic
      control corruption) longer than the detection bound must trip
      the sender's ``C_depth * W_cp`` watchdog within the bound (plus
      an in-flight guard) of the silence starting.
    - **declared failure** — silence longer than the declared-failure
      budget must produce ``link_failure_declared`` within that budget.
    - **no spurious failure** — a failure declaration with no
      checkpoint-threatening fault window in the preceding budget is a
      protocol bug (the paper's detection is *sound*: only genuine
      feedback loss can exhaust the probe budget).

    Both latency checks only apply when the sender was in normal
    operation when the silence began (an already-suspected sender's
    watchdog is deliberately quiet).
    """

    name = "failure-latency"

    def __init__(
        self,
        silence_windows: Sequence[tuple[float, float]],
        risk_windows: Sequence[tuple[float, float]],
        detection_bound: float,
        declared_bound: float,
        guard: float,
    ) -> None:
        super().__init__({
            "checkpoint_timeout": lambda entry: self._timeouts.append(entry[0]),
            "request_nak_sent": lambda entry: self._note_state(entry[0], "suspected"),
            "enforced_recovery_complete":
                lambda entry: self._note_state(entry[0], "normal"),
            "link_failure_declared": self._on_failure_declared,
        })
        self.silence_windows = merge_windows(silence_windows)
        self.risk_windows = merge_windows(risk_windows)
        self.detection_bound = detection_bound
        self.declared_bound = declared_bound
        self.guard = guard
        self._state_timeline: list[tuple[float, str]] = [(-math.inf, "normal")]
        self._timeouts: list[float] = []
        self._failures: list[float] = []

    # -- event intake -----------------------------------------------------

    def _on_failure_declared(self, entry: Entry) -> None:
        time = entry[0]
        self._failures.append(time)
        self._note_state(time, "failed")
        if not any(
            start <= time <= end + self.declared_bound + self.guard
            for start, end in self.risk_windows
        ):
            self.violate(
                time,
                "link failure declared with no checkpoint-threatening "
                "fault window inside the preceding failure budget",
                declared_bound=self.declared_bound,
                risk_windows=self.risk_windows,
            )

    def _note_state(self, time: float, state: str) -> None:
        self._state_timeline.append((time, state))

    def _state_at(self, time: float) -> str:
        state = "normal"
        for when, name in self._state_timeline:
            if when >= time:
                break
            state = name
        return state

    # -- end-of-run latency checks ---------------------------------------

    def finalize(self, now: float) -> None:
        for start, end in self.silence_windows:
            if self._state_at(start) != "normal":
                continue
            detect_deadline = start + self.detection_bound + self.guard
            if end > detect_deadline and now > detect_deadline:
                if not any(start <= t <= detect_deadline for t in self._timeouts):
                    self.violate(
                        detect_deadline,
                        f"no checkpoint timeout within the detection bound "
                        f"{self.detection_bound:.6f}s (+{self.guard:.6f}s guard) "
                        f"of checkpoint silence starting at t={start:.6f}",
                        silence_start=start, silence_end=end,
                        detection_bound=self.detection_bound,
                    )
            fail_deadline = start + self.declared_bound + self.guard
            if end > fail_deadline and now > fail_deadline:
                if not any(start <= t <= fail_deadline for t in self._failures):
                    self.violate(
                        fail_deadline,
                        f"no declared failure within the failure budget "
                        f"{self.declared_bound:.6f}s (+{self.guard:.6f}s guard) "
                        f"of checkpoint silence starting at t={start:.6f}",
                        silence_start=start, silence_end=end,
                        declared_bound=self.declared_bound,
                    )
