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

Each :class:`InvariantMonitor` consumes trace records as they are
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

from ..simulator.trace import TraceRecord, Tracer

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
    """Base class: consume trace records, accumulate violations.

    Subclasses override :meth:`on_event` and :meth:`finalize` (called
    once, after the simulation has run, for end-of-run accounting like
    the zero-loss ledger).  :attr:`events` names the trace events
    :meth:`on_event` reads; the suite hands it only those records.  Left
    at ``None`` (the default), :meth:`on_event` is called for every
    record.
    """

    name = "invariant"
    events: Optional[frozenset[str]] = None

    def __init__(self) -> None:
        self.violations: list[Violation] = []
        self._suite: Optional["MonitorSuite"] = None

    # -- wiring -----------------------------------------------------------

    def bind(self, suite: "MonitorSuite") -> None:
        self._suite = suite

    def violate(self, time: float, message: str, **detail: Any) -> Violation:
        """Record one violation (annotated with the suite's context)."""
        violation = Violation(
            invariant=self.name, time=time, message=message, detail=detail,
        )
        if self._suite is not None:
            violation.trace_window = self._suite.window_snapshot(time)
            violation.context = dict(self._suite.context)
        self.violations.append(violation)
        return violation

    # -- hooks ------------------------------------------------------------

    def on_event(self, record: TraceRecord) -> None:  # pragma: no cover - override
        pass

    def finalize(self, now: float) -> None:  # pragma: no cover - override
        pass


class MonitorSuite:
    """A set of monitors attached to one simulation's tracer.

    Construction registers a single listener on *tracer* that routes
    each record to the monitors whose :attr:`InvariantMonitor.events`
    name its event (or name nothing) and keeps the last *window*
    records; a violation captures those up to its own time, formatted at
    that moment.  The monitor list is fixed at construction.  Call
    :meth:`finalize` once after the run; :attr:`violations` /
    :meth:`report` aggregate across monitors.

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
        self._window: deque[TraceRecord] = deque(maxlen=window)
        self._finalized = False
        # event -> the on_event hooks that read it, in monitor order; an
        # event no monitor names falls through to the hooks that read all.
        self._read_all = tuple(
            m.on_event for m in self.monitors if m.events is None
        )
        declared = {e for m in self.monitors for e in m.events or ()}
        self._routes = {
            event: tuple(
                m.on_event for m in self.monitors
                if m.events is None or event in m.events
            )
            for event in declared
        }
        for monitor in self.monitors:
            monitor.bind(self)
        tracer.listeners.append(self._on_record)

    # -- trace plumbing ---------------------------------------------------

    def _on_record(self, record: TraceRecord) -> None:
        self._window.append(record)
        for on_event in self._routes.get(record.event, self._read_all):
            on_event(record)

    def window_snapshot(self, until: float = math.inf) -> tuple[str, ...]:
        """The retained records up to time *until*, formatted.

        A monitor reporting from ``finalize`` stamps its violation with
        the instant the invariant broke, which the window may have left
        behind long ago; what was recorded after that instant explains
        nothing, so when nothing older is retained one line says so.
        Records are dropped from the newest end only: stamps are not
        monotone in emission order (a committed window's ``iframe_sent``
        records carry their future departure times), and a violation
        raised from ``on_event`` must keep everything emitted before the
        record that raised it.
        """
        records = list(self._window)
        while records and records[-1].time > until:
            records.pop()
        if self._window and not records:
            return (f"trace window had moved past t={until:.6f}; "
                    f"oldest retained record t={self._window[0].time:.6f}",)
        return tuple(record.format() for record in records)

    def detach(self) -> None:
        """Stop listening (accumulated violations stay readable)."""
        try:
            self.tracer.listeners.remove(self._on_record)
        except ValueError:
            pass

    # -- lifecycle --------------------------------------------------------

    def finalize(self, now: float) -> None:
        """Run every monitor's end-of-run checks (idempotent)."""
        if self._finalized:
            return
        self._finalized = True
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

    Listens to the sender's ``payload_accepted`` and the receiver's
    ``payload_delivered`` hooks; at finalize, anything accepted but
    neither delivered nor present in the suite's held-backlog snapshot
    (sender buffer + requeue + receiver's undrained queue) was *lost*.
    """

    name = "zero-loss"
    events = frozenset({"payload_accepted", "payload_delivered"})

    def __init__(self) -> None:
        super().__init__()
        self.accepted: dict[Any, Any] = {}
        self.delivered: set[Any] = set()

    def on_event(self, record: TraceRecord) -> None:
        if record.event == "payload_accepted":
            payload = record.detail.get("payload")
            self.accepted[_payload_key(payload)] = payload
        elif record.event == "payload_delivered":
            self.delivered.add(_payload_key(record.detail.get("payload")))

    def finalize(self, now: float) -> None:
        held = {_payload_key(p) for p in (self._suite.held_snapshot() if self._suite else [])}
        missing = [
            payload for key, payload in self.accepted.items()
            if key not in self.delivered and key not in held
        ]
        if missing:
            self.violate(
                now,
                f"{len(missing)} accepted payload(s) neither delivered nor "
                f"held in a reclaimable backlog",
                lost_count=len(missing),
                sample=missing[:5],
                accepted=len(self.accepted),
                delivered=len(self.delivered),
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
    extension armed), link-level ``payload_delivered`` events are
    additionally required to be duplicate-free — the "more recent
    version ... guarantees zero duplication" claim of Section 3.2.
    """

    name = "destination-ordering"

    def __init__(self, dlc_no_duplicates: bool = False) -> None:
        super().__init__()
        self.dlc_no_duplicates = dlc_no_duplicates
        self.events = frozenset(
            {"dest_deliver", "payload_delivered"} if dlc_no_duplicates
            else {"dest_deliver"}
        )
        self._next_expected: dict[Any, int] = {}
        self._dlc_delivered: set[Any] = set()

    def on_event(self, record: TraceRecord) -> None:
        if record.event == "dest_deliver":
            flow = record.detail.get("flow")
            seq = record.detail.get("seq")
            expected = self._next_expected.get(flow, 0)
            if seq != expected:
                kind = "duplicate" if seq < expected else "out-of-order/skipped"
                self.violate(
                    record.time,
                    f"destination released {kind} sequence {seq} for flow "
                    f"{flow!r} (expected {expected})",
                    flow=flow, seq=seq, expected=expected,
                )
                # Resynchronise so one fault yields one violation, not a
                # cascade for every subsequent in-order delivery.
                self._next_expected[flow] = max(seq + 1, expected)
            else:
                self._next_expected[flow] = expected + 1
        elif self.dlc_no_duplicates and record.event == "payload_delivered":
            key = _payload_key(record.detail.get("payload"))
            if key in self._dlc_delivered:
                self.violate(
                    record.time,
                    "zero-duplication receiver delivered the same payload twice",
                    payload=record.detail.get("payload"),
                )
            else:
                self._dlc_delivered.add(key)


class ReceiverQueueBoundMonitor(InvariantMonitor):
    """The receiver's resequencing/receive queue stays bounded.

    The paper's receive-buffer argument (Sections 3.1/3.4): with the
    DCE processing frames faster than the line serialises them
    (``t_proc < t_f``), arrivals are spaced at least one frame time
    apart, so the queue never builds beyond transient bursts plus the
    Stop-Go watermark.  An explicit ``receive_queue_capacity`` takes
    precedence as the bound when configured.

    Checked live on ``rxqueue_level`` hook events and once more against
    the tracer's time-weighted maxima at finalize.
    """

    name = "receiver-queue-bound"
    events = frozenset({"rxqueue_level"})

    def __init__(self, bound: float) -> None:
        super().__init__()
        self.bound = bound
        self._tripped: set[str] = set()

    def on_event(self, record: TraceRecord) -> None:
        if record.event != "rxqueue_level":
            return
        depth = record.detail.get("depth", 0)
        if depth > self.bound and record.source not in self._tripped:
            self._tripped.add(record.source)
            self.violate(
                record.time,
                f"receive queue {record.source} reached {depth} frames, "
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

    When ``send_buffer_capacity`` is configured, the send-buffer
    occupancy maximum is additionally checked at finalize.
    """

    name = "holding-time-bound"
    events = frozenset({"iframe_released"})

    def __init__(
        self,
        resolving_period: float,
        fault_windows: Sequence[tuple[float, float]] = (),
        guard: float = 0.0,
        send_buffer_capacity: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.resolving_period = resolving_period
        self.fault_windows = list(fault_windows)
        self.guard = guard
        self.send_buffer_capacity = send_buffer_capacity

    def _fault_overlap(self, start: float, end: float) -> float:
        total = 0.0
        for w_start, w_end in self.fault_windows:
            total += max(0.0, min(end, w_end) - max(start, w_start))
        return total

    def on_event(self, record: TraceRecord) -> None:
        if record.event != "iframe_released":
            return
        holding = record.detail.get("holding", 0.0)
        retx = record.detail.get("retx", 0)
        start = record.time - holding
        allowance = (
            (retx + 1) * self.resolving_period
            + self._fault_overlap(start, record.time)
            + self.guard
        )
        if holding > allowance:
            self.violate(
                record.time,
                f"frame seq={record.detail.get('seq')} held {holding:.6f}s, "
                f"above the allowance {allowance:.6f}s "
                f"({retx} retransmission(s))",
                holding=holding, allowance=allowance, retx=retx,
                seq=record.detail.get("seq"),
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
    events = frozenset({"error_logged", "checkpoint_sent"})

    def __init__(self, cumulation_depth: int) -> None:
        super().__init__()
        self.cumulation_depth = cumulation_depth
        # receiver source -> seq -> [remaining reports, detect time]
        self._pending: dict[str, dict[int, list[float]]] = {}

    def on_event(self, record: TraceRecord) -> None:
        if record.event == "error_logged":
            self._pending.setdefault(record.source, {}).setdefault(
                record.detail["seq"],
                [float(self.cumulation_depth), record.time],
            )
        elif record.event == "checkpoint_sent" and not record.detail.get("enforced"):
            seqs = record.detail.get("seqs")
            pending = self._pending.get(record.source)
            if seqs is None or not pending:
                return
            listed = set(seqs)
            for seq in list(pending):
                remaining, detected = pending[seq]
                if detected >= record.time:
                    continue  # logged at/after issue; next checkpoint covers it
                if seq not in listed:
                    self.violate(
                        record.time,
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
    events = frozenset({
        "checkpoint_timeout", "request_nak_sent",
        "enforced_recovery_complete", "link_failure_declared",
    })

    def __init__(
        self,
        silence_windows: Sequence[tuple[float, float]],
        risk_windows: Sequence[tuple[float, float]],
        detection_bound: float,
        declared_bound: float,
        guard: float,
    ) -> None:
        super().__init__()
        self.silence_windows = merge_windows(silence_windows)
        self.risk_windows = merge_windows(risk_windows)
        self.detection_bound = detection_bound
        self.declared_bound = declared_bound
        self.guard = guard
        self._state_timeline: list[tuple[float, str]] = [(-math.inf, "normal")]
        self._timeouts: list[float] = []
        self._failures: list[float] = []

    # -- event intake -----------------------------------------------------

    def on_event(self, record: TraceRecord) -> None:
        event = record.event
        if event == "checkpoint_timeout":
            self._timeouts.append(record.time)
        elif event == "request_nak_sent":
            self._note_state(record.time, "suspected")
        elif event == "enforced_recovery_complete":
            self._note_state(record.time, "normal")
        elif event == "link_failure_declared":
            self._failures.append(record.time)
            self._note_state(record.time, "failed")
            if not any(
                start <= record.time <= end + self.declared_bound + self.guard
                for start, end in self.risk_windows
            ):
                self.violate(
                    record.time,
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
