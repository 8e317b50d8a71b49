"""A differential oracle for :meth:`repro.simulator.trace.Tracer.emit`.

:class:`ReferenceTracer` is how ``Tracer.emit`` dispatched before
listeners could publish routes: while active, one :class:`TraceRecord`
per emit, appended to the timeline, then every listener called with it
in attach order.  The two routed listeners are kept here as that
tracer's record-fed listeners:

- :class:`ReferenceSuite` is ``MonitorSuite`` as one listener: every
  record goes into a window of the last 40 and to ``on_event`` of each
  monitor that reads its event; the window is formatted for a violation.
- :class:`ReferenceRecoveryMetrics` is ``RecoveryMetrics`` dispatching
  each record on its event, and reading a ``frames_delivered`` run one
  arrival at a time, as it read the per-frame ``deliver`` record.

They live here, and only here, as what the route table must agree with.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Optional

from repro.faults.metrics import _CUTTING_KINDS, _REACTIONS, OutageRecord
from repro.simulator.trace import TraceRecord


class ReferenceTracer:
    """One record per emit, every listener in attach order."""

    def __init__(self, record_timeline: bool = False) -> None:
        self.record_timeline = record_timeline
        self.records: list[TraceRecord] = []
        self.listeners: list[Any] = []

    @property
    def active(self) -> bool:
        return self.record_timeline or bool(self.listeners)

    def emit(self, time: float, source: str, event: str, **detail: Any) -> None:
        if not self.active:
            return
        record = TraceRecord(time, source, event, detail)
        if self.record_timeline:
            self.records.append(record)
        for listener in self.listeners:
            listener(record)

    def settle(self) -> None:
        """Nothing is held back: every record went out as it was emitted."""


class ReferenceSuite:
    """The monitor suite as one record listener."""

    def __init__(self, tracer: ReferenceTracer, monitors: list, window: int = 40,
                 context: Optional[dict[str, Any]] = None) -> None:
        self.tracer = tracer
        self.monitors = list(monitors)
        self.context = dict(context or {})
        self._window: deque[TraceRecord] = deque(maxlen=window)
        for monitor in self.monitors:
            monitor.bind(self)
        tracer.listeners.append(self)

    def __call__(self, record: TraceRecord) -> None:
        self._window.append(record)
        for monitor in self.monitors:
            if monitor.events is None or record.event in monitor.events:
                monitor.on_event(record)

    def window_snapshot(self, until: float = math.inf) -> tuple[str, ...]:
        records = list(self._window)
        while records and records[-1].time > until:
            records.pop()
        if self._window and not records:
            return (f"trace window had moved past t={until:.6f}; "
                    f"oldest retained record t={self._window[0].time:.6f}",)
        return tuple(record.format() for record in records)

    def detach(self) -> None:
        self.tracer.listeners.remove(self)


class ReferenceRecoveryMetrics:
    """``RecoveryMetrics`` fed records: a handler per event it reads."""

    def __init__(self, tracer: ReferenceTracer) -> None:
        self.tracer = tracer
        self.outages: list[OutageRecord] = []
        self.request_naks = 0
        self.enforced_naks = 0
        self.recoveries = 0
        self.failures_declared = 0
        self.frames_lost_total = 0
        self._open: dict[tuple[str, int], OutageRecord] = {}
        tracer.listeners.append(self)

    def detach(self) -> None:
        self.tracer.listeners.remove(self)

    def __call__(self, record: TraceRecord) -> None:
        event = record.event
        if event in ("fault_start", "fault_end"):
            self._on_fault(record)
        elif event == "frame_lost_outage":
            self.frames_lost_total += 1
            for outage in self._open.values():
                outage.frames_lost += 1
        elif event == "frames_delivered":
            for time in record.detail["times"]:  # a run, frame by frame
                self._on_deliver(time, record.detail)
        elif event in _REACTIONS:
            self._on_reaction(record)

    def _on_fault(self, record: TraceRecord) -> None:
        if record.source != "faults":
            return
        kind = record.detail.get("kind")
        if kind not in _CUTTING_KINDS:
            return
        index = record.detail["index"]
        if record.event == "fault_start":
            outage = OutageRecord(
                index=index, kind=kind, start=record.time,
                direction=record.detail.get("direction", "both"),
            )
            self.outages.append(outage)
            self._open[(kind, index)] = outage
        else:
            outage = self._open.pop((kind, index), None)
            if outage is not None:
                outage.end = record.time

    def _on_reaction(self, record: TraceRecord) -> None:
        counter, latency = _REACTIONS[record.event]
        if counter is not None:
            setattr(self, counter, getattr(self, counter) + 1)
        if latency is not None:
            current = None
            for outage in self.outages:
                if outage.start <= record.time:
                    current = outage
            if current is not None and getattr(current, latency) is None:
                setattr(current, latency, record.time - current.start)

    def _on_deliver(self, time: float, detail: dict) -> None:
        if detail.get("control", False):
            return
        for outage in self.outages:
            if outage.end is not None and time >= outage.end and (
                outage.post_recovery_delivery_delay is None
                or time - outage.end < outage.post_recovery_delivery_delay
            ):
                outage.post_recovery_delivery_delay = time - outage.end
