"""Recovery metrics: how fast the protocol notices and survives faults.

:class:`RecoveryMetrics` is a :class:`~repro.simulator.trace.Tracer`
listener that correlates the fault timeline (``fault_start`` /
``fault_end`` from the :class:`~repro.faults.injector.FaultInjector`)
with the protocol's own events to produce one
:class:`OutageRecord` per channel-cutting fault:

- **time_to_checkpoint_timeout** — outage start → the sender's
  ``C_depth * W_cp`` watchdog firing (Section 3.2's detection step).
- **time_to_first_request_nak** — outage start → the first probe.
- **time_to_enforced_nak** — outage start → enforced recovery
  completing (a valid Enforced-NAK arrived); ``None`` if it never did.
- **time_to_declared_failure** — outage start → the sender declaring
  link failure; ``None`` when the link recovered instead.
- **frames_lost** — frames the outage swallowed (both loss phases,
  per the ``frame_lost_outage`` trace event).
- **post_recovery_delivery_delay** — outage end → the first I-frame
  arrival at or after it (the earliest in the channels'
  ``frames_delivered`` run records, whatever order they are emitted in):
  how long the resequencing pipeline stays dry after the link returns.

All quantities derive purely from simulation events, so a fault plan's
metrics are bit-identical across repeated runs and across serial vs
parallel sweep execution at the same seed.

:func:`detection_bound` / :func:`declared_failure_bound` compute the
paper's latency guarantees for a configuration, so tests (and E21) can
assert measured ≤ bound.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Optional

from ..simulator.trace import Entry, Router, Tracer

__all__ = [
    "OutageRecord",
    "RecoveryMetrics",
    "declared_failure_bound",
    "detection_bound",
]

_CUTTING_KINDS = ("outage", "feedback-blackout")

# Protocol reaction event -> (RecoveryMetrics counter, OutageRecord
# latency field measured from the outage start); None where absent.
_REACTIONS = {
    "checkpoint_timeout": (None, "time_to_checkpoint_timeout"),
    "request_nak_sent": ("request_naks", "time_to_first_request_nak"),
    "enforced_nak": ("enforced_naks", None),
    "enforced_recovery_complete": ("recoveries", "time_to_enforced_nak"),
    "link_failure_declared": ("failures_declared", "time_to_declared_failure"),
}


def detection_bound(config: Any) -> float:
    """Worst-case outage-start → Request-NAK latency (Section 3.2).

    The receiver checkpoints every ``W_cp``; the sender's watchdog
    restarts on each valid checkpoint and fires after ``C_depth * W_cp``
    of silence.  The last checkpoint arrives no later than the outage
    start, so the probe fires within ``C_depth * W_cp`` of it.
    """
    return config.checkpoint_timeout


def declared_failure_bound(config: Any, expected_rtt: float) -> float:
    """Worst-case outage-start → declared-failure latency.

    Detection (``C_depth * W_cp``) plus the failure timer: the expected
    Request-NAK → Enforced-NAK response time (``R + t_proc``) plus one
    more checkpoint-timeout of grace, as the sender implements it.
    Holds when no checkpoints arrive during the outage (a full cut);
    surviving plain checkpoints restart the probe budget instead.
    """
    return (
        config.checkpoint_timeout
        + expected_rtt
        + config.processing_time
        + config.checkpoint_timeout
    )


@dataclass
class OutageRecord:
    """Recovery timeline of one channel-cutting fault."""

    index: int
    kind: str
    start: float
    direction: str = "both"
    end: Optional[float] = None
    frames_lost: int = 0
    time_to_checkpoint_timeout: Optional[float] = None
    time_to_first_request_nak: Optional[float] = None
    time_to_enforced_nak: Optional[float] = None
    time_to_declared_failure: Optional[float] = None
    post_recovery_delivery_delay: Optional[float] = None

    @property
    def recovered(self) -> bool:
        """The link came back without a declared failure."""
        return (
            self.time_to_declared_failure is None
            and self.time_to_enforced_nak is not None
        )

    def as_row(self) -> dict[str, Any]:
        """Flat dict form (NaN for never-happened), for tables/caches."""

        def _num(value: Optional[float]) -> float:
            return float("nan") if value is None else value

        return {
            "outage_index": self.index,
            "kind": self.kind,
            "outage_start": self.start,
            "outage_end": _num(self.end),
            "frames_lost": self.frames_lost,
            "t_checkpoint_timeout": _num(self.time_to_checkpoint_timeout),
            "t_request_nak": _num(self.time_to_first_request_nak),
            "t_enforced_nak": _num(self.time_to_enforced_nak),
            "t_declared_failure": _num(self.time_to_declared_failure),
            "t_post_recovery_delivery": _num(self.post_recovery_delivery_delay),
            "outage_recovered": self.recovered,
        }


class RecoveryMetrics(Router):
    """Tracer listener building per-outage recovery records.

    Attach before the simulation runs (construction registers the
    listener); read :attr:`outages` / :meth:`summary` afterwards.
    Events between a ``fault_start`` and the next cutting fault's start
    are attributed to that fault — the protocol's reaction necessarily
    trails the outage itself.  A :class:`~repro.simulator.trace.Router`:
    only the events in :attr:`routes` reach it.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.outages: list[OutageRecord] = []
        self.request_naks = 0
        self.enforced_naks = 0
        self.recoveries = 0
        self.failures_declared = 0
        self.frames_lost_total = 0
        self._open: dict[tuple[str, int], OutageRecord] = {}
        self.routes = {
            "fault_start": (self._on_fault,),
            "fault_end": (self._on_fault,),
            "frame_lost_outage": (self._on_frame_lost,),
            "frames_delivered": (self._on_delivered,),
            **dict.fromkeys(_REACTIONS, (self._on_reaction,)),
        }
        tracer.listeners.append(self)

    def detach(self) -> None:
        """Stop listening (metrics stay readable)."""
        try:
            self.tracer.listeners.remove(self)
        except ValueError:
            pass

    # -- attribution ------------------------------------------------------

    def _current(self, time: float) -> Optional[OutageRecord]:
        """The most recent outage whose start precedes *time*."""
        latest = None
        for record in self.outages:
            if record.start <= time:
                latest = record
        return latest

    def _on_fault(self, entry: Entry) -> None:
        time, source, event, detail = entry
        if source != "faults":
            return
        kind = detail.get("kind")
        if kind not in _CUTTING_KINDS:
            return
        index = detail["index"]
        if event == "fault_start":
            outage = OutageRecord(
                index=index, kind=kind, start=time,
                direction=detail.get("direction", "both"),
            )
            self.outages.append(outage)
            self._open[(kind, index)] = outage
        else:
            outage = self._open.pop((kind, index), None)
            if outage is not None:
                outage.end = time

    def _on_frame_lost(self, entry: Entry) -> None:
        self.frames_lost_total += 1
        for outage in self._open.values():
            outage.frames_lost += 1

    def _on_reaction(self, entry: Entry) -> None:
        time, _, event, _ = entry
        counter, latency = _REACTIONS[event]
        if counter is not None:
            setattr(self, counter, getattr(self, counter) + 1)
        if latency is not None:
            current = self._current(time)
            if current is not None and getattr(current, latency) is None:
                setattr(current, latency, time - current.start)

    def _on_delivered(self, entry: Entry) -> None:
        detail = entry[3]
        if detail.get("control", False):
            return
        times = detail["times"]
        for outage in self.outages:
            if outage.end is not None:
                first = bisect_left(times, outage.end)
                if first < len(times):
                    delay = times[first] - outage.end
                    kept = outage.post_recovery_delivery_delay
                    if kept is None or delay < kept:
                        outage.post_recovery_delivery_delay = delay

    # -- reporting --------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Aggregate metrics as one flat dict (deterministic keys)."""
        detections = [
            o.time_to_first_request_nak
            for o in self.outages
            if o.time_to_first_request_nak is not None
        ]
        return {
            "outages": len(self.outages),
            "frames_lost_total": self.frames_lost_total,
            "request_naks": self.request_naks,
            "enforced_naks": self.enforced_naks,
            "recoveries": self.recoveries,
            "failures_declared": self.failures_declared,
            "mean_detection_latency": (
                sum(detections) / len(detections) if detections else math.nan
            ),
        }

    def __repr__(self) -> str:
        return (
            f"<RecoveryMetrics outages={len(self.outages)} "
            f"recoveries={self.recoveries} failures={self.failures_declared}>"
        )
