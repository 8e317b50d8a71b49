"""Per-link and network-wide constellation statistics.

One :class:`LinkStats` tracks a single link: the channel counters both
simplex directions already maintain (frames sent / corrupted / lost to
outage, busy time) plus constant-memory
:class:`~repro.simulator.trace.StreamingSummary` streams of delivery
delay and payload size, fed by the builder's delivery taps.

:func:`network_rollup` folds every link into one network-wide view:
scalar counters are summed exactly; the delay/size streams merge via
the Chan et al. moment combination — mathematically exact, so the
rollup mean/stdev equal the statistics of all per-link samples pooled
(to within float rounding; see the hypothesis test in
``tests/test_topology_stats.py``).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional

from ..simulator.link import FullDuplexLink
from ..simulator.trace import StreamingSummary

__all__ = [
    "LinkStats",
    "network_rollup",
]

# The scalar counters every rollup sums across links.
_COUNTERS = (
    "frames_sent",
    "frames_corrupted",
    "frames_lost_outage",
    "payloads_delivered",
)


class LinkStats:
    """Statistics for one constellation link.

    ``record_delivery`` is the tap the builder splices into each
    endpoint's delivery path: it counts payloads and streams their
    link-level latency (send-to-deliver) when the payload timestamps
    are known.  Channel-level counters are read live off the link.
    """

    __slots__ = ("name", "link", "payloads_delivered", "delay", "peak_buffered")

    def __init__(self, name: str, link: FullDuplexLink) -> None:
        self.name = name
        self.link = link
        self.payloads_delivered = 0
        self.delay = StreamingSummary("delivery_delay")
        self.peak_buffered = 0
        """High-water mark of protocol payloads buffered at either
        endpoint (per-link state, the scaling axis of Ghaderi &
        Towsley's per-connection-memory question).  Maintained by the
        builder's periodic probe."""

    def record_delivery(self, delay: Optional[float] = None) -> None:
        self.payloads_delivered += 1
        if delay is not None:
            self.delay.push(delay)

    def observe_buffered(self, buffered: int) -> None:
        if buffered > self.peak_buffered:
            self.peak_buffered = buffered

    # -- channel-derived ---------------------------------------------------

    @property
    def frames_sent(self) -> int:
        return self.link.forward.frames_sent + self.link.reverse.frames_sent

    @property
    def frames_corrupted(self) -> int:
        return self.link.forward.frames_corrupted + self.link.reverse.frames_corrupted

    @property
    def frames_lost_outage(self) -> int:
        return (
            self.link.forward.frames_lost_outage
            + self.link.reverse.frames_lost_outage
        )

    def utilization(self, now: Optional[float] = None) -> float:
        """Mean of the two directions' serialisation utilizations."""
        return 0.5 * (
            self.link.forward.utilization(now) + self.link.reverse.utilization(now)
        )

    def summary(self, now: Optional[float] = None) -> Dict[str, Any]:
        """A plain-data snapshot (deterministic across same-seed runs)."""
        return {
            "name": self.name,
            "frames_sent": self.frames_sent,
            "frames_corrupted": self.frames_corrupted,
            "frames_lost_outage": self.frames_lost_outage,
            "payloads_delivered": self.payloads_delivered,
            "peak_buffered": self.peak_buffered,
            "utilization": self.utilization(now),
            "delay_count": self.delay.count,
            "delay_mean": self.delay.mean,
            "delay_stdev": self.delay.stdev,
        }


def network_rollup(
    links: Iterable[LinkStats],
    now: Optional[float] = None,
    extra_streams: Optional[Mapping[str, StreamingSummary]] = None,
) -> Dict[str, Any]:
    """The whole constellation in one dict.

    Counters sum exactly; per-link delay streams merge into a single
    network stream (Chan et al., exact moments).  *extra_streams* lets
    callers fold in network-level series (end-to-end datagram delay)
    alongside the link-level rollup.
    """
    stats = list(links)
    totals: Dict[str, Any] = {counter: 0 for counter in _COUNTERS}
    totals["links"] = len(stats)
    totals["peak_buffered_max"] = 0
    delay = StreamingSummary("delivery_delay")
    utilizations = StreamingSummary("utilization")
    for link in stats:
        for counter in _COUNTERS:
            totals[counter] += getattr(link, counter)
        if link.peak_buffered > totals["peak_buffered_max"]:
            totals["peak_buffered_max"] = link.peak_buffered
        delay.merge(link.delay)
        utilizations.push(link.utilization(now))
    totals["delay_count"] = delay.count
    totals["delay_mean"] = delay.mean
    totals["delay_stdev"] = delay.stdev
    totals["utilization_mean"] = utilizations.mean
    for name, stream in (extra_streams or {}).items():
        totals[f"{name}_count"] = stream.count
        totals[f"{name}_mean"] = stream.mean
        totals[f"{name}_stdev"] = stream.stdev
    return totals
