"""Structured event tracing and statistics collection.

Protocol endpoints and links emit trace records through a shared
:class:`Tracer`.  Traces serve two purposes: debugging (a readable
timeline of what each endpoint did) and measurement (counters and
time-series the experiment harness aggregates into the paper's
metrics: throughput efficiency, holding time, buffer occupancy, ...).

Hot-path design notes
---------------------
Timeline capture is the expensive part (one :class:`TraceRecord` plus a
detail dict per event), so a :class:`Tracer` maintains a precomputed
:attr:`Tracer.active` flag — true only while a timeline is being
recorded or at least one listener is attached.  The flag is kept honest
automatically: assigning :attr:`Tracer.record_timeline` or mutating
:attr:`Tracer.listeners` (which is how
:func:`repro.invariants.harness.attach_monitors` subscribes its
monitors) refreshes it.  Hot emit sites check ``tracer.active`` *before*
building their keyword arguments, which makes tracing near-zero-cost
for unmonitored runs; counters and stats are always live regardless.

A monitored run builds no record at all: the invariant suite and the
recovery metrics are :class:`Router` listeners, which publish the hooks
each event goes to, and while only routers are attached :meth:`Tracer.emit`
hands each hook the raw ``(time, source, event, detail)`` entry.

The receiving end traces runs, not frames.  A LAMS-DLC receiver applies
a run it took whole at its next settle — every checkpoint, Request-NAK,
Stop-Go reading, piggybacked Stop-Go bit and teardown — and emits there the records of its
arrivals, each stamped with its own time, after its channel's
``frames_delivered`` of the runs that have landed; its drains go out as
one ``payloads_delivered`` when it next checkpoints.  So each source's
records keep their order, and every record of a receiver goes out
before its next ``checkpoint_sent``, but records of different sources
may come out in another order than they happened.  What is held back
meanwhile is announced with :meth:`Tracer.hold`, and
:meth:`Tracer.settle` has it emitted — before a suite finalizes, before
the timeline is read, and before a ``backlog_reclaimed`` record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

__all__ = [
    "TraceRecord", "Tracer", "Router", "Counter", "TimeWeightedStat", "StreamingSummary",
]

# Two-sided 95% normal quantile.
_Z95 = 1.959963984540054

# A raw trace entry, ``(time, source, event, detail)``, and a hook that
# reads one.
Entry = tuple[float, str, str, dict[str, Any]]
Hook = Callable[[Entry], None]


@dataclass(slots=True)
class TraceRecord:
    """One timeline entry: *who* did *what* at *when*, with detail.

    :meth:`Tracer.emit` builds one only when something reads records:
    the timeline, or a listener that is not a :class:`Router`.  That one
    record is shared by the timeline and every listener of the emit.
    Not frozen (a frozen dataclass constructs through four
    ``object.__setattr__`` calls) — treat a record, and the values in its
    ``detail``, as immutable: a monitor suite's trace window keeps the
    raw entries and formats them only when a violation is recorded.
    """

    time: float
    source: str
    event: str
    detail: dict[str, Any] = field(default_factory=dict)

    def format(self) -> str:
        """Human-readable one-line rendering; a list or tuple of more than
        eight items (a run record's per-frame columns, a long NAK list)
        shows its first three, its last and its length."""
        detail = " ".join(f"{k}={_brief(v)}" for k, v in self.detail.items())
        return f"{self.time:12.6f}  {self.source:<16} {self.event:<24} {detail}"


def _brief(value: Any) -> Any:
    if isinstance(value, (list, tuple)) and len(value) > 8:
        head = ", ".join(map(repr, value[:3]))
        return f"[{head}, …, {value[-1]!r}] ({len(value)})"
    return value


class Counter:
    """A named monotonically increasing event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def increment(self, by: int = 1) -> None:
        self.value += by

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class TimeWeightedStat:
    """Time-weighted average of a piecewise-constant signal.

    Used for buffer occupancy: call :meth:`update` whenever the level
    changes; the average weights each level by how long it was held.

    Time must be non-decreasing: an :meth:`update` (or :meth:`mean`
    query) earlier than the last recorded time is rejected with
    :class:`ValueError` rather than silently accumulating negative
    time-weight into the running area.
    """

    __slots__ = ("name", "_level", "_last_time", "_area", "_start", "maximum")

    def __init__(self, name: str, start_time: float = 0.0, level: float = 0.0) -> None:
        self.name = name
        self._level = level
        self._last_time = start_time
        self._start = start_time
        self._area = 0.0
        self.maximum = level

    @property
    def level(self) -> float:
        return self._level

    def update(self, now: float, level: float) -> None:
        """Record that the signal changed to *level* at time *now*."""
        last = self._last_time
        if now < last:
            raise ValueError(
                f"time went backwards in TimeWeightedStat.update "
                f"({now!r} < {last!r})"
            )
        self._area += self._level * (now - last)
        self._last_time = now
        self._level = level
        if level > self.maximum:
            self.maximum = level

    def mean(self, now: Optional[float] = None) -> float:
        """Time-weighted mean from start through *now* (default: last update)."""
        end = self._last_time if now is None else now
        if end < self._last_time:
            raise ValueError("query time precedes last update")
        span = end - self._start
        if span <= 0:
            return self._level
        area = self._area + self._level * (end - self._last_time)
        return area / span


class StreamingSummary:
    """Count, mean, spread and extremes of one metric's samples (Welford).

    Holds only ``(count, mean, M2, minimum, maximum)`` — Welford's
    recurrence, numerically stable at large means — so memory is
    constant however many samples flow through: a tracer's point samples
    (holding times) and a metric across independent replications alike.
    Values :meth:`push`-ed in the same order always produce the same
    bits, which is what makes a parallel sweep's summary identical to a
    serial one: the sweep engine folds results in seed order, whatever
    order workers finished in.  An empty summary's mean is 0.0.

    :meth:`merge` combines two accumulators with the Chan et al.
    parallel formula; the merged moments are mathematically exact but
    fold values in a different order, so merged results are equal to
    within rounding, not bit-identical — use a single seed-order stream
    (as the sweep engine does) when exact reproducibility matters.
    """

    __slots__ = ("metric", "count", "_mean", "_m2", "minimum", "maximum")

    def __init__(self, metric: str = "") -> None:
        self.metric = metric
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    @classmethod
    def from_samples(cls, metric: str, samples: Iterable[float]) -> "StreamingSummary":
        summary = cls(metric)
        summary.extend(list(samples))
        return summary

    def push(self, value: float) -> None:
        """Fold one sample in (one step of Welford's recurrence)."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def extend(self, samples: list[float]) -> None:
        """:meth:`push` each of *samples* in order — the same floats, one call."""
        if not samples:
            return
        mean, m2 = self._mean, self._m2
        count = float(self.count)  # exact, and spares an int->float per division
        for sample in samples:
            count += 1.0
            delta = sample - mean
            mean += delta / count
            m2 += delta * (sample - mean)
        self.count += len(samples)
        self._mean, self._m2 = mean, m2
        self.minimum = min(self.minimum, min(samples))
        self.maximum = max(self.maximum, max(samples))

    def merge(self, other: "StreamingSummary") -> None:
        """Absorb *other*'s moments (Chan et al. pairwise combination)."""
        if other.count == 0:
            return
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        if self.count == 0:
            self.count, self._mean, self._m2 = other.count, other._mean, other._m2
            return
        total = self.count + other.count
        delta = other._mean - self._mean
        self._mean += delta * other.count / total
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self.count = total

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator); 0.0 below two samples.

        A single observation (or none) carries no spread information, so
        the spread is reported as exactly zero rather than dividing by
        ``n - 1 = 0`` or poisoning downstream confidence intervals with
        NaN.
        """
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stdev(self) -> float:
        """Sample standard deviation (n-1); 0 below two samples."""
        # Welford's m2 is non-negative in exact arithmetic; clamp the
        # tiny negatives float cancellation can produce.
        return math.sqrt(max(0.0, self.variance))

    @property
    def half_width(self) -> float:
        """95% confidence half-width (normal approximation)."""
        if self.count < 2:
            return 0.0
        return _Z95 * self.stdev / math.sqrt(self.count)

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def relative_half_width(self) -> float:
        """Half-width as a fraction of the mean (nan at mean 0)."""
        return self.half_width / self.mean if self.mean else float("nan")

    def overlaps(self, other) -> bool:
        """True if the two 95% intervals overlap (no clear separation)."""
        return self.low <= other.high and other.low <= self.high

    def __repr__(self) -> str:
        return (
            f"StreamingSummary({self.metric}: {self.mean:.6g} "
            f"± {self.half_width:.2g}, n={self.count})"
        )


class Router:
    """A tracer listener that publishes which hooks read which event.

    :attr:`routes` maps an event name to the hooks that read it, in
    call order; :attr:`unrouted` holds the hooks for every event
    :attr:`routes` does not name.  A hook takes one raw
    ``(time, source, event, detail)`` entry.  While only routers are
    attached and no timeline is recorded, :meth:`Tracer.emit` calls the
    hooks itself and builds no :class:`TraceRecord`.  Otherwise the
    router is called with the emit's shared record like any listener
    and passes it on to the same hooks.  The tracer reads both tables
    when its listeners change: set them before attaching.
    """

    routes: dict[str, tuple[Hook, ...]]
    unrouted: tuple[Hook, ...] = ()

    def __call__(self, record: TraceRecord) -> None:
        entry = (record.time, record.source, record.event, record.detail)
        for hook in self.routes.get(record.event, self.unrouted):
            hook(entry)


class _ListenerList(list):
    """Listener callbacks that keep the owning tracer's fast path honest.

    Call sites throughout the codebase (and tests) mutate
    ``tracer.listeners`` directly via ``append``/``remove``; every
    mutation refreshes :attr:`Tracer.active` and the tracer's route
    table, so a listener attached mid-run sees the very next emit.
    """

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "Tracer") -> None:
        super().__init__()
        self._tracer = tracer


def _refreshing(name: str) -> Callable[..., Any]:
    mutate = getattr(list, name)

    def method(self: _ListenerList, *args: Any) -> Any:
        result = mutate(self, *args)
        self._tracer._refresh()
        return result

    method.__name__ = name
    return method


# Every list method that can change the members or their order.
for _name in ("append", "extend", "insert", "remove", "pop", "clear",
              "__setitem__", "__delitem__", "__iadd__", "__imul__",
              "sort", "reverse"):
    setattr(_ListenerList, _name, _refreshing(_name))
del _name


class Tracer:
    """Collects trace records, counters, and statistics for one run.

    Recording full timelines is expensive for long runs, so timeline
    capture is off by default; counters and stats are always live.
    A *listener* attached to :attr:`listeners` streams the events (tests
    asserting on protocol behaviour, the invariant monitors, the
    recovery metrics).  :attr:`active` is the precomputed fast-path
    flag: hot emitters may skip :meth:`emit` (and the keyword-dict
    construction it implies) entirely while it is False.

    Who gets what from :meth:`emit`:

    - While the timeline is recorded or any listener is not a
      :class:`Router`, one :class:`TraceRecord` is built per emit; it is
      appended to :attr:`records` and every listener is called with it,
      in attach order (a router passes it on to its hooks).
    - Otherwise no record is built: the route table, ``event → hooks``
      across the routers in attach order, is rebuilt whenever
      :attr:`listeners` changes, and each hook gets the raw entry.

    Attach a listener before the traffic it is to see is sent: a
    channel decides whether to record a run's arrivals when it decides
    the run, so a listener attached while a run is in flight sees none
    of that run's arrivals, and every run decided after it in full.
    """

    # What :meth:`_refresh` computes for no listener, shared until the
    # first change: a run with thousands of idle tracers holds no table.
    _record_listeners: Optional[tuple[Any, ...]] = ()
    _routes: dict[str, tuple[Hook, ...]] = {}
    _unrouted: tuple[Hook, ...] = ()
    # Who holds records back (hold()), until settle() calls them.
    _holders: Optional[dict[Callable[[], None], None]] = None

    def __init__(self, record_timeline: bool = False) -> None:
        self._record_timeline = bool(record_timeline)
        self.records: list[TraceRecord] = []
        self.counters: dict[str, Counter] = {}
        self.samples: dict[str, StreamingSummary] = {}
        self.levels: dict[str, TimeWeightedStat] = {}
        self.listeners: _ListenerList = _ListenerList(self)
        self.active = self._record_timeline

    # -- fast-path bookkeeping ---------------------------------------------

    @property
    def record_timeline(self) -> bool:
        """Whether :meth:`emit` appends to :attr:`records`."""
        return self._record_timeline

    @record_timeline.setter
    def record_timeline(self, value: bool) -> None:
        self._record_timeline = bool(value)
        self._refresh()

    def _refresh(self) -> None:
        """Recompute :attr:`active` and whom :meth:`emit` calls."""
        listeners = tuple(self.listeners)
        self.active = self._record_timeline or bool(listeners)
        routers = () if self._record_timeline or not all(
            isinstance(listener, Router) for listener in listeners
        ) else listeners
        # None while only routers listen: then no record is built.
        self._record_listeners = None if routers else listeners
        self._routes = {
            event: tuple(hook for router in routers
                         for hook in router.routes.get(event, router.unrouted))
            for event in {event for router in routers for event in router.routes}
        }
        self._unrouted = tuple(hook for router in routers for hook in router.unrouted)

    # -- timeline --------------------------------------------------------

    def emit(self, time: float, source: str, event: str, **detail: Any) -> None:
        """Record a timeline event (and notify listeners)."""
        if not self.active:
            return
        listeners = self._record_listeners
        if listeners is None:
            entry = (time, source, event, detail)
            for hook in self._routes.get(event, self._unrouted):
                hook(entry)
            return
        record = TraceRecord(time, source, event, detail)
        if self._record_timeline:
            self.records.append(record)
        for listener in listeners:
            listener(record)

    def hold(self, release: Callable[[], None]) -> None:
        """Note that an emitter holds records back, or a receiver arrivals
        it has not applied yet: :meth:`settle` calls *release*, which
        emits or applies what it holds (and holds again if some of it is
        not due yet)."""
        holders = self._holders
        if holders is None:
            holders = self._holders = {}
        holders[release] = None

    def settle(self) -> None:
        """Emit every record held back so far, each holder in the order it
        first held.  Anything that reads the trace as complete calls it
        first: :meth:`timeline`, :meth:`summary`, ``MonitorSuite.finalize``,
        and whoever emits ``backlog_reclaimed`` (a delivery still held
        there would reach the zero-loss ledger after the reclaim it
        preceded)."""
        holders = self._holders
        if holders:
            self._holders = None
            for release in holders:
                release()

    def timeline(self, source: Optional[str] = None, event: Optional[str] = None) -> list[TraceRecord]:
        """Filtered view of the recorded timeline (settled first)."""
        self.settle()
        result = self.records
        if source is not None:
            result = [r for r in result if r.source == source]
        if event is not None:
            result = [r for r in result if r.event == event]
        return list(result)

    # -- metrics ---------------------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def count(self, name: str, by: int = 1) -> None:
        """Shorthand: increment counter *name*."""
        self.counter(name).increment(by)

    def sample_stat(self, name: str) -> StreamingSummary:
        """The :class:`StreamingSummary` for *name*, created on first use.

        Hot paths hold the returned object directly instead of paying a
        dict lookup (and often an f-string build) per sample.
        """
        stat = self.samples.get(name)
        if stat is None:
            stat = self.samples[name] = StreamingSummary(name)
        return stat

    def sample(self, name: str, value: float) -> None:
        """Shorthand: add a point sample to stat *name*."""
        self.sample_stat(name).push(value)

    def level_stat(self, name: str, start_time: float = 0.0) -> TimeWeightedStat:
        """The :class:`TimeWeightedStat` for *name*, created on first use.

        *start_time* only applies on creation; as with
        :meth:`sample_stat`, hot paths cache the returned object.
        """
        stat = self.levels.get(name)
        if stat is None:
            stat = self.levels[name] = TimeWeightedStat(name, start_time=start_time)
        return stat

    def level(self, name: str, now: float, value: float) -> None:
        """Shorthand: piecewise-constant signal *name* changed to *value*."""
        self.level_stat(name, start_time=now).update(now, value)

    def value(self, name: str) -> int:
        """Current value of counter *name* (0 if never incremented)."""
        counter = self.counters.get(name)
        return counter.value if counter else 0

    def summary(self) -> dict[str, Any]:
        """All metrics as one flat dictionary (for reports and tests),
        settled first."""
        self.settle()
        result: dict[str, Any] = {}
        for name, counter in sorted(self.counters.items()):
            result[name] = counter.value
        for name, stat in sorted(self.samples.items()):
            result[f"{name}.mean"] = stat.mean if stat.count else math.nan
            result[f"{name}.count"] = stat.count
        for name, stat in sorted(self.levels.items()):
            result[f"{name}.avg"] = stat.mean()
            result[f"{name}.max"] = stat.maximum
        return result
