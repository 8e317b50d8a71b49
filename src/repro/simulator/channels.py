"""Time-varying channel models: trace replay and orbit-coupled BER.

The three seed models (perfect / Bernoulli / Gilbert–Elliott) are all
*stationary*, while the paper's environment (Section 2.1) is defined by
time-varying geometry: inter-satellite distance — and with it received
optical power — changes continuously along an orbit, and mispointing
error grows with the line-of-sight slew rate the tracking loop must
follow.  This module adds the two time-varying models ROADMAP item 3
calls for, both plugged into the string-keyed registry of
:mod:`repro.simulator.errormodel`:

- :class:`TraceReplayChannel` (``"trace-replay"``) — replays a recorded
  error trace: either exact per-frame corruption decisions or a
  piecewise-constant BER timeline, from a simple JSONL schema
  (see docs/CHANNELS.md).  Trace-driven evaluation follows Kuhn et al.
  ("Enabling Realistic Cross-Layer Analysis based on Satellite Physical
  Layer Traces"): record once, replay everywhere, compare protocols on
  *identical* error sequences.
- :class:`OrbitCoupledChannel` (``"orbit-coupled"``) — derives the
  instantaneous BER from :mod:`repro.simulator.orbit` geometry: a
  distance power law (received power falls with range, so residual BER
  after FEC rises) times a mispointing penalty quadratic in the
  line-of-sight slew rate.

:func:`synthesize_trace` / :func:`replay_trace` close the loop with no
external data: any registered model can be recorded into a trace
(``python -m repro trace-synth``) and the replay reproduces the source
run's delivered-payload digest bit-identically — every synthesized
trace is a regression fixture.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .errormodel import (
    ErrorModel,
    ErrorModelSpec,
    frame_error_probability,
    register_error_model,
    resolve_error_model,
)
from .orbit import IsolatedLinkGeometry, Satellite

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "TraceReplayChannel",
    "RecordingChannel",
    "OrbitCoupledChannel",
    "TraceRunResult",
    "delivered_digest",
    "load_trace",
    "write_trace",
    "synthesize_trace",
    "replay_trace",
]

TRACE_SCHEMA_VERSION = 1
"""JSONL trace schema version (the header's ``version`` field)."""


# ---------------------------------------------------------------------------
# Trace replay
# ---------------------------------------------------------------------------


def _normalise_records(
    records: Iterable[Any], mode: Optional[str]
) -> tuple[str, list]:
    """Validate *records* and return ``(mode, normalised)``.

    Frame mode normalises to ``(t, bits, error)`` tuples (``t``/``bits``
    may be ``None``); BER mode to ``(t, ber)`` breakpoints sorted by
    time.  The mode is inferred from the first record when not given.
    """
    items = list(records)
    if mode is None:
        if not items:
            raise ValueError("cannot infer trace mode from an empty record list")
        first = items[0]
        if isinstance(first, Mapping):
            mode = "frame" if "error" in first else "ber"
        elif isinstance(first, bool):
            mode = "frame"
        else:
            mode = "ber"
    if mode not in ("frame", "ber"):
        raise ValueError(f"trace mode must be 'frame' or 'ber', got {mode!r}")

    if mode == "frame":
        frames: list[tuple[Optional[float], Optional[int], bool]] = []
        for record in items:
            if isinstance(record, Mapping):
                if "error" not in record:
                    raise ValueError(
                        f"frame-mode record needs an 'error' key: {record!r}"
                    )
                t = record.get("t")
                bits = record.get("bits")
                frames.append(
                    (
                        None if t is None else float(t),
                        None if bits is None else int(bits),
                        bool(record["error"]),
                    )
                )
            else:
                frames.append((None, None, bool(record)))
        return "frame", frames

    points: list[tuple[float, float]] = []
    for record in items:
        if isinstance(record, Mapping):
            try:
                t, ber = record["t"], record["ber"]
            except KeyError:
                raise ValueError(
                    f"ber-mode record needs 't' and 'ber' keys: {record!r}"
                ) from None
        else:
            try:
                t, ber = record
            except (TypeError, ValueError):
                raise ValueError(
                    f"ber-mode record must be a (t, ber) pair or mapping: {record!r}"
                ) from None
        t, ber = float(t), float(ber)
        if not 0.0 <= ber <= 1.0:
            raise ValueError(f"trace BER must be in [0, 1], got {ber!r}")
        points.append((t, ber))
    if not points:
        raise ValueError("ber-mode trace needs at least one (t, ber) breakpoint")
    points.sort(key=lambda p: p[0])
    return "ber", points


class TraceReplayChannel:
    """Replays a recorded error trace (registered as ``"trace-replay"``).

    Two trace modes:

    - ``"frame"`` — the trace is the exact sequence of per-frame
      corruption decisions; :meth:`frame_error` pops them FIFO and never
      touches the RNG, so a replay reproduces the recorded run's error
      pattern bit-identically regardless of seed.
    - ``"ber"`` — the trace is a piecewise-constant BER timeline
      ``(t, ber)``; each breakpoint holds until the next, the value at
      frame-start time decides the frame-error probability, and one
      uniform draw settles the frame (no draw while the BER is zero).

    Parameters
    ----------
    records:
        In-memory trace records (see :func:`_normalise_records` for the
        accepted shapes), mutually exclusive with *path*.
    path:
        JSONL trace file written by :func:`write_trace` /
        ``python -m repro trace-synth``.
    mode:
        ``"frame"`` or ``"ber"``; defaults to the file header's mode or
        is inferred from the first record.
    on_exhausted:
        Frame-mode policy once the trace runs out: ``"raise"`` (default
        — replay divergence is a bug worth failing loudly on),
        ``"perfect"`` (no further corruption) or ``"loop"`` (cycle the
        trace, for soak workloads longer than the recording).
    strict_bits:
        In frame mode, verify each replayed frame's bit count against
        the recorded one and raise on mismatch (catches replaying a
        trace against a different frame geometry).
    """

    def __init__(
        self,
        records: Optional[Iterable[Any]] = None,
        *,
        path: Optional[str] = None,
        mode: Optional[str] = None,
        on_exhausted: str = "raise",
        strict_bits: bool = False,
    ) -> None:
        if (records is None) == (path is None):
            raise ValueError("pass exactly one of records= or path=")
        if on_exhausted not in ("raise", "perfect", "loop"):
            raise ValueError(
                f"on_exhausted must be 'raise', 'perfect' or 'loop', "
                f"got {on_exhausted!r}"
            )
        self.header: dict[str, Any] = {}
        if path is not None:
            self.header, records = load_trace(path)
            if mode is None:
                mode = self.header.get("mode")
        self.mode, normalised = _normalise_records(records, mode)
        self.on_exhausted = on_exhausted
        self.strict_bits = strict_bits
        self._cursor = 0
        if self.mode == "frame":
            self._frames: list = normalised
        else:
            self._times = [p[0] for p in normalised]
            self._bers = [p[1] for p in normalised]
            # Per-(breakpoint, bits) frame-error probability cache; the
            # timeline is static so entries never invalidate.
            self._prob_cache: dict[tuple[int, int], float] = {}

    @property
    def length(self) -> int:
        """Number of trace records."""
        return len(self._frames) if self.mode == "frame" else len(self._times)

    @property
    def remaining(self) -> Optional[int]:
        """Frame-mode decisions not yet replayed (``None`` in BER mode)."""
        if self.mode != "frame":
            return None
        return max(0, len(self._frames) - self._cursor)

    def instantaneous_ber(self, t: float) -> float:
        """BER-mode value holding at time *t* (first breakpoint before it)."""
        if self.mode != "ber":
            raise ValueError("instantaneous_ber is only defined for ber-mode traces")
        index = bisect_right(self._times, t) - 1
        return self._bers[max(index, 0)]

    def frame_error(self, start: float, bits: int, rng: np.random.Generator) -> bool:
        if self.mode == "frame":
            index = self._cursor
            if index >= len(self._frames):
                if self.on_exhausted == "perfect":
                    return False
                if self.on_exhausted == "loop":
                    index = 0
                else:
                    raise ValueError(
                        f"trace exhausted after {len(self._frames)} frames "
                        f"(frame at t={start:.6f} has no recorded decision); "
                        f"use on_exhausted='perfect' or 'loop' to continue"
                    )
            t, recorded_bits, error = self._frames[index]
            if self.strict_bits and recorded_bits is not None and recorded_bits != bits:
                raise ValueError(
                    f"trace record {index} was captured for a {recorded_bits}-bit "
                    f"frame but is being replayed against {bits} bits"
                )
            self._cursor = index + 1
            return error
        index = bisect_right(self._times, start) - 1
        if index < 0:
            index = 0
        probability = self._prob_cache.get((index, bits))
        if probability is None:
            probability = self._prob_cache[(index, bits)] = frame_error_probability(
                self._bers[index], bits
            )
        if probability == 0.0:
            return False
        return bool(rng.random() < probability)

    def draw_window(
        self,
        starts: list,
        sizes: list,
        rng: np.random.Generator,
    ) -> list:
        """Bulk verdicts for a FIFO window, bit-identical to scalar replay.

        Frame mode slices the recorded decisions directly (zero RNG, the
        replay invariant); BER mode resolves each frame's timeline
        bucket, then settles all frames with nonzero probability from
        one bulk uniform draw — ``Generator.random(k)`` yields the same
        doubles as ``k`` scalar ``random()`` calls, and zero-probability
        frames consume no draw, exactly as in :meth:`frame_error`.
        """
        n = len(sizes)
        if self.mode == "frame":
            cursor = self._cursor
            if not self.strict_bits and cursor + n <= len(self._frames):
                self._cursor = cursor + n
                return [
                    record[2] for record in self._frames[cursor : cursor + n]
                ]
            # Exhaustion / loop / strict-bits paths stay on the scalar
            # kernel (they raise or wrap per frame).
            frame_error = self.frame_error
            return [
                frame_error(start, bits, rng)
                for start, bits in zip(starts, sizes)
            ]
        times = self._times
        prob_cache = self._prob_cache
        probabilities = []
        drawing = 0
        for start, bits in zip(starts, sizes):
            index = bisect_right(times, start) - 1
            if index < 0:
                index = 0
            probability = prob_cache.get((index, bits))
            if probability is None:
                probability = prob_cache[(index, bits)] = frame_error_probability(
                    self._bers[index], bits
                )
            probabilities.append(probability)
            if probability > 0.0:
                drawing += 1
        if not drawing:
            return [False] * n
        draws = rng.random(drawing)
        verdicts = [False] * n
        k = 0
        for i, probability in enumerate(probabilities):
            if probability > 0.0:
                verdicts[i] = bool(draws.item(k) < probability)
                k += 1
        return verdicts

    def __repr__(self) -> str:
        return (
            f"TraceReplayChannel(mode={self.mode!r}, length={self.length}, "
            f"on_exhausted={self.on_exhausted!r})"
        )


class RecordingChannel:
    """Wraps any model and records its per-frame decisions as a trace.

    The wrapper is transparent: it delegates every :meth:`frame_error`
    call to the inner model (same RNG consumption, same results) while
    appending a frame-mode trace record, so a recorded run and an
    unrecorded run of the same model are bit-identical.
    """

    def __init__(self, inner: ErrorModel) -> None:
        self.inner = inner
        self.records: list[dict[str, Any]] = []

    def frame_error(self, start: float, bits: int, rng: np.random.Generator) -> bool:
        error = bool(self.inner.frame_error(start, bits, rng))
        self.records.append({"t": start, "bits": bits, "error": error})
        return error

    def draw_window(
        self,
        starts: list,
        sizes: list,
        rng: np.random.Generator,
    ) -> list:
        """Delegate the bulk draw, recording every decision in order."""
        inner_bulk = getattr(self.inner, "draw_window", None)
        if inner_bulk is not None:
            verdicts = inner_bulk(starts, sizes, rng)
        else:
            frame_error = self.inner.frame_error
            verdicts = [
                frame_error(start, bits, rng)
                for start, bits in zip(starts, sizes)
            ]
        append = self.records.append
        for start, bits, error in zip(starts, sizes, verdicts):
            append({"t": start, "bits": bits, "error": bool(error)})
        return verdicts

    def __repr__(self) -> str:
        return f"RecordingChannel({self.inner!r}, records={len(self.records)})"


# ---------------------------------------------------------------------------
# Orbit-coupled BER
# ---------------------------------------------------------------------------


class OrbitCoupledChannel:
    """BER follows inter-satellite geometry (registered as ``"orbit-coupled"``).

    Models the two geometry-driven effects of Section 2.1 on the
    residual post-FEC BER:

    - **Range loss** — received optical power falls with distance, so
      the residual BER rises as a power law:
      ``ber(t) = ber * (d(t) / ref_distance_km) ** distance_exponent``.
    - **Mispointing** — the tracking loop's pointing error grows with
      the line-of-sight slew rate; the penalty is quadratic:
      ``* (1 + mispointing_gain * (slew(t) / slew_ref) ** 2)``.

    The instantaneous BER is clamped to *max_ber* and evaluated on a
    time grid of *update_interval* seconds (geometry moves on orbital
    timescales, frames on microsecond ones, so per-bucket caching is
    exact enough and keeps the per-frame cost flat).

    Parameters
    ----------
    ber:
        Residual BER at the reference distance with zero slew; injected
        from the link's BER by the registry context when not given.
    geometry:
        An :class:`~repro.simulator.orbit.IsolatedLinkGeometry`; the
        topology layer injects the link's own geometry via the registry
        context when both endpoints carry a satellite.  When absent, a
        two-satellite geometry is built from the orbital elements below.
    altitude_km, inclination_deg, raan_separation_deg, phase_separation_deg:
        Elements of the fallback two-satellite geometry: both satellites
        share altitude and inclination; their planes are separated by
        *raan_separation_deg* and their along-track phase by
        *phase_separation_deg*.
    ref_distance_km:
        Distance at which the BER equals *ber*; defaults to the link
        distance at *epoch*.
    distance_exponent:
        Power-law exponent of the range loss (2.0 = free-space power).
    mispointing_gain, slew_ref:
        Mispointing penalty gain and reference slew rate in rad/s
        (default: the satellites' mean motion).
    max_ber:
        Upper clamp on the instantaneous BER.
    update_interval:
        Geometry evaluation grid in seconds.
    epoch:
        Simulation time corresponding to orbital ``t = 0``.
    """

    def __init__(
        self,
        ber: float = 1e-6,
        geometry: Optional[IsolatedLinkGeometry] = None,
        *,
        altitude_km: float = 1000.0,
        inclination_deg: float = 60.0,
        raan_separation_deg: float = 30.0,
        phase_separation_deg: float = 10.0,
        ref_distance_km: Optional[float] = None,
        distance_exponent: float = 2.0,
        mispointing_gain: float = 0.5,
        slew_ref: Optional[float] = None,
        max_ber: float = 1e-2,
        update_interval: float = 0.01,
        epoch: float = 0.0,
    ) -> None:
        if not 0.0 <= ber <= 1.0:
            raise ValueError(f"BER must be in [0, 1], got {ber!r}")
        if not 0.0 <= max_ber <= 1.0:
            raise ValueError(f"max_ber must be in [0, 1], got {max_ber!r}")
        if distance_exponent < 0:
            raise ValueError("distance_exponent cannot be negative")
        if mispointing_gain < 0:
            raise ValueError("mispointing_gain cannot be negative")
        if update_interval < 0:
            raise ValueError("update_interval cannot be negative")
        if geometry is None:
            if raan_separation_deg == 0.0 and phase_separation_deg == 0.0:
                raise ValueError(
                    "fallback geometry needs a nonzero raan_separation_deg "
                    "or phase_separation_deg (coincident satellites)"
                )
            geometry = IsolatedLinkGeometry(
                Satellite(
                    "orbit-coupled-a",
                    altitude_km=altitude_km,
                    inclination_deg=inclination_deg,
                ),
                Satellite(
                    "orbit-coupled-b",
                    altitude_km=altitude_km,
                    inclination_deg=inclination_deg,
                    raan_deg=raan_separation_deg,
                    phase_deg=phase_separation_deg,
                ),
            )
        self.ber = ber
        self.geometry = geometry
        self.distance_exponent = distance_exponent
        self.mispointing_gain = mispointing_gain
        self.max_ber = max_ber
        self.update_interval = update_interval
        self.epoch = epoch
        if ref_distance_km is None:
            ref_distance_km = geometry.distance_km(0.0)
        if ref_distance_km <= 0:
            raise ValueError("ref_distance_km must be positive")
        self.ref_distance_km = ref_distance_km
        if slew_ref is None:
            slew_ref = max(geometry.a.angular_rate, geometry.b.angular_rate)
        if slew_ref <= 0:
            raise ValueError("slew_ref must be positive")
        self.slew_ref = slew_ref
        self._bucket: Optional[int] = None
        self._bucket_ber = 0.0
        self._prob_by_bits: dict[int, float] = {}

    def slew_rate(self, t: float, dt: float = 1.0) -> float:
        """Line-of-sight rotation rate in rad/s around time *t*.

        Finite difference of the unit line-of-sight vector over *dt*
        seconds — ample resolution for orbital-period motion.
        """
        a, b = self.geometry.a, self.geometry.b
        los0 = b.position(t) - a.position(t)
        los1 = b.position(t + dt) - a.position(t + dt)
        norm0 = float(np.linalg.norm(los0))
        norm1 = float(np.linalg.norm(los1))
        if norm0 == 0.0 or norm1 == 0.0:
            return 0.0
        cosine = float(np.dot(los0, los1)) / (norm0 * norm1)
        return math.acos(max(-1.0, min(1.0, cosine))) / dt

    def instantaneous_ber(self, t: float) -> float:
        """The geometry-coupled BER at simulation time *t*."""
        orbital_t = t - self.epoch
        distance = self.geometry.distance_km(orbital_t)
        ber = self.ber * (distance / self.ref_distance_km) ** self.distance_exponent
        if self.mispointing_gain:
            slew = self.slew_rate(orbital_t)
            ber *= 1.0 + self.mispointing_gain * (slew / self.slew_ref) ** 2
        return min(ber, self.max_ber)

    def frame_error(self, start: float, bits: int, rng: np.random.Generator) -> bool:
        if self.update_interval > 0:
            bucket = int(start // self.update_interval)
            if bucket != self._bucket:
                self._bucket = bucket
                self._bucket_ber = self.instantaneous_ber(bucket * self.update_interval)
                self._prob_by_bits.clear()
            probability = self._prob_by_bits.get(bits)
            if probability is None:
                probability = self._prob_by_bits[bits] = frame_error_probability(
                    self._bucket_ber, bits
                )
        else:
            probability = frame_error_probability(self.instantaneous_ber(start), bits)
        if probability == 0.0:
            return False
        return bool(rng.random() < probability)

    def draw_window(
        self,
        starts: list,
        sizes: list,
        rng: np.random.Generator,
    ) -> list:
        """Bulk verdicts via the same bucketed geometry lookups.

        Each frame resolves its probability exactly as
        :meth:`frame_error` would (advancing the bucket cache in frame
        order); frames with nonzero probability are then settled from
        one bulk uniform draw — the same variates in the same order as
        per-frame draws, with zero-probability frames consuming none.
        """
        probabilities = []
        drawing = 0
        interval = self.update_interval
        prob_get = self._prob_by_bits.get
        for start, bits in zip(starts, sizes):
            if interval > 0:
                bucket = int(start // interval)
                if bucket != self._bucket:
                    self._bucket = bucket
                    self._bucket_ber = self.instantaneous_ber(bucket * interval)
                    self._prob_by_bits.clear()
                probability = prob_get(bits)
                if probability is None:
                    probability = self._prob_by_bits[bits] = (
                        frame_error_probability(self._bucket_ber, bits)
                    )
            else:
                probability = frame_error_probability(
                    self.instantaneous_ber(start), bits
                )
            probabilities.append(probability)
            if probability > 0.0:
                drawing += 1
        n = len(probabilities)
        if not drawing:
            return [False] * n
        draws = rng.random(drawing)
        verdicts = [False] * n
        k = 0
        for i, probability in enumerate(probabilities):
            if probability > 0.0:
                verdicts[i] = bool(draws.item(k) < probability)
                k += 1
        return verdicts

    def __repr__(self) -> str:
        return (
            f"OrbitCoupledChannel(ber={self.ber:g}, "
            f"ref_distance_km={self.ref_distance_km:g}, "
            f"distance_exponent={self.distance_exponent:g}, "
            f"mispointing_gain={self.mispointing_gain:g})"
        )


register_error_model("trace-replay", TraceReplayChannel)
register_error_model("orbit-coupled", OrbitCoupledChannel)


# ---------------------------------------------------------------------------
# Trace files (JSONL)
# ---------------------------------------------------------------------------


def write_trace(
    path: str,
    records: Sequence[Mapping[str, Any]],
    *,
    mode: str,
    model: Optional[str] = None,
    scenario: Optional[str] = None,
    seed: Optional[int] = None,
    bit_rate: Optional[float] = None,
    digest: Optional[str] = None,
    extra: Optional[Mapping[str, Any]] = None,
) -> dict[str, Any]:
    """Write a JSONL trace file; returns the header that was written.

    Line 1 is the header (``kind: "trace-header"``); every further line
    is one record.  See docs/CHANNELS.md for the schema.
    """
    mode, normalised = _normalise_records(records, mode)
    header: dict[str, Any] = {
        "kind": "trace-header",
        "version": TRACE_SCHEMA_VERSION,
        "mode": mode,
        "records": len(normalised),
    }
    for key, value in (
        ("model", model),
        ("scenario", scenario),
        ("seed", seed),
        ("bit_rate", bit_rate),
        ("digest", digest),
    ):
        if value is not None:
            header[key] = value
    if extra:
        header["extra"] = dict(extra)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header) + "\n")
        if mode == "frame":
            for t, bits, error in normalised:
                record = {"error": error}
                if t is not None:
                    record["t"] = t
                if bits is not None:
                    record["bits"] = bits
                handle.write(json.dumps(record) + "\n")
        else:
            for t, ber in normalised:
                handle.write(json.dumps({"t": t, "ber": ber}) + "\n")
    return header


def load_trace(path: str) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Read a JSONL trace file; returns ``(header, records)``.

    Tolerates a missing header (every line a record) so hand-written
    traces stay valid.
    """
    header: dict[str, Any] = {}
    records: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                value = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: invalid JSON: {exc}") from None
            if not isinstance(value, Mapping):
                raise ValueError(
                    f"{path}:{line_no}: trace lines must be JSON objects"
                )
            if value.get("kind") == "trace-header":
                if records:
                    raise ValueError(
                        f"{path}:{line_no}: header must be the first line"
                    )
                header = dict(value)
                version = header.get("version", TRACE_SCHEMA_VERSION)
                if version != TRACE_SCHEMA_VERSION:
                    raise ValueError(
                        f"{path}: unsupported trace schema version {version!r} "
                        f"(this build reads version {TRACE_SCHEMA_VERSION})"
                    )
                continue
            records.append(dict(value))
    return header, records


# ---------------------------------------------------------------------------
# Trace synthesis and replay (the regression loop)
# ---------------------------------------------------------------------------


def delivered_digest(delivered: Sequence[Any]) -> str:
    """SHA-256 over the repr of every delivered payload, in order.

    The bit-identical acceptance check: two runs delivering the same
    payloads in the same order produce the same digest.
    """
    digest = hashlib.sha256()
    for item in delivered:
        digest.update(repr(item).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


@dataclass
class TraceRunResult:
    """Outcome of one recorded or replayed batch transfer."""

    digest: str
    delivered: int
    duration: float
    records: list[dict[str, Any]] = field(default_factory=list)
    header: dict[str, Any] = field(default_factory=dict)


def _run_batch(setup, n_frames: int, max_time: float) -> tuple[int, float]:
    """Drive a FiniteBatch through *setup*; returns (delivered, duration)."""
    from ..workloads.generators import FiniteBatch

    batch = FiniteBatch(setup.sim, setup.endpoint_a, n_frames)
    batch.start()
    if batch.refused:
        raise RuntimeError(
            f"sending buffer refused {batch.refused} frames; lower n_frames"
        )
    completion: dict[str, float] = {}

    def check_done() -> None:
        if len(setup.delivered) >= n_frames and "time" not in completion:
            completion["time"] = setup.sim.now
            setup.sim.stop()

    setup.delivered.on_append = check_done
    setup.sim.run(until=max_time)
    return len(setup.delivered), completion.get("time", setup.sim.now)


def synthesize_trace(
    scenario,
    model: ErrorModelSpec = None,
    *,
    protocol: str = "lams",
    seed: int = 0,
    n_frames: int = 200,
    max_time: float = 60.0,
) -> TraceRunResult:
    """Record a frame-mode trace from *model* driving a batch transfer.

    Builds the scenario's one-way simulation with the resolved *model*
    (default: the scenario's own I-frame model) wrapped in a
    :class:`RecordingChannel` on the forward I-frame direction, runs an
    *n_frames* batch, and returns the recorded trace plus the
    delivered-payload digest.  Replaying the records through
    :func:`replay_trace` with the same arguments reproduces that digest
    bit-identically — the acceptance loop ``python -m repro trace-synth
    --verify`` runs.
    """
    from ..workloads.scenarios import build_simulation

    source = resolve_error_model(
        model if model is not None else scenario.iframe_error_model,
        ber=scenario.iframe_ber,
        bit_rate=scenario.bit_rate,
    )
    recorder = RecordingChannel(source)
    setup = build_simulation(scenario, protocol, seed=seed, iframe_errors=recorder)
    delivered, duration = _run_batch(setup, n_frames, max_time)
    return TraceRunResult(
        digest=delivered_digest(setup.delivered),
        delivered=delivered,
        duration=duration,
        records=recorder.records,
        header={
            "mode": "frame",
            "scenario": scenario.name,
            "protocol": protocol,
            "seed": seed,
            "n_frames": n_frames,
        },
    )


def replay_trace(
    scenario,
    trace: Union[str, Sequence[Any]],
    *,
    protocol: str = "lams",
    seed: int = 0,
    n_frames: int = 200,
    max_time: float = 60.0,
    on_exhausted: str = "raise",
) -> TraceRunResult:
    """Re-run a batch transfer with the trace deciding every frame error.

    *trace* is a path written by :func:`write_trace` or an in-memory
    record sequence (e.g. ``synthesize_trace(...).records``).
    """
    from ..workloads.scenarios import build_simulation

    if isinstance(trace, str):
        channel = TraceReplayChannel(path=trace, on_exhausted=on_exhausted)
    else:
        channel = TraceReplayChannel(
            records=trace, mode="frame", on_exhausted=on_exhausted
        )
    setup = build_simulation(scenario, protocol, seed=seed, iframe_errors=channel)
    delivered, duration = _run_batch(setup, n_frames, max_time)
    return TraceRunResult(
        digest=delivered_digest(setup.delivered),
        delivered=delivered,
        duration=duration,
        records=[],
        header=dict(channel.header),
    )
