"""Channel error models.

The paper's link model (Section 2.2) abstracts the laser inter-satellite
channel to a residual bit error rate after FEC, with two distinct error
processes (Section 2.1): *random* errors from optical noise and *burst*
errors from beam mispointing / tracking loss.  Assumption 9 makes all
errors detectable (CRC), so a model only needs to decide, per frame,
whether that frame is corrupted.

Three models are provided:

- :class:`PerfectChannel` — never corrupts (control case).
- :class:`BernoulliChannel` — i.i.d. bit errors at a fixed BER;
  a frame of ``n`` bits is corrupted with probability ``1-(1-BER)^n``.
- :class:`GilbertElliottChannel` — the standard two-state continuous-
  time burst model: a Good state with low BER and a Bad state (burst)
  with high BER, exponential sojourn times.  This realises the paper's
  burst errors from mispointing, with the mean burst length
  ``L_burst`` that the cumulative-NAK condition
  ``C_depth * W_cp > L_burst`` (Section 3.3) refers to.
"""

from __future__ import annotations

import inspect
import math
from typing import Any, Callable, Mapping, Optional, Protocol, Union

import numpy as np

__all__ = [
    "ErrorModel",
    "ErrorModelSpec",
    "PerfectChannel",
    "BernoulliChannel",
    "GilbertElliottChannel",
    "available_error_models",
    "error_model_factory",
    "frame_error_probability",
    "make_error_model",
    "register_error_model",
    "resolve_error_model",
    "resolve_link_error_models",
    "scalar_draw_window",
    "scenario_error_specs",
]


def frame_error_probability(ber: float, bits: int) -> float:
    """Probability that an *bits*-bit frame suffers at least one bit error.

    Computed in log space to stay accurate for tiny BERs and long frames:
    ``1 - (1-ber)^bits = -expm1(bits * log1p(-ber))``.
    """
    if not 0.0 <= ber <= 1.0:
        raise ValueError(f"BER must be in [0, 1], got {ber!r}")
    if bits < 0:
        raise ValueError(f"negative frame length: {bits!r}")
    if ber == 0.0 or bits == 0:
        return 0.0
    if ber == 1.0:
        return 1.0
    return -math.expm1(bits * math.log1p(-ber))


class ErrorModel(Protocol):
    """Decides per-frame corruption for one channel direction.

    Models may additionally implement the bulk API::

        draw_window(starts, sizes, rng) -> list[bool]

    returning the corruption verdict for each of a FIFO window of frames
    (frame *i* starts at ``starts[i]`` and spans ``sizes[i]`` bits).  The
    bulk path is an optimisation, never a semantic change: it must
    consume exactly the same RNG variates in exactly the same order as
    ``len(sizes)`` successive :meth:`frame_error` calls, so batched and
    scalar runs stay bit-identical (enforced for every registered model
    by ``tests/test_draw_window.py``).  Callers fall back to
    :func:`scalar_draw_window` when the method is absent.
    """

    def frame_error(self, start: float, bits: int, rng: np.random.Generator) -> bool:
        """True if a frame of *bits* bits transmitted at *start* is corrupted.

        *start* is the simulation time the first bit enters the channel;
        models with memory (bursts) use it to evolve their state.
        """
        ...


def scalar_draw_window(
    model: "ErrorModel",
    starts: "list[float]",
    sizes: "list[int]",
    rng: np.random.Generator,
) -> "list[bool]":
    """Reference ``draw_window``: n scalar :meth:`frame_error` calls.

    The fallback for models that predate the bulk API — and, by
    definition, the oracle every native ``draw_window`` must match.
    """
    frame_error = model.frame_error
    return [
        frame_error(start, bits, rng) for start, bits in zip(starts, sizes)
    ]


class PerfectChannel:
    """Error-free channel: every frame arrives intact."""

    def frame_error(self, start: float, bits: int, rng: np.random.Generator) -> bool:
        return False

    def draw_window(
        self,
        starts: "list[float]",
        sizes: "list[int]",
        rng: np.random.Generator,
    ) -> "list[bool]":
        return [False] * len(sizes)

    def buffered_verdicts(self, bits: int, rng: np.random.Generator) -> None:
        """None: every frame to come is intact, and none draws."""
        return None

    def give_back(self, rng: np.random.Generator) -> None:
        """Nothing to give back: this model never fills a buffer."""

    def __repr__(self) -> str:
        return "PerfectChannel()"


class BernoulliChannel:
    """Memoryless random-error channel at a fixed bit error rate."""

    def __init__(self, ber: float) -> None:
        if not 0.0 <= ber <= 1.0:
            raise ValueError(f"BER must be in [0, 1], got {ber!r}")
        self.ber = ber
        # Per-frame-length cache of frame_error_probability: traffic uses
        # a handful of distinct frame sizes, while the expm1/log1p pair is
        # measurably hot when evaluated per frame.
        self._prob_by_bits: dict[int, float] = {}
        # Buffered uniform draws, kept PER GENERATOR.  Generator.random(n)
        # produces exactly the same double sequence as n scalar random()
        # calls, so draw k still sees the k-th variate of the stream —
        # bit-identical results, minus the per-call numpy dispatch
        # overhead.  A single-slot buffer keyed on the last generator
        # would be invalidated on every call when one instance serves two
        # per-direction streams (burning 512 variates per frame and
        # diverging from the scalar reference), so each generator gets
        # its own ``[rng, index, buffer]`` entry.  A channel direction
        # uses one generator, so the list holds at most a few entries.
        self._draws: list[list] = []

    def buffered_verdicts(self, bits: int, rng: np.random.Generator) -> Optional[np.ndarray]:
        """The verdicts of the next frames of *bits* bits on *rng*, as far
        as the buffer holds their variates: a look-ahead, which later
        draws agree with.  A buffer with nothing left is filled first,
        with the 512 variates the next draw would fill it with, so the
        look-ahead is never empty (:meth:`give_back` returns them while
        no draw has read one).  None when such a frame cannot be
        corrupted (and draws nothing)."""
        probability = self._prob_by_bits.get(bits)
        if probability is None:
            probability = self._prob_by_bits[bits] = frame_error_probability(
                self.ber, bits
            )
        if probability == 0.0:
            return None
        for entry in self._draws:
            if entry[0] is rng:
                break
        else:
            entry = [rng, 512, None]
            self._draws.append(entry)
        index = entry[1]
        if index >= 512:
            entry[2] = rng.random(512)
            entry[1] = index = 0
        return entry[2][index:] < probability

    def give_back(self, rng: np.random.Generator) -> None:
        """Undo a look-ahead's fill that no draw has read (a buffer at
        index 0: a draw always takes one): *rng* goes back 512 variates,
        one step each on a :class:`~numpy.random.PCG64` stream, to where
        the next draw, perhaps under another model, would find it."""
        for entry in self._draws:
            if entry[0] is rng and entry[1] == 0:
                entry[1] = 512
                rng.bit_generator.advance(-512)

    def frame_error(self, start: float, bits: int, rng: np.random.Generator) -> bool:
        probability = self._prob_by_bits.get(bits)
        if probability is None:
            probability = self._prob_by_bits[bits] = frame_error_probability(
                self.ber, bits
            )
        # Zero-probability frames must not consume an RNG draw (keeps the
        # random sequence identical to a PerfectChannel run).
        if probability == 0.0:
            return False
        for entry in self._draws:
            if entry[0] is rng:
                break
        else:
            entry = [rng, 0, rng.random(512)]
            self._draws.append(entry)
        index = entry[1]
        if index >= 512:
            entry[2] = rng.random(512)
            index = 0
        entry[1] = index + 1
        return entry[2].item(index) < probability

    def draw_window(
        self,
        starts: "list[float]",
        sizes: "list[int]",
        rng: np.random.Generator,
    ) -> "list[bool]":
        """Bulk verdicts for a FIFO window, bit-identical to scalar draws.

        Variates come from the same per-generator buffer as
        :meth:`frame_error`, consumed in the same order; the only
        difference is that the threshold compare runs as one (or a few)
        numpy slice operations instead of ``n`` ``.item()`` calls.
        Zero-probability frames consume no draw, exactly as in
        :meth:`frame_error`.
        """
        prob_get = self._prob_by_bits.get
        probabilities = []
        drawing = 0
        for bits in sizes:
            probability = prob_get(bits)
            if probability is None:
                probability = self._prob_by_bits[bits] = frame_error_probability(
                    self.ber, bits
                )
            probabilities.append(probability)
            if probability > 0.0:
                drawing += 1
        n = len(probabilities)
        if not drawing:
            return [False] * n
        for entry in self._draws:
            if entry[0] is rng:
                break
        else:
            entry = [rng, 0, rng.random(512)]
            self._draws.append(entry)
        index = entry[1]
        buffer = entry[2]
        # Dominant case: every frame in the window draws at the same
        # probability (equal-size I-frames) — compare whole buffer
        # slices against one threshold.
        first = probabilities[0]
        if drawing == n and all(p == first for p in probabilities):
            verdicts: list[bool] = []
            remaining = n
            while remaining:
                if index >= 512:
                    buffer = entry[2] = rng.random(512)
                    index = 0
                take = min(remaining, 512 - index)
                verdicts.extend(
                    (buffer[index : index + take] < first).tolist()
                )
                index += take
                remaining -= take
            entry[1] = index
            return verdicts
        # Mixed window: per-frame consumption, skipping p == 0 frames.
        verdicts = [False] * n
        for i, probability in enumerate(probabilities):
            if probability == 0.0:
                continue
            if index >= 512:
                buffer = entry[2] = rng.random(512)
                index = 0
            verdicts[i] = buffer.item(index) < probability
            index += 1
        entry[1] = index
        return verdicts

    def __repr__(self) -> str:
        return f"BernoulliChannel(ber={self.ber:g})"


def _settle(
    verdicts: "list[bool]",
    waiting: "list[int]",
    thresholds: "list[float]",
    rng: np.random.Generator,
) -> None:
    """Draw the acceptance variates of the frames *waiting* (in frame
    order) with one ``rng.random(m)``, and empty both lists."""
    for i, variate, threshold in zip(
        waiting, rng.random(len(waiting)).tolist(), thresholds
    ):
        verdicts[i] = variate < threshold
    waiting.clear()
    thresholds.clear()


class GilbertElliottChannel:
    """Two-state Gilbert–Elliott burst-error channel.

    The channel alternates between a *Good* state (BER ``good_ber``) and
    a *Bad* / burst state (BER ``bad_ber``), with exponentially
    distributed sojourn times of means ``mean_good`` and ``mean_bad``
    seconds.  A frame spanning ``[start, start + bits/rate]`` sees each
    state for some fraction of its bits; the frame survives only if no
    bit errors occur under either state's BER.

    The state trajectory is sampled lazily and deterministically from
    the supplied RNG, so one channel instance must always be driven with
    the same generator and with non-decreasing *start* times (links
    transmit FIFO, so this holds by construction for a single channel
    direction).  Sharing one instance across directions interleaves
    non-monotonic times and silently corrupts the state trajectory, so
    :meth:`frame_error` rejects any time regression with a
    :class:`ValueError` — use one instance per direction (what
    :func:`resolve_link_error_models` arranges).

    Parameters
    ----------
    good_ber, bad_ber:
        Residual BER in each state.
    mean_good, mean_bad:
        Mean sojourn seconds; ``mean_bad`` is the paper's mean burst
        length ``L_burst`` expressed in time.
    bit_rate:
        Channel rate in bits/second; converts a frame's bit count into
        the time span it occupies on the channel.
    """

    def __init__(
        self,
        good_ber: float,
        bad_ber: float,
        mean_good: float,
        mean_bad: float,
        bit_rate: float,
    ) -> None:
        for name, value in (("good_ber", good_ber), ("bad_ber", bad_ber)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        for name, value in (
            ("mean_good", mean_good), ("mean_bad", mean_bad), ("bit_rate", bit_rate)
        ):
            if not 0 < value < math.inf:  # NaN fails both comparisons
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        self.good_ber = good_ber
        self.bad_ber = bad_ber
        self.mean_good = mean_good
        self.mean_bad = mean_bad
        self.bit_rate = bit_rate
        self._in_bad = False
        self._state_until = 0.0
        self._initialised = False
        self._last_start = -math.inf
        # log1p(-ber) of each state, indexed by _in_bad: a frame's
        # log-survival per bit.  None for ber == 1, which corrupts every
        # frame without a draw.
        self._log_keep = tuple(
            None if ber >= 1.0 else math.log1p(-ber) for ber in (good_ber, bad_ber)
        )

    @property
    def steady_state_bad_fraction(self) -> float:
        """Long-run fraction of time spent in the burst state."""
        return self.mean_bad / (self.mean_good + self.mean_bad)

    def _advance_to(self, time: float, rng: np.random.Generator) -> None:
        """Evolve the state machine so that ``_state_until > time``."""
        if not self._initialised:
            # Start in steady state: random initial phase.
            self._in_bad = bool(rng.random() < self.steady_state_bad_fraction)
            mean = self.mean_bad if self._in_bad else self.mean_good
            self._state_until = rng.exponential(mean)
            self._initialised = True
        while self._state_until <= time:
            self._in_bad = not self._in_bad
            mean = self.mean_bad if self._in_bad else self.mean_good
            self._state_until += rng.exponential(mean)

    def frame_error(self, start: float, bits: int, rng: np.random.Generator) -> bool:
        if start < self._last_start:
            raise ValueError(
                f"time went backwards in GilbertElliottChannel.frame_error "
                f"({start!r} < {self._last_start!r}); the state trajectory "
                f"assumes FIFO frame times — use one instance per channel "
                f"direction"
            )
        self._last_start = start
        if bits == 0:
            return False
        duration = bits / self.bit_rate
        end = start + duration
        if start < end <= self._state_until and self._initialised:
            # Inside the current sojourn (a *stretch*): no state to walk,
            # no sojourn to draw — the walk below would see one segment,
            # ``segment_bits`` computed exactly as here.
            keep = self._log_keep[self._in_bad]
            if keep is None:
                return True
            probability = -math.expm1((end - start) / duration * bits * keep)
            return probability > 0.0 and rng.random() < probability
        self._advance_to(start, rng)
        # Walk the state intervals overlapped by the frame, accumulating
        # log-survival per segment.
        log_survival = 0.0
        cursor = start
        while cursor < end:
            self._advance_to(cursor, rng)
            segment_end = min(self._state_until, end)
            segment_bits = (segment_end - cursor) / duration * bits
            keep = self._log_keep[self._in_bad]
            if keep is None:
                return True
            log_survival += segment_bits * keep  # adds ±0.0 when ber == 0
            if segment_end >= end:
                break
            cursor = segment_end
        probability = -math.expm1(log_survival)
        if probability <= 0.0:
            return False
        return bool(rng.random() < probability)

    def draw_window(
        self,
        starts: "list[float]",
        sizes: "list[int]",
        rng: np.random.Generator,
    ) -> "list[bool]":
        """Bulk verdicts, bit-identical to scalar draws, one draw per stretch.

        The only draws besides the acceptance variates are sojourns, and
        a frame inside the current sojourn (a *stretch*: it starts no
        earlier than the last frame and ends no later than
        ``_state_until``) draws none.  So the window collects the
        thresholds of a stretch's frames and settles them with one
        ``rng.random(m)``, which yields the same doubles as ``m`` scalar
        calls.  A frame that needs the walk — the model's first, one
        reaching a flip, one going back in time (which raises) — first
        settles what is collected, keeping every variate in frame order,
        then goes through :meth:`frame_error`.  Each threshold comes
        from the frame's own ``segment_bits``, never a per-size cache:
        it differs from ``bits`` in the last place.
        """
        verdicts = [False] * len(sizes)
        waiting: list[int] = []
        thresholds: list[float] = []
        bit_rate = self.bit_rate
        expm1 = math.expm1
        last = self._last_start
        until = self._state_until if self._initialised else -math.inf
        keep = self._log_keep[self._in_bad]
        wait = waiting.append
        threshold = thresholds.append
        i = -1
        for start, bits in zip(starts, sizes):
            i += 1
            # A NaN start or a zero-bit frame takes the scalar path.
            if start >= last and bits:
                duration = bits / bit_rate
                end = start + duration
                if start < end <= until:
                    last = start
                    if keep is None:
                        verdicts[i] = True
                        continue
                    probability = -expm1((end - start) / duration * bits * keep)
                    if probability > 0.0:
                        wait(i)
                        threshold(probability)
                    continue
            self._last_start = last
            if waiting:
                _settle(verdicts, waiting, thresholds, rng)
            verdicts[i] = self.frame_error(start, bits, rng)
            last = self._last_start
            until = self._state_until
            keep = self._log_keep[self._in_bad]
        self._last_start = last
        if waiting:
            _settle(verdicts, waiting, thresholds, rng)
        return verdicts

    def __repr__(self) -> str:
        return (
            f"GilbertElliottChannel(good_ber={self.good_ber:g}, "
            f"bad_ber={self.bad_ber:g}, mean_good={self.mean_good:g}, "
            f"mean_bad={self.mean_bad:g})"
        )


# ---------------------------------------------------------------------------
# The error-model registry
# ---------------------------------------------------------------------------

ErrorModelSpec = Union[
    "ErrorModel", str, tuple, Mapping[str, Any], None
]
"""Anything :func:`resolve_error_model` accepts: a ready instance, a
registered name (``"perfect"``, ``"bernoulli"``, ``"gilbert-elliott"``),
a ``(name, kwargs)`` pair, a ``{"model": name, **kwargs}`` mapping, or
``None`` (pick from the link's BER)."""


_ERROR_MODELS: dict[str, Callable[..., ErrorModel]] = {}


def register_error_model(name: str, factory: Optional[Callable[..., ErrorModel]] = None):
    """Register *factory* under *name*; usable as a decorator.

    Mirrors the protocol-alias registry of :mod:`repro.core.endpoint`:
    third-party models plug in with one call and are immediately
    constructible by name from :class:`~repro.workloads.scenarios.LinkScenario`,
    :func:`repro.api.build_simulation`, and the fault layer.
    """

    def _register(fn: Callable[..., ErrorModel]) -> Callable[..., ErrorModel]:
        _ERROR_MODELS[name.lower()] = fn
        return fn

    return _register(factory) if factory is not None else _register


def available_error_models() -> list[str]:
    """Every registered error-model name (sorted)."""
    return sorted(_ERROR_MODELS)


def error_model_factory(name: str) -> Callable[..., ErrorModel]:
    """The factory registered under *name* (case-insensitive)."""
    try:
        return _ERROR_MODELS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown error model {name!r} "
            f"(use one of: {', '.join(available_error_models())})"
        ) from None


# Accepted-parameter sets per factory, computed once: ConstellationBuilder
# resolves models for every link of a constellation, and re-running
# inspect.signature per link is measurably hot at 1000 links.
_FACTORY_ACCEPTS: dict[Callable[..., ErrorModel], tuple[frozenset, bool]] = {}


def _factory_accepts(factory: Callable[..., ErrorModel]) -> tuple[frozenset, bool]:
    """``(keyword-parameter names, accepts **kwargs)`` for *factory*, cached."""
    try:
        return _FACTORY_ACCEPTS[factory]
    except KeyError:
        pass
    parameters = inspect.signature(factory).parameters.values()
    names = frozenset(
        p.name
        for p in parameters
        if p.kind
        in (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    )
    var_keyword = any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters)
    result = _FACTORY_ACCEPTS[factory] = (names, var_keyword)
    return result


def make_error_model(
    name: str,
    context: Optional[Mapping[str, Any]] = None,
    **kwargs: Any,
) -> ErrorModel:
    """Build the registered model *name* from keyword arguments.

    *context* supplies defaults for constructor parameters the caller
    did not pass explicitly — the link layer uses it to thread its own
    ``ber`` and ``bit_rate`` into whichever model a scenario names, so
    ``make_error_model("bernoulli", {"ber": 1e-6})`` and
    ``make_error_model("gilbert-elliott", {"bit_rate": 3e8}, ...)`` both
    work without the caller knowing each model's signature.  A factory
    taking ``**kwargs`` receives every non-``None`` context entry.
    """
    factory = error_model_factory(name)
    if context:
        accepted, var_keyword = _factory_accepts(factory)
        for key, value in context.items():
            if (
                (var_keyword or key in accepted)
                and key not in kwargs
                and value is not None
            ):
                kwargs[key] = value
    return factory(**kwargs)


def resolve_error_model(
    spec: ErrorModelSpec,
    *,
    ber: float = 0.0,
    bit_rate: Optional[float] = None,
    context: Optional[Mapping[str, Any]] = None,
) -> ErrorModel:
    """Turn any :data:`ErrorModelSpec` into a live :class:`ErrorModel`.

    ``None`` keeps the historical default — Bernoulli at *ber* when the
    BER is nonzero, perfect otherwise — so every existing call site is a
    degenerate case of the registry.  *context* entries are merged over
    the ``ber``/``bit_rate`` defaults and offered to the factory the
    same way (the topology layer uses this to thread a link's orbital
    ``geometry`` into models that can use it).
    """
    if spec is None:
        return BernoulliChannel(ber) if ber else PerfectChannel()
    if isinstance(spec, str):
        name, kwargs = spec, {}
    elif isinstance(spec, Mapping):
        kwargs = dict(spec)
        try:
            name = kwargs.pop("model")
        except KeyError:
            raise ValueError(
                f"error-model mapping needs a 'model' key: {spec!r}"
            ) from None
    elif isinstance(spec, tuple):
        if len(spec) != 2:
            raise ValueError(f"error-model tuple must be (name, kwargs): {spec!r}")
        name, params = spec
        # The second element must be mapping-shaped: a Mapping proper or
        # an iterable of (key, value) pairs (the frozen chaos episode
        # specs use nested pair-tuples).  Anything else used to surface
        # as a confusing TypeError deep inside dict().
        if isinstance(params, Mapping):
            kwargs = dict(params)
        elif isinstance(params, str) or not hasattr(params, "__iter__"):
            raise ValueError(
                f"error-model tuple must be (name, kwargs) with a mapping "
                f"(or key/value pairs) second element, "
                f"got {type(params).__name__}: {spec!r}"
            )
        else:
            try:
                kwargs = dict(params)
            except (TypeError, ValueError):
                raise ValueError(
                    f"error-model tuple must be (name, kwargs) with a mapping "
                    f"(or key/value pairs) second element: {spec!r}"
                ) from None
    else:
        # Already a model instance (anything with frame_error).
        if not hasattr(spec, "frame_error"):
            raise TypeError(f"not an error-model spec: {spec!r}")
        return spec
    merged: dict[str, Any] = {"ber": ber, "bit_rate": bit_rate}
    if context:
        merged.update(context)
    return make_error_model(name, merged, **kwargs)


def _is_model_instance(spec: ErrorModelSpec) -> bool:
    """True when *spec* is already a live model rather than a recipe."""
    return not (spec is None or isinstance(spec, (str, tuple, Mapping)))


_SpecAndBer = tuple[ErrorModelSpec, float]


def _feedback(
    forward: _SpecAndBer, spec: ErrorModelSpec, ber: Optional[float]
) -> _SpecAndBer:
    """reverse > forward: a feedback-direction spec or BER left unset
    mirrors the forward one."""
    return (
        spec if spec is not None else forward[0],
        ber if ber is not None else forward[1],
    )


def scenario_error_specs(
    scenario: Any,
    *,
    error_model: ErrorModelSpec = None,
    iframe_errors: ErrorModelSpec = None,
    cframe_errors: ErrorModelSpec = None,
    reverse_iframe_errors: ErrorModelSpec = None,
    reverse_cframe_errors: ErrorModelSpec = None,
) -> dict[str, tuple[_SpecAndBer, _SpecAndBer]]:
    """The one statement of scenario -> error-model precedence.

    Returns ``{"forward": (iframe, cframe), "reverse": (iframe,
    cframe)}``, each entry the ``(spec, ber)`` pair that direction's
    frame class resolves from.  An explicit override beats the
    *scenario*'s ``*_error_model`` field (*error_model* is the I-frame
    shorthand for *iframe_errors*); the reverse direction — receiver ->
    sender, carrying checkpoints and NAKs — takes its own override, then
    the scenario's ``reverse_*`` field, then whatever the forward
    direction resolved to, override included.  BERs come from the
    scenario only.  Pure: nothing is instantiated, so the DES link
    (:func:`resolve_link_error_models`) and the UDP impairments read the
    same answer.
    """
    if error_model is not None and iframe_errors is not None:
        raise ValueError("pass error_model or iframe_errors, not both")

    def first(*specs: ErrorModelSpec) -> ErrorModelSpec:
        return next((spec for spec in specs if spec is not None), None)

    iframe = (
        first(error_model, iframe_errors, scenario.iframe_error_model),
        scenario.iframe_ber,
    )
    cframe = (
        first(cframe_errors, scenario.cframe_error_model),
        scenario.cframe_ber,
    )
    return {
        "forward": (iframe, cframe),
        "reverse": (
            _feedback(
                iframe,
                first(reverse_iframe_errors, scenario.reverse_iframe_error_model),
                scenario.reverse_iframe_ber,
            ),
            _feedback(
                cframe,
                first(reverse_cframe_errors, scenario.reverse_cframe_error_model),
                scenario.reverse_cframe_ber,
            ),
        ),
    }


def resolve_link_error_models(
    *,
    iframe: ErrorModelSpec = None,
    cframe: ErrorModelSpec = None,
    reverse_iframe: ErrorModelSpec = None,
    reverse_cframe: ErrorModelSpec = None,
    iframe_ber: float = 0.0,
    cframe_ber: float = 0.0,
    reverse_iframe_ber: Optional[float] = None,
    reverse_cframe_ber: Optional[float] = None,
    bit_rate: Optional[float] = None,
    context: Optional[Mapping[str, Any]] = None,
) -> tuple[ErrorModel, ErrorModel, Optional[ErrorModel], Optional[ErrorModel]]:
    """Resolve the four per-direction models of one full-duplex link.

    Returns ``(iframe, cframe, reverse_iframe, reverse_cframe)`` ready
    for :class:`~repro.simulator.link.FullDuplexLink`.  Reverse specs
    and BERs default to the forward ones, giving the historical
    symmetric link; setting either independently realises an asymmetric
    feedback channel (checkpoint/NAK loss decoupled from forward BER).

    Constructible specs (name / tuple / mapping / ``None``) always
    yield a FRESH instance per direction: stateful models
    (Gilbert–Elliott, trace replay) must never be driven by two RNG
    streams at interleaved times.  A reverse entry is ``None`` — "share
    the forward instance", the legacy behaviour — only when the forward
    spec is already a live instance and nothing overrides the reverse
    direction.
    """
    fwd_iframe = resolve_error_model(
        iframe, ber=iframe_ber, bit_rate=bit_rate, context=context
    )
    fwd_cframe = resolve_error_model(
        cframe, ber=cframe_ber, bit_rate=bit_rate, context=context
    )

    def _reverse(forward_spec, reverse_spec, forward_ber, reverse_ber):
        if (
            reverse_spec is None
            and reverse_ber is None
            and _is_model_instance(forward_spec)
        ):
            return None  # legacy: FullDuplexLink shares the forward instance
        spec, direction_ber = _feedback(
            (forward_spec, forward_ber), reverse_spec, reverse_ber
        )
        return resolve_error_model(
            spec, ber=direction_ber, bit_rate=bit_rate, context=context
        )

    return (
        fwd_iframe,
        fwd_cframe,
        _reverse(iframe, reverse_iframe, iframe_ber, reverse_iframe_ber),
        _reverse(cframe, reverse_cframe, cframe_ber, reverse_cframe_ber),
    )


register_error_model("perfect", PerfectChannel)
register_error_model("bernoulli", BernoulliChannel)
register_error_model("gilbert-elliott", GilbertElliottChannel)
