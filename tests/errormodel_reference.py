"""A differential oracle for ``GilbertElliottChannel``'s stretch path.

:class:`ReferenceGilbertElliott` is the Gilbert–Elliott channel as it was
before frames inside one sojourn were settled together: every frame,
scalar or in a window, walks the state machine with ``_advance_to`` and
draws its own acceptance variate with a scalar ``rng.random()``.  It has
no ``draw_window``, so a link (and :func:`scalar_draw_window`) steps a
window through :meth:`frame_error` frame by frame — exactly what the old
``draw_window`` did.  It is kept here, and only here, as the thing the
shipped model must agree with: the same verdicts, the same RNG state and
the same ``(_in_bad, _state_until, _last_start)`` after every call.
"""

from __future__ import annotations

import math

import numpy as np


class ReferenceGilbertElliott:
    """Per-frame state walk and scalar draw (the old code, verbatim)."""

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
        if mean_good <= 0 or mean_bad <= 0:
            raise ValueError("state sojourn means must be positive")
        if bit_rate <= 0:
            raise ValueError("bit_rate must be positive")
        self.good_ber = good_ber
        self.bad_ber = bad_ber
        self.mean_good = mean_good
        self.mean_bad = mean_bad
        self.bit_rate = bit_rate
        self._in_bad = False
        self._state_until = 0.0
        self._initialised = False
        self._last_start = -math.inf

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
        self._advance_to(start, rng)
        # Walk the state intervals overlapped by the frame, accumulating
        # log-survival per segment.
        log_survival = 0.0
        cursor = start
        while cursor < end:
            self._advance_to(cursor, rng)
            segment_end = min(self._state_until, end)
            segment_bits = (segment_end - cursor) / duration * bits
            ber = self.bad_ber if self._in_bad else self.good_ber
            if ber >= 1.0:
                return True
            if ber > 0.0:
                log_survival += segment_bits * math.log1p(-ber)
            if segment_end >= end:
                break
            cursor = segment_end
        probability = -math.expm1(log_survival)
        if probability <= 0.0:
            return False
        return bool(rng.random() < probability)


def model_state(model) -> tuple:
    """What the two models must agree on between calls."""
    return (
        model._initialised,
        model._in_bad,
        model._state_until,
        model._last_start,
    )
