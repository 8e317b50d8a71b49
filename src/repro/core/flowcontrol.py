"""Stop-Go flow control (paper Section 3.4).

The receiver sets the Stop-Go bit of each checkpoint command to 1 when
its receive queue threatens to overflow.  The sender then "decreases
the sending rate of I-frames by some predefined value"; repeated
stop indications keep decreasing it, and a go indication increases it
again.  The paper leaves the adjustment law unspecified — we use
multiplicative decrease / additive increase (the stable choice), with
both constants exposed in :class:`~repro.core.config.LamsDlcConfig`.

Rates are expressed as a *fraction of the line rate*; the controller
converts that into an inter-frame gap for the sender's pacing loop.
"""

from __future__ import annotations

__all__ = ["StopGoRateController"]


class StopGoRateController:
    """Multiplicative-decrease / additive-increase sending-rate control.

    Its state is a fixed set of slots: each of an idle constellation's
    senders applies a checkpoint's bit once per ``W_cp`` (docs/TUNING.md
    §12).  While its link is parked (:mod:`repro.core.idle`) the go
    indications of the span are owed, and reading the rate or their
    count settles them first.
    """

    __slots__ = ("decrease_factor", "increase_step", "min_fraction", "enabled",
                 "_rate", "min_fraction_seen", "stop_indications",
                 "_go", "_parked")

    def __init__(
        self,
        decrease_factor: float = 0.5,
        increase_step: float = 0.1,
        min_fraction: float = 0.05,
        enabled: bool = True,
    ) -> None:
        if not 0 < decrease_factor < 1:
            raise ValueError("decrease_factor must be in (0, 1)")
        if increase_step <= 0:
            raise ValueError("increase_step must be positive")
        if not 0 < min_fraction <= 1:
            raise ValueError("min_fraction must be in (0, 1]")
        self.decrease_factor = decrease_factor
        self.increase_step = increase_step
        self.min_fraction = min_fraction
        self.enabled = enabled
        self._rate = 1.0
        self.min_fraction_seen = 1.0
        self.stop_indications = 0
        self._go = 0
        self._parked = None

    @property
    def rate_fraction(self) -> float:
        """The sending rate, as a fraction of the line rate."""
        if self._parked is not None:
            self._parked.settle()
        return self._rate

    @rate_fraction.setter
    def rate_fraction(self, value: float) -> None:
        self._rate = value

    @property
    def go_indications(self) -> int:
        """Go bits applied."""
        if self._parked is not None:
            self._parked.settle()
        return self._go

    def on_stop_go(self, stop: bool) -> None:
        """Apply one checkpoint's Stop-Go bit."""
        if not self.enabled:
            return
        if stop:
            self.stop_indications += 1
            self._rate = max(self.min_fraction, self._rate * self.decrease_factor)
            if self._rate < self.min_fraction_seen:
                self.min_fraction_seen = self._rate
        else:
            self._go += 1
            self._rate = min(1.0, self._rate + self.increase_step)

    def inter_frame_gap(self, transmission_time: float) -> float:
        """Seconds between the *starts* of consecutive I-frames.

        At full rate this is just the serialization time (back-to-back
        frames); at reduced rate the gap stretches proportionally.
        """
        if transmission_time < 0:
            raise ValueError("transmission_time cannot be negative")
        if not self.enabled:
            return transmission_time
        return transmission_time / self.rate_fraction

    def reset(self) -> None:
        """Return to full rate (link re-initialisation)."""
        self._rate = 1.0

    def __repr__(self) -> str:
        return f"StopGoRateController(rate={self._rate:.3f})"
