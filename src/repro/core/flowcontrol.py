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
    §12).
    """

    __slots__ = ("decrease_factor", "increase_step", "min_fraction", "enabled",
                 "rate_fraction", "min_fraction_seen", "stop_indications",
                 "go_indications")

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
        self.rate_fraction = 1.0
        self.min_fraction_seen = 1.0
        self.stop_indications = 0
        self.go_indications = 0

    def on_stop_go(self, stop: bool) -> None:
        """Apply one checkpoint's Stop-Go bit."""
        if not self.enabled:
            return
        if stop:
            self.stop_indications += 1
            self.rate_fraction = max(
                self.min_fraction, self.rate_fraction * self.decrease_factor
            )
            if self.rate_fraction < self.min_fraction_seen:
                self.min_fraction_seen = self.rate_fraction
        else:
            self.go_indications += 1
            self.rate_fraction = min(1.0, self.rate_fraction + self.increase_step)

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
        self.rate_fraction = 1.0

    def __repr__(self) -> str:
        return f"StopGoRateController(rate={self.rate_fraction:.3f})"
