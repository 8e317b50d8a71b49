"""Frame-size optimisation.

Two passages of the paper motivate this analysis:

- Section 1 (on NBDT): "Absolute numbering uses 32 bit sequence number
  field … which allows the frame size to be controlled for the optimal
  size" — frame-size control was valuable enough to motivate a whole
  HDLC variant.
- Section 2.3: "the SR ARQ scheme is likely to require long numbering
  size for optimal frame length.  The overhead in short frames is
  significant, which causes performance degradation."

The trade: long frames amortise the per-frame header but are corrupted
more often (``P_F = 1-(1-BER)^L``); short frames survive but drown in
overhead.  For a goodput objective

    ``G(L) = L / ((L + h) · s̄(L))``          (payload per channel bit)

the optimum is approximately ``L* ≈ sqrt(h / BER)`` for small BER —
derived by maximising ``L · (1-BER)^(L+h) / (L+h)``.

Because LAMS-DLC renumbers retransmissions, it can change frame size
*at any time* without renumbering headaches — operationally realising
NBDT's "controlled for the optimal size" idea; HDLC's per-window
numbering makes mid-stream resizing awkward (a qualitative point,
noted in the experiment).
"""

from __future__ import annotations

import math

from ..simulator.errormodel import frame_error_probability
from .errorprobs import mean_transmissions, retransmission_probability_lams

__all__ = [
    "goodput_per_channel_bit",
    "optimal_frame_size_approx",
    "optimal_frame_size",
]


def goodput_per_channel_bit(payload_bits: int, overhead_bits: int, ber: float) -> float:
    """``G(L) = L / ((L+h) · s̄(L))`` — delivered payload per channel bit.

    Uses the LAMS-DLC retransmission law ``s̄ = 1/(1-P_F)``, so
    ``G(L) = (L/(L+h)) · (1-BER)^(L+h)``.
    """
    if payload_bits <= 0:
        raise ValueError("payload_bits must be positive")
    if overhead_bits < 0:
        raise ValueError("overhead_bits cannot be negative")
    total = payload_bits + overhead_bits
    p_f = frame_error_probability(ber, total)
    if p_f >= 1.0:
        return 0.0  # every frame corrupted: nothing ever gets through
    s_bar = mean_transmissions(retransmission_probability_lams(p_f))
    return payload_bits / (total * s_bar)


def optimal_frame_size_approx(overhead_bits: int, ber: float) -> float:
    """The small-BER closed form ``L* ≈ sqrt(h / BER)``.

    From ``d/dL [ln L - ln(L+h) + (L+h)·ln(1-BER)] = 0``:
    ``h / (L(L+h)) = -ln(1-BER) ≈ BER``, i.e. ``L(L+h) = h/BER``,
    whose positive root is ``L* = (sqrt(h² + 4h/BER) - h)/2 ≈
    sqrt(h/BER)`` for ``L* ≫ h``.
    """
    if ber <= 0:
        return math.inf
    if overhead_bits <= 0:
        raise ValueError("overhead must be positive for a finite optimum")
    h = float(overhead_bits)
    return (math.sqrt(h * h + 4.0 * h / ber) - h) / 2.0


def optimal_frame_size(
    overhead_bits: int,
    ber: float,
    low: int = 8,
    high: int = 10_000_000,
) -> int:
    """Numerically exact integer optimum of :func:`goodput_per_channel_bit`.

    Ternary search over the (unimodal) goodput curve.
    """
    if ber <= 0:
        return high
    lo, hi = low, high
    while hi - lo > 2:
        third = (hi - lo) // 3
        m1, m2 = lo + third, hi - third
        if goodput_per_channel_bit(m1, overhead_bits, ber) < goodput_per_channel_bit(
            m2, overhead_bits, ber
        ):
            lo = m1 + 1
        else:
            hi = m2 - 1
    return max(
        range(lo, hi + 1),
        key=lambda size: goodput_per_channel_bit(size, overhead_bits, ber),
    )
