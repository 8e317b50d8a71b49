"""Per-frame delay distribution of LAMS-DLC.

Section 4 derives only *mean* quantities; this module extends the
analysis to quantiles (the ``model`` command prints p50 and p99.99).
The geometric retransmission count makes every per-frame delay a
geometric mixture: a frame delivered on its k-th attempt waits
``(k-1)`` recovery periods plus one final transit.

All quantities derive from the same :class:`ModelParameters` the rest
of the analysis uses.
"""

from __future__ import annotations

import math

from . import lams as lams_model
from .errorprobs import retransmission_probability_lams
from .params import ModelParameters

__all__ = [
    "attempts_for_quantile",
    "lams_delay_for_attempts",
    "lams_delay_quantile",
]


def attempts_for_quantile(p_r: float, quantile: float) -> int:
    """Smallest k with ``P[S <= k] >= quantile`` for geometric S."""
    if not 0.0 < quantile < 1.0:
        raise ValueError("quantile must be in (0, 1)")
    if not 0.0 <= p_r < 1.0:
        raise ValueError("p_r must be in [0, 1)")
    if p_r == 0.0:
        return 1
    # 1 - p_r**k >= q  <=>  k >= log(1-q)/log(p_r)
    return max(1, math.ceil(math.log(1.0 - quantile) / math.log(p_r)))


def lams_delay_for_attempts(params: ModelParameters, attempts: int) -> float:
    """Link delay of a frame delivered on its *attempts*-th try.

    Each failed attempt costs one recovery turnaround — the frame waits
    for the covering checkpoint's NAK and is then re-sent — i.e. one
    ``D_retrn``-shaped period; the final attempt costs transmission plus
    one-way propagation.
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    final_transit = params.iframe_time + params.round_trip_time / 2.0
    recovery = lams_model.retransmission_period(params)
    return (attempts - 1) * recovery + final_transit


def lams_delay_quantile(params: ModelParameters, quantile: float) -> float:
    """q-quantile of the LAMS-DLC per-frame link delay."""
    p_r = retransmission_probability_lams(params.p_f)
    return lams_delay_for_attempts(params, attempts_for_quantile(p_r, quantile))
