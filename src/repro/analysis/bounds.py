"""Structural bounds: numbering size, resolving period, inconsistency gap.

Sections 2.3 and 3.3 argue two qualitative results that don't appear
in the throughput algebra but are the protocol's *correctness* selling
points; this module makes each quantitative:

1. **Numbering size.**  LAMS-DLC's renumbering bounds a frame's holding
   time by the resolving period ``R + W_cp/2 + C_depth·W_cp``, so the
   sequence space need only cover that many frame-times.  HDLC keeps
   one number per frame for an *unbounded* holding time (geometric
   retransmissions), so its required numbering size has no bound — we
   expose the distribution's quantiles instead.

2. **Inconsistency gap.**  The time the two ends' state variables may
   disagree: bounded for LAMS-DLC (periodic responses), unbounded for
   a pos-ack scheme on a noisy link (a frame can be repeatedly
   corrupted with the sender none the wiser).
"""

from __future__ import annotations

import math

from .errorprobs import retransmission_probability_posack
from .params import ModelParameters

__all__ = [
    "lams_resolving_period",
    "lams_required_numbering_size",
    "lams_inconsistency_gap",
    "hdlc_holding_time_quantile",
    "hdlc_required_numbering_size_quantile",
]


def lams_resolving_period(params: ModelParameters) -> float:
    """``R + ½ W_cp + C_depth W_cp`` — LAMS-DLC's bounded holding time."""
    return (
        params.round_trip_time
        + 0.5 * params.checkpoint_interval
        + params.cumulation_depth * params.checkpoint_interval
    )


def lams_required_numbering_size(params: ModelParameters) -> int:
    """``⌈resolving_period / t_f⌉`` — the bounded numbering requirement."""
    return math.ceil(lams_resolving_period(params) / params.iframe_time)


def lams_inconsistency_gap(params: ModelParameters) -> float:
    """Bound on the ends' state disagreement (Section 2.3).

    "the periodic responses in LAMS-DLC guarantee that the
    inconsistency gap will not exceed the expected normal response time
    plus ``C_depth · I_cp``".
    """
    normal_response = params.round_trip_time + params.cframe_time + params.processing_time
    return normal_response + params.cumulation_depth * params.checkpoint_interval


def hdlc_holding_time_quantile(params: ModelParameters, quantile: float) -> float:
    """Holding-time quantile for SR-HDLC — the *unbounded* side.

    A frame needs ``k`` periods with probability
    ``(1-P_R) P_R^(k-1)``; each extra period costs at least ``t_out``.
    The q-quantile of the geometric count times the timeout gives the
    holding time not exceeded with probability *q* — which grows
    without bound as ``q → 1``, which is precisely why HDLC's
    ``H_frame`` (and hence its numbering requirement) is unbounded.
    """
    if not 0.0 < quantile < 1.0:
        raise ValueError("quantile must be in (0, 1)")
    p_r = retransmission_probability_posack(params.p_f, params.p_c)
    if p_r == 0.0:
        k = 1
    else:
        # Smallest k with P[S <= k] = 1 - P_R^k >= quantile.
        k = max(1, math.ceil(math.log(1.0 - quantile) / math.log(p_r)))
    return params.round_trip_time + (k - 1) * params.timeout


def hdlc_required_numbering_size_quantile(params: ModelParameters, quantile: float) -> int:
    """Numbering size covering the q-quantile holding time for SR-HDLC."""
    return math.ceil(hdlc_holding_time_quantile(params, quantile) / params.iframe_time)
