"""Configuration tuning: the paper's design rules as an algorithm.

Sections 2.3–3.4 scatter the rules for choosing LAMS-DLC's knobs; this
module collects them into :func:`recommend_config`:

1. **Checkpoint interval** ``W_cp`` — the buffer-control knob.  Smaller
   means a smaller transparent buffer and shorter holding time, but
   more control-channel overhead.  We pick the largest ``W_cp`` whose
   checkpoint-wait contribution stays below ``wait_budget`` of the RTT
   (the wait term ``(n̄_cp − ½)·W_cp`` is what η loses to checkpointing).
2. **Cumulation depth** ``C_depth`` — robustness vs latency.  Must make
   cumulative NAK loss negligible (``P_C^C_depth < epsilon``) *and*
   cover the channel's burst length (``C_depth·W_cp > L_burst``,
   Section 3.3); failure-detection latency ``C_depth·W_cp`` should not
   exceed ``detection_budget``.
3. **Numbering bits** — the smallest power of two covering the
   Section 3.3 bound with a safety factor of two.
4. **Frame size** — the Section 2.3 goodput optimum
   ``L* ≈ sqrt(h/BER)`` (see :mod:`repro.analysis.framesize`), snapped
   into caller-supplied limits.

The result is a ready :class:`~repro.core.config.LamsDlcConfig`, plus a
rationale dict for reporting.
"""

from __future__ import annotations

import math
from typing import Any, Optional

from ..core.config import LamsDlcConfig
from ..simulator.errormodel import frame_error_probability
from . import framesize

__all__ = ["recommend_config", "recommended_cumulation_depth", "recommended_checkpoint_interval"]


def recommended_checkpoint_interval(
    round_trip_time: float,
    p_c: float,
    wait_budget: float = 0.10,
) -> float:
    """Largest ``W_cp`` keeping the checkpoint wait under *wait_budget*·RTT.

    The per-frame delivery overhead beyond the RTT is
    ``(n̄_cp − ½)·W_cp ≈ W_cp/2`` for small ``P_C``; bounding it by
    ``wait_budget · R`` gives ``W_cp = 2·wait_budget·R/(2·n̄_cp − 1)``.
    """
    if round_trip_time <= 0:
        raise ValueError("round_trip_time must be positive")
    if not 0 < wait_budget < 1:
        raise ValueError("wait_budget must be in (0, 1)")
    n_cp = 1.0 / (1.0 - p_c)
    return 2.0 * wait_budget * round_trip_time / (2.0 * n_cp - 1.0)


def recommended_cumulation_depth(
    w_cp: float,
    p_c: float,
    mean_burst: float = 0.0,
    epsilon: float = 1e-9,
    detection_budget: Optional[float] = None,
) -> int:
    """Smallest ``C_depth`` meeting the loss, burst, and latency rules.

    - NAK-loss negligibility: ``P_C^C_depth < epsilon`` (the paper's
      footnote-1 condition);
    - burst coverage: ``C_depth · W_cp > mean_burst`` (Section 3.3);
    - failure-detection latency: ``C_depth · W_cp <= detection_budget``
      (when given) — raises if the constraints conflict.
    """
    if w_cp <= 0:
        raise ValueError("w_cp must be positive")
    if p_c <= 0:
        from_loss = 1
    else:
        from_loss = max(1, math.ceil(math.log(epsilon) / math.log(p_c)))
    from_burst = max(1, math.ceil(mean_burst / w_cp) + 1) if mean_burst > 0 else 1
    depth = max(from_loss, from_burst, 2)  # depth 1 leaves no slack at all
    if detection_budget is not None and depth * w_cp > detection_budget:
        raise ValueError(
            f"C_depth={depth} needs {depth * w_cp:.4f}s to detect failures, "
            f"over the {detection_budget:.4f}s budget; shrink W_cp or relax "
            "the burst/epsilon requirements"
        )
    return depth


def recommend_config(
    bit_rate: float,
    distance_km: float,
    iframe_ber: float = 1e-6,
    cframe_ber: float = 1e-8,
    overhead_bits: int = 80,
    cframe_bits: int = 96,
    mean_burst: float = 0.0,
    wait_budget: float = 0.10,
    detection_budget: Optional[float] = None,
    min_payload_bits: int = 512,
    max_payload_bits: int = 65_536,
    **config_overrides: Any,
) -> tuple[LamsDlcConfig, dict[str, Any]]:
    """A tuned :class:`LamsDlcConfig` for the given physical link.

    Returns ``(config, rationale)`` where *rationale* records each
    chosen value and the rule that produced it.
    """
    if not (0 < bit_rate < math.inf and 0 < distance_km < math.inf):  # NaN too
        raise ValueError("bit_rate and distance must be positive and finite")

    from ..simulator.link import LIGHT_SPEED_KM_S

    round_trip = 2.0 * distance_km / LIGHT_SPEED_KM_S

    # Frame size: the Section-2.3 goodput optimum, clamped.
    optimum = framesize.optimal_frame_size(overhead_bits, iframe_ber,
                                           low=min_payload_bits,
                                           high=max_payload_bits)
    payload_bits = min(max(optimum, min_payload_bits), max_payload_bits)

    p_c = frame_error_probability(cframe_ber, cframe_bits)
    w_cp = recommended_checkpoint_interval(round_trip, p_c, wait_budget)
    c_depth = recommended_cumulation_depth(
        w_cp, p_c, mean_burst=mean_burst, detection_budget=detection_budget
    )

    frame_time = (payload_bits + overhead_bits) / bit_rate
    resolving = round_trip + (0.5 + c_depth) * w_cp
    required_numbers = math.ceil(resolving / frame_time)
    numbering_bits = max(4, math.ceil(math.log2(2 * required_numbers)))

    config = LamsDlcConfig(
        checkpoint_interval=w_cp,
        cumulation_depth=c_depth,
        iframe_payload_bits=payload_bits,
        iframe_overhead_bits=overhead_bits,
        cframe_base_bits=cframe_bits,
        numbering_bits=min(numbering_bits, 32),
        **config_overrides,
    )
    config.validate_for_link(round_trip, bit_rate)
    rationale = {
        "round_trip_time": round_trip,
        "payload_bits": payload_bits,
        "payload_rule": "goodput optimum sqrt(h/BER), clamped",
        "checkpoint_interval": w_cp,
        "checkpoint_rule": f"wait <= {wait_budget:.0%} of RTT",
        "cumulation_depth": c_depth,
        "cumulation_rule": "max(NAK-loss epsilon, burst coverage, 2)",
        "numbering_bits": config.numbering_bits,
        "numbering_rule": f"2x the resolving-period bound ({required_numbers} frames)",
        "failure_detection_latency": c_depth * w_cp,
    }
    return config, rationale
