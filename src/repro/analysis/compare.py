"""Model-level comparisons and sweeps: LAMS-DLC vs SR-HDLC.

The benchmark harness calls these to regenerate the paper's comparison
series; they are also usable directly for exploration::

    >>> from repro.analysis import ModelParameters, compare
    >>> p = ModelParameters.from_link(bit_rate=300e6, distance_km=5000)
    >>> row = compare.comparison_row(p, n_frames=10_000)
    >>> row["winner"]
    'LAMS-DLC'
"""

from __future__ import annotations

from typing import Sequence

from . import hdlc as hdlc_model
from . import lams as lams_model
from .params import ModelParameters

__all__ = [
    "comparison_row",
    "sweep",
    "efficiency_ratio",
]


def comparison_row(
    params: ModelParameters, n_frames: int, variant: str = "derived"
) -> dict[str, float | str]:
    """One table row comparing the two protocols at a parameter point."""
    eta_lams = lams_model.throughput_efficiency(params, n_frames)
    eta_hdlc = hdlc_model.throughput_efficiency(params, n_frames, variant)
    return {
        "p_f": params.p_f,
        "p_c": params.p_c,
        "n_frames": n_frames,
        "s_bar_lams": lams_model.s_bar(params),
        "s_bar_hdlc": hdlc_model.s_bar(params),
        "d_low_lams": lams_model.total_delivery_time_low(params, min(n_frames, params.window_size)),
        "d_low_hdlc": hdlc_model.total_delivery_time_low(
            params, min(n_frames, params.window_size), variant
        ),
        "eta_lams": eta_lams,
        "eta_hdlc": eta_hdlc,
        "ratio": eta_lams / eta_hdlc if eta_hdlc > 0 else float("inf"),
        "buffer_lams": lams_model.transparent_buffer_size(params),
        "winner": "LAMS-DLC" if eta_lams >= eta_hdlc else "SR-HDLC",
    }


def sweep(
    base: ModelParameters,
    field: str,
    values: Sequence,
    n_frames: int,
    variant: str = "derived",
) -> list[dict[str, float | str]]:
    """Comparison rows while varying one :class:`ModelParameters` field."""
    rows = []
    for value in values:
        params = base.with_(**{field: value})
        row = comparison_row(params, n_frames, variant)
        row[field] = value
        rows.append(row)
    return rows


def efficiency_ratio(
    params: ModelParameters, n_frames: int, variant: str = "derived"
) -> float:
    """``η_LAMS / η_HDLC`` — >1 where LAMS-DLC wins."""
    return lams_model.throughput_efficiency(params, n_frames) / hdlc_model.throughput_efficiency(
        params, n_frames, variant
    )
