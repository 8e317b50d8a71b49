"""E2 — low-traffic total delivery time D_low(N) (paper Section 4).

Regenerates ``D_low^LAMS(N)`` and ``D_low^HDLC(N)`` (both the derived
and the paper-printed HDLC variant) over batch sizes up to one window.

Paper shape asserted: the two protocols are near-equivalent when
``alpha`` is small and ``P_C`` tiny (the paper's stated equivalence
point), and LAMS-DLC wins once ``alpha`` is large (high mobility) or
the error rate is high.  The measured batch times are E26's ``D_low``
rows (``test_e26_validation.py``).
"""

from __future__ import annotations

from conftest import emit

from repro.analysis import hdlc as hdlc_model
from repro.analysis import lams as lams_model
from repro.experiments.registry import e2_delivery_time
from repro.workloads import preset


def test_e2_delivery_time_series(run_once):
    result = run_once(e2_delivery_time)
    emit(result)
    # D_low grows with N for both protocols, and the approximation
    # tracks the exact form closely.
    lams = result.column("d_low_lams")
    hdlc = result.column("d_low_hdlc")
    assert lams == sorted(lams)
    assert hdlc == sorted(hdlc)
    for exact, approx in zip(lams, result.column("d_low_lams_approx")):
        assert abs(exact - approx) / exact < 0.02


def test_e2_near_parity_at_benign_point(run_once):
    """alpha -> 0, P_C -> 0: the paper says the totals are nearly equal."""
    params = preset("nominal").with_(
        alpha=0.0, cframe_ber=0.0, iframe_ber=1e-7
    ).model_parameters()
    n = params.window_size
    d_lams = run_once(lams_model.total_delivery_time_low, params, n)
    d_hdlc = hdlc_model.total_delivery_time_low(params, n)
    assert abs(d_lams - d_hdlc) / d_hdlc < 0.25


def test_e2_lams_wins_under_mobility_and_noise(run_once):
    """Large alpha (mobile network) + high BER: LAMS-DLC delivers faster."""
    params = preset("noisy").with_(alpha=0.5).model_parameters()
    n = params.window_size
    d_lams = run_once(lams_model.total_delivery_time_low, params, n)
    assert d_lams < hdlc_model.total_delivery_time_low(params, n)

