"""E20 — the headline comparison with statistical confidence.

Every simulation number elsewhere is a single seed; this benchmark
replicates the saturated LAMS-DLC vs SR-HDLC comparison across ten
independent seeds and reports 95% confidence intervals.

Asserted: the intervals are tight (the DES is long enough that run-to-
run noise is small), they do not overlap between protocols (the win is
statistically unambiguous), and the LAMS interval contains — or sits
within a few percent of — the Section-4 prediction.
"""

from __future__ import annotations

from conftest import emit

from repro.analysis import lams as lams_model
from repro.experiments.parallel import MeasureSpec, parallel_replicate
from repro.experiments.registry import ExperimentResult
from repro.workloads import preset

SEEDS = range(100, 110)
DURATION = 1.0


def run_replicated() -> tuple[ExperimentResult, dict]:
    scenario = preset("noisy")
    summaries = {}
    rows = []
    for protocol in ("lams", "hdlc"):
        spec = MeasureSpec.create(
            "measure_saturated", scenario, protocol, duration=DURATION
        )
        summary = parallel_replicate(spec, "efficiency", SEEDS)
        summaries[protocol] = summary
        rows.append(
            {
                "protocol": protocol,
                "mean": summary.mean,
                "ci95_half_width": summary.half_width,
                "stdev": summary.stdev,
                "n_seeds": summary.count,
            }
        )
    params = scenario.model_parameters()
    model_eta = lams_model.throughput_efficiency(params, 50_000)
    result = ExperimentResult(
        "E20",
        "Saturated efficiency with 95% CIs over ten seeds (noisy preset)",
        rows,
        notes=f"Section-4 prediction for LAMS-DLC at this point: {model_eta:.4f}.",
    )
    return result, {"summaries": summaries, "model_eta": model_eta}


def test_e20_confidence_intervals(run_once):
    result, extra = run_once(run_replicated)
    emit(result)
    lams = extra["summaries"]["lams"]
    hdlc = extra["summaries"]["hdlc"]

    # Tight intervals: the measurements are stable across seeds.
    assert lams.relative_half_width() < 0.02
    assert hdlc.relative_half_width() < 0.10

    # Statistically unambiguous separation.
    assert not lams.overlaps(hdlc)
    assert lams.low > 10 * hdlc.high

    # The model's prediction is within a few percent of the LAMS CI.
    model_eta = extra["model_eta"]
    assert abs(lams.mean - model_eta) / model_eta < 0.05
