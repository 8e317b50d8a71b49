"""E26 — the Section-4 validation table: every closed form vs the DES.

One row per (preset, protocol, closed form), each a ten-seed mean with
its 95% CI beside the model value.  Asserted:

- every row is ``within`` its (closed form, protocol) tolerance, or a
  ``known`` divergence listed in ``KNOWN_DIVERGENCES`` (causes in
  docs/ANALYSIS.md §8), and every listed divergence still diverges;
- the cross-cell claims of the four experiments this table replaced,
  each under the old test id it carried (E12, E19, E20, E2-sim's
  batch overlay).

``make validation-smoke`` runs this file on every push.
"""

from __future__ import annotations

from conftest import emit

from repro.experiments.registry import KNOWN_DIVERGENCES, e26_validation_table

#: Largest CI half-width relative to the mean, per protocol, at every
#: preset.  long_haul SR-HDLC is the widest (~300 frames a run, five
#: window cycles): 7.7% at the default seed.
HALF_WIDTH_BOUNDS = {"lams": 0.02, "hdlc": 0.10}


def test_e26_validation_table(run_once):
    result = run_once(e26_validation_table, jobs=2)
    emit(result)
    rows = result.rows
    cell = {(r["preset"], r["protocol"], r["metric"]): r
            for r in rows if r["metric"] != "D_low"}
    presets = sorted({r["preset"] for r in rows})

    # One table, one standard.
    for row in rows:
        assert row["n"] >= 10, row
        assert row["verdict"] in ("within", "known"), row
    known = {(r["preset"], r["protocol"], r["metric"])
             for r in rows if r["verdict"] == "known"}
    assert known == set(KNOWN_DIVERGENCES), known ^ set(KNOWN_DIVERGENCES)

    # test_e12_validation.py::test_e12_model_vs_simulation (noisy).
    assert abs(cell[("noisy", "lams", "H_frame")]["ratio"] - 1) < 0.10
    assert abs(cell[("noisy", "lams", "eta")]["ratio"] - 1) < 0.15
    assert 1 / 3 < cell[("noisy", "hdlc", "eta")]["ratio"] < 3

    # test_e19_validation_matrix.py::test_e19_validation_matrix, and
    # E12's ordering: LAMS ahead in model and measurement everywhere.
    for name in presets:
        lams, hdlc = cell[(name, "lams", "eta")], cell[(name, "hdlc", "eta")]
        assert 0.90 < lams["ratio"] < 1.10, (name, lams["ratio"])
        assert 0.4 < hdlc["ratio"] < 1.2, (name, hdlc["ratio"])
        assert lams["model"] > hdlc["model"], name
        assert lams["mean"] > hdlc["mean"], name

    # test_e20_confidence.py::test_e20_confidence_intervals: tight
    # intervals at every preset; on noisy, separated by 10x and the
    # LAMS model within 5% (η at N = delivered, not E20's 50,000).
    for (name, protocol, metric), row in cell.items():
        if metric == "eta":
            bound = HALF_WIDTH_BOUNDS[protocol]
            assert row["ci95_half_width"] / row["mean"] < bound, (name, protocol)
    lams, hdlc = cell[("noisy", "lams", "eta")], cell[("noisy", "hdlc", "eta")]
    assert (lams["mean"] - lams["ci95_half_width"]
            > 10 * (hdlc["mean"] + hdlc["ci95_half_width"]))
    assert abs(lams["ratio"] - 1) < 0.05

    # test_e2_dlow.py::test_e2_measured_overlay: every batch finished
    # (an unfinished one raises), within a small factor of D_low, and
    # the model's LAMS/HDLC ranking holds per batch size.
    batches: dict[int, dict[str, dict]] = {}
    for row in rows:
        if row["metric"] == "D_low":
            assert 0.5 < row["ratio"] < 3.0, row
            batches.setdefault(row["n_frames"], {})[row["protocol"]] = row
    assert sorted(batches) == [16, 64]
    for n, pair in batches.items():
        model_says = pair["hdlc"]["model"] < pair["lams"]["model"]
        measured_says = pair["hdlc"]["mean"] < pair["lams"]["mean"]
        assert model_says == measured_says, n
