"""Tests for the closed-form Section-4 model: formula fidelity and shape."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import bounds, compare
from repro.analysis import hdlc as hdlc_model
from repro.analysis import lams as lams_model
from repro.analysis.errorprobs import (
    frame_error_probability,
    geometric_period_pmf,
    mean_checkpoints_needed,
    mean_transmissions,
    retransmission_probability_lams,
    retransmission_probability_piggyback,
    retransmission_probability_posack,
)
from repro.analysis.params import ModelParameters


def make_params(**overrides) -> ModelParameters:
    base = dict(
        round_trip_time=0.0334,
        iframe_time=2.757e-5,
        cframe_time=3.2e-7,
        processing_time=1e-5,
        p_f=0.008,
        p_c=1e-6,
        checkpoint_interval=0.005,
        cumulation_depth=3,
        window_size=64,
        alpha=0.05,
    )
    base.update(overrides)
    return ModelParameters(**base)


class TestErrorProbs:
    def test_lams_pr_is_pf(self):
        assert retransmission_probability_lams(0.01) == 0.01

    def test_posack_formula(self):
        assert retransmission_probability_posack(0.01, 0.02) == pytest.approx(
            0.01 + 0.02 - 0.01 * 0.02
        )

    def test_piggyback_equals_posack_with_equal_probs(self):
        p = 0.013
        assert retransmission_probability_piggyback(p) == pytest.approx(
            retransmission_probability_posack(p, p)
        )

    def test_mean_transmissions_geometric(self):
        assert mean_transmissions(0.0) == 1.0
        assert mean_transmissions(0.5) == 2.0

    def test_pmf_sums_to_one(self):
        p_r = 0.3
        total = sum(geometric_period_pmf(p_r, k) for k in range(1, 200))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_pmf_mean_matches_s_bar(self):
        p_r = 0.2
        mean = sum(k * geometric_period_pmf(p_r, k) for k in range(1, 500))
        assert mean == pytest.approx(mean_transmissions(p_r), rel=1e-9)

    def test_mean_checkpoints(self):
        assert mean_checkpoints_needed(0.0) == 1.0
        assert mean_checkpoints_needed(0.5) == 2.0

    @given(st.floats(min_value=0.0, max_value=0.99), st.floats(min_value=0.0, max_value=0.99))
    def test_posack_never_below_either_input(self, p_f, p_c):
        p_r = retransmission_probability_posack(p_f, p_c)
        assert p_r >= p_f - 1e-15 and p_r >= p_c - 1e-15
        assert p_r <= 1.0

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            mean_transmissions(1.0)
        with pytest.raises(ValueError):
            retransmission_probability_lams(1.5)
        with pytest.raises(ValueError):
            geometric_period_pmf(0.5, 0)


class TestModelParameters:
    def test_from_link_derivations(self):
        params = ModelParameters.from_link(
            bit_rate=300e6, distance_km=5000, iframe_bits=8272, cframe_bits=96,
            iframe_ber=1e-6, cframe_ber=1e-8,
        )
        assert params.round_trip_time == pytest.approx(2 * 5000 / 299792.458)
        assert params.iframe_time == pytest.approx(8272 / 300e6)
        assert params.p_f == pytest.approx(frame_error_probability(1e-6, 8272))
        assert params.p_c == pytest.approx(frame_error_probability(1e-8, 96))

    def test_timeout_property(self):
        params = make_params(alpha=0.07)
        assert params.timeout == pytest.approx(params.round_trip_time + 0.07)

    def test_with_replaces(self):
        params = make_params()
        changed = params.with_(p_f=0.1)
        assert changed.p_f == 0.1 and params.p_f == 0.008

    def test_validation(self):
        with pytest.raises(ValueError):
            make_params(iframe_time=0)
        with pytest.raises(ValueError):
            make_params(p_f=1.0)
        with pytest.raises(ValueError):
            make_params(cumulation_depth=0)


class TestLamsModel:
    def test_s_bar(self):
        params = make_params(p_f=0.01)
        assert lams_model.s_bar(params) == pytest.approx(1 / 0.99)

    def test_transmission_period_formula(self):
        """Exact transcription of D_trans^LAMS(N)."""
        params = make_params()
        n = 10
        n_cp = 1 / (1 - params.p_c)
        expected = (
            n * params.iframe_time
            + params.cframe_time
            + params.processing_time
            + params.round_trip_time
            + (n_cp - 0.5) * params.checkpoint_interval
        )
        assert lams_model.transmission_period(params, n) == pytest.approx(expected)

    def test_retransmission_period_is_single_frame_case(self):
        params = make_params()
        assert lams_model.retransmission_period(params) == pytest.approx(
            lams_model.transmission_period(params, 1)
        )

    def test_d_low_composition(self):
        params = make_params()
        sbar = lams_model.s_bar(params)
        expected = lams_model.transmission_period(params, 20) + (
            sbar - 1
        ) * lams_model.retransmission_period(params)
        assert lams_model.total_delivery_time_low(params, 20) == pytest.approx(expected)

    def test_d_low_approximation_close(self):
        params = make_params()
        exact = lams_model.total_delivery_time_low(params, 100)
        approx = lams_model.total_delivery_time_low(params, 100, approximate=True)
        assert approx == pytest.approx(exact, rel=0.01)

    def test_holding_time_solves_recursion(self):
        """H = (1-P_F) H_succ + P_F (H_succ + H) must hold exactly."""
        params = make_params(p_f=0.05)
        h_frame = lams_model.holding_time(params)
        h_succ = h_frame * (1 - params.p_f)
        assert h_frame == pytest.approx((1 - params.p_f) * h_succ + params.p_f * (h_succ + h_frame))

    def test_buffer_size_formula(self):
        params = make_params()
        expected = (
            lams_model.holding_time(params) / params.iframe_time
            + params.processing_time / params.iframe_time
        )
        assert lams_model.transparent_buffer_size(params) == pytest.approx(expected)

    def test_buffer_grows_with_rtt(self):
        small = lams_model.transparent_buffer_size(make_params(round_trip_time=0.02))
        large = lams_model.transparent_buffer_size(make_params(round_trip_time=0.08))
        assert large > small

    def test_n_total_closed_form(self):
        params = make_params(p_f=0.1)
        assert lams_model.n_total(params, 100) == pytest.approx(100 / 0.9)

    def test_recursion_converges_to_closed_form(self):
        params = make_params(p_f=0.05)
        for n in (10, 1000, 50_000):
            recursive = lams_model.n_total(params, n, recursive=True)
            closed = lams_model.n_total(params, n)
            assert recursive == pytest.approx(closed, rel=1e-6)

    def test_recursion_schedule_conserves_frames(self):
        params = make_params(p_f=0.08)
        schedule = lams_model.subperiod_schedule(params, 5000)
        assert sum(schedule.new_frames) == pytest.approx(5000)
        # Loads are non-negative and eventually drain.
        assert all(load >= 0 for load in schedule.retransmission_load)

    def test_efficiency_increases_with_n(self):
        params = make_params()
        etas = [
            lams_model.throughput_efficiency(params, n)
            for n in (100, 1000, 10_000, 100_000)
        ]
        assert etas == sorted(etas)
        assert etas[-1] < 1.0

    def test_efficiency_decreases_with_error_rate(self):
        low = lams_model.throughput_efficiency(make_params(p_f=0.001), 50_000)
        high = lams_model.throughput_efficiency(make_params(p_f=0.1), 50_000)
        assert low > high


class TestHdlcModel:
    def test_s_bar(self):
        params = make_params(p_f=0.01, p_c=0.02)
        p_r = 0.01 + 0.02 - 0.0002
        assert hdlc_model.s_bar(params) == pytest.approx(1 / (1 - p_r))

    def test_transmission_delay_formula(self):
        params = make_params()
        expected = params.p_c * params.timeout + (1 - params.p_c) * (
            params.round_trip_time + 2 * params.processing_time + params.cframe_time
        )
        assert hdlc_model.transmission_delay(params) == pytest.approx(expected)

    def test_retransmission_period_variants_differ(self):
        params = make_params(p_f=0.05, p_c=0.01, alpha=0.1)
        derived = hdlc_model.retransmission_period(params, "derived")
        paper = hdlc_model.retransmission_period(params, "paper")
        assert derived != pytest.approx(paper)

    def test_derived_variant_weights_alpha_by_failure_probability(self):
        """Sanity: with p_f -> 0 and p_c -> 0 the alpha term vanishes in
        the derived variant (every period resolves immediately)."""
        params = make_params(p_f=1e-12, p_c=1e-12, alpha=0.5)
        derived = hdlc_model.retransmission_period(params, "derived")
        no_alpha = params.iframe_time + params.round_trip_time + (
            2 * params.processing_time + params.cframe_time
        )
        assert derived == pytest.approx(no_alpha, rel=1e-6)

    def test_paper_variant_keeps_alpha_at_low_error(self):
        """The printed algebra retains the full alpha even as errors
        vanish — the inconsistency we document in EXPERIMENTS.md."""
        params = make_params(p_f=1e-12, p_c=1e-12, alpha=0.5)
        paper = hdlc_model.retransmission_period(params, "paper")
        assert paper == pytest.approx(
            params.iframe_time + params.round_trip_time + 0.5, rel=1e-6
        )

    def test_invalid_variant_rejected(self):
        with pytest.raises(ValueError):
            hdlc_model.retransmission_period(make_params(), "bogus")

    def test_d_high_window_decomposition(self):
        params = make_params()
        w = params.window_size
        n = 5 * w
        expected = 5 * hdlc_model.total_delivery_time_low(
            params, hdlc_model.n_total_window(params)
        )
        assert hdlc_model.total_delivery_time_high(params, n) == pytest.approx(expected)

    def test_remainder_window_included(self):
        params = make_params()
        with_remainder = hdlc_model.total_delivery_time_high(params, params.window_size + 5)
        full_only = hdlc_model.total_delivery_time_high(params, params.window_size)
        assert with_remainder > full_only

    def test_efficiency_flat_in_n(self):
        """HDLC pays per window, so efficiency barely moves with N."""
        params = make_params()
        low = hdlc_model.throughput_efficiency(params, params.window_size * 10)
        high = hdlc_model.throughput_efficiency(params, params.window_size * 1000)
        assert high == pytest.approx(low, rel=0.10)

    def test_efficiency_improves_with_window(self):
        small = hdlc_model.throughput_efficiency(make_params(window_size=8), 50_000)
        large = hdlc_model.throughput_efficiency(make_params(window_size=64), 50_000)
        assert large > small

    def test_holding_time_at_least_response_time(self):
        params = make_params()
        assert hdlc_model.holding_time(params) > params.round_trip_time


class TestBounds:
    def test_lams_resolving_period(self):
        params = make_params()
        expected = (
            params.round_trip_time
            + 0.5 * params.checkpoint_interval
            + params.cumulation_depth * params.checkpoint_interval
        )
        assert bounds.lams_resolving_period(params) == pytest.approx(expected)

    def test_lams_numbering_requirement(self):
        params = make_params()
        required = bounds.lams_required_numbering_size(params)
        assert required == math.ceil(
            bounds.lams_resolving_period(params) / params.iframe_time
        )

    def test_hdlc_quantile_grows_without_bound(self):
        params = make_params(p_f=0.05, p_c=0.01)
        q = [0.9, 0.99, 0.999999, 0.999999999]
        sizes = [bounds.hdlc_required_numbering_size_quantile(params, x) for x in q]
        assert sizes == sorted(sizes)
        assert sizes[-1] > sizes[0]

    def test_hdlc_quantile_error_free_is_minimal(self):
        params = make_params(p_f=0.0, p_c=0.0)
        t = bounds.hdlc_holding_time_quantile(params, 0.999)
        assert t == pytest.approx(params.round_trip_time)

    def test_lams_inconsistency_gap_is_one_response_plus_the_cumulation(self):
        params = make_params()
        response = params.round_trip_time + params.cframe_time + params.processing_time
        assert bounds.lams_inconsistency_gap(params) == pytest.approx(
            response + params.cumulation_depth * params.checkpoint_interval
        )


class TestCompare:
    def test_comparison_row_fields(self):
        params = make_params()
        row = compare.comparison_row(params, 10_000)
        assert row["winner"] in ("LAMS-DLC", "SR-HDLC")
        assert row["ratio"] == pytest.approx(row["eta_lams"] / row["eta_hdlc"])

    def test_lams_wins_at_high_traffic(self):
        params = make_params()
        assert compare.comparison_row(params, 100_000)["winner"] == "LAMS-DLC"

    def test_sweep_attaches_field(self):
        params = make_params()
        rows = compare.sweep(params, "p_f", [0.001, 0.01, 0.1], n_frames=10_000)
        assert [row["p_f"] for row in rows] == [0.001, 0.01, 0.1]
