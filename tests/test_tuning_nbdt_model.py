"""Tests for the tuning recommender and the NBDT closed-form model."""

from __future__ import annotations

import pytest

from repro.analysis import nbdt as nbdt_model
from repro.analysis import tuning
from repro.analysis.errorprobs import frame_error_probability
from repro.experiments.runner import measure_batch_transfer, measure_saturated
from repro.workloads import preset


class TestCheckpointIntervalRule:
    def test_wait_budget_respected(self):
        rtt, p_c = 0.03, 1e-6
        w_cp = tuning.recommended_checkpoint_interval(rtt, p_c, wait_budget=0.1)
        n_cp = 1 / (1 - p_c)
        wait = (n_cp - 0.5) * w_cp
        assert wait == pytest.approx(0.1 * rtt, rel=1e-6)

    def test_scales_with_rtt(self):
        short = tuning.recommended_checkpoint_interval(0.01, 0.0)
        long = tuning.recommended_checkpoint_interval(0.06, 0.0)
        assert long == pytest.approx(6 * short)

    def test_validation(self):
        with pytest.raises(ValueError):
            tuning.recommended_checkpoint_interval(0.0, 0.0)
        with pytest.raises(ValueError):
            tuning.recommended_checkpoint_interval(0.01, 0.0, wait_budget=1.0)


class TestCumulationDepthRule:
    def test_epsilon_rule(self):
        # P_C = 1e-3, epsilon = 1e-9 -> need 3 reports.
        depth = tuning.recommended_cumulation_depth(0.005, p_c=1e-3, epsilon=1e-9)
        assert depth == 3

    def test_burst_coverage_rule(self):
        depth = tuning.recommended_cumulation_depth(0.005, p_c=1e-9, mean_burst=0.018)
        assert depth * 0.005 > 0.018

    def test_minimum_depth_two(self):
        assert tuning.recommended_cumulation_depth(0.005, p_c=0.0) == 2

    def test_detection_budget_conflict(self):
        with pytest.raises(ValueError, match="budget"):
            tuning.recommended_cumulation_depth(
                0.01, p_c=1e-9, mean_burst=0.2, detection_budget=0.05
            )


class TestRecommendConfig:
    def test_recommendation_is_valid_and_near_optimal_frame(self):
        config, rationale = tuning.recommend_config(
            bit_rate=300e6, distance_km=5000, iframe_ber=1e-6
        )
        # validate_for_link already ran inside; spot-check the pieces.
        assert config.numbering_size >= 2 * rationale["numbering_rule"].count("") * 0
        assert 4096 <= config.iframe_payload_bits <= 16_384  # near sqrt(h/BER)
        assert rationale["failure_detection_latency"] == pytest.approx(
            config.cumulation_depth * config.checkpoint_interval
        )

    def test_burst_coverage_threaded_through(self):
        config, _ = tuning.recommend_config(
            bit_rate=300e6, distance_km=5000, mean_burst=0.02
        )
        assert config.cumulation_depth * config.checkpoint_interval > 0.02

    @pytest.mark.parametrize("link", [
        dict(bit_rate=float("inf"), distance_km=5000),
        dict(bit_rate=300e6, distance_km=float("inf")),
        dict(bit_rate=300e6, distance_km=float("nan")),
    ])
    def test_non_finite_link_rejected_by_name(self, link):
        """These died with ZeroDivisionError / OverflowError / a NaN
        conversion deep inside the frame-size rule."""
        with pytest.raises(ValueError, match="bit_rate and distance"):
            tuning.recommend_config(**link)

    def test_overrides_passed(self):
        config, _ = tuning.recommend_config(
            bit_rate=300e6, distance_km=5000, zero_duplication=True
        )
        assert config.zero_duplication

    def test_recommended_config_runs_cleanly(self):
        """The recommended configuration must actually work end-to-end."""
        config, _ = tuning.recommend_config(
            bit_rate=300e6, distance_km=5000, iframe_ber=1e-5, cframe_ber=1e-7
        )
        scenario = preset("noisy").with_(
            iframe_payload_bits=config.iframe_payload_bits,
            checkpoint_interval=config.checkpoint_interval,
            cumulation_depth=config.cumulation_depth,
            numbering_bits=config.numbering_bits,
        )
        result = measure_batch_transfer(scenario, "lams", 1000, seed=3, max_time=60.0)
        assert result["completed"]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            tuning.recommend_config(bit_rate=0, distance_km=5000)


class TestNbdtModel:
    def params(self):
        return preset("noisy").model_parameters()

    def test_continuous_efficiency_formula(self):
        params = self.params()
        assert nbdt_model.continuous_efficiency(params) == pytest.approx(1 - params.p_f)

    def test_continuous_matches_simulation(self):
        scenario = preset("noisy")
        measured = measure_saturated(scenario, "nbdt-continuous", 1.5, seed=4)
        predicted = nbdt_model.continuous_efficiency(scenario.model_parameters())
        assert measured["efficiency"] == pytest.approx(predicted, rel=0.05)

    def test_continuous_holding_matches_simulation(self):
        scenario = preset("noisy")
        measured = measure_saturated(scenario, "nbdt-continuous", 1.5, seed=4)
        report_period = 64 * scenario.iframe_time
        predicted = nbdt_model.continuous_holding_time(
            scenario.model_parameters(), report_period
        )
        assert measured["mean_holding_time"] == pytest.approx(predicted, rel=0.25)

    def test_multiphase_bulk_transfer_matches_model(self):
        """Multiphase is a *bulk* protocol: with the whole batch present
        up-front the phase amortisation matches the model."""
        scenario = preset("noisy")
        n = 2000
        result = measure_batch_transfer(
            scenario, "nbdt-multiphase", n, seed=5, max_time=60.0
        )
        predicted = nbdt_model.multiphase_transfer_time(scenario.model_parameters(), n)
        assert result["completed"]
        assert result["duration"] == pytest.approx(predicted, rel=0.30)

    def test_multiphase_efficiency_increases_with_batch(self):
        params = self.params()
        small = nbdt_model.multiphase_efficiency(params, 100)
        large = nbdt_model.multiphase_efficiency(params, 100_000)
        assert large > small

    def test_validation(self):
        params = self.params()
        with pytest.raises(ValueError):
            nbdt_model.continuous_holding_time(params, 0.0)
        with pytest.raises(ValueError):
            nbdt_model.multiphase_transfer_time(params, 0)
