"""Tests for channel error models, including hypothesis properties."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.errormodel import (
    BernoulliChannel,
    GilbertElliottChannel,
    PerfectChannel,
    frame_error_probability,
)


def _rng(seed: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


class TestFrameErrorProbability:
    def test_zero_ber_is_zero(self):
        assert frame_error_probability(0.0, 10_000) == 0.0

    def test_zero_bits_is_zero(self):
        assert frame_error_probability(0.5, 0) == 0.0

    def test_certain_error(self):
        assert frame_error_probability(1.0, 1) == 1.0

    def test_matches_direct_formula(self):
        ber, bits = 1e-4, 1000
        expected = 1 - (1 - ber) ** bits
        assert frame_error_probability(ber, bits) == pytest.approx(expected, rel=1e-12)

    def test_accurate_for_tiny_ber(self):
        # Naive (1-p)^n loses precision here; expm1/log1p must not.
        p = frame_error_probability(1e-15, 1000)
        assert p == pytest.approx(1e-12, rel=1e-6)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            frame_error_probability(-0.1, 10)
        with pytest.raises(ValueError):
            frame_error_probability(1.1, 10)
        with pytest.raises(ValueError):
            frame_error_probability(0.5, -1)

    @given(
        ber=st.floats(min_value=0.0, max_value=1.0),
        bits_a=st.integers(min_value=0, max_value=10_000),
        bits_b=st.integers(min_value=0, max_value=10_000),
    )
    def test_monotone_in_length(self, ber, bits_a, bits_b):
        """Longer frames are never less likely to be corrupted."""
        low, high = sorted((bits_a, bits_b))
        assert frame_error_probability(ber, low) <= frame_error_probability(ber, high) + 1e-15

    @given(
        ber_a=st.floats(min_value=0.0, max_value=1.0),
        ber_b=st.floats(min_value=0.0, max_value=1.0),
        bits=st.integers(min_value=1, max_value=10_000),
    )
    def test_monotone_in_ber(self, ber_a, ber_b, bits):
        low, high = sorted((ber_a, ber_b))
        assert frame_error_probability(low, bits) <= frame_error_probability(high, bits) + 1e-15

    @given(
        ber=st.floats(min_value=0.0, max_value=1.0),
        bits=st.integers(min_value=0, max_value=100_000),
    )
    def test_is_probability(self, ber, bits):
        p = frame_error_probability(ber, bits)
        assert 0.0 <= p <= 1.0


class TestPerfectChannel:
    def test_never_corrupts(self):
        channel = PerfectChannel()
        rng = _rng()
        assert not any(channel.frame_error(t, 10_000, rng) for t in range(100))


class TestBernoulliChannel:
    def test_invalid_ber_rejected(self):
        with pytest.raises(ValueError):
            BernoulliChannel(-0.1)
        with pytest.raises(ValueError):
            BernoulliChannel(1.5)

    def test_zero_ber_never_corrupts(self):
        channel = BernoulliChannel(0.0)
        rng = _rng()
        assert not any(channel.frame_error(float(t), 8000, rng) for t in range(1000))

    def test_empirical_rate_matches_theory(self):
        ber, bits, trials = 1e-4, 1000, 20_000
        channel = BernoulliChannel(ber)
        rng = _rng(42)
        errors = sum(channel.frame_error(float(t), bits, rng) for t in range(trials))
        expected = frame_error_probability(ber, bits)
        observed = errors / trials
        # 5-sigma binomial band.
        sigma = math.sqrt(expected * (1 - expected) / trials)
        assert abs(observed - expected) < 5 * sigma

    def test_deterministic_given_seed(self):
        a = [BernoulliChannel(0.01).frame_error(0.0, 100, _rng(7)) for _ in range(1)]
        b = [BernoulliChannel(0.01).frame_error(0.0, 100, _rng(7)) for _ in range(1)]
        assert a == b


class TestGilbertElliott:
    def make(self, **kwargs) -> GilbertElliottChannel:
        defaults = dict(
            good_ber=0.0, bad_ber=0.5, mean_good=0.1, mean_bad=0.01, bit_rate=1e6
        )
        defaults.update(kwargs)
        return GilbertElliottChannel(**defaults)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            self.make(good_ber=-1)
        with pytest.raises(ValueError):
            self.make(mean_good=0)
        with pytest.raises(ValueError):
            self.make(bit_rate=0)

    @pytest.mark.parametrize("name, value", [
        ("mean_good", math.nan), ("mean_bad", math.nan), ("bit_rate", math.nan),
        ("mean_good", math.inf), ("mean_bad", math.inf), ("bit_rate", math.inf),
        ("mean_bad", -1.0),
    ])
    def test_sojourns_and_rate_must_be_positive_and_finite(self, name, value):
        """A NaN sojourn or rate used to build a channel that never
        corrupts: NaN compares false, so no state ever flipped."""
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            self.make(**{name: value})

    def test_steady_state_fraction(self):
        channel = self.make(mean_good=0.3, mean_bad=0.1)
        assert channel.steady_state_bad_fraction == pytest.approx(0.25)

    def test_zero_bits_never_errors(self):
        channel = self.make()
        assert not channel.frame_error(0.0, 0, _rng())

    def test_all_good_channel_clean(self):
        channel = self.make(good_ber=0.0, bad_ber=0.0)
        rng = _rng()
        assert not any(
            channel.frame_error(t * 0.001, 1000, rng) for t in range(1000)
        )

    def test_burstiness_clusters_errors(self):
        """Errors must cluster in time far above the i.i.d. expectation."""
        channel = self.make(good_ber=0.0, bad_ber=0.9, mean_good=0.5, mean_bad=0.02)
        rng = _rng(3)
        frame_time = 0.001
        outcomes = [
            channel.frame_error(i * frame_time, 1000, rng) for i in range(20_000)
        ]
        error_rate = sum(outcomes) / len(outcomes)
        assert 0.0 < error_rate < 0.5
        # Conditional probability of error given previous error should be
        # far higher than the marginal rate (the signature of bursts).
        pairs = sum(1 for i in range(1, len(outcomes)) if outcomes[i] and outcomes[i - 1])
        conditional = pairs / max(1, sum(outcomes[:-1]))
        assert conditional > 3 * error_rate

    def test_mean_error_rate_near_steady_state(self):
        channel = self.make(good_ber=0.0, bad_ber=1.0, mean_good=0.09, mean_bad=0.01)
        rng = _rng(11)
        frame_time = 1e-4  # short frames sample the state process
        outcomes = [
            channel.frame_error(i * frame_time, 100, rng) for i in range(50_000)
        ]
        observed = sum(outcomes) / len(outcomes)
        assert observed == pytest.approx(channel.steady_state_bad_fraction, abs=0.03)
