"""Unit tests for the hybrid ARQ/FEC and frame-size analysis modules."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import framesize, hybrid
from repro.fec.codec import HammingCodecModel, IdentityCodec, RepetitionCodecModel
from repro.workloads import preset


def base_params():
    return preset("nominal").model_parameters()


class TestType1Parameters:
    def test_identity_codec_changes_nothing(self):
        base = base_params()
        coded = hybrid.type1_parameters(base, 8272, 1e-6, IdentityCodec())
        assert coded.iframe_time == pytest.approx(base.iframe_time)

    def test_codec_stretches_frame_time_by_rate(self):
        base = base_params()
        codec = RepetitionCodecModel(n=3)
        coded = hybrid.type1_parameters(base, 8272, 1e-6, codec)
        assert coded.iframe_time == pytest.approx(base.iframe_time * 3)

    def test_codec_reduces_p_f_on_noisy_channel(self):
        base = base_params()
        uncoded = hybrid.type1_parameters(base, 8272, 1e-4, IdentityCodec())
        coded = hybrid.type1_parameters(base, 8272, 1e-4, HammingCodecModel())
        assert coded.p_f < uncoded.p_f

    def test_invalid_inputs(self):
        base = base_params()
        with pytest.raises(ValueError):
            hybrid.type1_parameters(base, 0, 1e-6, IdentityCodec())
        with pytest.raises(ValueError):
            hybrid.type1_parameters(base, 100, 1.0, IdentityCodec())


class TestCodecSweep:
    def test_rows_cover_the_ladder(self):
        rows = hybrid.codec_sweep(base_params(), 8272, 1e-4)
        assert [row["codec"] for row in rows] == [name for name, _ in hybrid.STANDARD_LADDER]

    def test_goodput_bounded(self):
        for channel_ber in (1e-6, 1e-4, 1e-3):
            for row in hybrid.codec_sweep(base_params(), 8272, channel_ber):
                assert 0.0 <= row["goodput"] <= 1.0


class TestFrameSize:
    def test_goodput_zero_at_certain_corruption(self):
        assert framesize.goodput_per_channel_bit(10**7, 80, 1e-3) == 0.0

    def test_goodput_approaches_payload_fraction_at_zero_ber(self):
        assert framesize.goodput_per_channel_bit(8192, 80, 0.0) == pytest.approx(
            8192 / 8272
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            framesize.goodput_per_channel_bit(0, 80, 1e-6)
        with pytest.raises(ValueError):
            framesize.goodput_per_channel_bit(100, -1, 1e-6)
        with pytest.raises(ValueError):
            framesize.optimal_frame_size_approx(0, 1e-6)

    def test_zero_ber_optimum_unbounded(self):
        assert framesize.optimal_frame_size_approx(80, 0.0) == math.inf
        assert framesize.optimal_frame_size(80, 0.0) == 10_000_000

    def test_approx_satisfies_stationarity(self):
        """L(L+h) = h/BER at the approximate optimum."""
        ber, h = 1e-5, 80
        optimum = framesize.optimal_frame_size_approx(h, ber)
        assert optimum * (optimum + h) == pytest.approx(h / ber, rel=1e-9)

    @given(
        ber=st.sampled_from([1e-7, 1e-6, 1e-5, 1e-4]),
        overhead=st.sampled_from([16, 80, 256]),
    )
    def test_exact_optimum_beats_neighbours(self, ber, overhead):
        optimum = framesize.optimal_frame_size(overhead, ber)
        best = framesize.goodput_per_channel_bit(optimum, overhead, ber)
        for neighbour in (optimum // 2, optimum * 2):
            if neighbour >= 8:
                assert best >= framesize.goodput_per_channel_bit(
                    neighbour, overhead, ber
                )
