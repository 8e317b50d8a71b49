"""Tests for the FEC substrate: CRC and codec models."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fec.codec import (
    ConcatenatedCodecModel,
    DEFAULT_CFRAME_CODEC,
    DEFAULT_IFRAME_CODEC,
    HammingCodecModel,
    IdentityCodec,
    RepetitionCodecModel,
)
from repro.fec.crc import (
    append_crc16,
    append_crc32,
    crc16_ccitt,
    crc32_ieee,
    verify_crc16,
    verify_crc32,
)

from .crc_reference import reference_crc16_ccitt, reference_crc32_ieee

# Every form of input the wire hands the CRC, over one generated value.
BYTES_LIKE = st.sampled_from([bytes, bytearray, memoryview])


class TestCrc:
    def test_crc16_known_vector(self):
        # CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
        assert crc16_ccitt(b"123456789") == 0x29B1

    def test_crc32_known_vector(self):
        # CRC-32 (IEEE) of "123456789" is 0xCBF43926.
        assert crc32_ieee(b"123456789") == 0xCBF43926

    def test_roundtrip_16(self):
        framed = append_crc16(b"hello world")
        assert verify_crc16(framed)

    def test_roundtrip_32(self):
        framed = append_crc32(b"hello world")
        assert verify_crc32(framed)

    def test_single_bit_flip_detected_16(self):
        framed = bytearray(append_crc16(b"payload data here"))
        for byte_index in range(len(framed)):
            for bit in range(8):
                corrupted = bytearray(framed)
                corrupted[byte_index] ^= 1 << bit
                assert not verify_crc16(bytes(corrupted))

    def test_short_frames_rejected(self):
        assert not verify_crc16(b"x")
        assert not verify_crc32(b"xyz")

    @given(st.binary(min_size=0, max_size=200))
    def test_crc16_roundtrip_property(self, payload):
        assert verify_crc16(append_crc16(payload))

    @given(st.binary(min_size=1, max_size=100), st.integers(min_value=0))
    def test_crc16_detects_any_single_byte_change(self, payload, position):
        framed = bytearray(append_crc16(payload))
        index = position % len(framed)
        framed[index] ^= 0xFF
        assert not verify_crc16(bytes(framed))

    @given(st.binary(min_size=0, max_size=200))
    def test_crc32_roundtrip_property(self, payload):
        assert verify_crc32(append_crc32(payload))

    # The C implementations against the table loops they replaced
    # (tests/crc_reference.py): every input, every initial register —
    # including one bit above the register, which both must mask off.

    @given(st.binary(min_size=0, max_size=4096),
           st.integers(min_value=0, max_value=1 << 16), BYTES_LIKE)
    def test_crc16_equals_table_reference(self, data, initial, form):
        assert crc16_ccitt(form(data), initial) == reference_crc16_ccitt(data, initial)

    @given(st.binary(min_size=0, max_size=4096),
           st.integers(min_value=0, max_value=1 << 32), BYTES_LIKE)
    def test_crc32_equals_table_reference(self, data, initial, form):
        assert crc32_ieee(form(data), initial) == reference_crc32_ieee(data, initial)

    @pytest.mark.parametrize("data", [b"", b"\x00", b"123456789", bytes(range(256)) * 6])
    def test_default_and_boundary_initials_equal_table_reference(self, data):
        assert crc16_ccitt(data) == reference_crc16_ccitt(data)
        assert crc32_ieee(data) == reference_crc32_ieee(data)
        for initial in (0, 0xFFFF, 0x10000, 0x1FFFF):
            assert crc16_ccitt(data, initial) == reference_crc16_ccitt(data, initial)
        for initial in (0, 0xFFFFFFFF, 0x100000000, 0x1FFFFFFFF):
            assert crc32_ieee(data, initial) == reference_crc32_ieee(data, initial)


class TestCodecModels:
    def test_identity_passthrough(self):
        assert IdentityCodec().residual_ber(1e-4) == 1e-4

    def test_repetition_exact_formula(self):
        model = RepetitionCodecModel(n=3)
        p = 0.01
        expected = 3 * p**2 * (1 - p) + p**3
        assert model.residual_ber(p) == pytest.approx(expected)

    def test_hamming_improves_small_ber(self):
        model = HammingCodecModel()
        assert model.residual_ber(1e-4) < 1e-4

    def test_concatenated_composes(self):
        inner, outer = HammingCodecModel(), RepetitionCodecModel(n=3)
        combo = ConcatenatedCodecModel(inner=inner, outer=outer)
        assert combo.residual_ber(1e-3) == pytest.approx(
            outer.residual_ber(inner.residual_ber(1e-3))
        )
        assert combo.rate == pytest.approx(inner.rate * outer.rate)

    def test_control_codec_stronger_than_data_codec(self):
        """Link-model assumption 4: the control-frame FEC is more powerful."""
        for ber in (1e-3, 1e-4, 1e-5):
            assert DEFAULT_CFRAME_CODEC.residual_ber(ber) < DEFAULT_IFRAME_CODEC.residual_ber(ber)

    @given(st.floats(min_value=0.0, max_value=0.4))
    def test_hamming_residual_is_probability(self, ber):
        residual = HammingCodecModel().residual_ber(ber)
        assert 0.0 <= residual <= 1.0

    @given(
        st.floats(min_value=1e-8, max_value=0.01),
        st.floats(min_value=1e-8, max_value=0.01),
    )
    def test_repetition_monotone(self, a, b):
        model = RepetitionCodecModel(n=5)
        low, high = sorted((a, b))
        assert model.residual_ber(low) <= model.residual_ber(high) + 1e-18

    def test_channel_bits_accounts_for_rate(self):
        assert RepetitionCodecModel(n=3).channel_bits(100) == 300
        assert HammingCodecModel().channel_bits(4) == 7
