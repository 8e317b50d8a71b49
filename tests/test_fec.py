"""Tests for the FEC substrate: CRC, interleaving, codecs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fec.codec import (
    ConcatenatedCodecModel,
    DEFAULT_CFRAME_CODEC,
    DEFAULT_IFRAME_CODEC,
    HammingCode74,
    HammingCodecModel,
    IdentityCodec,
    RepetitionCode,
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
from repro.fec.interleaver import BlockInterleaver, burst_spread

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


class TestInterleaver:
    def test_known_permutation(self):
        interleaver = BlockInterleaver(rows=3, cols=4)
        assert interleaver.interleave(list(range(12))) == [
            0, 4, 8, 1, 5, 9, 2, 6, 10, 3, 7, 11,
        ]

    def test_wrong_block_size_rejected(self):
        interleaver = BlockInterleaver(rows=2, cols=3)
        with pytest.raises(ValueError):
            interleaver.interleave([1, 2, 3])

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            BlockInterleaver(rows=0, cols=4)

    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=16))
    def test_roundtrip_property(self, rows, cols):
        interleaver = BlockInterleaver(rows=rows, cols=cols)
        block = list(range(rows * cols))
        assert interleaver.deinterleave(interleaver.interleave(block)) == block

    def test_array_roundtrip(self):
        interleaver = BlockInterleaver(rows=5, cols=7)
        block = np.arange(35)
        out = interleaver.deinterleave_array(interleaver.interleave_array(block))
        assert np.array_equal(out, block)

    def test_burst_within_rows_spreads_to_one_per_codeword(self):
        """The interleaver's defining guarantee: a channel burst no longer
        than `rows` symbols hits each codeword at most once."""
        interleaver = BlockInterleaver(rows=8, cols=16)
        for start in range(0, interleaver.block_size, 7):
            assert burst_spread(interleaver, start, burst_length=8) <= 1

    def test_long_burst_exceeds_single_error(self):
        interleaver = BlockInterleaver(rows=4, cols=8)
        assert burst_spread(interleaver, 0, burst_length=9) >= 2

    @given(
        rows=st.integers(min_value=2, max_value=12),
        cols=st.integers(min_value=2, max_value=12),
        start=st.integers(min_value=0, max_value=200),
    )
    def test_burst_spread_bound_property(self, rows, cols, start):
        """Spread of a burst of length L is at most ceil(L / rows)."""
        interleaver = BlockInterleaver(rows=rows, cols=cols)
        length = min(rows, interleaver.block_size)
        spread = burst_spread(interleaver, start % interleaver.block_size, length)
        assert spread <= 1


class TestHammingCode:
    def test_roundtrip_clean(self):
        code = HammingCode74()
        rng = np.random.default_rng(1)
        data = rng.integers(0, 2, size=400).astype(np.uint8)
        assert np.array_equal(code.decode(code.encode(data)), data)

    def test_corrects_any_single_error_per_codeword(self):
        code = HammingCode74()
        data = np.array([1, 0, 1, 1], dtype=np.uint8)
        encoded = code.encode(data)
        for position in range(7):
            corrupted = encoded.copy()
            corrupted[position] ^= 1
            assert np.array_equal(code.decode(corrupted), data), position

    def test_length_validation(self):
        code = HammingCode74()
        with pytest.raises(ValueError):
            code.encode(np.array([1, 0, 1], dtype=np.uint8))
        with pytest.raises(ValueError):
            code.decode(np.array([1] * 6, dtype=np.uint8))

    def test_interleaver_plus_hamming_fixes_burst(self):
        """End-to-end Paul-et-al. pipeline: a burst of `rows` bit errors on
        the channel is fully corrected after de-interleave + decode."""
        code = HammingCode74()
        rows, cols = 16, 7  # one codeword per interleaver row
        interleaver = BlockInterleaver(rows=rows, cols=cols)
        rng = np.random.default_rng(5)
        data = rng.integers(0, 2, size=rows * 4).astype(np.uint8)
        channel_block = interleaver.interleave_array(code.encode(data))
        # A contiguous burst of `rows` flipped bits.
        start = 23
        channel_block[start : start + rows] ^= 1
        decoded = code.decode(np.array(interleaver.deinterleave_array(channel_block)))
        assert np.array_equal(decoded, data)


class TestRepetitionCode:
    def test_roundtrip_and_correction(self):
        code = RepetitionCode(3)
        data = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        encoded = code.encode(data)
        encoded[4] ^= 1  # one flip inside a triple
        assert np.array_equal(code.decode(encoded), data)

    def test_even_factor_rejected(self):
        with pytest.raises(ValueError):
            RepetitionCode(2)


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
