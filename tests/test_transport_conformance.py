"""DES-vs-UDP conformance: the backend changes, the outcome doesn't.

Runs the golden scenarios through :func:`repro.transport.run_conformance`
and asserts the acceptance criterion of the transport backend: identical
delivered-payload digests and identical monitor verdicts on both
backends.  Kept small (24 frames) so the real-time UDP half stays well
under a second per scenario.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.transport import GOLDEN_SCENARIOS, golden_scenario, run_conformance
from repro.transport.conformance import make_payload, payload_index, run_des_reference

PAYLOAD_SIZES = (9, 10, 100, 256, 300, 1500)


def generated_payload(index: int, size: int) -> bytes:
    """``make_payload`` as it was defined: one generator step per byte."""
    body = bytes((index * 131 + i * 29 + 7) & 0xFF for i in range(size - 9))
    return b"%08d|" % index + body


class TestPayloadIsTheGeneratedOne:
    """``make_payload`` slices one tiled permutation; the bytes must be
    the ones the per-byte definition above produces."""

    @pytest.mark.parametrize("size", PAYLOAD_SIZES)
    def test_every_index_residue(self, size):
        for index in range(256):
            assert make_payload(index, size) == generated_payload(index, size)

    @given(index=st.integers(min_value=0, max_value=10**8 - 1),
           size=st.sampled_from(PAYLOAD_SIZES))
    def test_large_indices(self, index, size):
        payload = make_payload(index, size)
        assert payload == generated_payload(index, size)
        assert len(payload) == size and payload_index(payload) == index

    def test_default_size(self):
        assert make_payload(4510) == generated_payload(4510, 256)

    def test_too_small_for_the_header(self):
        with pytest.raises(ValueError, match="payload size"):
            make_payload(0, 8)


class TestGoldenScenarios:
    def test_registry_names(self):
        assert set(GOLDEN_SCENARIOS) == {"clean", "lossy"}

    def test_lookup_rejects_unknown(self):
        with pytest.raises(KeyError):
            golden_scenario("nope")

    def test_scenarios_are_real_time_friendly(self):
        for scenario in GOLDEN_SCENARIOS.values():
            assert scenario.bit_rate <= 10e6
            assert scenario.checkpoint_interval <= 0.05


class TestDesReference:
    def test_clean_reference_completes_with_clean_monitors(self):
        report = run_des_reference(golden_scenario("clean"), n_frames=24)
        assert report.backend == "des"
        assert report.completed
        assert report.delivered_unique == 24
        assert report.monitors_ok
        assert report.violation_names == ()


class TestCrossBackend:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_backends_agree(self, name):
        (report,) = run_conformance([name], n_frames=24, timeout=20.0)
        assert report.matches, "\n".join(report.mismatches())
        assert report.des.digest == report.expected_digest
        assert report.udp.digest == report.expected_digest
        assert report.des.verdict == report.udp.verdict == ((True, ()))

    def test_lossy_run_actually_retransmits(self):
        (report,) = run_conformance(["lossy"], n_frames=24, timeout=20.0)
        assert report.des.retransmissions is not None
        assert report.des.retransmissions > 0
        assert report.matches
