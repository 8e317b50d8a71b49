"""Tests for the replication summary (`simulator.trace.StreamingSummary`)."""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simulator.trace import StreamingSummary


def welford(values):
    """The oracle: the canonical ``(count, mean, M2)`` fold over *values*
    in order.  `StreamingSummary.push` / `from_samples` are held to this
    exact operation sequence, bit for bit."""
    count = 0
    mean = 0.0
    m2 = 0.0
    for value in values:
        count += 1
        delta = value - mean
        mean += delta / count
        m2 += delta * (value - mean)
    return count, mean, m2


def oracle_stdev(values):
    count, _, m2 = welford(values)
    return math.sqrt(m2 / (count - 1)) if count > 1 else 0.0


class TestReplicationSummary:
    """What a summary over a whole sample tuple reports."""

    def test_mean_and_stdev(self):
        summary = StreamingSummary.from_samples(
            "m", (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0))
        assert summary.mean == pytest.approx(5.0)
        assert summary.stdev == pytest.approx(math.sqrt(32.0 / 7.0))

    def test_half_width_formula(self):
        summary = StreamingSummary.from_samples("m", (1.0, 2.0, 3.0, 4.0))
        expected = 1.959963984540054 * summary.stdev / 2.0
        assert summary.half_width == pytest.approx(expected)
        assert summary.low == pytest.approx(summary.mean - expected)
        assert summary.high == pytest.approx(summary.mean + expected)

    def test_single_sample_degenerate(self):
        summary = StreamingSummary.from_samples("m", (3.0,))
        assert summary.mean == summary.low == summary.high == 3.0
        assert summary.stdev == 0.0
        assert summary.half_width == 0.0

    def test_overlap_detection(self):
        a = StreamingSummary.from_samples("m", (1.0, 1.1, 0.9, 1.0))
        b = StreamingSummary.from_samples("m", (1.05, 1.1, 1.0, 1.15))
        c = StreamingSummary.from_samples("m", (5.0, 5.1, 4.9, 5.0))
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c) and not c.overlaps(a)

    def test_relative_half_width(self):
        summary = StreamingSummary.from_samples("m", (10.0, 10.0, 10.0, 14.0))
        assert summary.relative_half_width() == pytest.approx(
            summary.half_width / summary.mean
        )
        assert math.isnan(
            StreamingSummary.from_samples("m", (-1.0, 1.0)).relative_half_width()
        )


finite_floats = st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e12, max_value=1e12)


class TestStreamingSummary:
    def test_push_matches_batch(self):
        values = (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0)
        stream = StreamingSummary("m")
        for value in values:
            stream.push(value)
        count, mean, _ = welford(values)
        assert stream.count == count == len(values)
        assert stream.mean == mean
        assert stream.stdev == oracle_stdev(values)

    def test_single_sample_degenerate(self):
        stream = StreamingSummary("m")
        stream.push(3.0)
        assert stream.stdev == 0.0
        assert stream.half_width == 0.0

    def test_empty_accumulator_is_inert(self):
        stream = StreamingSummary("m")
        assert stream.count == 0
        assert stream.stdev == 0.0
        assert stream.half_width == 0.0
        merged = StreamingSummary("m")
        merged.merge(stream)
        assert merged.count == 0

    def test_from_samples(self):
        values = (1.0, 2.0, 3.0)
        assert StreamingSummary.from_samples("m", values).mean == (
            welford(values)[1]
        )

    def test_merge_is_exact_on_disjoint_halves(self):
        # Chan et al. merge: mathematically exact, so the merged count
        # and the aggregate sums agree with the full batch to float
        # tolerance (merge order differs from push order, so only
        # approximate equality is guaranteed — the bit-identical path
        # is push-in-order, which run_sweep uses).
        values = [float(v) for v in range(10)]
        left, right = StreamingSummary("m"), StreamingSummary("m")
        for v in values[:5]:
            left.push(v)
        for v in values[5:]:
            right.push(v)
        left.merge(right)
        assert left.count == 10
        assert left.mean == pytest.approx(welford(values)[1], abs=1e-12)
        assert left.stdev == pytest.approx(oracle_stdev(values), abs=1e-12)

    def test_overlap_and_relative_match_batch(self):
        # Pushed one at a time or built from the tuple: same answers.
        values = (10.0, 10.0, 10.0, 14.0)
        stream = StreamingSummary("m")
        for value in values:
            stream.push(value)
        batch = StreamingSummary.from_samples("m", values)
        assert stream.relative_half_width() == batch.relative_half_width()
        other = StreamingSummary.from_samples("m", (10.5, 11.0, 12.0))
        assert stream.overlaps(other) == batch.overlaps(other) is True

    @given(st.lists(finite_floats, min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_streamed_bit_identical_to_batch(self, values):
        """The headline contract: the summary is not merely close to
        the batch welford() fold over the same values — it is
        *bit-identical*, pushed one at a time or built by from_samples,
        which is what lets a sweep's table be compared with `cmp`."""
        count, mean, _ = welford(values)
        stdev = oracle_stdev(values)
        half_width = (1.959963984540054 * stdev / math.sqrt(count)
                      if count > 1 else 0.0)
        stream = StreamingSummary("m")
        for value in values:
            stream.push(value)
        for summary in (stream, StreamingSummary.from_samples("m", values)):
            assert summary.count == count
            assert summary.mean == mean              # exact, not approx
            assert summary.stdev == stdev            # exact, not approx
            assert summary.half_width == half_width
            assert summary.low == mean - half_width
            assert summary.high == mean + half_width

    @given(st.lists(finite_floats, min_size=2, max_size=32))
    @example([-999999999999.0, 499999999985.0, 499999999985.0])
    @settings(max_examples=100, deadline=None)
    def test_welford_matches_two_pass(self, values):
        """Both references are correctly rounded sums (``math.fsum``),
        and the slack is rounding error, which scales with the largest
        magnitude: the @example's mean is -29/3 from terms near 1e12,
        where one ulp is already 1e-4.  (``float_info.min`` covers
        underflow: squares of values near 1e-161 are subnormal.)"""
        count, mean, m2 = welford(values)
        assert count == len(values)
        scale = max(abs(v) for v in values)
        slack = 8 * count * count * sys.float_info.epsilon
        tiny = sys.float_info.min
        assert mean == pytest.approx(math.fsum(values) / count,
                                     rel=1e-9, abs=slack * scale + tiny)
        two_pass = math.fsum((v - mean) ** 2 for v in values)
        assert m2 == pytest.approx(two_pass, rel=1e-6,
                                   abs=slack * scale ** 2 + tiny)


class TestReplicate:
    def test_deterministic_simulation_gives_zero_spread(self):
        """Same seed twice: the DES must reproduce exactly."""
        from repro.experiments.parallel import MeasureSpec, parallel_replicate
        from repro.workloads import preset

        spec = MeasureSpec.create(
            "measure_batch_transfer", preset("short_hop"), "lams",
            n_frames=100, max_time=30.0,
        )
        summary = parallel_replicate(spec, "duration", seeds=[7, 7])
        assert summary.count == 2
        assert summary.stdev == 0.0
