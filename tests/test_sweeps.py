"""Tests for the statistical replication helpers."""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.sweeps import (
    ReplicationSummary,
    StreamingSummary,
    replicate,
    replicate_all,
    welford,
)


class TestReplicationSummary:
    def test_mean_and_stdev(self):
        summary = ReplicationSummary("m", (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0))
        assert summary.mean == pytest.approx(5.0)
        assert summary.stdev == pytest.approx(math.sqrt(32.0 / 7.0))

    def test_half_width_formula(self):
        summary = ReplicationSummary("m", (1.0, 2.0, 3.0, 4.0))
        expected = 1.959963984540054 * summary.stdev / 2.0
        assert summary.half_width == pytest.approx(expected)
        assert summary.low == pytest.approx(summary.mean - expected)
        assert summary.high == pytest.approx(summary.mean + expected)

    def test_single_sample_degenerate(self):
        summary = ReplicationSummary("m", (3.0,))
        assert summary.stdev == 0.0
        assert summary.half_width == 0.0

    def test_overlap_detection(self):
        a = ReplicationSummary("m", (1.0, 1.1, 0.9, 1.0))
        b = ReplicationSummary("m", (1.05, 1.1, 1.0, 1.15))
        c = ReplicationSummary("m", (5.0, 5.1, 4.9, 5.0))
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c) and not c.overlaps(a)

    def test_relative_half_width(self):
        summary = ReplicationSummary("m", (10.0, 10.0, 10.0, 14.0))
        assert summary.relative_half_width() == pytest.approx(
            summary.half_width / summary.mean
        )


finite_floats = st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e12, max_value=1e12)


class TestStreamingSummary:
    def test_push_matches_batch(self):
        values = (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0)
        stream = StreamingSummary("m")
        for value in values:
            stream.push(value)
        batch = ReplicationSummary("m", values)
        assert stream.count == len(values)
        assert stream.mean == batch.mean
        assert stream.stdev == batch.stdev
        assert stream.half_width == batch.half_width

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
            ReplicationSummary("m", values).mean
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
        batch = ReplicationSummary("m", tuple(values))
        assert left.count == 10
        assert left.mean == pytest.approx(batch.mean, abs=1e-12)
        assert left.stdev == pytest.approx(batch.stdev, abs=1e-12)

    def test_overlap_and_relative_match_batch(self):
        values = (10.0, 10.0, 10.0, 14.0)
        stream = StreamingSummary.from_samples("m", values)
        batch = ReplicationSummary("m", values)
        assert stream.relative_half_width() == batch.relative_half_width()
        other = ReplicationSummary("m", (10.5, 11.0, 12.0))
        assert stream.overlaps(other) == batch.overlaps(other)

    @given(st.lists(finite_floats, min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_streamed_bit_identical_to_batch(self, values):
        """The headline contract: streaming aggregation is not merely
        close to batch aggregation — it is *bit-identical*, because
        ReplicationSummary and StreamingSummary run the same welford()
        recurrence in the same order."""
        stream = StreamingSummary("m")
        for value in values:
            stream.push(value)
        batch = ReplicationSummary("m", tuple(values))
        assert stream.count == batch.count
        assert stream.mean == batch.mean          # exact, not approx
        assert stream.stdev == batch.stdev        # exact, not approx
        assert stream.half_width == batch.half_width
        assert stream.low == batch.low
        assert stream.high == batch.high

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
    def measure(self, seed):
        return {"metric_a": float(seed), "metric_b": float(seed * 2)}

    def test_replicate_collects_samples(self):
        summary = replicate(self.measure, "metric_a", seeds=[1, 2, 3])
        assert summary.samples == (1.0, 2.0, 3.0)
        assert summary.mean == 2.0

    def test_replicate_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            replicate(lambda seed: {"x": float("nan")}, "x", seeds=[1])

    def test_replicate_requires_seeds(self):
        with pytest.raises(ValueError):
            replicate(self.measure, "metric_a", seeds=[])

    def test_replicate_all_shares_runs(self):
        calls = []

        def measure(seed):
            calls.append(seed)
            return self.measure(seed)

        summaries = replicate_all(measure, ["metric_a", "metric_b"], seeds=[1, 2])
        assert calls == [1, 2]  # one run per seed, not per metric
        assert summaries["metric_b"].samples == (2.0, 4.0)

    def test_deterministic_simulation_gives_zero_spread(self):
        """Same seed twice: the DES must reproduce exactly."""
        from repro.experiments.runner import measure_batch_transfer
        from repro.workloads import preset

        summary = replicate(
            lambda seed: measure_batch_transfer(
                preset("short_hop"), "lams", 100, seed=7, max_time=30.0
            ),
            metric="duration",
            seeds=[0, 1],  # seed arg ignored inside: fixed seed=7
        )
        assert summary.stdev == 0.0
