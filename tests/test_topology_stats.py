"""Property tests for the constellation statistics rollup.

The claim ``docs/TOPOLOGY.md`` makes — the network rollup equals the
statistics of every per-link sample pooled into one stream — is the
Chan et al. merge's exactness property, verified here over arbitrary
sample partitions.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.simulator.trace import StreamingSummary
from repro.topology.stats import LinkStats, network_rollup


class _Channel:
    def __init__(self, frames_sent=0, frames_corrupted=0, frames_lost_outage=0):
        self.frames_sent = frames_sent
        self.frames_corrupted = frames_corrupted
        self.frames_lost_outage = frames_lost_outage

    def utilization(self, now=None):
        return 0.0


class _Link:
    """The slice of FullDuplexLink that LinkStats reads."""

    def __init__(self, sent=0):
        self.forward = _Channel(frames_sent=sent)
        self.reverse = _Channel()


delays = st.floats(min_value=0.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
partitions = st.lists(st.lists(delays, max_size=40), min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(partitions)
def test_rollup_delay_equals_pooled_stream(partition):
    """Merging per-link delay streams == one stream over all samples."""
    stats = []
    for index, samples in enumerate(partition):
        link_stats = LinkStats(f"l{index}", _Link(sent=len(samples)))
        for delay in samples:
            link_stats.record_delivery(delay)
        stats.append(link_stats)
    rollup = network_rollup(stats)

    pooled = StreamingSummary.from_samples(
        "pooled", [delay for samples in partition for delay in samples]
    )
    assert rollup["delay_count"] == pooled.count
    assert math.isclose(rollup["delay_mean"], pooled.mean,
                        rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(rollup["delay_stdev"], pooled.stdev,
                        rel_tol=1e-6, abs_tol=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1000),
                min_size=1, max_size=8))
def test_rollup_counters_sum_exactly(frame_counts):
    stats = []
    for index, frames in enumerate(frame_counts):
        link_stats = LinkStats(f"l{index}", _Link(sent=frames))
        for _ in range(frames % 5):
            link_stats.record_delivery()
        link_stats.observe_buffered(frames)
        stats.append(link_stats)
    rollup = network_rollup(stats)
    assert rollup["links"] == len(frame_counts)
    assert rollup["frames_sent"] == sum(frame_counts)
    assert rollup["payloads_delivered"] == sum(f % 5 for f in frame_counts)
    assert rollup["peak_buffered_max"] == max(frame_counts)


def test_extra_streams_are_reported():
    extra = StreamingSummary.from_samples("e2e_delay", [1.0, 2.0, 3.0])
    rollup = network_rollup([], extra_streams={"e2e_delay": extra})
    assert rollup["e2e_delay_count"] == 3
    assert math.isclose(rollup["e2e_delay_mean"], 2.0)
