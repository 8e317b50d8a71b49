"""Tests for RNG streams and the tracer/statistics module."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simulator.rng import StreamRegistry, derive_seed
from repro.simulator.trace import StreamingSummary, TimeWeightedStat, Tracer


class TestStreamRegistry:
    def test_same_name_same_stream_object(self):
        streams = StreamRegistry(seed=5)
        assert streams.get("x") is streams.get("x")

    def test_different_names_independent(self):
        streams = StreamRegistry(seed=5)
        a = streams.get("a").random(100)
        b = streams.get("b").random(100)
        assert list(a) != list(b)

    def test_reproducible_across_registries(self):
        first = StreamRegistry(seed=9).get("chan").random(10)
        second = StreamRegistry(seed=9).get("chan").random(10)
        assert list(first) == list(second)

    def test_different_seeds_differ(self):
        first = StreamRegistry(seed=1).get("chan").random(10)
        second = StreamRegistry(seed=2).get("chan").random(10)
        assert list(first) != list(second)

    def test_consumption_isolation(self):
        """Draining one stream must not perturb another (CRN discipline)."""
        registry_a = StreamRegistry(seed=7)
        registry_a.get("noise").random(1000)  # heavy consumption
        after_heavy = registry_a.get("signal").random(5)
        registry_b = StreamRegistry(seed=7)
        fresh = registry_b.get("signal").random(5)
        assert list(after_heavy) == list(fresh)

    def test_reset_recreates_streams(self):
        streams = StreamRegistry(seed=3)
        first = streams.get("s").random(4)
        streams.reset()
        again = streams.get("s").random(4)
        assert list(first) == list(again)

    def test_names_sorted(self):
        streams = StreamRegistry()
        streams.get("b")
        streams.get("a")
        assert streams.names() == ["a", "b"]

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(1, "x") == derive_seed(1, "x")
        assert derive_seed(1, "x") != derive_seed(1, "y")
        assert 0 <= derive_seed(123456, "anything") < 2**32


class TestSampleStat:  # a tracer's point samples, a StreamingSummary each
    def test_mean_and_extremes(self):
        stat = StreamingSummary("s")
        for value in (1.0, 2.0, 3.0, 4.0):
            stat.push(value)
        assert stat.mean == pytest.approx(2.5)
        assert stat.minimum == 1.0 and stat.maximum == 4.0

    def test_variance_matches_textbook(self):
        stat = StreamingSummary("s")
        for value in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            stat.push(value)
        assert stat.variance == pytest.approx(32.0 / 7.0)
        assert stat.stdev == pytest.approx(math.sqrt(32.0 / 7.0))

    @given(st.lists(st.lists(st.floats(-1e6, 1e6), max_size=20), max_size=6))
    def test_extend_equals_repeated_add_to_the_bit(self, batches):
        one_by_one, batched = StreamingSummary("a"), StreamingSummary("b")
        for batch in batches:
            for value in batch:
                one_by_one.push(value)
            batched.extend(batch)
            assert [getattr(batched, slot) for slot in StreamingSummary.__slots__[1:]] == [
                getattr(one_by_one, slot) for slot in StreamingSummary.__slots__[1:]]

    def test_empty_stat_mean_is_nan_but_spread_is_zero(self):
        # Mean of nothing is undefined: a tracer's summary reads NaN (the
        # accumulator 0.0, as a replication table wants).  Spread of fewer
        # than two samples is *defined* as zero so confidence intervals
        # degrade gracefully instead of propagating NaN.
        tracer = Tracer()
        stat = tracer.sample_stat("s")
        assert math.isnan(tracer.summary()["s.mean"]) and stat.mean == 0.0
        assert stat.variance == 0.0
        assert stat.stdev == 0.0

    def test_single_sample_has_zero_spread(self):
        stat = StreamingSummary("s")
        stat.push(42.0)
        assert stat.mean == 42.0
        assert stat.variance == 0.0
        assert stat.stdev == 0.0

    def test_two_samples_spread_becomes_live(self):
        stat = StreamingSummary("s")
        stat.push(1.0)
        stat.push(3.0)
        assert stat.variance == pytest.approx(2.0)
        assert stat.stdev == pytest.approx(math.sqrt(2.0))


class TestTimeWeightedStat:
    def test_constant_signal(self):
        stat = TimeWeightedStat("q", start_time=0.0, level=5.0)
        assert stat.mean(10.0) == pytest.approx(5.0)

    def test_step_signal_average(self):
        stat = TimeWeightedStat("q")
        stat.update(0.0, 0.0)
        stat.update(5.0, 10.0)  # level 0 for [0,5), 10 for [5,10)
        assert stat.mean(10.0) == pytest.approx(5.0)
        assert stat.maximum == 10.0

    def test_time_cannot_go_backwards(self):
        stat = TimeWeightedStat("q")
        stat.update(5.0, 1.0)
        with pytest.raises(ValueError):
            stat.update(4.0, 2.0)

    def test_backwards_update_leaves_state_untouched(self):
        # The rejection must happen before any mutation: a failed update
        # must not corrupt the accumulated area, level, or clock.
        stat = TimeWeightedStat("q")
        stat.update(0.0, 2.0)
        stat.update(4.0, 6.0)
        with pytest.raises(ValueError):
            stat.update(3.0, 100.0)
        assert stat.level == 6.0
        assert stat.maximum == 6.0
        assert stat.mean(8.0) == pytest.approx((2.0 * 4.0 + 6.0 * 4.0) / 8.0)

    def test_equal_time_update_is_allowed(self):
        # Two level changes at the same instant are legal (zero-width
        # segment); only strictly backwards time is an error.
        stat = TimeWeightedStat("q")
        stat.update(2.0, 1.0)
        stat.update(2.0, 5.0)
        assert stat.level == 5.0
        assert stat.mean(4.0) == pytest.approx(5.0 * 2.0 / 4.0)

    def test_query_before_last_update_rejected(self):
        stat = TimeWeightedStat("q")
        stat.update(5.0, 1.0)
        with pytest.raises(ValueError):
            stat.mean(4.0)


class TestTracer:
    def test_timeline_disabled_by_default(self):
        tracer = Tracer()
        tracer.emit(1.0, "src", "evt")
        assert tracer.records == []

    def test_timeline_records_when_enabled(self):
        tracer = Tracer(record_timeline=True)
        tracer.emit(1.0, "src", "evt", detail=7)
        assert len(tracer.records) == 1
        assert tracer.records[0].detail == {"detail": 7}

    def test_timeline_filtering(self):
        tracer = Tracer(record_timeline=True)
        tracer.emit(1.0, "a", "x")
        tracer.emit(2.0, "b", "x")
        tracer.emit(3.0, "a", "y")
        assert len(tracer.timeline(source="a")) == 2
        assert len(tracer.timeline(event="x")) == 2
        assert len(tracer.timeline(source="a", event="y")) == 1

    def test_listener_receives_records_even_without_timeline(self):
        tracer = Tracer()
        seen = []
        tracer.listeners.append(seen.append)
        tracer.emit(1.0, "src", "evt")
        assert len(seen) == 1 and tracer.records == []

    def test_counters(self):
        tracer = Tracer()
        tracer.count("frames")
        tracer.count("frames", 4)
        assert tracer.value("frames") == 5
        assert tracer.value("never") == 0

    def test_summary_includes_all_metric_kinds(self):
        tracer = Tracer()
        tracer.count("c", 3)
        tracer.sample("s", 2.0)
        tracer.level("l", 0.0, 1.0)
        tracer.level("l", 2.0, 3.0)
        summary = tracer.summary()
        assert summary["c"] == 3
        assert summary["s.mean"] == 2.0
        assert summary["s.count"] == 1
        assert "l.avg" in summary and summary["l.max"] == 3.0


class TestTracerFastPath:
    """The precomputed ``active`` flag must track timeline + listeners."""

    def test_inactive_by_default(self):
        assert Tracer().active is False

    def test_timeline_flag_activates(self):
        assert Tracer(record_timeline=True).active is True
        tracer = Tracer()
        tracer.record_timeline = True
        assert tracer.active is True
        tracer.record_timeline = False
        assert tracer.active is False

    def test_listener_mutations_keep_flag_honest(self):
        tracer = Tracer()
        listener = lambda record: None
        tracer.listeners.append(listener)
        assert tracer.active is True
        tracer.listeners.remove(listener)
        assert tracer.active is False
        tracer.listeners.extend([listener, listener])
        assert tracer.active is True
        tracer.listeners.pop()
        assert tracer.active is True  # one listener left
        tracer.listeners.clear()
        assert tracer.active is False
        tracer.listeners += [listener]
        assert tracer.active is True
        del tracer.listeners[0]
        assert tracer.active is False
        # Slice/index assignment and in-place repetition change the
        # length too.
        seen = []
        tracer.listeners[0:0] = [seen.append]
        assert tracer.active is True
        tracer.emit(0.0, "src", "evt")
        assert len(seen) == 1
        tracer.listeners[:] = []
        assert tracer.active is False
        tracer.listeners.append(listener)
        tracer.listeners *= 0
        assert tracer.active is False and tracer.listeners == []

    def test_mid_run_listener_sees_subsequent_emits(self):
        tracer = Tracer()
        seen = []
        tracer.emit(0.0, "src", "before")  # dropped: fast path
        tracer.listeners.append(seen.append)
        tracer.emit(1.0, "src", "after")
        assert [record.event for record in seen] == ["after"]

    def test_counters_and_stats_live_while_inactive(self):
        # Only the timeline/listener path is gated; metrics never are.
        tracer = Tracer()
        tracer.count("c")
        tracer.sample("s", 1.0)
        tracer.level("l", 0.0, 2.0)
        assert tracer.value("c") == 1
        assert tracer.samples["s"].count == 1
        assert tracer.levels["l"].level == 2.0

    def test_stat_handles_are_cached_objects(self):
        tracer = Tracer()
        assert tracer.sample_stat("s") is tracer.sample_stat("s")
        assert tracer.level_stat("l") is tracer.level_stat("l")
