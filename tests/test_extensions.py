"""Tests for the protocol extensions: zero-duplication mode, stutter
HDLC, the link-session manager, and the delay-distribution analysis."""

from __future__ import annotations

import pytest

from repro.analysis import delay
from repro.analysis import lams as lams_model
from repro.api import make_endpoint_pair
from repro.core import LamsDlcConfig
from repro.experiments.runner import measure_batch_transfer, measure_failure_recovery
from repro.hdlc import HdlcConfig
from repro.session import LinkPass, LinkSessionManager, PassSchedule
from repro.session.factories import session_factory
from repro.simulator import (
    BernoulliChannel,
    FullDuplexLink,
    Simulator,
    StreamRegistry,
)
from repro.workloads import preset


def make_link(sim, seed=1, iframe_ber=1e-6, cframe_ber=1e-8):
    return FullDuplexLink(
        sim, bit_rate=100e6, propagation_delay=0.010, name="x",
        iframe_errors=BernoulliChannel(iframe_ber),
        cframe_errors=BernoulliChannel(cframe_ber),
        streams=StreamRegistry(seed=seed),
    )


class TestZeroDuplication:
    def test_outage_recovery_without_duplicates(self):
        result = measure_failure_recovery(
            preset("nominal"), outage_start=0.05, outage_duration=0.02,
            total_time=10.0, n_frames=3000, seed=4,
            overrides={"zero_duplication": True},
        )
        assert result["recovered"]
        assert result["lost"] == 0
        assert result["duplicates"] == 0

    def test_baseline_mode_produces_duplicates_in_same_scenario(self):
        """The control: identical run without the extension duplicates."""
        result = measure_failure_recovery(
            preset("nominal"), outage_start=0.05, outage_duration=0.02,
            total_time=10.0, n_frames=3000, seed=4,
            overrides={"zero_duplication": False},
        )
        assert result["recovered"]
        assert result["lost"] == 0
        assert result["duplicates"] > 0

    def test_suppression_counted_at_receiver(self):
        sim = Simulator()
        link = make_link(sim, seed=4)
        config = LamsDlcConfig(
            checkpoint_interval=0.005, cumulation_depth=3, zero_duplication=True
        )
        delivered = []
        a, b = make_endpoint_pair("lams", sim, link, config, deliver_b=delivered.append)
        a.start(send=True, receive=False)
        b.start(send=False, receive=True)
        for i in range(2000):
            a.accept(("pkt", i))
        sim.schedule_at(0.030, link.down)
        sim.schedule_at(0.050, link.up)
        sim.run(until=10.0)
        ids = [p[1] for p in delivered]
        assert len(ids) == len(set(ids)), "a duplicate reached the network layer"
        assert sorted(ids) == list(range(2000))
        # The conservative enforced retransmissions were suppressed.
        assert b.receiver.duplicates_suppressed > 0

    def test_no_suppression_on_clean_run(self):
        sim = Simulator()
        link = make_link(sim, seed=5, iframe_ber=0.0, cframe_ber=0.0)
        config = LamsDlcConfig(zero_duplication=True)
        delivered = []
        a, b = make_endpoint_pair("lams", sim, link, config, deliver_b=delivered.append)
        a.start(send=True, receive=False)
        b.start(send=False, receive=True)
        for i in range(500):
            a.accept(("pkt", i))
        sim.run(until=5.0)
        assert b.receiver.duplicates_suppressed == 0
        assert len(delivered) == 500


class TestStutterMode:
    def test_stutter_sends_extra_copies_when_stalled(self):
        sim = Simulator()
        link = make_link(sim, seed=6, iframe_ber=0.0, cframe_ber=0.0)
        config = HdlcConfig(window_size=8, sequence_bits=7, timeout=0.06, stutter=True)
        delivered = []
        a, b = make_endpoint_pair("hdlc", sim, link, config, deliver_b=delivered.append)
        a.start()
        for i in range(8):
            a.accept(("pkt", i))
        sim.run(until=1.0)
        assert len(delivered) == 8
        assert a.sender.stutter_transmissions > 0
        # Receiver saw and discarded the extra copies.
        assert b.receiver.duplicates > 0

    def test_stutter_speeds_up_lossy_batch(self):
        scenario = preset("noisy").with_(window_size=16)
        durations = {}
        for stutter in (False, True):
            result = measure_batch_transfer(
                scenario, "hdlc", 400, seed=9,
                overrides={"stutter": stutter}, max_time=120.0,
            )
            assert result["completed"]
            durations[stutter] = result["duration"]
        assert durations[True] < durations[False]

    def test_stutter_off_by_default(self):
        sim = Simulator()
        link = make_link(sim, seed=7, iframe_ber=0.0, cframe_ber=0.0)
        delivered = []
        a, b = make_endpoint_pair("hdlc", sim, link, HdlcConfig(window_size=8, timeout=0.06),
                         deliver_b=delivered.append)
        a.start()
        for i in range(8):
            a.accept(("pkt", i))
        sim.run(until=1.0)
        assert a.sender.stutter_transmissions == 0

    def test_stutter_exactly_once_delivery(self):
        sim = Simulator()
        link = make_link(sim, seed=8, iframe_ber=1e-5, cframe_ber=1e-6)
        config = HdlcConfig(window_size=16, sequence_bits=7, timeout=0.06, stutter=True)
        delivered = []
        a, b = make_endpoint_pair("hdlc", sim, link, config, deliver_b=delivered.append)
        a.start()
        for i in range(300):
            a.accept(("pkt", i))
        sim.run(until=60.0)
        assert [p[1] for p in delivered] == list(range(300))


class TestPassSchedule:
    def test_periodic_construction(self):
        schedule = PassSchedule.periodic(first_start=1.0, duration=2.0, gap=0.5, count=3)
        assert len(schedule) == 3
        assert schedule.total_link_time == pytest.approx(6.0)
        assert schedule.passes[1].start == pytest.approx(3.5)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            PassSchedule([LinkPass(0.0, 5.0), LinkPass(4.0, 8.0)])

    def test_invalid_pass(self):
        with pytest.raises(ValueError):
            LinkPass(5.0, 5.0)
        with pytest.raises(ValueError):
            PassSchedule.periodic(0.0, 1.0, 1.0, count=0)


class TestSessionManager:
    def run_session(self, protocol, config, n=4000, seed=2, init_time=0.05,
                    iframe_ber=1e-6):
        sim = Simulator()
        link = make_link(sim, seed=seed, iframe_ber=iframe_ber)
        schedule = PassSchedule.periodic(first_start=0.1, duration=0.4, gap=0.3, count=4)
        delivered = []
        manager = LinkSessionManager(
            sim, link, schedule, session_factory(protocol, config),
            init_time=init_time, deliver=delivered.append,
        )
        for i in range(n):
            manager.send(("pkt", i))
        sim.run(until=4.0)
        return manager, delivered

    def test_lams_sessions_zero_loss_across_passes(self):
        config = LamsDlcConfig(checkpoint_interval=0.005, cumulation_depth=3)
        manager, delivered = self.run_session("lams", config)
        ids = {p[1] for p in delivered}
        assert manager.passes_run == 4
        # Everything delivered or still queued: nothing vanished.
        assert len(ids) + manager.backlog >= 4000
        assert ids >= set(range(3000))  # the bulk got through

    def test_carryover_replays_unresolved(self):
        config = LamsDlcConfig(checkpoint_interval=0.005, cumulation_depth=3)
        manager, delivered = self.run_session("lams", config, n=8000)
        # More than one pass was needed, so carry-over happened.
        assert manager.carried_over > 0
        assert manager.session_history[0]["reclaimed"] > 0

    def test_duplicates_only_from_carryover(self):
        config = LamsDlcConfig(checkpoint_interval=0.005, cumulation_depth=3)
        manager, delivered = self.run_session("lams", config, n=8000)
        ids = [p[1] for p in delivered]
        duplicates = len(ids) - len(set(ids))
        assert duplicates <= manager.carried_over

    def test_hdlc_sessions_also_work(self):
        config = HdlcConfig(window_size=32, sequence_bits=7, timeout=0.06)
        manager, delivered = self.run_session("hdlc", config, n=1500)
        assert manager.passes_run == 4
        ids = {p[1] for p in delivered}
        assert len(ids) + manager.backlog >= 1500

    def test_init_overhead_consumes_link_time(self):
        """A pass shorter than the overhead transmits nothing."""
        sim = Simulator()
        link = make_link(sim, seed=3, iframe_ber=0.0)
        schedule = PassSchedule([LinkPass(0.1, 0.15)])  # 50 ms pass
        delivered = []
        config = LamsDlcConfig(checkpoint_interval=0.005, cumulation_depth=3)
        manager = LinkSessionManager(
            sim, link, schedule, session_factory("lams", config),
            init_time=0.2, deliver=delivered.append,
        )
        manager.send(("pkt", 0))
        sim.run(until=1.0)
        assert delivered == []
        assert manager.backlog == 1
        assert manager.passes_run == 0

    def test_invalid_init_time(self):
        sim = Simulator()
        link = make_link(sim)
        schedule = PassSchedule.periodic(0.0, 1.0, 1.0, 1)
        with pytest.raises(ValueError):
            LinkSessionManager(sim, link, schedule, lambda *a: (None, None), init_time=-1)


class TestDelayAnalysis:
    def make_params(self, **overrides):
        return preset("noisy").with_(**overrides).model_parameters()

    def test_attempts_for_quantile(self):
        assert delay.attempts_for_quantile(0.0, 0.99) == 1
        assert delay.attempts_for_quantile(0.5, 0.5) == 1
        # P[S<=2] = 1 - 0.25 = 0.75 < 0.76, so three attempts are needed.
        assert delay.attempts_for_quantile(0.5, 0.76) == 3
        with pytest.raises(ValueError):
            delay.attempts_for_quantile(0.5, 1.0)

    def test_quantiles_monotone(self):
        params = self.make_params()
        quantiles = [0.5, 0.9, 0.99, 0.9999]
        values = [delay.lams_delay_quantile(params, q) for q in quantiles]
        assert values == sorted(values)

    def test_first_attempt_delay(self):
        params = self.make_params()
        expected = params.iframe_time + params.round_trip_time / 2
        assert delay.lams_delay_for_attempts(params, 1) == pytest.approx(expected)

    def test_invalid_attempts(self):
        params = self.make_params()
        with pytest.raises(ValueError):
            delay.lams_delay_for_attempts(params, 0)
