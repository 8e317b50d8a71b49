"""Tests for the NBDT baseline (absolute numbering, selective reports)."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import make_endpoint_pair
from repro.nbdt import NbdtConfig, NbdtReport
from repro.simulator import (
    BernoulliChannel,
    FullDuplexLink,
    PerfectChannel,
    Simulator,
    StreamRegistry,
)

RATE = 100e6
DELAY = 0.010


def build(sim, mode="continuous", iframe_ber=0.0, cframe_ber=0.0, seed=1, **cfg):
    link = FullDuplexLink(
        sim, bit_rate=RATE, propagation_delay=DELAY, name="n",
        iframe_errors=BernoulliChannel(iframe_ber) if iframe_ber else PerfectChannel(),
        cframe_errors=BernoulliChannel(cframe_ber) if cframe_ber else PerfectChannel(),
        streams=StreamRegistry(seed=seed),
    )
    config = NbdtConfig(mode=mode, report_every=64, timeout=0.06, **cfg)
    delivered = []
    a, b = make_endpoint_pair("nbdt", sim, link, config, deliver_b=delivered.append)
    a.start()
    return link, a, b, delivered


def transfer(endpoint, n):
    for i in range(n):
        assert endpoint.accept(("pkt", i))


class TestConfig:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            NbdtConfig(mode="burst")
        with pytest.raises(ValueError):
            NbdtConfig(report_every=0)
        with pytest.raises(ValueError):
            NbdtConfig(timeout=0)

    def test_report_bits(self):
        config = NbdtConfig(report_base_bits=96, report_per_missing_bits=32)
        assert config.report_bits(0) == 96
        assert config.report_bits(3) == 192

    def test_report_frame_validation(self):
        with pytest.raises(ValueError):
            NbdtReport(cumulative=-1, highest_seen=0)
        with pytest.raises(ValueError):
            NbdtReport(cumulative=0, highest_seen=2, missing=(1, 1))


class TestContinuousMode:
    def test_clean_channel_exactly_once(self):
        sim = Simulator()
        _, a, b, delivered = build(sim)
        transfer(a, 1000)
        sim.run(until=10.0)
        assert sorted(p[1] for p in delivered) == list(range(1000))
        assert a.sender.retransmissions == 0
        assert a.sender.unresolved_count == 0

    def test_absolute_ids_never_reused(self):
        sim = Simulator()
        _, a, b, delivered = build(sim, iframe_ber=2e-5, seed=3)
        transfer(a, 2000)
        sim.run(until=60.0)
        assert a.sender.buffer.next_index == 2000  # one id per frame, forever
        assert sorted(set(p[1] for p in delivered)) == list(range(2000))

    def test_no_window_stall(self):
        """Unlike HDLC, NBDT streams the whole batch without pausing."""
        sim = Simulator()
        _, a, b, delivered = build(sim)
        transfer(a, 500)
        t_f = NbdtConfig().iframe_bits / RATE
        # All 500 frames serialize back-to-back in ~500 * t_f.
        sim.run(until=510 * t_f)
        assert a.sender.iframes_sent == 500

    def test_zero_loss_with_control_errors(self):
        sim = Simulator()
        _, a, b, delivered = build(sim, iframe_ber=1e-5, cframe_ber=1e-4, seed=4)
        transfer(a, 2000)
        sim.run(until=60.0)
        assert sorted(set(p[1] for p in delivered)) == list(range(2000))

    def test_trailing_loss_recovered(self):
        """Tail frames invisible to the gap list must still arrive."""
        sim = Simulator()
        link, a, b, delivered = build(sim, seed=5)
        transfer(a, 100)
        # Cut the forward channel briefly so the tail of the batch dies.
        sim.schedule_at(0.004, link.forward.down)
        sim.schedule_at(0.030, link.forward.up)
        sim.run(until=30.0)
        assert sorted(set(p[1] for p in delivered)) == list(range(100))


class TestMultiphaseMode:
    def test_clean_channel(self):
        sim = Simulator()
        _, a, b, delivered = build(sim, mode="multiphase")
        transfer(a, 500)
        sim.run(until=10.0)
        assert sorted(p[1] for p in delivered) == list(range(500))

    def test_phases_alternate(self):
        """Retransmissions happen in their own phase, after the report."""
        sim = Simulator()
        _, a, b, delivered = build(sim, mode="multiphase", iframe_ber=2e-5, seed=6)
        transfer(a, 1000)
        sim.run(until=60.0)
        assert a.sender.retransmissions > 0
        assert sorted(set(p[1] for p in delivered)) == list(range(1000))
        # One report per phase (plus timeout recoveries), far fewer than
        # continuous mode's per-64-frames cadence.
        assert b.receiver.reports_sent < 1000 // 64 + a.sender.timeouts + 10

    def test_multiphase_slower_than_continuous_under_load(self):
        """The paper introduced continuous mode precisely because
        alternation leaves the line idle between phases."""
        durations = {}
        for mode in ("multiphase", "continuous"):
            sim = Simulator()
            _, a, b, delivered = build(sim, mode=mode, iframe_ber=1e-5, seed=7)
            transfer(a, 3000)
            done = {}

            def check(d=delivered, done=done, sim=sim):
                if len(d) >= 3000 and "t" not in done:
                    done["t"] = sim.now

            # poll completion coarsely
            def poll():
                check()
                if "t" not in done:
                    sim.schedule(0.01, poll)
            poll()
            sim.run(until=120.0)
            durations[mode] = done.get("t", float("inf"))
        assert durations["continuous"] < durations["multiphase"]


class TestPaperCritiques:
    def test_no_failure_detection(self):
        """NBDT never declares failure: a dead receiver means polling
        forever — the paper's reliability critique."""
        sim = Simulator()
        link, a, b, delivered = build(sim, seed=8)
        transfer(a, 100)
        sim.schedule_at(0.010, link.down)  # permanent outage
        sim.run(until=5.0)
        assert a.sender.timeouts > 10          # still polling...
        assert a.sender.unresolved_count > 0   # ...holding everything...
        assert not hasattr(a.sender, "failed") or not getattr(a.sender, "failed")

    def test_memory_held_until_positive_ack(self):
        """Frames stay in sender memory until a report covers them."""
        sim = Simulator()
        link, a, b, delivered = build(sim, seed=9)
        transfer(a, 200)
        # Cut the reverse channel: data flows, reports do not.
        link.reverse.down()
        sim.run(until=1.0)
        assert len(delivered) == 200          # receiver got everything
        assert a.sender.unresolved_count == 200  # sender released nothing


class TestSeededProperty:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        mode=st.sampled_from(["continuous", "multiphase"]),
        iframe_ber=st.sampled_from([0.0, 1e-5, 3e-5]),
    )
    def test_exactly_once_any_seed(self, seed, mode, iframe_ber):
        sim = Simulator()
        _, a, b, delivered = build(sim, mode=mode, iframe_ber=iframe_ber,
                                   cframe_ber=1e-6, seed=seed)
        n = 300
        transfer(a, n)
        sim.run(until=60.0)
        ids = [p[1] for p in delivered]
        assert sorted(set(ids)) == list(range(n))
        assert len(ids) == len(set(ids))  # receiver dedups by absolute id
