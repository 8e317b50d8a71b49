"""Integration tests for the SR-HDLC and GBN-HDLC baselines."""

from __future__ import annotations

import pytest

from repro.api import make_endpoint_pair
from repro.hdlc import HdlcConfig
from repro.simulator import (
    BernoulliChannel,
    FullDuplexLink,
    PerfectChannel,
    Simulator,
    StreamRegistry,
    Tracer,
)

RATE = 100e6
DELAY = 0.010
RTT = 2 * DELAY


def build(sim, iframe_ber=0.0, cframe_ber=0.0, seed=1, config=None, tracer=None):
    link = FullDuplexLink(
        sim,
        bit_rate=RATE,
        propagation_delay=DELAY,
        name="h",
        iframe_errors=BernoulliChannel(iframe_ber) if iframe_ber else PerfectChannel(),
        cframe_errors=BernoulliChannel(cframe_ber) if cframe_ber else PerfectChannel(),
        streams=StreamRegistry(seed=seed),
        tracer=tracer,
    )
    config = config or HdlcConfig(window_size=32, sequence_bits=7, timeout=0.06)
    delivered = []
    a, b = make_endpoint_pair("hdlc", sim, link, config, tracer=tracer, deliver_b=delivered.append)
    a.start()
    return link, a, b, delivered


def transfer(endpoint, n):
    for i in range(n):
        assert endpoint.accept(("pkt", i))


class TestSelectiveRepeat:
    def test_clean_channel_in_order_exactly_once(self):
        sim = Simulator()
        _, a, b, delivered = build(sim)
        transfer(a, 1000)
        sim.run(until=10.0)
        assert [p[1] for p in delivered] == list(range(1000))
        assert a.sender.retransmissions == 0

    def test_window_stalls_until_rr(self):
        """With W frames outstanding and no RR yet, the sender must wait."""
        sim = Simulator()
        config = HdlcConfig(window_size=8, sequence_bits=7, timeout=0.06)
        _, a, b, delivered = build(sim, config=config)
        transfer(a, 100)
        # All 8 window frames serialize in ~0.66 ms; the RR can't return
        # before RTT = 20 ms. In between the sender must be stalled at 8.
        sim.run(until=0.010)
        assert a.sender.iframes_sent == 8
        sim.run(until=10.0)
        assert len(delivered) == 100

    def test_zero_loss_with_errors(self):
        sim = Simulator()
        _, a, b, delivered = build(sim, iframe_ber=5e-6, cframe_ber=1e-7, seed=2)
        transfer(a, 2000)
        sim.run(until=60.0)
        assert sorted(p[1] for p in delivered) == list(range(2000))

    def test_delivery_strictly_in_order(self):
        sim = Simulator()
        _, a, b, delivered = build(sim, iframe_ber=1e-5, seed=3)
        transfer(a, 1500)
        sim.run(until=60.0)
        ids = [p[1] for p in delivered]
        assert ids == sorted(ids) == list(range(1500))

    def test_srej_recovery_no_timeout_needed(self):
        """Errors inside a window recover via SREJ, not timeouts."""
        sim = Simulator()
        tracer = Tracer()
        _, a, b, delivered = build(sim, iframe_ber=5e-6, seed=4, tracer=tracer)
        transfer(a, 1000)
        sim.run(until=30.0)
        assert b.receiver.srej_sent > 0
        assert len(delivered) == 1000

    def test_lost_response_recovered_by_timeout(self):
        """Kill all control frames for a while: the poll timer recovers."""
        sim = Simulator()
        link, a, b, delivered = build(sim, seed=5)
        transfer(a, 32)
        # Cut only the reverse channel so the window's RR vanishes.
        sim.schedule_at(0.005, link.reverse.down)
        sim.schedule_at(0.100, link.reverse.up)
        sim.run(until=10.0)
        assert a.sender.timeouts >= 1
        assert sorted(p[1] for p in delivered) == list(range(32))

    def test_receiver_holds_out_of_order_frames(self):
        sim = Simulator()
        _, a, b, delivered = build(sim, iframe_ber=2e-5, seed=6)
        transfer(a, 1000)
        sim.run(until=60.0)
        assert b.receiver.window.peak_held > 0  # resequencing buffer used
        assert len(delivered) == 1000

    def test_duplicates_discarded_by_receiver(self):
        sim = Simulator()
        # Heavy control loss forces retransmissions of delivered frames.
        _, a, b, delivered = build(sim, iframe_ber=1e-6, cframe_ber=5e-4, seed=7)
        transfer(a, 500)
        sim.run(until=60.0)
        ids = [p[1] for p in delivered]
        assert ids == list(range(500))  # exactly once upward
        assert b.receiver.duplicates >= 0

    def test_mean_holding_time_at_least_rtt(self):
        sim = Simulator()
        _, a, b, delivered = build(sim)
        transfer(a, 500)
        sim.run(until=10.0)
        assert a.sender.mean_holding_time >= RTT * 0.9


class TestGoBackN:
    def make_config(self):
        return HdlcConfig(
            window_size=32, sequence_bits=7, timeout=0.06, selective=False
        )

    def test_clean_channel(self):
        sim = Simulator()
        _, a, b, delivered = build(sim, config=self.make_config())
        transfer(a, 500)
        sim.run(until=10.0)
        assert [p[1] for p in delivered] == list(range(500))

    def test_zero_loss_with_errors(self):
        sim = Simulator()
        _, a, b, delivered = build(
            sim, iframe_ber=5e-6, seed=8, config=self.make_config()
        )
        transfer(a, 1000)
        sim.run(until=60.0)
        assert sorted(p[1] for p in delivered) == list(range(1000))

    def test_gbn_retransmits_more_than_sr(self):
        """Section 2.3: GBN discards everything behind an error."""
        results = {}
        for selective in (True, False):
            sim = Simulator()
            config = HdlcConfig(
                window_size=32, sequence_bits=7, timeout=0.06, selective=selective
            )
            _, a, b, delivered = build(sim, iframe_ber=1e-5, seed=9, config=config)
            transfer(a, 1000)
            sim.run(until=120.0)
            assert sorted(p[1] for p in delivered) == list(range(1000))
            results[selective] = a.sender.retransmissions
        assert results[False] > 2 * results[True]

    def test_every_release_is_a_holding_time_sample(self):
        """A REJ releases frames too: the tracer's holding-time samples
        count what ``holding_samples`` counts (on_rej used to skip them)."""
        sim = Simulator()
        tracer = Tracer()
        _, a, b, delivered = build(
            sim, iframe_ber=2e-5, seed=10, config=self.make_config(), tracer=tracer
        )
        transfer(a, 500)
        sim.run(until=60.0)
        sender = a.sender
        assert sender.buffer.holding_samples == sender.releases == 500
        stat = tracer.samples[f"{sender.name}.holding_time"]
        assert stat.count == sender.buffer.holding_samples
        assert stat.mean == pytest.approx(sender.mean_holding_time)

    def test_receiver_discards_out_of_order(self):
        sim = Simulator()
        _, a, b, delivered = build(
            sim, iframe_ber=2e-5, seed=10, config=self.make_config()
        )
        transfer(a, 500)
        sim.run(until=60.0)
        assert b.receiver.discards > 0
        assert len(delivered) == 500


class TestBufferGrowth:
    def test_sr_hdlc_sending_buffer_diverges_under_load(self):
        """The paper's B_HDLC = ∞ result, observed directly."""
        from repro.workloads.generators import ConstantRateSource

        sim = Simulator()
        _, a, b, delivered = build(sim)
        t_f = HdlcConfig().iframe_bits / RATE
        source = ConstantRateSource(sim, a, rate=0.8 / t_f)
        source.start()
        occupancies = []
        for checkpoint_time in (0.5, 1.0, 1.5, 2.0):
            sim.run(until=checkpoint_time)
            occupancies.append(a.sender.occupancy)
        source.stop()
        # Strictly increasing backlog: no transparent buffer size.
        assert occupancies == sorted(occupancies)
        assert occupancies[-1] > occupancies[0] * 2
