"""Integration tests for the LAMS-DLC protocol over simulated links.

These exercise the protocol's headline guarantees:

- zero loss under frame corruption, control-frame corruption, gap
  losses, and link outages (the paper's core claim);
- implicit positive acknowledgement via checkpoint coverage;
- retransmission exactly once per NAK notification, with renumbering;
- enforced recovery and failure declaration timing;
- Stop-Go flow control reducing the sending rate.
"""

from __future__ import annotations

import pytest

from repro.api import make_endpoint_pair
from repro.core import LamsDlcConfig
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


def build(
    sim,
    iframe_ber=0.0,
    cframe_ber=0.0,
    seed=1,
    config=None,
    deliver=None,
    delivery_interval=None,
    tracer=None,
):
    link = FullDuplexLink(
        sim,
        bit_rate=RATE,
        propagation_delay=DELAY,
        name="t",
        iframe_errors=BernoulliChannel(iframe_ber) if iframe_ber else PerfectChannel(),
        cframe_errors=BernoulliChannel(cframe_ber) if cframe_ber else PerfectChannel(),
        streams=StreamRegistry(seed=seed),
        tracer=tracer,
    )
    config = config or LamsDlcConfig(checkpoint_interval=0.005, cumulation_depth=3)
    delivered = []
    a, b = make_endpoint_pair(
        "lams", sim, link, config, tracer=tracer,
        deliver_b=deliver or delivered.append,
        delivery_interval_b=delivery_interval,
    )
    a.start(send=True, receive=False)
    b.start(send=False, receive=True)
    return link, a, b, delivered


def transfer(sim, endpoint, n):
    for i in range(n):
        assert endpoint.accept(("pkt", i))


class TestCleanChannel:
    def test_all_frames_delivered_in_order(self):
        sim = Simulator()
        _, a, b, delivered = build(sim)
        transfer(sim, a, 500)
        sim.run(until=2.0)
        assert [p[1] for p in delivered] == list(range(500))
        assert a.sender.retransmissions == 0

    def test_sender_buffer_fully_released(self):
        sim = Simulator()
        _, a, b, delivered = build(sim)
        transfer(sim, a, 100)
        sim.run(until=2.0)
        assert a.sender.unresolved_count == 0
        assert a.sender.releases == 100

    def test_holding_time_close_to_model(self):
        """Clean channel: holding ≈ R + t_f + t_c + t_proc + I_cp/2."""
        sim = Simulator()
        config = LamsDlcConfig(checkpoint_interval=0.005, cumulation_depth=3)
        _, a, b, delivered = build(sim, config=config)
        transfer(sim, a, 2000)
        sim.run(until=2.0)
        t_f = config.iframe_bits / RATE
        expected = RTT + t_f + 0.5 * config.checkpoint_interval
        assert a.sender.mean_holding_time == pytest.approx(expected, rel=0.15)

    def test_no_spurious_failure_on_idle_link(self):
        sim = Simulator()
        _, a, b, delivered = build(sim)
        sim.run(until=5.0)  # nothing to send; checkpoints keep flowing
        assert not a.sender.failed
        assert a.sender.request_naks_sent == 0


class TestErrorRecovery:
    def test_zero_loss_with_iframe_errors(self):
        sim = Simulator()
        _, a, b, delivered = build(sim, iframe_ber=5e-6, seed=3)
        transfer(sim, a, 3000)
        sim.run(until=10.0)
        assert sorted(p[1] for p in delivered) == list(range(3000))
        assert a.sender.retransmissions > 0

    def test_zero_loss_with_control_errors_too(self):
        sim = Simulator()
        _, a, b, delivered = build(sim, iframe_ber=5e-6, cframe_ber=1e-4, seed=4)
        transfer(sim, a, 3000)
        sim.run(until=10.0)
        assert sorted(set(p[1] for p in delivered)) == list(range(3000))

    def test_exactly_once_without_outage(self):
        """Without outages/enforced recovery, no duplicates either."""
        sim = Simulator()
        _, a, b, delivered = build(sim, iframe_ber=5e-6, cframe_ber=1e-5, seed=5)
        transfer(sim, a, 2000)
        sim.run(until=10.0)
        ids = [p[1] for p in delivered]
        assert sorted(ids) == list(range(2000))
        assert len(ids) == len(set(ids))

    def test_retransmissions_scale_with_error_probability(self):
        results = {}
        for ber in (1e-6, 1e-5):
            sim = Simulator()
            _, a, b, delivered = build(sim, iframe_ber=ber, seed=6)
            transfer(sim, a, 3000)
            sim.run(until=10.0)
            results[ber] = a.sender.retransmissions
        assert results[1e-5] > 3 * results[1e-6]

    def test_retransmission_gets_new_sequence_number(self):
        sim = Simulator()
        tracer = Tracer(record_timeline=True)
        _, a, b, delivered = build(sim, iframe_ber=3e-5, seed=7, tracer=tracer)
        transfer(sim, a, 500)
        sim.run(until=5.0)
        # Every requeue is followed by a send with a *different* seq:
        requeues = tracer.timeline(event="requeue")
        assert requeues, "expected some retransmissions at this BER"
        # All frames delivered despite renumbering.
        assert sorted(p[1] for p in delivered) == list(range(500))

    def test_nak_for_unknown_seq_is_ignored(self):
        """Cumulative NAKs repeat; the second report must not retransmit again."""
        sim = Simulator()
        config = LamsDlcConfig(checkpoint_interval=0.002, cumulation_depth=5)
        _, a, b, delivered = build(sim, iframe_ber=2e-5, seed=8, config=config)
        transfer(sim, a, 1000)
        sim.run(until=10.0)
        ids = [p[1] for p in delivered]
        # Exactly once even though each error was reported up to 5 times.
        assert sorted(ids) == list(range(1000))
        assert len(ids) == len(set(ids))

    def test_header_unprotected_mode_still_zero_loss(self):
        """With unreadable corrupt headers, gap/trailing detection recovers."""
        sim = Simulator()
        config = LamsDlcConfig(
            checkpoint_interval=0.005, cumulation_depth=3, header_protected=False
        )
        _, a, b, delivered = build(sim, iframe_ber=2e-5, seed=9, config=config)
        transfer(sim, a, 1000)
        sim.run(until=15.0)
        assert sorted(set(p[1] for p in delivered)) == list(range(1000))


class TestCheckpointMechanics:
    def test_checkpoints_flow_periodically(self):
        sim = Simulator()
        config = LamsDlcConfig(checkpoint_interval=0.005, cumulation_depth=3)
        _, a, b, delivered = build(sim, config=config)
        sim.run(until=1.0)
        # ~200 checkpoints in 1 s at 5 ms intervals.
        assert 150 <= b.receiver.checkpoints_sent <= 210

    def test_release_waits_for_covering_checkpoint(self):
        sim = Simulator()
        config = LamsDlcConfig(checkpoint_interval=0.005, cumulation_depth=3)
        _, a, b, delivered = build(sim, config=config)
        transfer(sim, a, 1)
        # Frame arrives ~0.010; covering checkpoint issued ≤0.015, reaches
        # sender ≤0.0252. Release cannot precede frame arrival + R/2.
        sim.run(until=0.020)
        assert a.sender.releases == 0
        sim.run(until=0.040)
        assert a.sender.releases == 1

    def test_corrupted_checkpoint_ignored(self):
        sim = Simulator()
        # Control frames always corrupted on the reverse path: sender can
        # never release or see NAKs; eventually it suspects failure.
        _, a, b, delivered = build(sim, cframe_ber=1.0)
        transfer(sim, a, 10)
        sim.run(until=0.1)
        assert a.sender.releases == 0
        assert a.sender.checkpoints_corrupted > 0


class TestEnforcedRecovery:
    def test_outage_triggers_request_nak_and_recovers(self):
        sim = Simulator()
        link, a, b, delivered = build(sim, seed=11)
        transfer(sim, a, 2000)
        sim.schedule_at(0.030, link.down)
        sim.schedule_at(0.045, link.up)
        sim.run(until=10.0)
        assert a.sender.request_naks_sent >= 1
        assert not a.sender.failed
        assert sorted(set(p[1] for p in delivered)) == list(range(2000))

    def test_permanent_outage_declares_failure(self):
        sim = Simulator()
        failures = []
        link = FullDuplexLink(
            sim, bit_rate=RATE, propagation_delay=DELAY,
            streams=StreamRegistry(seed=1),
        )
        config = LamsDlcConfig(checkpoint_interval=0.005, cumulation_depth=3)
        a, b = make_endpoint_pair(
            "lams", sim, link, config, on_failure_a=lambda: failures.append(sim.now)
        )
        a.start(send=True, receive=False)
        b.start(send=False, receive=True)
        transfer(sim, a, 100)
        sim.schedule_at(0.050, link.down)
        sim.run(until=5.0)
        assert a.sender.failed
        assert len(failures) == 1
        # Failure time: last checkpoint + C_depth*W_cp (timer) + budget.
        budget = RTT + config.processing_time + config.checkpoint_timeout
        assert failures[0] == pytest.approx(0.050 + 0.015 + budget, abs=0.02)
        # Zero loss: undelivered frames still held for the network layer.
        held = {p[1] for p in a.sender.held_payloads()}
        assert len(held) + a.sender.releases == 100

    def test_failure_within_link_lifetime_budget(self):
        """Unrecoverable failure (not enough lifetime left) fails fast."""
        sim = Simulator()
        config = LamsDlcConfig(
            checkpoint_interval=0.005, cumulation_depth=3, link_lifetime=0.060
        )
        link = FullDuplexLink(
            sim, bit_rate=RATE, propagation_delay=DELAY,
            streams=StreamRegistry(seed=1),
        )
        a, b = make_endpoint_pair("lams", sim, link, config)
        a.start(send=True, receive=False)
        b.start(send=False, receive=True)
        transfer(sim, a, 10)
        sim.schedule_at(0.030, link.down)
        sim.run(until=5.0)
        assert a.sender.failed
        # No probe: remaining lifetime could not fit the response budget.
        assert a.sender.request_naks_sent == 0

    def test_dead_receiver_detected_from_start(self):
        sim = Simulator()
        link = FullDuplexLink(
            sim, bit_rate=RATE, propagation_delay=DELAY,
            streams=StreamRegistry(seed=1),
        )
        config = LamsDlcConfig(checkpoint_interval=0.005, cumulation_depth=3)
        a, b = make_endpoint_pair("lams", sim, link, config)
        a.start(send=True, receive=False)
        # b never started: no checkpoints ever.
        transfer(sim, a, 5)
        sim.run(until=5.0)
        assert a.sender.failed

    def test_new_frames_blocked_while_suspended(self):
        sim = Simulator()
        tracer = Tracer(record_timeline=True)
        link, a, b, delivered = build(sim, seed=12, tracer=tracer)
        transfer(sim, a, 50)
        sim.schedule_at(0.020, link.down)
        sim.schedule_at(0.200, link.up)
        sim.run(until=10.0)
        # While the outage lasted the sender probed, stopped new frames,
        # and resumed afterwards; all frames ultimately delivered.
        assert a.sender.request_naks_sent >= 1
        assert sorted(set(p[1] for p in delivered)) == list(range(50))


class TestFlowControl:
    def test_stop_go_reduces_sender_rate(self):
        sim = Simulator()
        config = LamsDlcConfig(
            checkpoint_interval=0.005,
            cumulation_depth=3,
            receive_queue_capacity=None,
            receive_high_watermark=16,
            receive_low_watermark=4,
        )
        # Receiver drains slowly: 1 frame per 200 µs while frames arrive
        # every ~83 µs — the queue builds and Stop-Go kicks in.
        _, a, b, delivered = build(
            sim, config=config, delivery_interval=200e-6, seed=13
        )
        transfer(sim, a, 3000)
        sim.run(until=1.0)
        assert a.sender.flow.stop_indications > 0
        assert a.sender.flow.min_fraction_seen < 1.0

    def test_overflow_discard_is_recovered(self):
        """Discarded-on-overflow frames are NAK'd and retransmitted."""
        sim = Simulator()
        config = LamsDlcConfig(
            checkpoint_interval=0.005,
            cumulation_depth=3,
            receive_queue_capacity=32,
            receive_high_watermark=16,
            receive_low_watermark=4,
        )
        _, a, b, delivered = build(
            sim, config=config, delivery_interval=150e-6, seed=14
        )
        transfer(sim, a, 2000)
        sim.run(until=30.0)
        assert b.receiver.discards > 0
        assert sorted(set(p[1] for p in delivered)) == list(range(2000))

    def test_rate_recovers_after_congestion_clears(self):
        sim = Simulator()
        config = LamsDlcConfig(
            checkpoint_interval=0.005, cumulation_depth=3,
            receive_high_watermark=16, receive_low_watermark=4,
        )
        _, a, b, delivered = build(
            sim, config=config, delivery_interval=200e-6, seed=15
        )
        transfer(sim, a, 500)
        sim.run(until=5.0)  # long after the batch drained
        assert a.sender.flow.rate_fraction == 1.0


class TestNumberingValidation:
    def test_undersized_numbering_raises_exhaustion(self):
        """A numbering space below the paper's bound fails loudly."""
        from repro.core.seqspace import SequenceExhausted

        sim = Simulator()
        config = LamsDlcConfig(
            checkpoint_interval=0.050, cumulation_depth=3, numbering_bits=5
        )
        _, a, b, delivered = build(sim, config=config)
        transfer(sim, a, 500)
        with pytest.raises(SequenceExhausted):
            sim.run(until=2.0)

    def test_config_validator_predicts_exhaustion(self):
        config = LamsDlcConfig(
            checkpoint_interval=0.050, cumulation_depth=3, numbering_bits=5
        )
        with pytest.raises(ValueError):
            config.validate_for_link(round_trip_time=RTT, bit_rate=RATE)
