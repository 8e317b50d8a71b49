"""Unit tests for LAMS-DLC building blocks: sequence space, send buffer,
flow control, frames, and configuration."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LamsDlcConfig
from repro.core.flowcontrol import StopGoRateController
from repro.core.frames import CheckpointFrame, IFrame, RequestNakFrame
from repro.core.sendbuf import SendBuffer
from repro.core.seqspace import (
    SequenceExhausted,
    SequenceSpace,
    forward_distance,
)
from repro.session import LinkSessionManager, PassSchedule
from repro.session.factories import session_factory
from repro.simulator import FullDuplexLink, Simulator

from .test_sender_window import FRAME_TIME, SenderRig


class TestForwardDistance:
    def test_basic(self):
        assert forward_distance(0, 5, 16) == 5
        assert forward_distance(14, 2, 16) == 4
        assert forward_distance(5, 5, 16) == 0

    def test_invalid_modulus(self):
        with pytest.raises(ValueError):
            forward_distance(0, 1, 0)

    @given(
        a=st.integers(min_value=0, max_value=255),
        b=st.integers(min_value=0, max_value=255),
    )
    def test_distance_inverse(self, a, b):
        d = forward_distance(a, b, 256)
        assert (a + d) % 256 == b


class TestSequenceSpace:
    """Cyclic numbering: the arithmetic, and the unique-identification
    invariant as the sender's outstanding window enforces it."""

    @staticmethod
    def release_oldest(rig: SenderRig) -> None:
        """A checkpoint that covers exactly the oldest outstanding frame."""
        buffer = rig.sender.buffer
        oldest = next(buffer.outstanding_frames())
        rig.checkpoint(oldest.expected_arrival + rig.config.processing_time,
                       frontier=buffer.next_index - 1)

    @staticmethod
    def allocate(rig: SenderRig) -> int:
        rig.offer(1)
        rig.run(FRAME_TIME)
        if rig.exhausted is not None:
            raise rig.exhausted
        return rig.sender.buffer.space.seq_of(rig.sender.iframes_sent - 1)

    def test_sequential_allocation(self):
        space = SequenceSpace(8)
        assert [space.seq_of(index) for index in range(5)] == [0, 1, 2, 3, 4]
        rig = SenderRig(numbering_bits=3)
        assert [self.allocate(rig) for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_wraparound_after_release(self):
        rig = SenderRig(numbering_bits=2)
        for _ in range(4):
            self.allocate(rig)
            self.release_oldest(rig)
        assert self.allocate(rig) == 0  # wrapped

    def test_exhaustion_raises(self):
        rig = SenderRig(numbering_bits=2)
        for _ in range(4):
            self.allocate(rig)
        with pytest.raises(SequenceExhausted):
            self.allocate(rig)

    def test_cursor_blocked_by_outstanding(self):
        rig = SenderRig(numbering_bits=2)
        for _ in range(4):
            self.allocate(rig)
        # Numbers 1, 2, 3 come free (renumbered), but the next in-order
        # number is 0, which is still outstanding.
        rig.checkpoint(rig.sim.now - 1.0, naks=[1, 2, 3])
        assert isinstance(rig.exhausted, SequenceExhausted)
        assert rig.sender.buffer.outstanding_count == 1

    def test_unknown_number_has_no_position(self):
        buffer = SendBuffer(space=SequenceSpace(8))
        assert buffer.position_of(3) is None  # never sent
        rig = SenderRig(numbering_bits=3)
        self.allocate(rig)
        assert rig.sender.buffer.position_of(0) == 0
        assert rig.sender.buffer.position_of(1) is None
        assert rig.sender.buffer.position_of(8) is None  # not a number at all

    def test_membership_and_counts(self):
        rig = SenderRig(numbering_bits=3)
        buffer = rig.sender.buffer
        seq = self.allocate(rig)
        assert buffer.position_of(seq) is not None
        assert buffer.outstanding_count == 1
        self.release_oldest(rig)
        assert buffer.position_of(seq) is None
        assert buffer.outstanding_count == 0

    def test_minimum_modulus(self):
        with pytest.raises(ValueError):
            SequenceSpace(1)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=100))
    def test_uniqueness_invariant(self, operations):
        """Under any allocate/release-oldest interleaving, outstanding
        numbers are always distinct and within the modulus."""
        rig = SenderRig(numbering_bits=4)
        outstanding: list[int] = []
        for do_allocate in operations:
            if do_allocate:
                try:
                    seq = self.allocate(rig)
                except SequenceExhausted:
                    assert len(outstanding) >= 1
                    break
                assert seq not in outstanding  # the paper's invariant
                assert 0 <= seq < 16
                outstanding.append(seq)
            elif outstanding:
                self.release_oldest(rig)
                outstanding.pop(0)
            assert [r.seq for r in rig.sender.buffer.outstanding_frames()] == outstanding
        assert rig.sender.buffer.outstanding_count == len(outstanding)

    @given(st.integers(min_value=2, max_value=64))
    def test_full_cycle_reuses_in_order(self, modulus):
        space = SequenceSpace(modulus)
        first_pass = [space.seq_of(index) for index in range(modulus)]
        second_pass = [space.seq_of(index) for index in range(modulus, 2 * modulus)]
        assert first_pass == second_pass == list(range(modulus))
        # index_of inverts seq_of over the latest modulus indices.
        newest = 2 * modulus - 1
        assert [space.index_of(seq, newest) for seq in second_pass] == list(
            range(modulus, 2 * modulus))

    def test_full_cycle_through_the_window(self):
        rig = SenderRig(numbering_bits=3)
        passes = []
        for _ in range(2):
            numbers = []
            for _ in range(8):
                numbers.append(self.allocate(rig))
                self.release_oldest(rig)
            passes.append(numbers)
        assert passes[0] == passes[1] == list(range(8))


class TestSendBuffer:
    def test_enqueue_and_pop(self):
        buffer = SendBuffer()
        assert buffer.enqueue("a", now=1.0)
        assert buffer.enqueue("b", now=2.0)
        assert buffer.pop_pending() == ("a", 1.0)
        assert buffer.pending_count == 1

    def test_capacity_refusal(self):
        buffer = SendBuffer(capacity=2)
        assert buffer.enqueue("a", 0.0) and buffer.enqueue("b", 0.0)
        assert not buffer.enqueue("c", 0.0)
        assert buffer.refused_total == 1

    def test_occupancy_counts_both_sides(self):
        rig = SenderRig()
        rig.offer(2, together=False)  # the first leaves at once, the second waits
        buffer = rig.sender.buffer
        assert (buffer.pending_count, buffer.outstanding_count) == (1, 1)
        assert buffer.occupancy == len(buffer) == 2
        assert buffer.peak_occupancy == 2

    def test_duplicate_outstanding_rejected(self):
        """A number held by a live frame cannot be issued again."""
        rig = SenderRig(numbering_bits=2)
        rig.offer(4)
        rig.run(0.001)  # all four have departed
        buffer = rig.sender.buffer
        with pytest.raises(SequenceExhausted):
            buffer.admit(1)
        buffer.detach(0)
        assert buffer.admit(3) == 1  # number 0 is free, number 1 is not

    def test_release_measures_holding_from_first_send(self):
        rig = SenderRig()
        rig.offer(1)
        rig.run(0.025)
        rig.checkpoint(rig.sim.now, frontier=0)
        assert rig.sender.releases == 1
        assert rig.sender.buffer.mean_holding_time == pytest.approx(0.025)

    def test_holding_time_survives_renumbering(self):
        """A retransmitted frame carries first_send_time forward."""
        rig = SenderRig()
        rig.run(0.010)
        rig.offer(1)
        rig.run(0.020)
        rig.checkpoint(rig.sim.now - 1.0, naks=[0])  # retransmitted at t=30 ms as number 1
        renumbered, = rig.sender.buffer.outstanding_frames()
        assert (renumbered.seq, renumbered.transmit_index) == (1, 1)
        assert (renumbered.retransmit_count, renumbered.origin) == (1, 0)
        assert renumbered.first_send_time == pytest.approx(0.010)
        rig.run(0.010)
        rig.checkpoint(rig.sim.now, frontier=1)
        assert rig.sender.buffer.mean_holding_time == pytest.approx(0.030)  # 40 ms - 10 ms

    def test_outstanding_iteration_in_transmit_order(self):
        rig = SenderRig()
        rig.offer(6)
        rig.run(10 * FRAME_TIME)
        rig.checkpoint(rig.sim.now - 1.0, naks=[3, 1])
        rig.run(10 * FRAME_TIME)
        frames = list(rig.sender.buffer.outstanding_frames())
        assert [f.transmit_index for f in frames] == [0, 2, 4, 5, 6, 7]
        assert [f.seq for f in frames] == [0, 2, 4, 5, 6, 7]
        assert [f.origin for f in frames] == [0, 2, 4, 5, 3, 1]
        assert [f.payload for f in frames] == [0, 2, 4, 5, 3, 1]

    def test_pending_payloads_snapshot(self):
        buffer = SendBuffer()
        buffer.enqueue("x", 0.0)
        buffer.enqueue("y", 0.0)
        assert buffer.pending_payloads() == ["x", "y"]

    def test_clear(self):
        rig = SenderRig()
        rig.offer(3, together=False)
        buffer = rig.sender.buffer
        assert buffer.occupancy == 3
        buffer.clear()
        assert buffer.occupancy == 0 and not list(buffer.outstanding_frames())
        assert buffer.next_index == 1  # transmit indices keep counting


class TestStopGoRateController:
    def test_full_rate_initially(self):
        controller = StopGoRateController()
        assert controller.rate_fraction == 1.0
        assert controller.inter_frame_gap(0.001) == 0.001

    def test_stop_halves_rate(self):
        controller = StopGoRateController(decrease_factor=0.5)
        controller.on_stop_go(True)
        assert controller.rate_fraction == 0.5
        assert controller.inter_frame_gap(0.001) == pytest.approx(0.002)

    def test_repeated_stops_keep_decreasing(self):
        controller = StopGoRateController(decrease_factor=0.5, min_fraction=0.05)
        for _ in range(10):
            controller.on_stop_go(True)
        assert controller.rate_fraction == pytest.approx(0.05)

    def test_go_recovers_additively(self):
        controller = StopGoRateController(decrease_factor=0.5, increase_step=0.1)
        controller.on_stop_go(True)
        controller.on_stop_go(False)
        assert controller.rate_fraction == pytest.approx(0.6)

    def test_rate_capped_at_one(self):
        controller = StopGoRateController(increase_step=0.5)
        for _ in range(5):
            controller.on_stop_go(False)
        assert controller.rate_fraction == 1.0

    def test_disabled_controller_ignores_signals(self):
        controller = StopGoRateController(enabled=False)
        controller.on_stop_go(True)
        assert controller.rate_fraction == 1.0
        assert controller.inter_frame_gap(0.002) == 0.002

    def test_reset(self):
        controller = StopGoRateController()
        controller.on_stop_go(True)
        controller.reset()
        assert controller.rate_fraction == 1.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            StopGoRateController(decrease_factor=1.5)
        with pytest.raises(ValueError):
            StopGoRateController(increase_step=0)
        with pytest.raises(ValueError):
            StopGoRateController(min_fraction=0)


class TestFrames:
    def test_iframe_validation(self):
        with pytest.raises(ValueError):
            IFrame(seq=-1, payload=None, size_bits=100)
        with pytest.raises(ValueError):
            IFrame(seq=0, payload=None, size_bits=0)

    def test_checkpoint_duplicate_naks_rejected(self):
        with pytest.raises(ValueError):
            CheckpointFrame(cp_index=0, issue_time=0.0, naks=(1, 1))

    def test_checkpoint_validation(self):
        """A negative index or a size of zero is refused; the fields go by
        position or by name."""
        with pytest.raises(ValueError):
            CheckpointFrame(cp_index=-1, issue_time=0.0)
        with pytest.raises(ValueError):
            CheckpointFrame(cp_index=0, issue_time=0.0, size_bits=0)
        assert CheckpointFrame(2, 0.5, (1,), 4, True, True, 120) == CheckpointFrame(
            cp_index=2, issue_time=0.5, naks=(1,), frontier=4, enforced=True, stop_go=True,
            size_bits=120)

    def test_resolving_command_detection(self):
        resolving = CheckpointFrame(cp_index=0, issue_time=0.0, enforced=True)
        assert resolving.is_resolving_command
        with_errors = CheckpointFrame(
            cp_index=0, issue_time=0.0, naks=(3,), enforced=True
        )
        assert not with_errors.is_resolving_command

    def test_frame_class_flags(self):
        iframe = IFrame(seq=0, payload=None, size_bits=10)
        checkpoint = CheckpointFrame(cp_index=0, issue_time=0.0)
        request = RequestNakFrame(request_time=0.0)
        assert not iframe.is_control
        assert checkpoint.is_control and request.is_control


class TestLamsConfig:
    def test_defaults_valid(self):
        config = LamsDlcConfig()
        assert config.iframe_bits == config.iframe_payload_bits + config.iframe_overhead_bits
        assert config.numbering_size == 2**config.numbering_bits

    def test_checkpoint_timeout(self):
        config = LamsDlcConfig(checkpoint_interval=0.01, cumulation_depth=4)
        assert config.checkpoint_timeout == pytest.approx(0.04)

    def test_cframe_bits_grows_with_naks(self):
        config = LamsDlcConfig(cframe_base_bits=96, cframe_per_nak_bits=16)
        assert config.cframe_bits(0) == 96
        assert config.cframe_bits(5) == 176
        with pytest.raises(ValueError):
            config.cframe_bits(-1)

    def test_resolving_period_formula(self):
        config = LamsDlcConfig(checkpoint_interval=0.01, cumulation_depth=3)
        # R + W_cp/2 + C_depth * W_cp
        assert config.resolving_period(0.1) == pytest.approx(0.1 + 0.005 + 0.03)

    def test_required_numbering_size(self):
        config = LamsDlcConfig(checkpoint_interval=0.01, cumulation_depth=3)
        frame_time = 1e-4
        expected = config.resolving_period(0.1) / frame_time
        assert config.required_numbering_size(0.1, frame_time) >= expected

    def test_validate_for_link_rejects_small_space(self):
        config = LamsDlcConfig(numbering_bits=4)
        with pytest.raises(ValueError, match="numbering size"):
            config.validate_for_link(round_trip_time=0.1, bit_rate=1e9)

    def test_validate_for_link_accepts_ample_space(self):
        config = LamsDlcConfig(numbering_bits=20)
        config.validate_for_link(round_trip_time=0.05, bit_rate=100e6)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LamsDlcConfig(checkpoint_interval=0)
        with pytest.raises(ValueError):
            LamsDlcConfig(cumulation_depth=0)
        with pytest.raises(ValueError):
            LamsDlcConfig(numbering_bits=0)
        with pytest.raises(ValueError):
            LamsDlcConfig(rate_decrease_factor=1.0)
        with pytest.raises(ValueError):
            LamsDlcConfig(receive_low_watermark=100, receive_high_watermark=10)

    @pytest.mark.parametrize("field, value", [
        ("checkpoint_interval", float("nan")), ("checkpoint_interval", float("inf")),
        ("cumulation_depth", float("nan")), ("iframe_payload_bits", float("nan")),
        ("iframe_overhead_bits", float("nan")), ("cframe_base_bits", float("nan")),
        ("cframe_per_nak_bits", float("nan")), ("processing_time", float("nan")),
        ("processing_time", float("inf")),
    ])
    def test_non_finite_parameters_rejected(self, field, value):
        """NaN passed every ``<= 0`` / ``< 0`` test here before."""
        with pytest.raises(ValueError):
            LamsDlcConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("receive_queue_capacity", 0), ("receive_queue_capacity", -1),
        ("receive_queue_capacity", 2.5), ("send_buffer_capacity", 0),
        ("send_buffer_capacity", -3), ("cumulation_depth", float("inf")),
        ("cumulation_depth", 2.5), ("numbering_bits", 8.5),
        ("rate_increase_step", float("nan")), ("rate_increase_step", -0.1),
        ("rate_increase_step", float("inf")), ("link_lifetime", float("nan")),
        ("link_lifetime", -1.0), ("link_lifetime", float("inf")),
        ("receive_low_watermark", -1), ("receive_high_watermark", 2.5),
    ])
    def test_values_that_break_the_protocol_are_refused_by_name(self, field, value):
        """Each was accepted before: a receive queue of 0 delivered nothing
        while the suite reported ok, an infinite C_depth made the
        checkpoint timeout infinite, so no failure was ever declared."""
        with pytest.raises(ValueError, match=field):
            LamsDlcConfig(**{field: value})

    def test_a_pass_that_fits_inside_its_overhead_builds_no_endpoint(self):
        """The session factory sets ``link_lifetime`` from the pass's
        remaining time, which the manager only offers while positive."""
        remaining = []
        lams = session_factory("lams", LamsDlcConfig())

        def factory(sim, link, deliver, pass_remaining):
            remaining.append(pass_remaining)
            return lams(sim, link, deliver, pass_remaining)

        def passes(init_time):
            sim = Simulator()
            schedule = PassSchedule.periodic(first_start=0.1, duration=0.05, gap=0.1, count=2)
            manager = LinkSessionManager(sim, FullDuplexLink(sim, 1e6, 0.001), schedule,
                                         factory, init_time=init_time,
                                         deliver=lambda packet: None)
            sim.run(until=1.0)
            return manager.passes_run

        assert passes(init_time=0.05) == 0 and remaining == []
        assert passes(init_time=0.0499) == 2
        assert remaining == [pytest.approx(1e-4)] * 2 and min(remaining) > 0
