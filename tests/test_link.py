"""Tests for the full-duplex link: serialization, propagation, errors, outages."""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass

import pytest

from repro.simulator.engine import Simulator
from repro.simulator.errormodel import BernoulliChannel, PerfectChannel
from repro.simulator.link import FullDuplexLink, SimplexChannel
from repro.simulator.rng import StreamRegistry
from repro.topology import LinkSpec, build_link
from repro.transport.clock import AsyncioClock
from repro.transport.impair import Impairments
from repro.transport.udp import UdpChannel


@dataclass(frozen=True)
class Frame:
    size_bits: int = 1000
    is_control: bool = False
    label: str = ""


def make_channel(sim, **kwargs) -> SimplexChannel:
    defaults = dict(
        name="chan", bit_rate=1e6, propagation_delay=0.010,
        streams=StreamRegistry(seed=2),
    )
    defaults.update(kwargs)
    return SimplexChannel(sim, **defaults)


class TestSerialization:
    def test_delivery_time_is_tx_plus_propagation(self):
        sim = Simulator()
        channel = make_channel(sim)
        arrivals = []
        channel.attach_receiver(lambda f, c: arrivals.append(sim.now))
        channel.send(Frame(size_bits=1000))  # 1 ms at 1 Mbps
        sim.run()
        assert arrivals == [pytest.approx(0.001 + 0.010)]

    def test_back_to_back_frames_serialize(self):
        sim = Simulator()
        channel = make_channel(sim)
        arrivals = []
        channel.attach_receiver(lambda f, c: arrivals.append((f.label, sim.now)))
        channel.send(Frame(label="a"))
        channel.send(Frame(label="b"))
        sim.run()
        assert arrivals[0] == ("a", pytest.approx(0.011))
        assert arrivals[1] == ("b", pytest.approx(0.012))

    def test_fifo_order_preserved(self):
        sim = Simulator()
        channel = make_channel(sim)
        arrivals = []
        channel.attach_receiver(lambda f, c: arrivals.append(f.label))
        for i in range(20):
            channel.send(Frame(label=str(i)))
        sim.run()
        assert arrivals == [str(i) for i in range(20)]

    def test_transmission_time(self):
        sim = Simulator()
        channel = make_channel(sim, bit_rate=2e6)
        assert channel.transmission_time(Frame(size_bits=1000)) == pytest.approx(5e-4)

    def test_idle_callbacks_fire_when_queue_drains(self):
        sim = Simulator()
        channel = make_channel(sim)
        channel.attach_receiver(lambda f, c: None)
        idles = []
        channel.on_idle(lambda: idles.append(sim.now))
        channel.send(Frame())
        channel.send(Frame())
        sim.run()
        # One idle notification, after both serializations complete.
        assert idles == [pytest.approx(0.002)]

    def test_queue_length_and_is_idle(self):
        sim = Simulator()
        channel = make_channel(sim)
        channel.attach_receiver(lambda f, c: None)
        assert channel.is_idle
        channel.send(Frame())
        channel.send(Frame())
        assert not channel.is_idle
        assert channel.queue_length == 1  # one serializing, one queued
        sim.run()
        assert channel.is_idle

    def test_utilization(self):
        sim = Simulator()
        channel = make_channel(sim)
        channel.attach_receiver(lambda f, c: None)
        channel.send(Frame(size_bits=1000))  # 1 ms busy
        sim.run(until=0.1)
        assert channel.utilization(0.1) == pytest.approx(0.01)

    def test_missing_receiver_raises(self):
        sim = Simulator()
        channel = make_channel(sim)
        channel.send(Frame())
        with pytest.raises(RuntimeError, match="no receiver"):
            sim.run()

    def test_invalid_bit_rate(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            make_channel(sim, bit_rate=0)


class TestNonFiniteParameters:
    """A rate or delay that is NaN or infinite is refused where it is
    given, naming the field, not found later as a link that fails."""

    @pytest.mark.parametrize("bit_rate", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_channel_refuses_the_rate(self, bit_rate):
        with pytest.raises(ValueError, match="^bit_rate must be positive and finite"):
            make_channel(Simulator(), bit_rate=bit_rate)

    @pytest.mark.parametrize("delay", [math.nan, math.inf, -1e-9])
    def test_channel_refuses_the_fixed_delay(self, delay):
        with pytest.raises(ValueError, match="^propagation_delay must be non-negative and finite"):
            make_channel(Simulator(), propagation_delay=delay)

    def test_zero_delay_is_a_delay(self):
        assert make_channel(Simulator(), propagation_delay=0.0).propagation_delay(1.0) == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.001])
    def test_a_delay_callable_going_bad_mid_run_raises_there(self, bad):
        sim = Simulator()
        channel = make_channel(sim, propagation_delay=lambda t: 0.010 if t < 0.0015 else bad)
        arrivals = []
        channel.attach_receiver(lambda f, c: arrivals.append(f.label))
        channel.send(Frame(label="a"))  # departs at 0: delay 10 ms
        sim.schedule(0.002, lambda: channel.send(Frame(label="b")))
        with pytest.raises(ValueError, match="^propagation_delay must be non-negative and finite.*t=0.002"):
            sim.run()
        assert arrivals == []  # a's arrival was still pending

    @pytest.mark.parametrize("field,value", [
        ("bit_rate", math.nan), ("bit_rate", math.inf),
        ("propagation_delay", math.nan), ("propagation_delay", math.inf),
    ])
    def test_build_link_refuses_a_non_finite_override(self, field, value):
        spec = LinkSpec(scenario="nominal", **{field: value})
        with pytest.raises(ValueError, match=f"^{field} must be"):
            build_link(spec, Simulator())

    @pytest.mark.parametrize("kwargs,field", [
        (dict(bit_rate=math.nan), "bit_rate"),
        (dict(bit_rate=math.inf), "bit_rate"),
        (dict(impairments=Impairments(propagation_delay=math.nan)), "propagation_delay"),
        (dict(impairments=Impairments(propagation_delay=math.inf)), "propagation_delay"),
    ])
    def test_udp_channel_refuses_them_too(self, kwargs, field):
        loop = asyncio.new_event_loop()
        try:
            arguments = dict(name="udp", emit=lambda data: None, bit_rate=1e6)
            arguments.update(kwargs)
            with pytest.raises(ValueError, match=f"^{field} must be"):
                UdpChannel(AsyncioClock(loop), **arguments)
        finally:
            loop.close()


class TestErrors:
    def test_separate_models_for_frame_classes(self):
        sim = Simulator()
        channel = make_channel(
            sim,
            iframe_errors=BernoulliChannel(1.0),  # always corrupt data
            cframe_errors=PerfectChannel(),
        )
        outcomes = []
        channel.attach_receiver(lambda f, c: outcomes.append((f.is_control, c)))
        channel.send(Frame(is_control=False))
        channel.send(Frame(is_control=True))
        sim.run()
        assert outcomes == [(False, True), (True, False)]

    def test_corrupted_frames_still_delivered(self):
        """Assumption 9: corruption is detectable, not silent loss."""
        sim = Simulator()
        channel = make_channel(sim, iframe_errors=BernoulliChannel(1.0))
        received = []
        channel.attach_receiver(lambda f, c: received.append(c))
        for _ in range(5):
            channel.send(Frame())
        sim.run()
        assert received == [True] * 5
        assert channel.frames_corrupted == 5


class TestTimeVaryingDelay:
    def test_callable_delay_used_per_departure(self):
        sim = Simulator()
        channel = make_channel(sim, propagation_delay=lambda t: 0.010 + t)
        arrivals = []
        channel.attach_receiver(lambda f, c: arrivals.append(sim.now))
        channel.send(Frame())  # departs 0, done 0.001, delay(0)=0.010
        sim.run()
        assert arrivals == [pytest.approx(0.011)]

    def test_arrivals_never_reorder_under_shrinking_delay(self):
        sim = Simulator()
        # Delay collapses over time: naive arrival times would reorder.
        channel = make_channel(sim, propagation_delay=lambda t: max(0.0, 0.1 - 40 * t))
        arrivals = []
        channel.attach_receiver(lambda f, c: arrivals.append((f.label, sim.now)))
        for i in range(5):
            channel.send(Frame(label=str(i)))
        sim.run()
        labels = [a[0] for a in arrivals]
        times = [a[1] for a in arrivals]
        assert labels == ["0", "1", "2", "3", "4"]
        assert times == sorted(times)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        channel = make_channel(sim, propagation_delay=lambda t: -1.0)
        channel.attach_receiver(lambda f, c: None)
        channel.send(Frame())
        with pytest.raises(ValueError):
            sim.run()


class TestOutage:
    def test_frames_lost_while_down(self):
        sim = Simulator()
        channel = make_channel(sim)
        received = []
        channel.attach_receiver(lambda f, c: received.append(f.label))
        channel.send(Frame(label="before"))
        sim.schedule(0.005, channel.down)  # cut mid-flight
        sim.run()
        # Frame finished serializing at 1 ms (link still up at that
        # decision point) but the cut at 5 ms kills the in-flight delivery.
        assert received == []
        assert channel.frames_lost_outage == 1

    def test_recovery_after_up(self):
        sim = Simulator()
        channel = make_channel(sim)
        received = []
        channel.attach_receiver(lambda f, c: received.append(f.label))
        channel.down()
        channel.send(Frame(label="lost"))
        sim.schedule(0.05, channel.up)
        sim.schedule(0.06, lambda: channel.send(Frame(label="ok")))
        sim.run()
        assert received == ["ok"]

    def outage_events(self, when_down):
        """Trace records from one frame sent at t=0 with a cut at *when_down*."""
        from repro.simulator.trace import Tracer

        sim = Simulator()
        events = []
        tracer = Tracer()
        tracer.listeners.append(
            lambda r: r.event == "frame_lost_outage" and events.append(r)
        )
        channel = make_channel(sim, tracer=tracer)
        channel.attach_receiver(lambda f, c: None)
        channel.send(Frame(is_control=True))
        sim.schedule(when_down, channel.down)
        sim.run()
        return events

    def test_loss_during_propagation_traced(self):
        # Serialization ends at 1 ms; the 5 ms cut catches the frame
        # in flight, so the loss is attributed to the propagate phase.
        [record] = self.outage_events(0.005)
        assert record.detail == {"phase": "propagate", "control": True}

    def test_loss_during_serialization_traced(self):
        # The cut lands at 0.5 ms, while the transmitter still owns the
        # frame: same counter, but the phase tells the two cases apart.
        [record] = self.outage_events(0.0005)
        assert record.detail == {"phase": "serialize", "control": True}

    def test_both_phases_count_identically(self):
        for when in (0.005, 0.0005):
            sim = Simulator()
            channel = make_channel(sim)
            channel.attach_receiver(lambda f, c: None)
            channel.send(Frame())
            sim.schedule(when, channel.down)
            sim.run()
            assert channel.frames_lost_outage == 1


class TestFullDuplexLink:
    def test_two_independent_directions(self):
        sim = Simulator()
        link = FullDuplexLink(sim, bit_rate=1e6, propagation_delay=0.010)
        to_b, to_a = [], []
        link.attach(lambda f, c: to_a.append(f.label), lambda f, c: to_b.append(f.label))
        link.forward.send(Frame(label="a->b"))
        link.reverse.send(Frame(label="b->a"))
        sim.run()
        assert to_b == ["a->b"] and to_a == ["b->a"]

    def test_round_trip_time(self):
        sim = Simulator()
        link = FullDuplexLink(sim, bit_rate=1e6, propagation_delay=0.010)
        assert link.round_trip_time() == pytest.approx(0.020)

    def test_down_up_both_directions(self):
        sim = Simulator()
        link = FullDuplexLink(sim, bit_rate=1e6, propagation_delay=0.010)
        link.down()
        assert not link.forward.is_up and not link.reverse.is_up
        link.up()
        assert link.forward.is_up and link.reverse.is_up
