"""Differential harness for the frame path: outcomes do not depend on run length.

The sender hands the channel runs of up to ``WINDOW`` frames, and every
run is decided when its last frame leaves the transmitter, so nothing is
drawn ahead of time and a run of 64 must equal 64 runs of one — draw for
draw, delivery for delivery, loss for loss.  Two levels:

- end to end, the shipped link against its specification twin
  (``tests/conftest.py::spec_twin``, the paper's one-frame sender),
  outages, saturation and retransmission runs included;
- on a bare channel, ``send_burst(frames)`` against frame-by-frame
  sends, under every combination of error model, propagation delay,
  interleaved control traffic and fault schedule.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import pytest

from repro.core.sender import LamsSender
from repro.faults.injector import FaultInjector
from repro.faults.plan import BerStorm, FaultPlan, LinkOutage
from repro.simulator.engine import Simulator
from repro.simulator.errormodel import BernoulliChannel, GilbertElliottChannel
from repro.simulator.link import LIGHT_SPEED_KM_S, FullDuplexLink
from repro.simulator.rng import StreamRegistry
from repro.simulator.trace import Tracer
from repro.workloads.generators import FiniteBatch, SaturatedSource
from repro.workloads.scenarios import PRESETS, build_simulation, preset

from . import spec
from .conftest import spec_twin
from .trace_runs import Split


def _fingerprint(setup) -> tuple:
    """Everything a run's outcome is judged by, hashable for equality."""
    delivered = list(setup.delivered)
    digest = hashlib.sha256(repr(delivered).encode()).hexdigest()
    return (
        setup.sim.event_count,
        setup.sim.now,
        len(delivered),
        digest,
        setup.tracer.summary(),
    )


def _run_golden(preset_name: str, *, seed: int = 3, until: float = 5.0,
                count: int = 400, fault_plan: FaultPlan | None = None):
    setup = build_simulation(PRESETS[preset_name], "lams", seed=seed, fault_plan=fault_plan)
    FiniteBatch(setup.sim, setup.endpoint_a, count=count).start()
    setup.sim.run(until=until)
    return _fingerprint(setup)


def _sender(sender) -> tuple:
    """A LAMS-DLC sender's counters, holding-time sum and ``sendbuf``
    gauge, alike for the shipped sender and the specification's."""
    sender.occupancy  # settles
    if isinstance(sender, spec.Sender):
        gauge, peak, holding = sender.gauge, sender.peak_occupancy, sender.holding_sum
    else:
        gauge, peak = sender._sendbuf_stat, sender.buffer.peak_occupancy
        holding = sender.buffer.holding_time_sum
    return (sender.iframes_sent, sender.retransmissions, sender.releases, peak, holding,
            sender.request_naks_sent, sender.failures_declared,
            gauge and (gauge._area, gauge.maximum, gauge._last_time, gauge._level))


def _twins(make, drive) -> tuple[dict, dict]:
    """The link *make()* builds and the specification's twin of a fresh
    one, each driven by *drive(clock, endpoint A)*: the ``(now, payload)``
    deliveries at B, the clock, and A's sender (:func:`_sender`)."""
    outcomes = []
    for twin in (False, True):
        setup = make()
        clock, a, b = spec_twin(setup) if twin else (setup.sim, setup.endpoint_a,
                                                     setup.endpoint_b)
        delivered = []
        deliver = b.receiver.deliver
        b.receiver.deliver = lambda packet, deliver=deliver, clock=clock: (
            delivered.append((clock.now, packet)), deliver(packet))
        drive(clock, a)
        outcomes.append({"delivered": delivered, "now": clock.now, "sender": _sender(a.sender)})
    return outcomes[0], outcomes[1]


def _batch(count: int, until: float):
    def drive(clock, endpoint) -> None:
        FiniteBatch(clock, endpoint, count=count).start()
        clock.run(until=until)
    return drive


class TestBatchedSendParity:
    @pytest.mark.parametrize("preset_name", sorted(PRESETS))
    def test_batched_equals_scalar(self, preset_name):
        """Each preset, 400 payloads at once: the specification's link."""
        shipped, twin = _twins(lambda: build_simulation(PRESETS[preset_name], "lams", seed=3),
                               _batch(400, 5.0))
        assert len(shipped["delivered"]) == 400
        assert shipped == twin

    def test_deep_backlog_delivers_exactly_once(self):
        """Sustained line-rate backlog (3,000 payloads on ``nominal``): once
        it outlasts the round trip, checkpoints queue retransmissions while
        a run of new frames is on the transmitter, and the run gives its
        undeparted tail back (docs/TUNING.md §10), so every payload is
        delivered exactly once, at the specification's instant."""
        shipped, twin = _twins(lambda: build_simulation(PRESETS["nominal"], "lams", seed=3),
                               _batch(3000, 1.0))
        payloads = [payload for _, payload in shipped["delivered"]]
        assert len(payloads) == len(set(payloads)) == 3000
        assert shipped == twin

    def test_batched_saturated_source_delivers_exactly_once(self):
        """Feedback-coupled workload: ``SaturatedSource`` polls the backlog,
        which counts what has not departed, so what it offers and when is
        the specification's; every payload arrives once."""
        def drive(clock, endpoint) -> None:
            SaturatedSource(clock, endpoint,
                            backlog_fn=lambda: endpoint.sender.pending_count).start()
            clock.run(until=0.2)

        shipped, twin = _twins(lambda: build_simulation(PRESETS["nominal"], "lams", seed=3),
                               drive)
        indexes = [payload[1] for _, payload in shipped["delivered"]]
        assert len(indexes) > 1000
        assert len(indexes) == len(set(indexes))
        assert shipped == twin

    def test_mid_burst_outage_keeps_protocol_invariants(self):
        """Two cuts landing mid-run change nothing a run can see: ``down()``
        settles the active run — frames already sent keep their fate, the
        rest go back to the sender — so the link equals the
        specification's in every delivery and counter."""
        plan = FaultPlan(faults=(
            LinkOutage(start=0.002, duration=0.004),
            LinkOutage(start=0.010, duration=0.002),
        ))
        shipped, twin = _twins(
            lambda: build_simulation(PRESETS["short_hop"], "lams", seed=11, fault_plan=plan),
            _batch(300, 5.0))
        assert len(shipped["delivered"]) == 300
        assert shipped == twin

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("start", [0.0021, 0.0037, 0.0093])
    def test_time_stateful_model_survives_mid_window_cut(self, seed, start):
        """The check any fast path is held to: a Gilbert-Elliott channel
        plus an outage that lands mid-window.  Drawing a window's
        verdicts ahead of time walks the model's state past frames that
        the cut then sends again — ``ValueError: time went backwards``
        in every one of these cells before runs were decided at their
        end."""
        ge = ("gilbert-elliott", dict(good_ber=1e-7, bad_ber=1e-3,
                                      mean_good=0.02, mean_bad=0.002))
        plan = FaultPlan(faults=(LinkOutage(start=start, duration=0.0004),))
        setup = build_simulation(PRESETS["nominal"], "lams", seed=seed,
                                 error_model=ge, fault_plan=plan)
        FiniteBatch(setup.sim, setup.endpoint_a, count=3000).start()
        setup.sim.run(until=3.0)
        assert len(setup.delivered) == 3000


# Every instant a dyadic rational: a power-of-two bit rate and checkpoint
# interval, a 2**-6 s delay.  200 frames leave before the first NAK can
# return.  A checkpoint NAKs at most an interval's frames; one lost on the
# way back (about one in ten here) makes the next NAK two intervals'
# worth, a retransmission run that outlasts the checkpoint after it.
DYADIC = preset("nominal").with_(
    bit_rate=2.0 ** 26, distance_km=LIGHT_SPEED_KM_S / 64,
    processing_time=2.0 ** -16, checkpoint_interval=2.0 ** -10,
    reverse_cframe_ber=1e-3,
)
DYADIC_BURSTS = ("gilbert-elliott", dict(good_ber=1e-7, bad_ber=5e-3,
                                         mean_good=0.05, mean_bad=0.004))


def test_a_checkpoint_landing_mid_retransmission_run_moves_no_gauge():
    """A retransmission joins the outstanding frames as it departs, so a
    run of them steps the ``sendbuf`` gauge once a frame, each at its own
    departure, whatever lands in between: mean, maximum and
    ``peak_occupancy`` equal the specification's with ``==``."""
    landed_mid_run = []

    def make():
        setup = build_simulation(DYADIC, "lams", seed=3, error_model=DYADIC_BURSTS)
        sender = setup.endpoint_a.sender

        def hearing(self, cp, corrupted) -> None:
            # A checkpoint heard while a later frame of a retransmission
            # run is still waiting on the transmitter.
            self.retransmissions  # settles
            run = self._run
            landed_mid_run.append(not corrupted and run is not None and run.jobs is not None)
            LamsSender.on_checkpoint(self, cp, corrupted)

        sender.__class__ = type("Hearing", (LamsSender,), {
            "__slots__": (), "on_checkpoint": hearing})
        return setup

    shipped, twin = _twins(make, _batch(200, 2.0))
    assert sum(landed_mid_run) == 2 and shipped["sender"][1] == 29
    assert len(shipped["delivered"]) == 200
    assert shipped == twin


# -- bare channel: one burst vs frame-by-frame ------------------------------

BIT_RATE = 1e6
FRAME_BITS = 1000
FRAME_TIME = FRAME_BITS / BIT_RATE


@dataclass(eq=False)
class _Frame:
    ident: int
    is_control: bool = False
    size_bits: int = FRAME_BITS


def _model(kind: str):
    if kind == "bernoulli":
        return BernoulliChannel(2e-4)
    return GilbertElliottChannel(
        good_ber=1e-5, bad_ber=2e-3, mean_good=8 * FRAME_TIME,
        mean_bad=3 * FRAME_TIME, bit_rate=BIT_RATE,
    )


def _outage(start: float, duration: float) -> LinkOutage:
    return LinkOutage(start=start * FRAME_TIME, duration=duration * FRAME_TIME)


def _storm(start: float, duration: float) -> BerStorm:
    return BerStorm(start=start * FRAME_TIME, duration=duration * FRAME_TIME,
                    params=(("ber", 1e-3),))


# Fault schedules in frame times; the 64 frames occupy [0, 64).
SCHEDULES = {
    "clear": (),
    "cut-and-restore-mid-window": (_outage(10.5, 3.7),),
    "cut-outlasts-window": (_outage(3.3, 200.0),),
    "cut-from-first-frame": (_outage(0.0, 5.5),),
    "two-cuts": (_outage(7.5, 1.6), _outage(30.2, 11.5)),
    "cut-inside-one-frame": (_outage(20.3, 0.3),),
    "cut-at-run-end": (_outage(63.5, 2.0),),
    "storm-mid-window": (_storm(10.0, 20.0),),
    "storm-and-cut": (_storm(10.0, 20.0), _outage(17.4, 6.1)),
}


def _per_frame(tracer: Tracer) -> tuple:
    """The timeline with each ``frames_delivered`` run expanded to one
    ``deliver`` tuple per frame (a run's grouping is what differs)."""
    split = Split()
    for record in tracer.timeline():
        split(record)
    return split.others, split.per_source()


def _drive(feed: str, model_kind: str, delay: float, mixed: bool,
           schedule: tuple) -> dict:
    """Send 64 frames down one bare channel and record all it did."""
    sim = Simulator()
    tracer = Tracer(record_timeline=True)
    streams = StreamRegistry(seed=5)
    link = FullDuplexLink(
        sim, BIT_RATE, delay, iframe_errors=_model(model_kind),
        cframe_errors=BernoulliChannel(1e-3), streams=streams, tracer=tracer,
    )
    FaultInjector(sim, link, FaultPlan(faults=schedule))
    channel = link.forward
    frames = [_Frame(i, is_control=mixed and i % 7 == 3,
                     size_bits=96 if mixed and i % 7 == 3 else FRAME_BITS)
              for i in range(64)]
    deliveries, idle_times = [], []
    channel.attach_receiver(
        lambda frame, corrupted: deliveries.append((sim.now, frame.ident, corrupted))
    )
    if feed == "chained":
        # True frame-by-frame: the next frame is offered only when the
        # channel reports idle, as a one-frame sender does.
        waiting = iter(frames)

        def feed_one() -> None:
            frame = next(waiting, None)
            if frame is None:
                idle_times.append(sim.now)
            else:
                channel.send(frame)

        channel.on_idle(feed_one)
        feed_one()
    else:
        channel.on_idle(lambda: idle_times.append(sim.now))
        if feed == "burst":
            channel.send_burst(frames)
        else:
            for frame in frames:
                channel.send(frame)
    sim.run()
    return {
        "deliveries": deliveries,
        "trace": _per_frame(tracer),
        "idle_times": idle_times,
        "counters": (channel.busy_seconds, channel.frames_sent,
                     channel.frames_corrupted, channel.frames_lost_outage),
        "rng": [streams.get(f"{channel.name}.{kind}").bit_generator.state
                for kind in ("iframe", "cframe")],
    }


class TestBurstEqualsFrameByFrame:
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    @pytest.mark.parametrize("mixed", [False, True], ids=["plain", "control-interleaved"])
    @pytest.mark.parametrize("delay", [0.0066, 5 * FRAME_TIME, 0.0],
                             ids=["long-delay", "five-frame-delay", "zero-delay"])
    @pytest.mark.parametrize("model_kind", ["bernoulli", "gilbert-elliott"])
    def test_burst_equals_frame_by_frame(self, model_kind, delay, mixed, schedule):
        """Deliveries (so: arrival times, FIFO order, verdicts), every
        trace record (loss time and phase included), idle-callback
        times, all four counters and the final RNG state of both frame
        classes are the same whether 64 frames go as one burst, as 64
        queued sends, or one at a time."""
        faults = SCHEDULES[schedule]
        burst = _drive("burst", model_kind, delay, mixed, faults)
        assert burst == _drive("singles", model_kind, delay, mixed, faults)
        assert burst == _drive("chained", model_kind, delay, mixed, faults)
        # The run cap: nothing lands before it was decided (a delivery
        # pushed into the past would run with the clock behind it).
        times = [time for time, _, _ in burst["deliveries"]]
        assert times == sorted(times)
        assert burst["counters"][1] == 64

    def test_storm_mid_window_corrupts_as_many_as_frame_by_frame(self):
        """A 20-frame-time BER storm starting at frame 10 of a 64-frame
        burst must hit the frames that are sent during it — verdicts
        drawn at commit saw the calm model for all 64 (10 corrupted vs
        23 frame by frame)."""
        faults = SCHEDULES["storm-mid-window"]
        burst = _drive("burst", "bernoulli", 0.0066, False, faults)
        chained = _drive("chained", "bernoulli", 0.0066, False, faults)
        assert burst["deliveries"] == chained["deliveries"]
        assert burst["counters"][2] == chained["counters"][2] == 23
