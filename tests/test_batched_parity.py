"""Differential harness for the frame path: outcomes do not depend on run length.

Every transmission is a run decided when its last frame leaves the
transmitter, so nothing is drawn ahead of time and a run of 64 must
equal 64 runs of one — draw for draw, delivery for delivery, loss for
loss.  Two levels:

- end to end, ``batch_window=1`` (one frame per run, the paper's
  sender) against wider windows, outages included;
- on a bare channel, ``send_burst(frames)`` against frame-by-frame
  sends, under every combination of error model, propagation delay,
  interleaved control traffic and fault schedule.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import pytest

from repro.core.config import LamsDlcConfig
from repro.faults.injector import FaultInjector
from repro.faults.plan import BerStorm, FaultPlan, LinkOutage
from repro.simulator.engine import Simulator
from repro.simulator.errormodel import BernoulliChannel, GilbertElliottChannel
from repro.simulator.link import LIGHT_SPEED_KM_S, FullDuplexLink
from repro.simulator.rng import StreamRegistry
from repro.simulator.trace import Tracer
from repro.workloads.generators import FiniteBatch, SaturatedSource
from repro.workloads.scenarios import PRESETS, build_simulation, preset

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
                count: int = 400, overrides: dict | None = None,
                fault_plan: FaultPlan | None = None):
    setup = build_simulation(PRESETS[preset_name], "lams", seed=seed,
                             overrides=overrides, fault_plan=fault_plan)
    FiniteBatch(setup.sim, setup.endpoint_a, count=count).start()
    setup.sim.run(until=until)
    return _fingerprint(setup)


def _assert_equivalent(single: tuple, windowed: tuple) -> None:
    """Window-vs-single equality, modulo the two bookkeeping deltas.

    Event counts legitimately differ (k deliveries + one completion per
    run instead of 2k events).  Time-weighted summary means may differ
    in the last float bit — one level-neutral update at window commit
    integrates the same area as k per-frame updates, but in a different
    summation order — so summary floats compare at 1e-9 relative.
    Everything else, including the delivered-payload digest, is exact.
    """
    _, single_now, single_n, single_digest, single_summary = single
    _, windowed_now, windowed_n, windowed_digest, windowed_summary = windowed
    assert single_now == windowed_now
    assert single_n == windowed_n
    assert single_digest == windowed_digest
    assert single_summary.keys() == windowed_summary.keys()
    for key, value in single_summary.items():
        other = windowed_summary[key]
        if isinstance(value, float):
            assert other == pytest.approx(value, rel=1e-9), key
        else:
            assert other == value, key


class TestBatchedSendParity:
    @pytest.mark.parametrize("preset_name", sorted(PRESETS))
    def test_batched_equals_scalar(self, preset_name):
        single = _run_golden(preset_name, overrides={"batch_window": 1})
        windowed = _run_golden(preset_name, overrides={"batch_window": 64})
        _assert_equivalent(single, windowed)

    def test_deep_backlog_delivers_exactly_once(self):
        """Sustained line-rate backlog: where commit granularity shows.

        Once the backlog outlasts the round-trip time, NAK-triggered
        retransmissions arrive while a window is on the transmitter and
        wait for it to end (at ``batch_window=1``: only for the current
        frame) — the one W-dependent property (docs/TUNING.md §10).
        Delivery *timing* may then differ, so this asserts the invariant
        that survives it: the same payload set arrives, exactly once.
        """
        single = _run_golden("nominal", until=1.0, count=3000,
                             overrides={"batch_window": 1})
        windowed = _run_golden("nominal", until=1.0, count=3000,
                               overrides={"batch_window": 64})
        assert single[2] == windowed[2] == 3000

    def test_batched_saturated_source_delivers_exactly_once(self):
        """Feedback-coupled workload: SaturatedSource polls protocol
        state, so its offered traffic legitimately shifts when the
        window changes the drain pattern; delivery must stay
        exactly-once."""
        setup = build_simulation(PRESETS["nominal"], "lams", seed=3,
                                 overrides={"batch_window": 64})
        sender = setup.endpoint_a.sender
        SaturatedSource(
            setup.sim, setup.endpoint_a,
            backlog_fn=lambda: sender.pending_count,
        ).start()
        setup.sim.run(until=0.2)
        indexes = [payload[1] for payload in setup.delivered]
        assert len(indexes) > 1000
        assert len(indexes) == len(set(indexes))

    def test_mid_burst_outage_keeps_protocol_invariants(self):
        """Two cuts landing mid-window change nothing a window can see.

        ``down()`` settles the active run — frames already sent keep
        their fate, the rest are decided when they actually leave — so
        the run with windows equals the frame-by-frame run, not merely
        in what is delivered but in every counter and statistic.
        """
        plan = FaultPlan(faults=(
            LinkOutage(start=0.002, duration=0.004),
            LinkOutage(start=0.010, duration=0.002),
        ))
        single = _run_golden("short_hop", seed=11, count=300, fault_plan=plan,
                             overrides={"batch_window": 1})
        windowed = _run_golden("short_hop", seed=11, count=300, fault_plan=plan,
                               overrides={"batch_window": 32})
        assert single[2] == 300
        _assert_equivalent(single, windowed)

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

    def test_batch_window_below_one_rejected(self):
        with pytest.raises(ValueError, match="batch_window"):
            LamsDlcConfig(batch_window=0)


# Every instant a dyadic rational: a power-of-two bit rate and checkpoint
# interval, a 2**-6 s delay.  The gauge's per-frame updates at window 1
# then sum exactly, so window 64 must agree to the bit.  200 frames leave
# before the first NAK can return, so no NAK waits for a window of new
# frames.  A checkpoint NAKs at most an interval's frames; one lost on the
# way back (about one in ten here) makes the next NAK two intervals'
# worth, a retransmission run that outlasts the checkpoint after it.
DYADIC = preset("nominal").with_(
    bit_rate=2.0 ** 26, distance_km=LIGHT_SPEED_KM_S / 64,
    processing_time=2.0 ** -16, checkpoint_interval=2.0 ** -10,
    reverse_cframe_ber=1e-3,
)
DYADIC_BURSTS = ("gilbert-elliott", dict(good_ber=1e-7, bad_ber=5e-3,
                                         mean_good=0.05, mean_bad=0.004))


def _retransmission_runs(batch_window: int) -> dict:
    setup = build_simulation(DYADIC, "lams", seed=3, error_model=DYADIC_BURSTS,
                             overrides={"batch_window": batch_window})
    sim, sender = setup.sim, setup.endpoint_a.sender
    runs, landings, delivered = [], [], []

    def listen(record) -> None:
        detail = record.detail
        if record.event == "iframes_sent" and detail["retx"]:
            runs.append((record.time, detail["count"], detail["frame_time"]))
        elif (record.event == "frames_delivered" and detail["control"]
              and record.source == setup.link.reverse.name):
            landings.extend(time for k, time in enumerate(detail["times"])
                            if k not in detail["corrupted"])

    setup.tracer.listeners.append(listen)
    deliver = setup.endpoint_b.receiver.deliver
    setup.endpoint_b.receiver.deliver = lambda packet: (
        delivered.append((sim.now, packet)), deliver(packet))
    FiniteBatch(sim, setup.endpoint_a, count=200).start()
    sim.run(until=2.0)
    summary = setup.tracer.summary()
    name = f"{sender.name}.sendbuf"
    return {
        "gauge": (summary[f"{name}.avg"], summary[f"{name}.max"],
                  sender.buffer.peak_occupancy),
        "delivered": delivered,
        "retransmissions": sender.retransmissions,
        # Checkpoints that landed while a later frame of a retransmission
        # run was still waiting on the transmitter.
        "mid_run": sum(1 for start, count, frame_time in runs for landing in landings
                       if start < landing < start + (count - 1) * frame_time),
    }


def test_a_checkpoint_landing_mid_retransmission_run_moves_no_gauge():
    """A retransmission joins the outstanding frames as it departs, so a
    run of them steps the ``sendbuf`` gauge once a frame, each at its own
    departure, whatever lands in between: mean, maximum and
    ``peak_occupancy`` equal one frame per run's with ``==``."""
    single = _retransmission_runs(1)
    windowed = _retransmission_runs(64)
    assert windowed["mid_run"] == 2 and windowed["retransmissions"] == 29
    assert windowed["gauge"] == single["gauge"]
    assert windowed["retransmissions"] == single["retransmissions"]
    assert windowed["delivered"] == single["delivered"]
    assert len(single["delivered"]) == 200


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
        # channel reports idle, as a batch_window=1 sender does.
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
