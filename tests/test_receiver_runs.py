"""The receiver takes a run: the run path against frames handed over one
at a time and the executable specification.

``LamsReceiver.on_run`` takes a run the channel has decided, plans each
clean frame's delivery by the receive queue's recurrence and applies the
arrivals lazily (``_settle``).  Here every history runs three ways on a
bidirectional LAMS link, both sides sending, so that the piggybacked
Stop-Go bit and the checkpoints of both directions matter:

- ``run``: as built (the run path);
- ``frame``: each channel's handler wrapped and its receiver made to
  ``hear`` the channel again, which unwires the run path: every I-frame
  is handed over on its own (``on_iframe``, a run of one);
- ``spec``: the specification's link (``tests/spec/``), one heap entry
  per event, one frame handed to a channel at a time, one ``on_iframe``
  per arrival, with the same configuration, error models and seed;
  traced, each source's records are held to its log.

All must deliver the same ``(now, payload)`` streams and send the same
checkpoint frames (index, issue time, NAK list, frontier, enforced,
Stop-Go), in the same order of deliveries and checkpoints, and end with
the same error log, arrival counts, ``rxqueue`` gauge (area and maximum,
to the bit), sender counters and channel counters.  The ``tied`` cases put arrivals, deliveries and
checkpoint ticks on one float: there the engine's same-instant rule
decides, which runs a delivery after every numbered entry at its
instant; in ``tied-slow`` the queue builds, so deliveries planned long
before land on ticks and on later arrivals.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import make_endpoint_pair
from repro.core.frames import CheckpointFrame, IFrame
from repro.core.receiver import LamsReceiver
from repro.faults import FaultPlan
from repro.faults.injector import FaultInjector
from repro.faults.plan import LinkOutage
from repro.simulator import FullDuplexLink, Simulator
from repro.simulator.errormodel import make_error_model
from repro.simulator.rng import StreamRegistry
from repro.simulator.trace import Tracer
from repro.workloads import preset
from repro.workloads.generators import FiniteBatch

from . import spec
from .conftest import spec_settings
from .trace_runs import normal

BURSTS = ("gilbert-elliott", {
    "good_ber": 1e-7, "bad_ber": 1e-3, "mean_good": 0.004, "mean_bad": 0.001,
})
# Every duration a power of two of a second, so sums are exact and
# arrivals fall on checkpoint ticks and on each other's deliveries.
TIED = dict(bit_rate=2.0 ** 20, delay=4 / 1024, payload_bits=1024 - 80,
            config=dict(checkpoint_interval=16 / 1024, processing_time=1 / 2048,
                        cframe_base_bits=128))


def _case(kind: str, seed: int = 1, **extra) -> dict:
    nominal = preset("nominal")
    case = dict(kind=kind, seed=seed, bit_rate=nominal.bit_rate,
                delay=nominal.one_way_delay, payload_bits=nominal.iframe_payload_bits,
                config={}, model=("bernoulli", {"ber": 1e-6}), cframe_ber=1e-6, payloads=600,
                until=0.06, outages=(), flushes=(), slices=(), delivery_interval=None)
    case.update(extra)
    return case


CASES = {
    "clean": _case("clean", model=("bernoulli", {"ber": 1e-7})),
    "bernoulli": _case("bernoulli", seed=3),
    "bursts": _case("bursts", seed=5, model=BURSTS),
    "slow-receiver": _case("slow-receiver", seed=2, payloads=900, until=0.08,
                           config=dict(processing_time=1.5 * preset("nominal").iframe_time)),
    "long-haul-slow": _case(
        "long-haul-slow", seed=4, bit_rate=1e9, delay=preset("long_haul").one_way_delay,
        payloads=1500, until=0.09,
        config=dict(processing_time=1.5 * preset("long_haul").iframe_time,
                    checkpoint_interval=preset("long_haul").checkpoint_interval)),
    "outages": _case("outages", seed=6, model=BURSTS, until=0.1,
                     outages=((0.021, 0.004, "forward"), (0.047, 0.002, "both"))),
    "flushes": _case("flushes", seed=7, flushes=(0.0213, 0.0335, 0.04)),
    "flush-slow": _case("flush-slow", seed=8, flushes=(0.025, 0.03),
                        config=dict(processing_time=1.5 * preset("nominal").iframe_time)),
    "zero-duplication": _case("zero-duplication", seed=9, payloads=1500, until=0.2,
                              config=dict(zero_duplication=True, checkpoint_interval=0.005),
                              outages=((0.03, 0.02, "both"),)),
    "delivery-interval": _case("delivery-interval", seed=10,
                               delivery_interval=1.2 * preset("nominal").iframe_time),
    # Both receivers slower than the line, low watermarks and bursts: a
    # side's Stop-Go bit changes while its own run of I-frames is out, and
    # each frame carries its own departure's bit.
    "stop-go-mid-run": _case("sg", seed=3, model=BURSTS, payloads=3000,
                             until=0.12, config=dict(
                                 processing_time=1.5 * preset("nominal").iframe_time,
                                 receive_high_watermark=24, receive_low_watermark=8)),
    "tied": _case("tied", seed=12, payloads=150, until=0.5, **TIED),
    "tied-bursts": _case("tied-bursts", seed=13, payloads=150, until=0.5,
                         model=("bernoulli", {"ber": 2e-4}), **TIED),
    "tied-outage": _case("tied-outage", seed=14, payloads=150, until=0.5,
                         outages=((0.125, 0.0234375, "forward"),), **TIED),
    # A receiver exactly as fast as the line: each delivery lands on the
    # next frame's arrival, which comes first, and only a replay sees the
    # queue two deep there (no Stop-Go item settles at an arrival).
    "tied-paced": _case("tied-paced", seed=16, payloads=150, until=0.5,
                        **dict(TIED, config=dict(TIED["config"], processing_time=1 / 1024,
                                                 piggyback_flow_control=False))),
    # A receiver slower than the line: deliveries land on ticks and on
    # arrivals, planned many frame times before.
    "tied-slow": _case("tied-slow", seed=15, payloads=300, until=0.5,
                       **dict(TIED, config=dict(TIED["config"], processing_time=3 / 2048))),
    # Corrupted frames and an outage of about one frame time: a delivery
    # planned for a frame that lands in the outage is trimmed, and the
    # frame handed back must still land, and be lost, at its own instant.
    "tied-outage-bursts": _case("tied-outage-bursts", seed=9, payloads=150, until=0.06,
                                model=("bernoulli", {"ber": 2e-4}),
                                outages=((0.015, 0.001, "reverse"),), **TIED),
}


def run(case: dict, path: str, traced: bool = False, watch=None) -> dict:
    """Play *case* one way (``run``, ``frame`` or ``spec``); what each side
    delivered, sent and logged.  *traced*, each source's records too, in
    ``tests/trace_runs.py``'s normal form: on the ``spec`` path, the
    specification's log.  *watch*, if given, is called with the built link
    and its tracer (not on the ``spec`` path)."""
    name, params = case["model"]
    errors = [make_error_model(name, {"bit_rate": case["bit_rate"]}, **params)
              for _ in range(2)] + [make_error_model("bernoulli", ber=case["cframe_ber"])]
    config = preset("nominal").lams_config(
        iframe_payload_bits=case["payload_bits"], **case["config"])
    tracer, records = Tracer(), []
    if traced:
        tracer.listeners.append(lambda record: records.append(
            (record.time, record.source, record.event, record.detail)))
    streams = StreamRegistry(case["seed"])
    delivered = {"A": [], "B": []}
    # Deliveries and checkpoints, in the order they ran: a delivery tied
    # with a checkpoint tick runs after it (the engine's same-instant rule).
    timeline = []
    if path == "spec":
        sim = spec.Engine()
        link = SimpleNamespace(
            forward=spec.Channel(sim, f"{case['kind']}.fwd", case["bit_rate"], case["delay"],
                                    errors[0], errors[2], streams),
            reverse=spec.Channel(sim, f"{case['kind']}.rev", case["bit_rate"], case["delay"],
                                    errors[1], errors[2], streams))
        a, b = spec.make_pair(
            sim, config, link.forward, link.reverse,
            deliver_a=lambda packet: delivered["A"].append((sim.now, packet)),
            deliver_b=lambda packet: (delivered["B"].append((sim.now, packet)),
                                      timeline.append("B")),
            delivery_interval_b=case["delivery_interval"], name=case["kind"])
        records = sim.log  # the fault injector's records join it
    else:
        sim = Simulator()
        link = FullDuplexLink(sim, case["bit_rate"], case["delay"], name=case["kind"],
                              iframe_errors=errors[0], reverse_iframe_errors=errors[1],
                              cframe_errors=errors[2], streams=streams, tracer=tracer)
        a, b = make_endpoint_pair(
            "lams", sim, link, config, tracer=tracer,
            deliver_a=lambda packet: delivered["A"].append((sim.now, packet)),
            deliver_b=lambda packet: (delivered["B"].append((sim.now, packet)),
                                      timeline.append("B")),
            delivery_interval_b=case["delivery_interval"])
        if watch is not None:
            watch(link, tracer)
    checkpoints = []
    for channel, endpoint in ((link.forward, b), (link.reverse, a)):
        if path == "frame":
            handler = channel.receiver
            channel.receiver = lambda frame, corrupted, handler=handler: handler(frame, corrupted)
            endpoint.receiver.hear(channel)

        def send(frame, send=channel.send, channel=channel):
            if type(frame) is CheckpointFrame:
                checkpoints.append((sim.now, channel.name, frame.cp_index, frame.issue_time,
                                    frame.naks, frame.frontier, frame.enforced,
                                    frame.stop_go))
                timeline.append(channel.name)
            send(frame)

        channel.send = send
    a.start()
    b.start()
    FiniteBatch(sim, a, case["payloads"]).start()
    FiniteBatch(sim, b, case["payloads"] // 3,
                make_packet=lambda index, now: ("b", index, now)).start()
    if case["outages"]:
        FaultInjector(sim, link, FaultPlan(faults=tuple(
            LinkOutage(start=start, duration=length, direction=direction)
            for start, length, direction in case["outages"])), tracer=tracer)
    for when in case["flushes"]:
        sim.schedule_at(when, b.receiver.flush)
    depths = []  # B's queue where a run(until) slice ends
    for until in (*case["slices"], case["until"]):
        sim.run(until=until)
        depths.append(b.receiver.receive_queue_length)
    result = {"delivered": delivered, "checkpoints": checkpoints, "depths": depths,
              "timeline": timeline}
    for side, endpoint in (("A", a), ("B", b)):
        receiver, sender = endpoint.receiver, endpoint.sender
        depth = receiver.receive_queue_length  # settles
        stat = (receiver.gauge if path == "spec"
                else tracer.levels.get(f"{receiver.name}.rxqueue"))
        result[side] = dict(
            depth=depth, gauge=stat and (stat._area, stat.maximum, stat._last_time),
            log=[(entry.seq, entry.detect_time, entry.reports)
                 for entry in receiver._resolving_log],
            errors=sorted(receiver._error_log),
            counts=(receiver.iframes_received, receiver.iframes_corrupted,
                    receiver.gap_losses_detected, receiver.frontier, receiver.delivered,
                    receiver.discards, receiver.duplicates_suppressed,
                    receiver.checkpoints_sent, receiver.enforced_sent),
            sender=(sender.iframes_sent, sender.retransmissions, sender.flow.rate_fraction,
                    sender.checkpoints_received, sender.checkpoints_corrupted,
                    sender.request_naks_sent,
                    sender.checkpoint_timer.deadline if path == "spec"
                    else sender.checkpoint_deadline),
        )
    # Each channel's frames by fate: sent, corrupted, lost to an outage
    # (while serializing or propagating), and its time on the transmitter.
    result["channels"] = [
        (channel.sent, channel.corrupted, sum(channel.lost.values()), channel.busy_seconds)
        if path == "spec" else (channel.frames_sent, channel.frames_corrupted,
                                channel.frames_lost_outage, channel.busy_seconds)
        for channel in (link.forward, link.reverse)]
    if traced:
        tracer.settle()
        result["records"] = normal(records, config.numbering_size)
    return result


def untraced(result: dict) -> dict:
    """*result* without its records."""
    return {key: value for key, value in result.items() if key != "records"}


_PLAYED: dict = {}


def played(name: str, path: str, traced: bool = False, cases: dict = CASES) -> dict:
    """:func:`run` of ``cases[name]``, kept for the tests that share what
    they play."""
    key = (name, path, traced)
    if key not in _PLAYED:
        _PLAYED[key] = run(cases[name], path, traced)
    return _PLAYED[key]


@pytest.mark.parametrize("name", sorted(CASES))
def test_three_paths_agree(name):
    """The run path gives the frame path's answers and the specification's."""
    run_path = played(name, "run")
    assert run_path["delivered"]["B"], "nothing delivered: the case tests nothing"
    assert run_path == played(name, "frame")
    assert run_path == untraced(played(name, "spec", traced=True))


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_traced_run_taken_as_it_lands_agrees(name):
    """Traced, a run is taken whole — its deliveries at their ranks, its
    arrivals and their records waiting for the next settle — and gives
    the untraced run's answers, and the specification's records."""
    traced = played(name, "run", traced=True)
    assert untraced(traced) == played(name, "run")
    assert traced["records"] == played(name, "spec", traced=True)["records"]


def test_the_cases_reach_what_they_are_named_for():
    """Each case exercises its feature on the run path."""
    slow = played("slow-receiver", "run")
    assert any(checkpoint[-1] for checkpoint in slow["checkpoints"])  # Stop-Go set
    assert slow["B"]["gauge"][1] > 64
    bursts = played("bursts", "run")
    assert bursts["B"]["counts"][1] > 0 and bursts["A"]["sender"][1] > 0
    assert played("zero-duplication", "run")["B"]["counts"][6] > 0  # suppressed
    tied = played("tied", "run")
    arrivals = {when for when, _ in tied["delivered"]["B"]}
    ticks = {checkpoint[0] for checkpoint in tied["checkpoints"]}
    assert len(tied["delivered"]["B"]) == 150
    assert ticks & {when - 1 / 2048 for when in arrivals}  # an arrival on a tick
    assert played("tied-paced", "run")["B"]["gauge"][1] == 2  # an arrival, then a delivery
    slow = played("tied-slow", "run")
    ticks = {checkpoint[0] for checkpoint in slow["checkpoints"]}
    assert slow["B"]["gauge"][1] > 16  # planned more than a W_cp ahead
    assert ticks & {when for when, _ in slow["delivered"]["B"]}  # a delivery on a tick


@spec_settings(max_examples=12, deadline=None, derandomize=True)
@given(
    base=st.sampled_from(["bernoulli", "bursts", "slow-receiver", "tied-bursts", "tied-slow"]),
    seed=st.integers(0, 50),
    flushes=st.lists(st.sampled_from([0.011, 0.0234375, 0.03, 0.041]), max_size=2),
    outages=st.lists(st.tuples(st.sampled_from([0.015, 0.0322265625, 0.044]),
                               st.sampled_from([0.001, 0.00390625]),
                               st.sampled_from(["forward", "reverse", "both"])),
                     max_size=2),
    capacity=st.sampled_from([None, 8, 40]),
    slices=st.lists(st.sampled_from([0.0101, 0.0234375, 0.04]), max_size=2),
)
def test_generated_histories_agree(base, seed, flushes, outages, capacity, slices):
    """Flushes, outages, receive capacities and ``run(until)`` slices (an
    agenda stops at the horizon mid-run) on whole links: the run path
    gives the frame path's answers and the specification's."""
    case = dict(CASES[base], seed=seed, flushes=tuple(sorted(flushes)),
                outages=tuple(sorted(outages)), slices=tuple(sorted(set(slices))),
                until=min(CASES[base]["until"], 0.06))
    if capacity is not None:
        case["config"] = dict(case["config"], receive_queue_capacity=capacity)
    run_path = run(case, "run")
    assert run_path == run(case, "frame")
    spec_path = run(case, "spec", traced=True)
    assert run_path == untraced(spec_path) and run(case, "run", traced=True) == spec_path


def _counted_runs(wrap: bool, rehear: bool, traced: bool) -> tuple[list[int], int, int]:
    """Frames B's receiver took through ``on_run``, I-frames the channel's
    handler saw, and payloads B delivered."""
    sim = Simulator()
    tracer = Tracer()
    if traced:
        tracer.listeners.append(lambda record: None)
    link = FullDuplexLink(sim, 1e7, 0.1, tracer=tracer)
    a, b = make_endpoint_pair("lams", sim, link, preset("nominal").lams_config(),
                              tracer=tracer)
    assert link.forward._run_sink is b.receiver and link.reverse._run_sink is a.receiver
    calls, heard = [], []
    on_run = LamsReceiver.on_run
    b.receiver.__class__ = type("Counting", (LamsReceiver,), {
        "__slots__": (),
        "on_run": lambda self, *run: (calls.append(len(run[0])), on_run(self, *run))})
    if wrap:
        handler = link.forward.receiver
        link.forward.receiver = lambda frame, corrupted: (
            heard.append(frame) if type(frame) is IFrame else None, handler(frame, corrupted))
    if rehear:
        b.receiver.hear(link.forward)
    a.start()
    b.start()
    FiniteBatch(sim, a, 20).start()
    sim.run(until=1.0)
    return calls, len(heard), b.receiver.delivered


def test_hear_wires_the_run_path_and_rewires_on_a_new_handler():
    """Wired by the pair factory, runs reach ``on_run`` whole, traced or
    not.  A handler swapped in later sees only what still reaches it
    until the receiver hears the channel again, which unwires the run
    path.  Every payload is delivered each way."""
    calls, heard, delivered = _counted_runs(wrap=False, rehear=False, traced=False)
    assert max(calls) > 1 and delivered == 20
    assert _counted_runs(wrap=False, rehear=False, traced=True) == (calls, heard, delivered)
    calls, heard, delivered = _counted_runs(wrap=True, rehear=False, traced=False)
    assert sum(calls) + heard == 20 and max(calls) > 1 and delivered == 20
    assert _counted_runs(wrap=True, rehear=True, traced=False) == ([], 20, 20)


def test_a_capacity_bounded_receiver_takes_runs_as_the_per_frame_receiver_did():
    """The ``stressed`` history (capacity 96, t_proc 40 us, seed 13) on the
    run path: wired, and frame for frame the discards, error log, gauge
    area and maximum, and deliveries of frames handed over one at a time
    (traced too) — and of the specification."""
    case = _case("stressed", seed=13, payloads=2000, until=1.0,
                 config=dict(processing_time=40e-6, receive_queue_capacity=96))
    sim = Simulator()
    link = FullDuplexLink(sim, 1e6, 0.001)
    make_endpoint_pair("lams", sim, link, preset("nominal").lams_config(**case["config"]))
    assert link.forward._run_sink is not None and link.reverse._run_sink is not None
    results = {path: run(case, path) for path in ("run", "frame")}
    assert results["run"] == results["frame"]
    assert results["run"]["B"]["counts"][5] > 0  # discards
    traced = run(case, "run", traced=True)
    assert untraced(traced) == results["run"]
    assert traced == run(case, "spec", traced=True)


@pytest.mark.parametrize("interval", [-1e-3, math.nan, math.inf, -math.inf])
def test_delivery_interval_must_be_finite_and_non_negative(interval):
    sim = Simulator()
    link = FullDuplexLink(sim, 1e6, 0.001)
    with pytest.raises(ValueError, match="delivery_interval"):
        make_endpoint_pair("lams", sim, link, preset("nominal").lams_config(),
                           delivery_interval_b=interval)


def test_a_zero_delivery_interval_delivers_on_arrival():
    """``delivery_interval_b=0``: each payload goes up at its frame's arrival."""
    case = dict(CASES["clean"], delivery_interval=0.0, payloads=200, until=0.03)
    arrivals = []
    saved = LamsReceiver.on_iframe
    LamsReceiver.on_iframe = lambda self, frame, corrupted: (
        arrivals.append(self.sim.now) if self.name.endswith("B.rx") else None,
        saved(self, frame, corrupted))[1]
    try:
        per_frame = run(case, "frame")
    finally:
        LamsReceiver.on_iframe = saved
    assert [when for when, _ in per_frame["delivered"]["B"]] == arrivals[:200]
    assert run(case, "run") == per_frame

