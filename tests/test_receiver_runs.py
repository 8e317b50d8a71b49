"""The receiver takes a run: the run path against frames handed over one
at a time and the frozen per-frame receiver.

``LamsReceiver.on_run`` takes a run the channel has decided, plans each
clean frame's delivery by the receive queue's recurrence and applies the
arrivals lazily (``_settle``).  Here every history runs three ways on a
bidirectional LAMS link, both sides sending, so that the piggybacked
Stop-Go bit and the checkpoints of both directions matter:

- ``run``: as built (the run path);
- ``frame``: each channel's handler wrapped and its receiver made to
  ``hear`` the channel again, which unwires the run path: every I-frame
  is handed over on its own (``on_iframe``, a run of one);
- ``reference``: ``tests/receiver_reference.py``'s frozen per-frame
  receiver patched into the pair.

All three must deliver the same ``(now, payload)`` streams and send the
same checkpoint frames (index, issue time, NAK list, frontier, enforced,
Stop-Go), and end with the same error log, arrival counts and ``rxqueue``
gauge (area and maximum, to the bit).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.protocol as protocol_module
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

from .receiver_reference import ReferenceReceiver

PATHS = ("run", "frame", "reference")
BURSTS = ("gilbert-elliott", {
    "good_ber": 1e-7, "bad_ber": 1e-3, "mean_good": 0.004, "mean_bad": 0.001,
})
# Every duration a power of two of a second, so sums are exact and
# arrivals fall on checkpoint ticks and on each other's deliveries.
TIED = dict(bit_rate=2.0 ** 20, delay=4 / 1024, payload_bits=1024 - 80,
            config=dict(checkpoint_interval=16 / 1024, processing_time=1 / 2048,
                        batch_window=8, cframe_base_bits=128))


def _case(kind: str, seed: int = 1, **extra) -> dict:
    nominal = preset("nominal")
    case = dict(kind=kind, seed=seed, bit_rate=nominal.bit_rate,
                delay=nominal.one_way_delay, payload_bits=nominal.iframe_payload_bits,
                config={}, model=("bernoulli", {"ber": 1e-6}), payloads=600,
                until=0.06, outages=(), flushes=(), delivery_interval=None)
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
    "small-windows": _case("small-windows", seed=11, model=BURSTS,
                           config=dict(batch_window=3)),
    "tied": _case("tied", seed=12, payloads=150, until=0.5, **TIED),
    "tied-bursts": _case("tied-bursts", seed=13, payloads=150, until=0.5,
                         model=("bernoulli", {"ber": 2e-4}), **TIED),
    "tied-outage": _case("tied-outage", seed=14, payloads=150, until=0.5,
                         outages=((0.125, 0.0234375, "forward"),), **TIED),
}


def run(case: dict, path: str, traced: bool = False) -> dict:
    """Play *case* one way, with a listener on the tracer when *traced*;
    what each side delivered, sent and logged."""
    sim = Simulator()
    tracer = Tracer()
    if traced:
        tracer.listeners.append(lambda record: None)
    streams = StreamRegistry(case["seed"])
    name, params = case["model"]
    link = FullDuplexLink(sim, case["bit_rate"], case["delay"], name=case["kind"],
                          iframe_errors=make_error_model(
                              name, {"bit_rate": case["bit_rate"]}, **params),
                          reverse_iframe_errors=make_error_model(
                              name, {"bit_rate": case["bit_rate"]}, **params),
                          cframe_errors=make_error_model("bernoulli", ber=1e-6),
                          streams=streams, tracer=tracer)
    config = preset("nominal").lams_config(
        iframe_payload_bits=case["payload_bits"], **case["config"])
    delivered = {"A": [], "B": []}
    saved = protocol_module.LamsReceiver
    if path == "reference":
        protocol_module.LamsReceiver = ReferenceReceiver
    try:
        a, b = make_endpoint_pair(
            "lams", sim, link, config, tracer=tracer,
            deliver_a=lambda packet: delivered["A"].append((sim.now, packet)),
            deliver_b=lambda packet: delivered["B"].append((sim.now, packet)),
            delivery_interval_b=case["delivery_interval"])
    finally:
        protocol_module.LamsReceiver = saved
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
    sim.run(until=case["until"])
    result = {"delivered": delivered, "checkpoints": checkpoints}
    for side, endpoint in (("A", a), ("B", b)):
        receiver = endpoint.receiver
        depth = receiver.receive_queue_length  # settles
        stat = tracer.levels.get(f"{receiver.name}.rxqueue")
        result[side] = dict(
            depth=depth,
            gauge=None if stat is None else (stat._area, stat.maximum, stat._last_time),
            log=[(entry.seq, entry.detect_time, entry.reports)
                 for entry in receiver._resolving_log],
            errors=sorted(receiver._error_log),
            counts=(receiver.iframes_received, receiver.iframes_corrupted,
                    receiver.gap_losses_detected, receiver.frontier, receiver.delivered,
                    receiver.discards, receiver.duplicates_suppressed,
                    receiver.checkpoints_sent, receiver.enforced_sent),
            sender=(endpoint.sender.iframes_sent, endpoint.sender.retransmissions,
                    endpoint.sender.flow.rate_fraction),
        )
    return result


@pytest.mark.parametrize("name", sorted(CASES))
def test_three_paths_agree(name):
    case = CASES[name]
    results = {path: run(case, path) for path in PATHS}
    assert results["run"] == results["reference"]
    assert results["frame"] == results["reference"]
    assert results["run"]["delivered"]["B"], "nothing delivered: the case tests nothing"


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_traced_run_taken_as_it_lands_agrees(name):
    """Traced, a run is taken whole — its deliveries at their arrivals'
    ranks, an item only at an arrival that may bear a record, the rest
    waiting for the next settle — and gives the frozen per-frame
    receiver's answers."""
    case = CASES[name]
    assert run(case, "run", traced=True) == run(case, "reference", traced=True)


def test_the_cases_reach_what_they_are_named_for():
    """Each case exercises its feature on the run path."""
    slow = run(CASES["slow-receiver"], "run")
    assert any(checkpoint[-1] for checkpoint in slow["checkpoints"])  # Stop-Go set
    assert slow["B"]["gauge"][1] > 64
    bursts = run(CASES["bursts"], "run")
    assert bursts["B"]["counts"][1] > 0 and bursts["A"]["sender"][1] > 0
    assert run(CASES["zero-duplication"], "run")["B"]["counts"][6] > 0  # suppressed
    tied = run(CASES["tied"], "run")
    arrivals = {when for when, _ in tied["delivered"]["B"]}
    ticks = {checkpoint[0] for checkpoint in tied["checkpoints"]}
    assert len(tied["delivered"]["B"]) == 150
    assert ticks & {when - 1 / 2048 for when in arrivals}  # an arrival on a tick


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    base=st.sampled_from(["bernoulli", "bursts", "slow-receiver", "tied-bursts"]),
    seed=st.integers(0, 50),
    flushes=st.lists(st.sampled_from([0.011, 0.0234375, 0.03, 0.041]), max_size=2),
    outages=st.lists(st.tuples(st.sampled_from([0.015, 0.0322265625, 0.044]),
                               st.sampled_from([0.001, 0.00390625]),
                               st.sampled_from(["forward", "reverse", "both"])),
                     max_size=2),
    capacity=st.sampled_from([None, 8, 40]),
)
def test_generated_histories_agree(base, seed, flushes, outages, capacity):
    case = dict(CASES[base], seed=seed, flushes=tuple(sorted(flushes)),
                outages=tuple(sorted(outages)), until=min(CASES[base]["until"], 0.06))
    if capacity is not None:
        case["config"] = dict(case["config"], receive_queue_capacity=capacity)
    run_path, reference = run(case, "run"), run(case, "reference")
    assert run_path == reference


def _counted_runs(wrap: bool, rehear: bool, traced: bool) -> tuple[list[int], int, int]:
    """Frames B's receiver took through ``on_run``, I-frames the channel's
    handler saw, and payloads B delivered."""
    sim = Simulator()
    tracer = Tracer()
    if traced:
        tracer.listeners.append(lambda record: None)
    link = FullDuplexLink(sim, 1e6, 0.1, tracer=tracer)
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
    run path: wired, and frame for frame the frozen per-frame receiver's
    discards, error log, gauge area and maximum, and deliveries."""
    case = _case("stressed", seed=13, payloads=2000, until=1.0,
                 config=dict(processing_time=40e-6, receive_queue_capacity=96))
    sim = Simulator()
    link = FullDuplexLink(sim, 1e6, 0.001)
    make_endpoint_pair("lams", sim, link, preset("nominal").lams_config(**case["config"]))
    assert link.forward._run_sink is not None and link.reverse._run_sink is not None
    results = {path: run(case, path) for path in PATHS}
    assert results["run"] == results["reference"] == results["frame"]
    assert results["run"]["B"]["counts"][5] > 0  # discards
    assert run(case, "run", traced=True) == run(case, "reference", traced=True)


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

