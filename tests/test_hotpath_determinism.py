"""Perf-work correctness contract: observers never change results.

The hot-path overhaul made ``Tracer.emit`` near-free when nobody is
listening (the ``active`` fast path), buffered RNG draws in the error
models, and inlined scheduling at the per-frame call sites.  All of it
rests on one invariant: a seeded simulation computes *bit-identical*
results no matter which observers are attached — a timeline, a
listener, or nothing at all.  These are the regression tests for that
invariant; if an optimisation ever makes an emit (or an RNG draw)
conditional on observability, they break.  The burst channel's
stretch path is held to the same contract, and to the per-frame walk it
replaced.
"""

from __future__ import annotations

import pytest

from repro.workloads.generators import SaturatedSource
from repro.workloads.scenarios import build_simulation, preset

from .errormodel_reference import ReferenceGilbertElliott

# "bursty" is the repo benchmark's sat_bursty link: nominal, with these
# bursts on the forward I-frames.
BURSTS = {"good_ber": 1e-7, "bad_ber": 1e-3, "mean_good": 0.02,
          "mean_bad": 0.002}


def _run(scenario_name: str, *, seed: int, record_timeline: bool,
         attach_listener: bool, duration: float = 0.2, error_model=None):
    if scenario_name == "bursty":
        scenario = preset("nominal")
        error_model = error_model or ("gilbert-elliott", BURSTS)
    else:
        scenario = preset(scenario_name)
    setup = build_simulation(scenario, "lams", seed=seed,
                             error_model=error_model)
    if record_timeline:
        setup.tracer.record_timeline = True
    records = []
    if attach_listener:
        setup.tracer.listeners.append(records.append)
    sender = setup.endpoint_a.sender
    source = SaturatedSource(
        setup.sim, setup.endpoint_a,
        backlog_fn=lambda: sender.pending_count,
        low_water=64, chunk=128,
        poll_interval=scenario.iframe_time * 64,
    )
    source.start()
    setup.sim.run(until=duration)
    outcome = {
        "summary": setup.tracer.summary(),
        "delivered": len(setup.delivered),
        "event_count": setup.sim.event_count,
        "iframes_sent": sender.iframes_sent,
        "retransmissions": sender.retransmissions,
        "frames_fwd": setup.link.forward.frames_sent,
        "corrupted_fwd": setup.link.forward.frames_corrupted,
    }
    return outcome, len(records)


# scenario -> entries a traced run pops beyond the bare run (of 744,
# 1570 and 984).  Traced or bare, a run is taken whole and its deliveries
# keep their arrivals' ranks; traced, an arrival that bears a record (a
# gap after a lost header, a run of one, a run's last frame) is an item of
# its own, and one that falls between two heap entries is one pop more.
TRACED_POPS = {"nominal": 0, "noisy": 2, "bursty": 8}


@pytest.mark.parametrize("scenario_name", ["nominal", "noisy", "bursty"])
def test_observers_do_not_change_outcomes(scenario_name):
    bare, bare_records = _run(
        scenario_name, seed=3, record_timeline=False, attach_listener=False
    )
    timeline, _ = _run(
        scenario_name, seed=3, record_timeline=True, attach_listener=False
    )
    listened, listened_records = _run(
        scenario_name, seed=3, record_timeline=False, attach_listener=True
    )
    both, _ = _run(
        scenario_name, seed=3, record_timeline=True, attach_listener=True
    )
    # Observed or not, a channel hands each run to the receiver whole, and
    # every arrival is applied by the same code: only the entries popped
    # for the arrivals that bear records differ.
    assert timeline["event_count"] - bare["event_count"] == TRACED_POPS[scenario_name]
    assert bare == {**timeline, "event_count": bare["event_count"]}
    assert timeline == listened == both
    # The observer configurations really differed.
    assert bare_records == 0
    assert listened_records > 0


def test_same_seed_is_bit_identical():
    first, _ = _run("noisy", seed=11, record_timeline=False, attach_listener=False)
    second, _ = _run("noisy", seed=11, record_timeline=False, attach_listener=False)
    assert first == second
    # Sanity: the noisy scenario actually exercised the error path, so
    # the RNG draw buffering is covered by the equality above.
    assert first["corrupted_fwd"] > 0


def test_same_seed_is_bit_identical_on_bursts():
    first, _ = _run("bursty", seed=11, record_timeline=False, attach_listener=False)
    second, _ = _run("bursty", seed=11, record_timeline=False, attach_listener=False)
    assert first == second
    assert first["corrupted_fwd"] > 0


def test_burst_stretches_change_no_outcome():
    """A saturated burst-channel run gives the outcome it gave when every
    frame walked the Gilbert–Elliott state machine and drew its own
    variate: the reference model of ``tests/errormodel_reference.py`` as
    the forward I-frame model."""
    bit_rate = preset("nominal").bit_rate
    shipped, _ = _run("bursty", seed=7, record_timeline=False,
                      attach_listener=False)
    reference, _ = _run(
        "bursty", seed=7, record_timeline=False, attach_listener=False,
        error_model=ReferenceGilbertElliott(bit_rate=bit_rate, **BURSTS),
    )
    assert shipped == reference
    assert shipped["corrupted_fwd"] > 0


def test_different_seeds_diverge():
    first, _ = _run("noisy", seed=11, record_timeline=False, attach_listener=False)
    other, _ = _run("noisy", seed=12, record_timeline=False, attach_listener=False)
    assert first != other
