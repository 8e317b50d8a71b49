"""The premise of the collector policy (docs/TUNING.md §12): the frame
path makes no cyclic garbage, so ``Simulator.run``'s raised
generation-0 threshold leaves nothing alive that a collection would
have freed, and a saturated link collects rarely.  A per-frame
reference cycle — a bound method stored on its own object, a record
that refers to its holder — fails here rather than hiding behind a
rarer collector."""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from repro.simulator.engine import Agenda, Simulator
from repro.topology import FlowSpec, build_constellation, ring_topology
from repro.workloads.generators import SaturatedSource
from repro.workloads.scenarios import build_simulation, preset

BURSTS = ("gilbert-elliott", {
    "good_ber": 1e-7, "bad_ber": 1e-3, "mean_good": 0.02, "mean_bad": 0.002,
})


def saturated_link(error_model=None, run_with_invariants=False):
    """A saturated LAMS-DLC link on ``nominal``; payloads are kept in
    ``setup.delivered``, as ``build_simulation`` keeps them."""
    scenario = preset("nominal")
    setup = build_simulation(scenario, "lams", seed=7, error_model=error_model,
                             run_with_invariants=run_with_invariants)
    sender = setup.endpoint_a.sender
    SaturatedSource(setup.sim, setup.endpoint_a, backlog_fn=lambda: sender.pending_count,
                    low_water=256, chunk=512,
                    poll_interval=scenario.iframe_time * 64).start()
    return setup


def frames(setup) -> int:
    link = setup.link
    return link.forward.frames_sent + link.reverse.frames_sent


def ring_of_12():
    """A 12-link ring: eight two-hop Poisson flows, probes, idle checkpoints."""
    topology = ring_topology(12, name="ring-12")
    names = topology.node_names()
    flows = [FlowSpec(source=names[s], destination=names[(s + 2) % 12], messages=100,
                      interval=0.005, poisson=True)
             for s in random.Random(7).sample(range(12), 8)]
    return build_constellation(topology, master_seed=7, flows=flows, horizon=1.0,
                               probe_interval=0.05)


def garbage_after(build, until):
    """``gc.collect()``'s count after running what *build* made to
    *until* with the collector off; what the build left is collected
    first."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        made = build()
        gc.collect()
        made.sim.run(until=until)
        return made, gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("options", [
    {}, {"error_model": BURSTS}, {"run_with_invariants": True},
], ids=["clean", "bursts", "invariants"])
@pytest.mark.parametrize("until", [0.05, 0.2])
def test_a_saturated_link_leaves_no_cyclic_garbage(options, until):
    setup, found = garbage_after(lambda: saturated_link(**options), until)
    assert frames(setup) > 30_000 * until
    assert found == 0


def ring_frames(constellation) -> int:
    return sum(runtime.stats.frames_sent for runtime in constellation.links.values())


def test_a_ring_leaves_the_same_garbage_however_long_it_runs():
    """None, however long it runs: a round whose members have all left
    (the probes' at the horizon) lapses when it next fires and is freed
    then, as are the cancelled members of the idle links that park.
    (The ring's frames measure how far it ran: parked, an idle link's
    checkpoints take no events.)"""
    short, found_short = garbage_after(ring_of_12, 1.0)
    long, found_long = garbage_after(ring_of_12, 3.0)
    assert ring_frames(long) > 1.5 * ring_frames(short)
    assert found_long == found_short == 0


def test_a_drained_engine_is_freed_by_reference_counting():
    """No engine object refers to itself: with the collector off, a
    simulator whose timer was restarted and fired, whose round lapsed
    after its member's ``cancel()`` and whose agenda ran dry is freed
    as soon as it is dropped, and leaves the collector nothing."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        sim, log = Simulator(), []
        timer = sim.timer(lambda: log.append("timer"))
        timer.start(1.0)
        timer.start(3.0)  # later: the carrier at 1.0 re-pushes itself at 3.0
        member = sim.every(1.0, lambda: log.append("tick"))
        sim.schedule(1.5, member.cancel)  # the round lapses when it fires at 2.0
        agenda = Agenda(sim)
        agenda.add(agenda.lanes[1], 0.75, log.append, ("second item",))
        agenda.add(agenda.lanes[0], 0.5, log.append, ("first item",))
        sim.run()
        assert log == ["first item", "second item", "tick", "timer"]
        assert not sim._heap and not sim._rounds
        freed = weakref.ref(sim)
        del sim, timer, member, agenda
        assert freed() is None
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_a_saturated_second_makes_a_generation_0_collection_per_5000_frames():
    """CPython's default threshold (700) makes one per ~600 frames here."""
    thresholds, enabled = gc.get_threshold(), gc.isenabled()
    gc.set_threshold(700, 10, 10)
    gc.enable()
    try:
        setup = saturated_link()
        before = gc.get_stats()[0]["collections"]
        setup.sim.run(until=1.0)
        collections = gc.get_stats()[0]["collections"] - before
    finally:
        gc.set_threshold(*thresholds)
        if not enabled:
            gc.disable()
    assert len(setup.delivered) > 30_000
    assert collections <= frames(setup) / 5000
