"""The idle checkpoint cycle: what one of its frames costs, and the edges
of the paths it takes (docs/TUNING.md §12).

An idle LAMS-DLC link is all Check-Points.  The receiver's round member
settles, builds and sends its frame in one call
(``LamsReceiver._send_checkpoint``); the channel completes a run of one
in one call, its draw, its delivery and its idle step
(``SimplexChannel._complete``); the sender hears it, restarts its timer
and applies the Stop-Go bit, and looks for work only when some is
pending.  The budget test counts the Python-level calls per frame on a
12-link ring held frame by frame; its sibling counts what the same ring
costs parked (``repro.core.idle``).  The edge tests play each way off those paths, on
``tests/test_receiver_runs.py``'s bidirectional link, against the
specification (``tests/spec/``): untraced, and traced with every
source's records against the specification's log.
"""

from __future__ import annotations

import functools
import sys

import pytest

from repro.simulator import Simulator
from repro.topology import build_constellation, ring_topology
from repro.workloads import preset

from .conftest import PerFrameClock
from .test_receiver_runs import _case, played, run, untraced

# A checkpoint tick: every receiver starts at 0 and W_cp is 5 ms.
TICK = 0.04
SLOW = dict(processing_time=1.5 * preset("nominal").iframe_time)

EDGES = {
    # The reverse channel goes down while one of B's checkpoints, alone
    # on it, is on the wire (96 bits: 0.32 us at 300 Mbit/s).
    "checkpoint-lost-serializing": _case("lost-serializing", seed=21, until=0.05,
                                         outages=((TICK + 1e-7, 0.002, "reverse"),)),
    # A saturates the forward channel: its receiver's checkpoints leave
    # behind the I-frame on the wire, and the rest of its run goes back.
    "checkpoint-behind-a-run": _case("behind-a-run", seed=22, payloads=1200, until=0.05),
    "checkpoint-corrupted": _case("corrupted", seed=23, cframe_ber=5e-3, until=0.06),
    # NAKs from I-frame errors; a reverse outage longer than the
    # checkpoint timeout, so A probes and B answers with an Enforced-NAK.
    "checkpoint-nak-and-enforced": _case("nak-and-enforced", seed=24,
                                         model=("bernoulli", {"ber": 1e-5}), until=0.08,
                                         outages=((0.02, 0.02, "reverse"),)),
    "stop-bit": _case("stop-bit", seed=25, payloads=900, until=0.06, config=SLOW),
    "flow-control-off": _case("flow-control-off", seed=26, payloads=900, until=0.06,
                              config=dict(SLOW, flow_control_enabled=False)),
}

def _queued_behind_a_run(channel) -> bool:
    """The frame just sent is a control frame waiting behind an I-frame."""
    queue, on_wire = channel._queue, channel._run
    if not queue or not queue[-1].is_control or on_wire is None:
        return False
    first = on_wire[0] if on_wire.__class__ is list else on_wire
    return not first.is_control


@functools.cache
def traced(name: str) -> tuple[dict, list, list]:
    """A traced run of edge *name*: its outcome, its records, and for each
    ``checkpoint_sent`` whether that checkpoint waits behind an I-frame."""
    behind = []

    def watch(link, tracer):
        tracer.listeners.append(lambda record: record.event == "checkpoint_sent" and behind.append(
            any(map(_queued_behind_a_run, (link.forward, link.reverse)))))

    outcome = run(EDGES[name], "run", traced=True, watch=watch)
    return outcome, [entry for stream in outcome["records"].values() for entry in stream], behind


def idle_ring(clock: Simulator):
    """An idle 12-link ring (every frame a checkpoint), run to 50 ms."""
    constellation = build_constellation(ring_topology(12, name="budget-ring"), sim=clock,
                                        master_seed=7)
    constellation.run(until=0.05)
    return constellation


def frames(constellation) -> int:
    return sum(runtime.stats.frames_sent for runtime in constellation.links.values())


def calls_to(constellation, until: float) -> int:
    """``sys.setprofile`` "call" events while *constellation* runs to *until*."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        constellation.run(until=until)
    finally:
        sys.setprofile(None)
    return calls


def test_an_idle_checkpoint_frame_costs_at_most_fifteen_calls():
    """Calls over frames sent from 50 ms for 200 ms, frame by frame: on a
    clock that is not ``Simulator`` itself the idle links do not park, and
    each checkpoint is sent, completed and heard as its own frame."""
    constellation = idle_ring(PerFrameClock())
    sent = frames(constellation)
    calls = calls_to(constellation, 0.25)
    sent = frames(constellation) - sent
    assert sent > 900
    assert calls / sent <= 15


def test_a_parked_idle_link_costs_at_most_a_hundred_calls_a_second():
    """The same ring on ``Simulator``: its links park at the first
    checkpoint instant and owe their checkpoints, which the frame counts
    settle when read (the same 960 as frame by frame).  What is left is
    the round the parked links hold (one entry a W_cp for all of them):
    about 50 calls a simulated link-second where frame by frame is ~5,800."""
    constellation = idle_ring(Simulator())
    sent = frames(constellation)
    calls = calls_to(constellation, 0.25)
    assert frames(constellation) - sent == 960
    assert calls / (len(constellation.links) * 0.2) <= 100


@pytest.mark.parametrize("name", sorted(EDGES))
def test_an_edge_of_the_checkpoint_cycle_agrees_with_the_specification(name):
    """The specification's answers."""
    spec_path = played(name, "spec", traced=True, cases=EDGES)
    assert played(name, "run", cases=EDGES) == untraced(spec_path)


@pytest.mark.parametrize("name", sorted(EDGES))
def test_an_edge_of_the_checkpoint_cycle_keeps_its_records(name):
    """Traced, each source's records are the specification's, and the
    outcome is the untraced run's."""
    outcome = traced(name)[0]
    assert untraced(outcome) == played(name, "run", cases=EDGES)
    assert outcome == played(name, "spec", traced=True, cases=EDGES)


def test_the_edges_reach_what_they_are_named_for():
    _, records, _ = traced("checkpoint-lost-serializing")
    assert any(event == "frame_lost_outage" and detail == {"phase": "serialize", "control": True}
               for _, _, event, detail in records)
    assert any(traced("checkpoint-behind-a-run")[2])
    _, records, _ = traced("checkpoint-corrupted")
    assert any(event == "checkpoint_corrupted" for _, _, event, _ in records)
    outcome, records, _ = traced("checkpoint-nak-and-enforced")
    assert any(checkpoint[4] for checkpoint in outcome["checkpoints"])  # NAKs
    assert any(checkpoint[6] for checkpoint in outcome["checkpoints"])  # enforced
    assert any(event == "enforced_nak" for _, _, event, _ in records)
    assert any(checkpoint[7] for checkpoint in traced("stop-bit")[0]["checkpoints"])
    off = traced("flow-control-off")[0]
    assert not any(checkpoint[7] for checkpoint in off["checkpoints"])
    assert off["B"]["gauge"][1] >= 64  # the watermark: a Stop bit, were flow control on
    assert {off[side]["sender"][2] for side in "AB"} == {1.0}

