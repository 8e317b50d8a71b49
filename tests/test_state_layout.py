"""The layout of per-link state: slots past the shared-key limit.

CPython 3.11 lets the instance dicts of one class share a single key
table only while they hold at most 30 keys (``SHARED_KEYS_MAX_SIZE`` in
``Objects/dictobject.c``).  One key past it, every instance owns a
private hash table (~1.6 kB), and every ``self.x`` is a hashed lookup
into memory an idle constellation has not touched since the last
checkpoint round.  ``LamsSender`` and ``LamsReceiver`` are past it, so
they keep their state in ``__slots__``; every other object on a link's
per-checkpoint path stays at or under it.  A class that grows past the
limit fails here, not as a quarter of ``constellation_1000`` lost
without notice (docs/TUNING.md §12, "Per-link state layout").
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.core.endpoint import available_protocols
from repro.core.receiver import LamsReceiver
from repro.core.sender import LamsSender
from repro.simulator.engine import Simulator
from repro.simulator.rng import StreamRegistry
from repro.simulator.trace import Tracer
from repro.topology import FlowSpec, build_constellation, ring_topology
from repro.workloads import preset
from repro.workloads.generators import FiniteBatch
from repro.workloads.scenarios import build_simulation

SHARED_KEYS_MAX_SIZE = 30
SLOTTED = (LamsSender, LamsReceiver)
# Shared by every link of an engine: reached, not walked into.
SHARED = (Simulator, Tracer, StreamRegistry)


def instance_attributes(obj) -> list[str]:
    names = list(vars(obj)) if hasattr(obj, "__dict__") else []
    for cls in type(obj).__mro__:
        names.extend(name for name in cls.__dict__.get("__slots__", ())
                     if hasattr(obj, name))
    return names


def per_link_objects(*roots) -> list:
    """Every ``repro`` object reachable from *roots* through instance
    attributes (and the lists and tuples they hold)."""
    seen, found, stack = set(), [], list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or not type(obj).__module__.startswith("repro."):
            continue
        seen.add(id(obj))
        found.append(obj)
        if isinstance(obj, SHARED):
            continue
        for name in instance_attributes(obj):
            value = getattr(obj, name)
            if isinstance(value, (list, tuple, deque)):
                stack.extend(value)
            else:
                stack.append(value)
    return found


def check_layout(objects) -> set[str]:
    kinds = {type(obj).__name__ for obj in objects}
    for obj in objects:
        if isinstance(obj, SLOTTED):
            assert not hasattr(obj, "__dict__"), type(obj).__name__
        else:
            attributes = instance_attributes(obj)
            assert len(attributes) <= SHARED_KEYS_MAX_SIZE, (
                type(obj).__name__, len(attributes))
    return kinds


def test_a_constellation_rings_links_are_slotted_or_shared_key():
    """A ``constellation_1000``-shaped ring (two-hop flows, idle links
    checkpointing), run for a while so lazily made state exists."""
    topology = ring_topology(12, name="layout-ring")
    names = topology.node_names()
    flows = [FlowSpec(source=names[s], destination=names[(s + 2) % 12],
                      messages=20, interval=0.005, poisson=True) for s in (0, 5)]
    constellation = build_constellation(topology, master_seed=7, flows=flows,
                                        horizon=0.2)
    constellation.run(until=0.2)
    assert constellation.datagrams_delivered() > 0
    for runtime in constellation.links.values():
        kinds = check_layout(per_link_objects(
            runtime.endpoint_a, runtime.endpoint_b, runtime.link))
        assert {"LamsSender", "LamsReceiver", "SendBuffer",
                "StopGoRateController", "SimplexChannel", "Timer",
                "Periodic"} <= kinds


@pytest.mark.parametrize("protocol", available_protocols())
def test_every_family_pairs_objects_are_slotted_or_shared_key(protocol):
    """A traced transfer of every registered protocol: the tracer is
    active, so the state only a traced run makes exists too."""
    setup = build_simulation(preset("nominal"), protocol, seed=1,
                             tracer=Tracer(record_timeline=True),
                             error_model=("bernoulli", {"ber": 1e-5}))
    FiniteBatch(setup.sim, setup.endpoint_a, count=500).start()
    setup.run(until=0.1)
    assert len(setup.delivered) > 0
    kinds = check_layout(per_link_objects(
        setup.endpoint_a, setup.endpoint_b, setup.link))
    assert "SimplexChannel" in kinds and "BernoulliChannel" in kinds
