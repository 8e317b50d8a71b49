"""Shared fixtures for the LAMS-DLC reproduction test suite."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import Phase, settings

from repro.faults.injector import FaultInjector
from repro.simulator import Simulator, Tracer
from repro.simulator.rng import StreamRegistry

from . import spec

# Hypothesis profiles.  ``tier1``, loaded here, derandomizes every
# property test and keeps no example database: each run draws the same
# examples, so two runs in a row agree and a failure names an example
# that fails again.  ``deep`` keeps the random search (``make
# test-deep``, which passes ``--hypothesis-profile=deep``; the option is
# applied after this file loads, so it wins).
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("deep", derandomize=False)
settings.load_profile("tier1")


def spec_settings(**kwargs) -> settings:
    """Settings for a property that compares shipped code with the
    executable specification in ``tests/spec/``.  Under ``tier1`` it does
    not shrink: a failing whole-link example is replayed unshrunk, so it
    fails in about the time a passing run takes, and the same example
    fails again on the next run; ``deep`` keeps shrinking.  Read when the
    test module is imported, after ``--hypothesis-profile`` is applied."""
    if settings.get_current_profile_name() == "tier1":
        kwargs["phases"] = [phase for phase in Phase if phase is not Phase.shrink]
    return settings(**kwargs)


def spec_twin(setup, plan=None) -> tuple[spec.Engine, spec.Endpoint, spec.Endpoint]:
    """The specification's link made as *setup*'s (``build_simulation``):
    its channels' names, rates, delays and error models, its seed, its
    configuration and its fault plan (or *plan*), whose records join the
    engine's log; A sends, B receives.  *setup* must be fresh: its error
    models are the twin's too."""
    shipped, engine = setup.link, spec.Engine()
    streams = StreamRegistry(shipped.streams.seed)
    link = SimpleNamespace(**{
        direction: spec.Channel(engine, side.name, side.bit_rate, side._fixed_delay,
                                   side.iframe_errors, side.cframe_errors, streams)
        for direction, side in (("forward", shipped.forward), ("reverse", shipped.reverse))})
    a, b = spec.make_pair(engine, setup.endpoint_a.config, link.forward, link.reverse,
                          name=shipped.name)
    a.start(send=True, receive=False)
    b.start(send=False, receive=True)
    plan = plan or (setup.fault_injector and setup.fault_injector.plan)
    if plan:
        tracer = Tracer()
        tracer.listeners.append(lambda record: engine.log.append(
            (record.time, record.source, record.event, record.detail)))
        FaultInjector(engine, link, plan, tracer=tracer)
    return engine, a, b


class PerFrameClock(Simulator):
    """The engine under another name.  A link parks when it turns idle
    only on :class:`Simulator` itself (``repro.core.idle``), so on this
    clock every checkpoint of an idle link is simulated frame by frame:
    for the tests of that path's own costs and sharing."""


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def tracer() -> Tracer:
    """A tracer with the timeline recording enabled."""
    return Tracer(record_timeline=True)
