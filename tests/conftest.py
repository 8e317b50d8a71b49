"""Shared fixtures for the LAMS-DLC reproduction test suite."""

from __future__ import annotations

import pytest
from hypothesis import Phase, settings

from repro.simulator import (
    BernoulliChannel,
    FullDuplexLink,
    PerfectChannel,
    Simulator,
    StreamRegistry,
    Tracer,
)
from repro.workloads import LinkScenario

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


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def tracer() -> Tracer:
    """A tracer with the timeline recording enabled."""
    return Tracer(record_timeline=True)


@pytest.fixture
def perfect_link(sim: Simulator) -> FullDuplexLink:
    """100 Mbps, 10 ms one-way, error-free link."""
    return FullDuplexLink(
        sim,
        bit_rate=100e6,
        propagation_delay=0.010,
        name="test",
        iframe_errors=PerfectChannel(),
        cframe_errors=PerfectChannel(),
        streams=StreamRegistry(seed=1),
    )


def make_lossy_link(
    sim: Simulator,
    iframe_ber: float = 1e-6,
    cframe_ber: float = 1e-8,
    seed: int = 1,
    bit_rate: float = 100e6,
    delay: float = 0.010,
) -> FullDuplexLink:
    """A link with Bernoulli bit errors on both directions."""
    return FullDuplexLink(
        sim,
        bit_rate=bit_rate,
        propagation_delay=delay,
        name="lossy",
        iframe_errors=BernoulliChannel(iframe_ber),
        cframe_errors=BernoulliChannel(cframe_ber),
        streams=StreamRegistry(seed=seed),
    )


@pytest.fixture
def nominal_scenario() -> LinkScenario:
    """The paper's nominal operating point."""
    return LinkScenario()
