"""Public surface: every supported entry point, re-exported from its home.

This module defines nothing; it names what to call.  The library
implements three executable link protocols — LAMS-DLC
(:mod:`repro.core`), SR-HDLC / Go-Back-N (:mod:`repro.hdlc`) and NBDT
(:mod:`repro.nbdt`) — with one endpoint shape, and there is one way to
build each thing:

- a pair over a link you already have — :func:`make_endpoint_pair`
  (:mod:`repro.core.endpoint`), on the simulator or on UDP sockets:

  >>> from repro.api import make_endpoint_pair
  >>> from repro.simulator.engine import Simulator
  >>> from repro.workloads import preset
  >>> scenario = preset("nominal")
  >>> sim = Simulator()
  >>> link = scenario.build_link(sim, seed=1)
  >>> a, b = make_endpoint_pair("lams", sim, link, scenario.lams_config())
  >>> a.start(send=True, receive=False); b.start(send=False, receive=True)

- a link *and* its pair from one declarative value — a
  :class:`LinkSpec` handed to :func:`build_link` and
  :func:`instantiate_pair` (:mod:`repro.topology.spec`); error models,
  fault plan, per-side configs and seed all live on the spec;
- a ready-to-run one-way transfer on the simulator —
  :func:`build_simulation` (:mod:`repro.workloads.scenarios`); its live
  UDP twin is :func:`repro.transport.open_loopback`;
- M concurrent links in one engine — a :class:`Topology` of specs and
  :func:`build_constellation` (``docs/TOPOLOGY.md``).

Protocol names accept the experiment-level aliases (``"gbn"`` is HDLC
with ``selective=False``, ``"nbdt-multiphase"`` is NBDT with
``mode="multiphase"``, ...); :func:`available_protocols` lists them
all.  New protocol families plug in through
:func:`register_pair_factory` and are immediately constructible by
every entry point above.

The runtime-verification surface is re-exported here too: pass
``run_with_invariants=True`` to :func:`build_simulation` (or call
:func:`attach_monitors` yourself) to arm the :class:`MonitorSuite`
of protocol invariants, and :func:`run_soak` drives randomized chaos
episodes under that suite (see ``docs/INVARIANTS.md``).
"""

from __future__ import annotations

from .chaos import EpisodeSpec, SoakResult, generate_episodes, run_soak
from .core.endpoint import (
    Endpoint,
    EndpointPair,
    available_protocols,
    make_endpoint_pair,
    register_pair_factory,
    resolve_protocol,
)
from .faults import FaultInjector, FaultPlan, RecoveryMetrics
from .invariants import InvariantMonitor, MonitorSuite, Violation, attach_monitors
from .simulator.errormodel import (
    ErrorModelSpec,
    available_error_models,
    make_error_model,
    register_error_model,
    resolve_error_model,
)
from .topology import (
    Constellation,
    ConstellationBuilder,
    EndpointSpec,
    FlowSpec,
    LinkSpec,
    NodeSpec,
    Topology,
    build_constellation,
    build_link,
    chain_topology,
    cross_traffic,
    grid_topology,
    instantiate_pair,
    ring_topology,
)
from .workloads.scenarios import build_simulation

__all__ = [
    "Constellation",
    "ConstellationBuilder",
    "Endpoint",
    "EndpointPair",
    "EndpointSpec",
    "EpisodeSpec",
    "ErrorModelSpec",
    "FaultInjector",
    "FaultPlan",
    "FlowSpec",
    "InvariantMonitor",
    "LinkSpec",
    "MonitorSuite",
    "NodeSpec",
    "RecoveryMetrics",
    "SoakResult",
    "Topology",
    "Violation",
    "attach_monitors",
    "available_error_models",
    "available_protocols",
    "build_constellation",
    "build_link",
    "build_simulation",
    "chain_topology",
    "cross_traffic",
    "generate_episodes",
    "grid_topology",
    "instantiate_pair",
    "make_endpoint_pair",
    "make_error_model",
    "register_error_model",
    "register_pair_factory",
    "resolve_error_model",
    "resolve_protocol",
    "ring_topology",
    "run_soak",
]
