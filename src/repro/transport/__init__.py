"""Real-network asyncio-UDP backend for LAMS-DLC endpoints.

The protocol halves in :mod:`repro.core` are written against the
scheduling contract of :mod:`repro.simulator.engine`, not against
virtual time.  This package supplies the second implementation of that
contract — :class:`~repro.transport.clock.AsyncioClock` maps the event
heap onto the asyncio event loop — plus everything needed to run two
LAMS-DLC endpoints over actual UDP sockets:

- :mod:`repro.transport.udp` — :class:`UdpChannel` (serialization,
  emulated impairment, real ``sendto``) and :class:`UdpLink` (a
  loopback socket pair that duck-types
  :class:`~repro.simulator.link.FullDuplexLink`), so the registered
  LAMS pair factory works verbatim.
- :mod:`repro.transport.impair` — the emulated-impairment shim:
  delay/jitter/drop plus per-frame-class corruption drawn from the
  string-keyed error-model registry, reproducing
  :class:`~repro.workloads.scenarios.LinkScenario` conditions on the
  wire.
- :mod:`repro.transport.session` — loopback sessions with the
  invariant :class:`~repro.invariants.monitors.MonitorSuite` attached
  to live traffic, and single-socket endpoints for two-process
  ``serve``/``transmit``.
- :mod:`repro.transport.conformance` — the golden scenarios run on
  both backends with wire digests and monitor verdicts compared.

Pair construction is shared with the simulator:
:func:`repro.api.make_endpoint_pair` wires a LAMS pair over an
:class:`AsyncioClock` and a :class:`UdpLink` exactly as it does over a
``Simulator`` and a ``FullDuplexLink``, and :func:`open_loopback` is the
one-way harness built on it (the UDP twin of
:func:`repro.workloads.scenarios.build_simulation`).

See ``docs/TRANSPORT.md`` for the architecture walkthrough.
"""

from __future__ import annotations

from .clock import AsyncioClock
from .conformance import (
    GOLDEN_SCENARIOS,
    ConformanceReport,
    golden_scenario,
    make_payload,
    payload_digest,
    payload_index,
    run_conformance,
)
from .impair import Impairments, TransportFaultInjector, corrupt_crc
from .session import (
    ClientReport,
    Deadline,
    ServeReport,
    TransportResult,
    TransportSetup,
    install_signal_stop,
    open_loopback,
    run_client,
    run_serve,
    run_transfer,
)
from .supervisor import (
    DecorrelatedJitterBackoff,
    SessionSupervisor,
    SupervisorPolicy,
    run_supervised_transfer,
)
from .udp import UdpChannel, UdpEndpointSocket, UdpLink, decode_datagram

__all__ = [
    "AsyncioClock",
    "ClientReport",
    "ConformanceReport",
    "Deadline",
    "DecorrelatedJitterBackoff",
    "GOLDEN_SCENARIOS",
    "Impairments",
    "ServeReport",
    "SessionSupervisor",
    "SupervisorPolicy",
    "TransportFaultInjector",
    "TransportResult",
    "TransportSetup",
    "UdpChannel",
    "UdpEndpointSocket",
    "UdpLink",
    "corrupt_crc",
    "decode_datagram",
    "golden_scenario",
    "install_signal_stop",
    "make_payload",
    "open_loopback",
    "payload_digest",
    "payload_index",
    "run_client",
    "run_conformance",
    "run_serve",
    "run_supervised_transfer",
    "run_transfer",
]
