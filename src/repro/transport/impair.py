"""The emulated-impairment shim for the UDP backend.

A localhost socket is, for this protocol's purposes, a perfect
zero-delay channel — useless for studying ARQ behaviour.  The shim
reproduces :class:`~repro.workloads.scenarios.LinkScenario` conditions
on the wire, applied on the *sending* side before the datagram reaches
the kernel:

- **delay / jitter** — the scenario's one-way propagation delay plus an
  optional uniform jitter, scheduled on the
  :class:`~repro.transport.clock.AsyncioClock`; arrivals are clamped
  monotone exactly like the DES channel, so frames never overtake.
- **corruption** — drawn per frame from the same string-keyed
  error-model registry (:mod:`repro.simulator.errormodel`) the DES
  channel uses, with the same per-class named RNG streams
  (``"<channel>.iframe"`` / ``"<channel>.cframe"``), then applied to
  real bytes by flipping the CRC trailer: the frame stays parseable
  (header salvage, matching the DES ``corrupted=True`` delivery) but
  fails its checksum.
- **drop** — datagram loss, itself a registered error model
  (``"uniform-loss"``, registered here) drawn from its own stream, so
  loss processes are seeded and named like every other error process.

Because every random decision goes through a
:class:`~repro.simulator.rng.StreamRegistry` stream derived from the
session seed, a UDP run's impairment sequence is as reproducible as a
DES run's (timing, of course, is not).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

import numpy as np

from ..faults.injector import FaultInjector
from ..faults.plan import TRANSPORT_FAULT_KINDS, Fault
from ..simulator.errormodel import (
    ErrorModel,
    ErrorModelSpec,
    register_error_model,
    resolve_error_model,
    scenario_error_specs,
)

__all__ = [
    "Impairments",
    "TransportFaultInjector",
    "UniformLossModel",
    "corrupt_crc",
]


class UniformLossModel:
    """Size-independent i.i.d. datagram loss at a fixed probability.

    Registered as ``"uniform-loss"`` so drop processes resolve through
    the same registry as corruption processes.
    """

    def __init__(self, probability: float = 0.0, **_context: Any) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"loss probability must be in [0, 1]: {probability!r}")
        self.probability = probability

    def frame_error(self, start: float, bits: int, rng: np.random.Generator) -> bool:
        return bool(self.probability and rng.random() < self.probability)

    def draw_window(self, starts, sizes, rng: np.random.Generator) -> list[bool]:
        """Bulk draws, bit-identical to scalar: ``Generator.random(n)``
        yields the same variates as n successive ``random()`` calls, and
        a zero probability draws nothing either way."""
        if not self.probability:
            return [False] * len(sizes)
        probability = self.probability
        draws = rng.random(len(sizes))
        return [bool(draws.item(k) < probability) for k in range(len(sizes))]

    def __repr__(self) -> str:
        return f"UniformLossModel(p={self.probability:g})"


register_error_model("uniform-loss", UniformLossModel)


def corrupt_crc(data: bytes) -> bytes:
    """Damage *data* so its CRC fails but its structure still parses.

    Flipping the trailer (not the body) mirrors the DES channel, which
    delivers corrupted frames with readable headers — the receiving
    protocol decides what a detectable error salvages.
    """
    if not data:
        return data
    return data[:-1] + bytes((data[-1] ^ 0xFF,))


@dataclass(frozen=True)
class Impairments:
    """One direction's emulated link conditions.

    ``iframe_errors`` / ``cframe_errors`` / ``drop`` accept any
    :data:`~repro.simulator.errormodel.ErrorModelSpec` (registered
    name, ``(name, kwargs)``, mapping, instance); ``None`` keeps the
    historical default — Bernoulli at the class BER when nonzero,
    perfect otherwise.
    """

    propagation_delay: float = 0.0
    jitter: float = 0.0
    drop: ErrorModelSpec = None
    iframe_errors: ErrorModelSpec = None
    cframe_errors: ErrorModelSpec = None
    iframe_ber: float = 0.0
    cframe_ber: float = 0.0

    def __post_init__(self) -> None:
        if self.propagation_delay < 0:
            raise ValueError("propagation delay cannot be negative")
        if self.jitter < 0:
            raise ValueError("jitter cannot be negative")

    @classmethod
    def from_scenario(
        cls,
        scenario: Any,
        *,
        jitter: float = 0.0,
        drop: Optional[float] = None,
        direction: str = "forward",
        **overrides: ErrorModelSpec,
    ) -> "Impairments":
        """The scenario's link conditions as wire impairments.

        *drop* is a plain probability shorthand for the
        ``"uniform-loss"`` model (``None``/0 means no loss).

        ``direction="reverse"`` builds the feedback direction (receiver
        -> sender, carrying checkpoints and NAKs).  Which spec and BER
        each direction carries — *overrides* included — is decided by
        :func:`~repro.simulator.errormodel.scenario_error_specs`, the
        same resolver the DES link uses.
        """
        if direction not in ("forward", "reverse"):
            raise ValueError(
                f"direction must be 'forward' or 'reverse', got {direction!r}"
            )
        drop_spec: ErrorModelSpec = None
        if drop:
            drop_spec = ("uniform-loss", {"probability": float(drop)})
        (iframe_errors, iframe_ber), (cframe_errors, cframe_ber) = (
            scenario_error_specs(scenario, **overrides)[direction]
        )
        return cls(
            propagation_delay=scenario.one_way_delay,
            jitter=jitter,
            drop=drop_spec,
            iframe_errors=iframe_errors,
            cframe_errors=cframe_errors,
            iframe_ber=iframe_ber,
            cframe_ber=cframe_ber,
        )

    def with_(self, **changes: Any) -> "Impairments":
        """A copy with fields replaced."""
        return replace(self, **changes)

    def resolve_models(
        self, bit_rate: float,
    ) -> tuple[ErrorModel, ErrorModel, Optional[ErrorModel]]:
        """``(iframe_model, cframe_model, drop_model)`` live instances."""
        iframe = resolve_error_model(
            self.iframe_errors, ber=self.iframe_ber, bit_rate=bit_rate,
        )
        cframe = resolve_error_model(
            self.cframe_errors, ber=self.cframe_ber, bit_rate=bit_rate,
        )
        drop = None
        if self.drop is not None:
            drop = resolve_error_model(self.drop, bit_rate=bit_rate)
        return iframe, cframe, drop


class TransportFaultInjector(FaultInjector):
    """A :class:`~repro.faults.injector.FaultInjector` that also drives
    the transport-native fault kinds against a
    :class:`~repro.transport.udp.UdpLink`'s real sockets.

    Classic channel faults (outages, blackouts, BER storms, control
    corruption) delegate to the base injector unchanged — the
    :class:`~repro.transport.udp.UdpChannel` duck-types
    ``SimplexChannel`` — while the transport kinds act one layer lower:

    - ``send-error-burst`` — forces the named socket's ``sendto`` to
      fail with the fault's probability (drawn from the channel's own
      seeded ``.senderr`` stream), the emulated twin of
      ``EAGAIN``/``ENOBUFS`` bursts.
    - ``endpoint-stall`` — freezes one endpoint's socket: nothing goes
      out, arrivals are discarded, protocol timers keep running (the
      external behaviour of a CPU-starved peer).
    - ``peer-restart`` — a stall whose end additionally fires
      :attr:`on_peer_restart`, letting a
      :class:`~repro.transport.supervisor.SessionSupervisor` model the
      peer returning with no protocol state.  Unsupervised sessions see
      it as a plain stall.
    - ``handshake-blackhole`` — blackholes both sockets (every datagram
      in either direction is discarded), the unreachable-server regime.

    Stalls and blackholes are depth-counted so overlapping windows nest;
    concurrent send-error bursts on one socket apply the largest active
    probability.
    """

    supported_kinds = FaultInjector.supported_kinds | TRANSPORT_FAULT_KINDS

    def __init__(self, sim, link, plan, tracer=None) -> None:
        self._stall_depth: dict[str, int] = {"a": 0, "b": 0}
        self._blackhole_depth = 0
        self._send_bursts: dict[str, list[float]] = {"a": [], "b": []}
        self.on_peer_restart: Optional[Callable[[Fault], None]] = None
        super().__init__(sim, link, plan, tracer=tracer)

    # -- wiring -----------------------------------------------------------

    def _sockets(self, letters: tuple[str, ...]) -> list[Any]:
        lookup = {"a": self.link.socket_a, "b": self.link.socket_b}
        return [lookup[letter] for letter in letters]

    @staticmethod
    def _burst_letters(direction: str) -> tuple[str, ...]:
        # Forward traffic leaves socket A, reverse traffic socket B.
        if direction == "forward":
            return ("a",)
        if direction == "reverse":
            return ("b",)
        return ("a", "b")

    def _apply_burst_rates(self) -> None:
        for letter, rates in self._send_bursts.items():
            socket = self._sockets((letter,))[0]
            socket.forced_send_error_rate = max(rates, default=0.0)

    # -- fault lifecycle --------------------------------------------------

    def _begin(self, index: int, fault: Fault) -> None:
        kind = fault.kind
        if kind not in TRANSPORT_FAULT_KINDS:
            super()._begin(index, fault)
            return
        self.faults_started += 1
        if kind == "send-error-burst":
            for letter in self._burst_letters(fault.direction):
                self._send_bursts[letter].append(fault.probability)
            self._apply_burst_rates()
        elif kind in ("endpoint-stall", "peer-restart"):
            depth = self._stall_depth[fault.endpoint]
            if depth == 0:
                self._sockets((fault.endpoint,))[0].freeze()
            self._stall_depth[fault.endpoint] = depth + 1
        elif kind == "handshake-blackhole":
            if self._blackhole_depth == 0:
                for socket in self._sockets(("a", "b")):
                    socket.blackholed = True
            self._blackhole_depth += 1
        self.tracer.emit(
            self.sim.now, "faults", "fault_start",
            index=index, kind=kind, direction=fault.direction,
            duration=fault.duration,
        )

    def _finish(self, index: int, fault: Fault) -> None:
        kind = fault.kind
        if kind not in TRANSPORT_FAULT_KINDS:
            super()._finish(index, fault)
            return
        self.faults_ended += 1
        if kind == "send-error-burst":
            for letter in self._burst_letters(fault.direction):
                rates = self._send_bursts[letter]
                if fault.probability in rates:
                    rates.remove(fault.probability)
            self._apply_burst_rates()
        elif kind in ("endpoint-stall", "peer-restart"):
            depth = self._stall_depth[fault.endpoint] - 1
            self._stall_depth[fault.endpoint] = max(depth, 0)
            if depth <= 0:
                self._sockets((fault.endpoint,))[0].unfreeze()
        elif kind == "handshake-blackhole":
            self._blackhole_depth = max(self._blackhole_depth - 1, 0)
            if self._blackhole_depth == 0:
                for socket in self._sockets(("a", "b")):
                    socket.blackholed = False
        self.tracer.emit(
            self.sim.now, "faults", "fault_end",
            index=index, kind=kind, direction=fault.direction,
        )
        if kind == "peer-restart" and self.on_peer_restart is not None:
            self.on_peer_restart(fault)
