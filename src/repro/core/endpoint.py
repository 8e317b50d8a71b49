"""Structural endpoint contracts and the unified pair-factory registry.

Every protocol implemented here (LAMS-DLC, SR-HDLC/GBN, NBDT) wires its
link side the same way: an *endpoint* object owning a sender and a
receiver half, built in pairs across a full-duplex link.  This module
captures that shape once:

- :class:`Endpoint` / :class:`EndpointPair` — structural
  ``typing.Protocol`` contracts that every concrete endpoint satisfies,
  so harness code (session manager, experiment runner, workloads) can
  be written against the shape instead of a concrete class.
- a **pair-factory registry** — each protocol family registers one
  builder (``register_pair_factory``); callers construct endpoints
  through :func:`make_endpoint_pair` (re-exported by :mod:`repro.api`)
  instead of protocol-name ``if``/``elif`` chains.
- :class:`BaselineEndpoint` — the one endpoint class of the two
  baseline families: SR-HDLC/GBN and NBDT each register their sender
  and receiver halves and a frame-type → handler table through
  :func:`register_baseline`.
- **protocol-name aliases** — the experiment-level names
  (``"gbn"``, ``"nbdt-multiphase"``, ...) resolve to a registered
  family plus the configuration overrides that variant implies.

Construction is substrate-agnostic: a family factory is written against
the :mod:`repro.simulator.engine` scheduling contract and the link's
``forward`` / ``reverse`` / ``attach`` shape, so the same call wires a
pair over the discrete-event simulator's
:class:`~repro.simulator.link.FullDuplexLink` or over
:class:`repro.transport.udp.UdpLink`'s real sockets.

The registry lives here, import-free of the protocol implementations,
so the protocol modules can register themselves without cycles; lookup
lazily imports the built-in families on first use.
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import Any, Callable, Iterable, Iterator, Optional, Protocol, runtime_checkable

from ..simulator.trace import Tracer

__all__ = [
    "BaselineEndpoint",
    "Endpoint",
    "EndpointPair",
    "PairFactory",
    "available_protocols",
    "make_endpoint_pair",
    "offer",
    "pair_factory",
    "register_baseline",
    "register_pair_factory",
    "resolve_protocol",
]


@runtime_checkable
class Endpoint(Protocol):
    """What the harness needs from one side of a protocol link.

    Concrete endpoints — ``LamsDlcEndpoint`` for LAMS-DLC,
    :class:`BaselineEndpoint` for SR-HDLC/GBN and NBDT — satisfy this
    structurally; nothing subclasses it.
    """

    name: str

    def start(self, send: bool = True, receive: bool = True) -> None:
        """Bring the endpoint's sender and/or receiver half up."""
        ...

    def stop(self) -> None:
        """Halt both halves (timers cancelled, no further sends)."""
        ...

    def accept(self, packet: Any) -> bool:
        """Queue a packet for transmission; False if the buffer refuses."""
        ...

    def accept_many(self, packets: Iterable[Any]) -> int:
        """Queue *packets* in order up to the first refusal; returns how
        many were accepted — the outcome of calling :meth:`accept` on
        each until one returns False, *packets* consumed as lazily."""
        ...

    def on_frame(self, frame: Any, corrupted: bool) -> None:
        """Dispatch one arriving frame to the proper half."""
        ...


class EndpointPair(Protocol):
    """A wired A/B endpoint pair: tuple-like, unpacks to ``(a, b)``."""

    def __iter__(self) -> Iterator[Endpoint]: ...

    def __getitem__(self, index: int) -> Endpoint: ...

    def __len__(self) -> int: ...


PairFactory = Callable[..., "EndpointPair"]
"""``factory(sim, link, config, *, config_b=None, tracer=None,
deliver_a=None, deliver_b=None, **extras) -> (endpoint_a, endpoint_b)``.

The factory creates *and wires* both endpoints across the link
(endpoint A transmitting on the forward channel, B on the reverse) but
does not start them — the caller decides which halves run.
"""


_FACTORIES: dict[str, PairFactory] = {}

# Built-in families register themselves at import time; lookup imports
# them on demand so the registry has no import-order requirements.
_FAMILY_MODULES = {
    "lams": "repro.core.protocol",
    "hdlc": "repro.hdlc.protocol",
    "nbdt": "repro.nbdt.protocol",
}

# Experiment-level protocol names -> (registered family, config
# overrides the variant implies).  Overrides are applied to the given
# config via dataclasses.replace, so ``make_endpoint_pair("gbn", ...)``
# with a selective-repeat HdlcConfig still builds a Go-Back-N endpoint.
_ALIASES: dict[str, tuple[str, dict[str, Any]]] = {
    "lams": ("lams", {}),
    "lams-dlc": ("lams", {}),
    "hdlc": ("hdlc", {}),
    "sr-hdlc": ("hdlc", {}),
    "gbn": ("hdlc", {"selective": False}),
    "nbdt": ("nbdt", {}),
    "nbdt-continuous": ("nbdt", {"mode": "continuous"}),
    "nbdt-multiphase": ("nbdt", {"mode": "multiphase"}),
}


def offer(target: Any, packets: Iterable[Any]) -> int:
    """Offer *packets* to *target* in order up to the first refusal;
    returns how many it accepted.

    Through ``target.accept_many`` when it has one (every
    :class:`Endpoint` does); a target with only ``accept`` is offered one
    packet at a time, the loop ``accept_many`` stands for.
    """
    accept_many = getattr(target, "accept_many", None)
    if accept_many is not None:
        return accept_many(packets)
    accepted = 0
    for packet in packets:
        if not target.accept(packet):
            break
        accepted += 1
    return accepted


def register_pair_factory(family: str, factory: Optional[PairFactory] = None):
    """Register *factory* for *family*; usable as a decorator.

    Registering a family name that is not yet an alias also makes the
    bare name resolvable, so third-party protocols plug in with one
    call.
    """

    def _register(fn: PairFactory) -> PairFactory:
        _FACTORIES[family] = fn
        _ALIASES.setdefault(family, (family, {}))
        return fn

    return _register(factory) if factory is not None else _register


class BaselineEndpoint:
    """One side of a baseline link (SR-HDLC/GBN or NBDT).

    A sender half transmitting on *outgoing*, a purely reactive receiver
    half answering on the same channel, and *routes*: the family's
    frame-type → ``(half, method)`` table naming which half takes each
    arriving frame.
    """

    def __init__(
        self,
        sim: Any,
        config: Any,
        outgoing: Any,
        name: str,
        halves: tuple[type, type, dict[type, tuple[str, str]]],
        tracer: Any = None,
        deliver: Optional[Callable[[Any], None]] = None,
    ) -> None:
        sender, receiver, routes = halves
        self.sim = sim
        self.config = config
        self.name = name
        self.tracer = tracer or Tracer()
        self.sender = sender(
            sim, config, data_channel=outgoing, name=f"{name}.tx", tracer=self.tracer
        )
        self.receiver = receiver(
            sim, config, control_channel=outgoing, name=f"{name}.rx",
            tracer=self.tracer, deliver=deliver,
        )
        self._handlers = {
            kind: getattr(getattr(self, half), method)
            for kind, (half, method) in routes.items()
        }

    def start(self, send: bool = True, receive: bool = True) -> None:
        """Bring the endpoint up (the receiver half is purely reactive)."""
        if send:
            self.sender.start()

    def stop(self) -> None:
        self.sender.stop()

    def accept(self, packet: Any) -> bool:
        """Queue a packet for transmission."""
        return self.sender.accept(packet)

    def accept_many(self, packets: Iterable[Any]) -> int:
        """Queue *packets* up to the first refusal; returns how many."""
        return self.sender.accept_many(packets)

    def on_frame(self, frame: Any, corrupted: bool) -> None:
        """Dispatch one arriving frame to the half its route names."""
        handler = self._handlers.get(type(frame))
        if handler is None:
            raise TypeError(f"unknown frame type: {type(frame).__name__}")
        handler(frame, corrupted)

    def __repr__(self) -> str:
        return f"<BaselineEndpoint {self.name}>"


def register_baseline(
    family: str, sender: type, receiver: type, routes: dict[type, tuple[str, str]],
) -> PairFactory:
    """Register *family*'s pair factory: two :class:`BaselineEndpoint`\\ s
    built from the *sender* and *receiver* half classes and *routes*."""
    halves = (sender, receiver, routes)

    def factory(
        sim: Any,
        link: Any,
        config: Any,
        *,
        config_b: Any = None,
        tracer: Any = None,
        deliver_a: Optional[Callable[[Any], None]] = None,
        deliver_b: Optional[Callable[[Any], None]] = None,
    ) -> tuple[BaselineEndpoint, BaselineEndpoint]:
        endpoint_a = BaselineEndpoint(
            sim, config, link.forward, f"{link.name}.A", halves,
            tracer=tracer, deliver=deliver_a,
        )
        endpoint_b = BaselineEndpoint(
            sim, config_b or config, link.reverse, f"{link.name}.B", halves,
            tracer=tracer, deliver=deliver_b,
        )
        link.attach(endpoint_a.on_frame, endpoint_b.on_frame)
        return endpoint_a, endpoint_b

    return register_pair_factory(family, factory)


def resolve_protocol(protocol: str) -> tuple[str, dict[str, Any]]:
    """Map a protocol name to ``(family, config_overrides)``.

    Raises ``ValueError`` for unknown names (listing the known ones),
    matching the contract of the old per-call-site dispatch.
    """
    try:
        family, overrides = _ALIASES[protocol.lower()]
    except KeyError:
        raise ValueError(
            f"unknown protocol {protocol!r} "
            f"(use one of: {', '.join(sorted(_ALIASES))})"
        ) from None
    return family, dict(overrides)


def pair_factory(family: str) -> PairFactory:
    """The registered factory for *family*, importing built-ins lazily."""
    if family not in _FACTORIES:
        module = _FAMILY_MODULES.get(family)
        if module is not None:
            importlib.import_module(module)
    try:
        return _FACTORIES[family]
    except KeyError:
        raise ValueError(
            f"no pair factory registered for family {family!r} "
            f"(registered: {', '.join(sorted(_FACTORIES)) or 'none'})"
        ) from None


def available_protocols() -> list[str]:
    """Every resolvable protocol name, aliases included (sorted)."""
    return sorted(_ALIASES)


def _apply_overrides(config: Any, overrides: dict[str, Any]) -> Any:
    """Fold alias-implied overrides into a config dataclass, if it has
    the fields (a custom config type without them is left alone)."""
    if not overrides or not dataclasses.is_dataclass(config):
        return config
    names = {f.name for f in dataclasses.fields(config)}
    applicable = {k: v for k, v in overrides.items() if k in names}
    return dataclasses.replace(config, **applicable) if applicable else config


def make_endpoint_pair(
    protocol: str,
    clock: Any,
    link: Any,
    config: Any,
    *,
    config_b: Any = None,
    tracer: Any = None,
    deliver_a: Optional[Callable[[Any], None]] = None,
    deliver_b: Optional[Callable[[Any], None]] = None,
    **extras: Any,
) -> "EndpointPair":
    """Build a wired endpoint pair for *protocol* over an existing *link*.

    Parameters
    ----------
    protocol:
        A name from :func:`available_protocols` (``"lams"``, ``"hdlc"``,
        ``"gbn"``, ``"nbdt-continuous"``, ...).  Alias-implied config
        adjustments (e.g. ``selective=False`` for ``"gbn"``) are applied
        to *config* and *config_b* automatically.
    clock, link:
        The scheduler and the full-duplex link to wire across: a
        :class:`~repro.simulator.engine.Simulator` with a
        :class:`~repro.simulator.link.FullDuplexLink`, or an
        :class:`~repro.transport.clock.AsyncioClock` with a
        :class:`~repro.transport.udp.UdpLink` (LAMS family only — the
        one with a :mod:`repro.core.wire` codec).
    config, config_b:
        The protocol configuration (``LamsDlcConfig`` / ``HdlcConfig`` /
        ``NbdtConfig``); *config_b* overrides the B side when the two
        ends differ.
    tracer, deliver_a, deliver_b:
        Shared tracer and per-side delivery callbacks.
    extras:
        Family-specific keywords, passed through (LAMS-DLC accepts
        ``on_failure_a``/``on_failure_b``/``delivery_interval_b``).

    Returns ``(endpoint_a, endpoint_b)`` — created and wired (A
    transmitting on the forward channel, B on the reverse) but not
    started; call ``start(send=..., receive=...)`` per the roles the
    experiment needs.
    """
    family, overrides = resolve_protocol(protocol)
    config = _apply_overrides(config, overrides)
    if config_b is not None:
        config_b = _apply_overrides(config_b, overrides)
    return pair_factory(family)(
        clock, link, config,
        config_b=config_b, tracer=tracer,
        deliver_a=deliver_a, deliver_b=deliver_b,
        **extras,
    )
