"""Declarative fault plans (paper Sections 2.1 and 3.2 failure regimes).

A :class:`FaultPlan` names, up front, every fault a run will suffer —
the experiment harness's answer to poking ``SimplexChannel.down()`` ad
hoc.  Four fault kinds cover the paper's failure surface:

- :class:`LinkOutage` — a timed cut of one or both directions: the
  link failures and retargeting gaps of Section 3.2.
- :class:`FeedbackBlackout` — a one-directional cut of the feedback
  (reverse) channel only: I-frames keep flowing but every checkpoint
  is lost, the regime where enforced recovery must distinguish "link
  dead" from "NAKs dying".
- :class:`BerStorm` — a window during which a channel's error model is
  swapped for a (typically much noisier) one, then restored: beam
  mispointing episodes beyond what a stationary Gilbert–Elliott
  process expresses.
- :class:`ControlCorruption` — corruption targeted at *control frames
  only*: checkpoints and Request-NAKs die while I-frames survive,
  isolating the feedback-error sensitivity of the NAK-based design.

Plans are plain frozen dataclasses: picklable (parallel sweeps),
repr-stable (result-cache keys), and JSON round-trippable (the
``--fault-plan`` CLI path).  Nothing here touches a simulator — the
:class:`~repro.faults.injector.FaultInjector` schedules a plan.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Iterator, Mapping, Optional, Sequence, Union

__all__ = [
    "BerStorm",
    "ControlCorruption",
    "EndpointStall",
    "FaultPlan",
    "FeedbackBlackout",
    "HandshakeBlackhole",
    "LinkOutage",
    "PeerRestart",
    "SendErrorBurst",
    "TRANSPORT_FAULT_KINDS",
    "fault_from_dict",
]

_DIRECTIONS = ("forward", "reverse", "both")
_ENDPOINTS = ("a", "b")


def _check_window(start: float, duration: float) -> None:
    if start < 0:
        raise ValueError(f"fault start cannot be negative, got {start!r}")
    if duration <= 0:
        raise ValueError(f"fault duration must be positive, got {duration!r}")


def _check_direction(direction: str) -> None:
    if direction not in _DIRECTIONS:
        raise ValueError(
            f"direction must be one of {_DIRECTIONS}, got {direction!r}"
        )


def _check_endpoint(endpoint: str) -> None:
    if endpoint not in _ENDPOINTS:
        raise ValueError(
            f"endpoint must be one of {_ENDPOINTS}, got {endpoint!r}"
        )


@dataclass(frozen=True)
class LinkOutage:
    """Cut the link for ``[start, start + duration)``.

    ``direction`` selects which simplex channel(s) go down; ``"both"``
    is the paper's link failure / retargeting episode.
    """

    start: float
    duration: float
    direction: str = "both"
    kind: str = field(default="outage", init=False, repr=False)

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)
        _check_direction(self.direction)

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class FeedbackBlackout:
    """Cut only the feedback direction: data flows, acknowledgement dies.

    Equivalent to ``LinkOutage(direction="reverse")`` for an A→B
    transfer, named separately because it is the regime feedback-error
    analyses single out: the sender sees silence, not errors.
    """

    start: float
    duration: float
    kind: str = field(default="feedback-blackout", init=False, repr=False)

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def direction(self) -> str:
        return "reverse"


@dataclass(frozen=True)
class BerStorm:
    """Swap a channel's error model for the window, then restore it.

    ``model`` / ``params`` name a registered error model (see
    :func:`repro.simulator.errormodel.resolve_error_model`); missing
    constructor arguments (``bit_rate`` for Gilbert–Elliott) are filled
    from the channel being stormed.  ``targets`` picks which error
    process is replaced — I-frames, control frames, or both, matching
    the paper's separately-FEC'd frame classes.
    """

    start: float
    duration: float
    model: str = "bernoulli"
    params: tuple[tuple[str, Any], ...] = (("ber", 1e-3),)
    direction: str = "forward"
    targets: tuple[str, ...] = ("iframe", "cframe")
    kind: str = field(default="ber-storm", init=False, repr=False)

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)
        _check_direction(self.direction)
        if isinstance(self.params, Mapping):
            object.__setattr__(self, "params", tuple(sorted(self.params.items())))
        else:
            object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(self, "targets", tuple(self.targets))
        for target in self.targets:
            if target not in ("iframe", "cframe"):
                raise ValueError(
                    f"storm target must be 'iframe' or 'cframe', got {target!r}"
                )
        if not self.targets:
            raise ValueError("a BER storm needs at least one target")

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def model_kwargs(self) -> dict[str, Any]:
        return dict(self.params)


@dataclass(frozen=True)
class ControlCorruption:
    """Corrupt control frames (only) with extra probability for a window.

    Each control frame serialized during the window is additionally
    corrupted with ``probability`` on top of whatever the channel's
    control error model decides — ``probability=1.0`` kills every
    checkpoint deterministically.  Defaults to the reverse direction,
    where an A→B transfer's checkpoints travel.
    """

    start: float
    duration: float
    probability: float = 1.0
    direction: str = "reverse"
    kind: str = field(default="control-corruption", init=False, repr=False)

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)
        _check_direction(self.direction)
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability!r}"
            )

    @property
    def end(self) -> float:
        return self.start + self.duration


# -- transport-native faults (the live UDP backend's failure surface) -----
#
# The four kinds below act on sockets and endpoint processes rather than
# on emulated channels, so only the transport-aware injector
# (:class:`repro.transport.impair.TransportFaultInjector`) can schedule
# them; the base DES :class:`~repro.faults.injector.FaultInjector`
# rejects plans containing them.


@dataclass(frozen=True)
class SendErrorBurst:
    """The OS send path fails for a window (``EAGAIN``/``ENOBUFS``-style).

    Each datagram handed to ``sendto`` during the window is refused
    with ``probability`` — counted as a send error and lost, exactly
    like the transient kernel errors the socket layer absorbs.
    ``direction`` picks whose sends fail: ``"forward"`` is endpoint A's
    outgoing datagrams, ``"reverse"`` endpoint B's.
    """

    start: float
    duration: float
    probability: float = 1.0
    direction: str = "forward"
    kind: str = field(default="send-error-burst", init=False, repr=False)

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)
        _check_direction(self.direction)
        if not 0.0 < self.probability <= 1.0:
            raise ValueError(
                f"probability must be in (0, 1], got {self.probability!r}"
            )

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class EndpointStall:
    """One endpoint's process freezes for a window: nothing is sent,
    arriving datagrams are discarded, then normal operation resumes
    with protocol state intact (a GC pause / CPU-starved peer).
    """

    start: float
    duration: float
    endpoint: str = "b"
    kind: str = field(default="endpoint-stall", init=False, repr=False)

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)
        _check_endpoint(self.endpoint)

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def direction(self) -> str:
        """The traffic direction the stall silences (a stalled B stops
        feedback; a stalled A stops data)."""
        return "reverse" if self.endpoint == "b" else "forward"


@dataclass(frozen=True)
class PeerRestart:
    """One endpoint dies and comes back with no protocol state.

    During the window the peer is absent (like :class:`EndpointStall`);
    at the window's end it returns *fresh*, so the session must be
    re-established and the unacknowledged backlog replayed — the
    supervised-reconnect scenario.  Without a supervisor a restart
    degrades to a stall (the state loss goes unobserved).
    """

    start: float
    duration: float
    endpoint: str = "b"
    kind: str = field(default="peer-restart", init=False, repr=False)

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)
        _check_endpoint(self.endpoint)

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def direction(self) -> str:
        return "reverse" if self.endpoint == "b" else "forward"


@dataclass(frozen=True)
class HandshakeBlackhole:
    """Every datagram in both directions is silently discarded at the
    sockets for a window — the "server unreachable at connect time"
    regime that forces handshake timeout + backoff in a supervisor.
    """

    start: float
    duration: float
    kind: str = field(default="handshake-blackhole", init=False, repr=False)

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def direction(self) -> str:
        return "both"


Fault = Union[
    LinkOutage, FeedbackBlackout, BerStorm, ControlCorruption,
    SendErrorBurst, EndpointStall, PeerRestart, HandshakeBlackhole,
]

_FAULT_KINDS: dict[str, type] = {
    "outage": LinkOutage,
    "feedback-blackout": FeedbackBlackout,
    "ber-storm": BerStorm,
    "control-corruption": ControlCorruption,
    "send-error-burst": SendErrorBurst,
    "endpoint-stall": EndpointStall,
    "peer-restart": PeerRestart,
    "handshake-blackhole": HandshakeBlackhole,
}

#: Kinds that act on sockets/processes instead of emulated channels.
TRANSPORT_FAULT_KINDS = frozenset(
    {"send-error-burst", "endpoint-stall", "peer-restart",
     "handshake-blackhole"}
)


def fault_from_dict(data: Mapping[str, Any]) -> Fault:
    """Rebuild one fault from its :func:`dataclasses.asdict` form."""
    payload = dict(data)
    kind = payload.pop("kind", None)
    if kind not in _FAULT_KINDS:
        raise ValueError(
            f"unknown fault kind {kind!r} "
            f"(use one of: {', '.join(sorted(_FAULT_KINDS))})"
        )
    cls = _FAULT_KINDS[kind]
    allowed = {f.name for f in fields(cls) if f.init}
    unknown = set(payload) - allowed
    if unknown:
        raise ValueError(
            f"unknown field(s) {sorted(unknown)} for fault kind {kind!r}"
        )
    if "params" in payload and isinstance(payload["params"], list):
        payload["params"] = tuple(tuple(item) for item in payload["params"])
    return cls(**payload)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of faults one run will experience."""

    faults: tuple[Fault, ...] = ()
    name: str = "faults"

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if not hasattr(fault, "kind") or fault.kind not in _FAULT_KINDS:
                raise TypeError(f"not a fault: {fault!r}")

    def __iter__(self) -> Iterator[Fault]:
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    @property
    def horizon(self) -> float:
        """Time of the last fault's end (0.0 for an empty plan)."""
        return max((fault.end for fault in self.faults), default=0.0)

    # -- serialisation ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (JSON-safe; ``asdict`` keeps the ``kind`` tags)."""
        return {
            "name": self.name,
            "faults": [asdict(fault) for fault in self.faults],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        return cls(
            name=data.get("name", "faults"),
            faults=tuple(fault_from_dict(f) for f in data.get("faults", ())),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def single_outage(
        cls, start: float, duration: float, direction: str = "both",
        name: str = "single-outage",
    ) -> "FaultPlan":
        """The workhorse one-outage plan (E10's scenario, declaratively)."""
        return cls(
            faults=(LinkOutage(start=start, duration=duration, direction=direction),),
            name=name,
        )
