"""Declarative construction specs: one link, fully described.

This module is the one place a live link is built.  A
:class:`LinkSpec` bundles a link's whole operating point into one
value:

- the **physics** — a :class:`~repro.workloads.scenarios.LinkScenario`
  (or preset name) supplying rate / delay / BERs, with optional
  explicit ``bit_rate`` / ``propagation_delay`` overrides (the latter
  accepts a callable for orbit-driven time-varying delay);
- the **protocol** — any :func:`repro.api.available_protocols` name
  plus config overrides, or a ready config dataclass;
- the **per-side wiring** — an :class:`EndpointSpec` per endpoint
  (delivery callback, failure callback, which halves to start);
- the **impairments** — error-model specs per frame class and an
  optional :class:`~repro.faults.plan.FaultPlan`;
- the **randomness** — an explicit per-link ``seed``, or one derived
  from a topology master seed and the link name.

Specs are plain dataclasses: build one, ``with_()`` variants of it, put
it in a :class:`~repro.topology.graph.Topology`, or hand it straight to
:func:`build_link` / :func:`instantiate_pair`.  Every builder reduces to
those two calls — :class:`~repro.topology.builder.ConstellationBuilder`
once per topology link, :func:`repro.workloads.scenarios.build_simulation`
for its one link, :meth:`LinkScenario.build_link
<repro.workloads.scenarios.LinkScenario.build_link>` for the link alone
— so every protocol and every harness sees the same link for the same
description.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Optional, Union

from ..core.endpoint import EndpointPair, make_endpoint_pair, resolve_protocol
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..simulator.engine import Simulator
from ..simulator.errormodel import (
    ErrorModelSpec,
    resolve_link_error_models,
    scenario_error_specs,
)
from ..simulator.link import DelaySpec, FullDuplexLink
from ..simulator.rng import StreamRegistry, derive_seed
from ..simulator.trace import Tracer

__all__ = [
    "EndpointSpec",
    "LinkSpec",
    "build_link",
    "instantiate_pair",
]


@dataclass(frozen=True)
class EndpointSpec:
    """One side of a link: the endpoint-local construction choices.

    Everything here is optional; the zero-argument spec describes the
    default endpoint (config derived from the link's scenario, no
    delivery callback, both halves started).
    """

    config: Any = None
    """Protocol config dataclass for this side; ``None`` derives it from
    the link's scenario (plus the :class:`LinkSpec` overrides)."""

    deliver: Optional[Callable[[Any], None]] = None
    """Callback for payloads delivered upward by this endpoint."""

    on_failure: Optional[Callable[[], None]] = None
    """Callback when this side declares the link failed (LAMS family)."""

    send: bool = True
    receive: bool = True
    """Which halves :meth:`~repro.core.endpoint.Endpoint.start` brings
    up when a builder starts the endpoint (one-way experiments leave
    the unused halves down so they see no reverse-direction chatter)."""

    def with_(self, **changes: Any) -> "EndpointSpec":
        """A copy with fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class LinkSpec:
    """A complete declarative description of one LAMS-DLC (or baseline
    protocol) link: physics, protocol, wiring, impairments, randomness.

    In a :class:`~repro.topology.graph.Topology`, ``a`` and ``b`` name
    the nodes the link joins; standalone uses can ignore them.
    """

    name: str = "link"
    a: str = "A"
    b: str = "B"
    protocol: str = "lams"
    scenario: Union["Any", str, None] = None
    """A :class:`~repro.workloads.scenarios.LinkScenario`, a preset name
    (``"nominal"``, ...), or ``None`` for the nominal preset."""

    overrides: Optional[Mapping[str, Any]] = None
    """Protocol-config overrides applied when the config is derived
    from the scenario (ignored for explicit ``config``/endpoint
    configs)."""

    config: Any = None
    """Shared explicit protocol config for both sides; per-side
    ``EndpointSpec.config`` wins over it."""

    endpoint_a: EndpointSpec = field(default_factory=EndpointSpec)
    endpoint_b: EndpointSpec = field(default_factory=EndpointSpec)

    bit_rate: Optional[float] = None
    propagation_delay: Optional[DelaySpec] = None
    """Explicit physics overrides; ``None`` takes the scenario's rate /
    one-way delay.  ``propagation_delay`` accepts a callable ``t ->
    seconds`` (orbit-driven links)."""

    iframe_errors: ErrorModelSpec = None
    cframe_errors: ErrorModelSpec = None
    reverse_iframe_errors: ErrorModelSpec = None
    reverse_cframe_errors: ErrorModelSpec = None
    error_model: ErrorModelSpec = None
    """``error_model`` is the data-plane shorthand: equivalent to
    ``iframe_errors`` (mirrors :func:`repro.api.build_simulation`).
    The ``reverse_*`` specs override the feedback direction only
    (checkpoints/NAKs travelling receiver -> sender) and default to the
    scenario's reverse fields, then to mirroring the forward direction.
    Prefer registry-style specs (name / ``(name, kwargs)`` / mapping)
    over instances when one ``LinkSpec`` stamps out many links —
    models are stateful, so each link must get a fresh instance."""

    fault_plan: Optional[FaultPlan] = None
    seed: Optional[int] = None
    """Per-link RNG seed; ``None`` derives one from the builder's
    master seed and the link name (`derive_seed(master, name)`)."""

    monitors: bool = False
    """Arm the :mod:`repro.invariants` suite on this link (LAMS family,
    one-way traffic semantics; see docs/TOPOLOGY.md)."""

    extras: Mapping[str, Any] = field(default_factory=dict)
    """Family-specific factory keywords (e.g. LAMS-DLC's
    ``delivery_interval_b``), passed through verbatim."""

    def __post_init__(self) -> None:
        if self.error_model is not None and self.iframe_errors is not None:
            raise ValueError("pass error_model or iframe_errors, not both")
        if self.a == self.b:
            raise ValueError(f"link {self.name!r} cannot join {self.a!r} to itself")

    def with_(self, **changes: Any) -> "LinkSpec":
        """A copy with fields replaced (topology-template helper)."""
        return replace(self, **changes)

    # -- resolution helpers ----------------------------------------------

    def resolved_scenario(self):
        """The live :class:`LinkScenario` (presets looked up by name)."""
        from ..workloads.scenarios import LinkScenario, preset

        if self.scenario is None:
            return preset("nominal")
        if isinstance(self.scenario, str):
            return preset(self.scenario)
        if not isinstance(self.scenario, LinkScenario):
            raise TypeError(
                f"scenario must be a LinkScenario or preset name, "
                f"got {type(self.scenario).__name__}"
            )
        return self.scenario

    def resolve_seed(self, master_seed: int = 0) -> int:
        """This link's RNG seed under *master_seed*.

        An explicit ``seed`` wins; otherwise the seed is derived from
        the master seed and the link *name*, which is what gives every
        link in a constellation its own independent stream family —
        perturbing one link's consumption (or fault plan) cannot shift
        another link's draws.
        """
        if self.seed is not None:
            return self.seed
        return derive_seed(master_seed, f"topology.link.{self.name}")

    def protocol_config(self, side: str = "a") -> Any:
        """The resolved protocol config for side ``"a"`` or ``"b"``."""
        endpoint = self.endpoint_a if side == "a" else self.endpoint_b
        if endpoint.config is not None:
            return endpoint.config
        if self.config is not None:
            return self.config
        return self.resolved_scenario().protocol_config(
            self.protocol, **dict(self.overrides or {})
        )

    def other(self, node: str) -> str:
        """The far-end node name as seen from *node*."""
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise ValueError(f"node {node!r} is not an end of link {self.name!r}")


def build_link(
    spec: LinkSpec,
    sim: Simulator,
    *,
    master_seed: int = 0,
    tracer: Optional[Tracer] = None,
    propagation_delay: Optional[DelaySpec] = None,
    geometry: Optional[Any] = None,
) -> FullDuplexLink:
    """Materialise *spec*'s physical link on *sim*.

    *propagation_delay* is a builder-supplied default (e.g. the orbit
    geometry's ``delay_fn`` between two satellite nodes); the spec's own
    explicit ``propagation_delay`` still wins over it.  *geometry* is
    the link's :class:`~repro.simulator.orbit.IsolatedLinkGeometry`
    when both endpoints carry satellites; it is offered to the error-
    model factories via the registry context, so geometry-aware models
    (``"orbit-coupled"``) pick up the link's own orbit for free.
    """
    scenario = spec.resolved_scenario()
    bit_rate = spec.bit_rate if spec.bit_rate is not None else scenario.bit_rate
    if spec.propagation_delay is not None:
        delay: DelaySpec = spec.propagation_delay
    elif propagation_delay is not None:
        delay = propagation_delay
    else:
        delay = scenario.one_way_delay
    specs = scenario_error_specs(
        scenario,
        error_model=spec.error_model,
        iframe_errors=spec.iframe_errors,
        cframe_errors=spec.cframe_errors,
        reverse_iframe_errors=spec.reverse_iframe_errors,
        reverse_cframe_errors=spec.reverse_cframe_errors,
    )
    (iframe, iframe_ber), (cframe, cframe_ber) = specs["forward"]
    (reverse_iframe, reverse_iframe_ber), (reverse_cframe, reverse_cframe_ber) = (
        specs["reverse"]
    )
    models = resolve_link_error_models(
        iframe=iframe,
        cframe=cframe,
        reverse_iframe=reverse_iframe,
        reverse_cframe=reverse_cframe,
        iframe_ber=iframe_ber,
        cframe_ber=cframe_ber,
        reverse_iframe_ber=reverse_iframe_ber,
        reverse_cframe_ber=reverse_cframe_ber,
        bit_rate=bit_rate,
        context={"geometry": geometry} if geometry is not None else None,
    )
    return FullDuplexLink(
        sim,
        bit_rate=bit_rate,
        propagation_delay=delay,
        name=spec.name,
        iframe_errors=models[0],
        cframe_errors=models[1],
        reverse_iframe_errors=models[2],
        reverse_cframe_errors=models[3],
        streams=StreamRegistry(seed=spec.resolve_seed(master_seed)),
        tracer=tracer,
    )


def instantiate_pair(
    spec: LinkSpec,
    sim: Simulator,
    link: FullDuplexLink,
    *,
    tracer: Optional[Tracer] = None,
) -> EndpointPair:
    """Build *spec*'s wired (not started) endpoint pair over *link*.

    *link* is normally :func:`build_link`'s result for the same spec,
    which already carries the spec's error models; the spec's fault
    plan, if any, is scheduled on *sim* here.
    """
    config = spec.protocol_config("a")
    # Neither side explicit: B shares A's config object (the factories
    # read ``config_b or config``), one config per link in a
    # constellation rather than two.
    config_b = (
        None
        if spec.endpoint_a.config is None and spec.endpoint_b.config is None
        else spec.protocol_config("b")
    )
    extras = dict(spec.extras)
    family, _ = resolve_protocol(spec.protocol)
    if family == "lams":
        # Failure callbacks are a LAMS-family factory feature; other
        # families would reject the keywords.
        if spec.endpoint_a.on_failure is not None:
            extras.setdefault("on_failure_a", spec.endpoint_a.on_failure)
        if spec.endpoint_b.on_failure is not None:
            extras.setdefault("on_failure_b", spec.endpoint_b.on_failure)
    elif spec.endpoint_a.on_failure is not None or spec.endpoint_b.on_failure is not None:
        raise ValueError(
            f"on_failure callbacks require a LAMS-family protocol, "
            f"not {spec.protocol!r}"
        )
    pair = make_endpoint_pair(
        spec.protocol, sim, link, config,
        config_b=config_b, tracer=tracer,
        deliver_a=spec.endpoint_a.deliver,
        deliver_b=spec.endpoint_b.deliver,
        **extras,
    )
    if spec.fault_plan is not None and len(spec.fault_plan):
        # The simulator's event heap keeps the injector alive.
        FaultInjector(sim, link, spec.fault_plan, tracer=tracer)
    return pair


def as_dict(spec: LinkSpec) -> dict[str, Any]:
    """A JSON-ish summary of *spec* (callbacks elided) for reports."""
    scenario = spec.resolved_scenario()
    return {
        "name": spec.name,
        "a": spec.a,
        "b": spec.b,
        "protocol": spec.protocol,
        "scenario": scenario.name,
        "bit_rate": spec.bit_rate if spec.bit_rate is not None else scenario.bit_rate,
        "seed": spec.seed,
        "fault_plan": spec.fault_plan.to_dict() if spec.fault_plan else None,
        "monitors": spec.monitors,
    }
