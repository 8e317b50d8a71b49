"""Canned LAMS-network scenarios (paper Section 2.1 numbers).

A :class:`LinkScenario` captures one physical/protocol operating point
— rate, distance, residual BERs, protocol knobs — and can materialise
it either as :class:`~repro.analysis.params.ModelParameters` (for the
closed-form model) or as a live simulation (link + protocol endpoints
+ traffic), guaranteeing model and simulation always describe the same
system.

Named presets span the paper's stated envelope:

=================  ========  ===========  ==========  =========
preset             rate       distance     I-BER       C-BER
=================  ========  ===========  ==========  =========
``short_hop``      300 Mbps    2,000 km    1e-7        1e-9
``nominal``        300 Mbps    5,000 km    1e-6        1e-8
``long_haul``        1 Gbps   10,000 km    1e-6        1e-8
``noisy``          300 Mbps    5,000 km    1e-5        1e-7
=================  ========  ===========  ==========  =========
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from ..analysis.params import ModelParameters
from ..core.config import LamsDlcConfig
from ..core.endpoint import Endpoint, resolve_protocol
from ..faults.injector import FaultInjector
from ..faults.metrics import RecoveryMetrics
from ..faults.plan import FaultPlan
from ..hdlc.config import HdlcConfig
from ..simulator.engine import Simulator
from ..simulator.errormodel import ErrorModelSpec
from ..simulator.link import FullDuplexLink, LIGHT_SPEED_KM_S
from ..simulator.trace import Tracer

__all__ = [
    "LinkScenario",
    "SimulationSetup",
    "DeliveredList",
    "PRESETS",
    "preset",
    "build_simulation",
]


@dataclass(frozen=True)
class LinkScenario:
    """One operating point of a LAMS inter-satellite link."""

    name: str = "nominal"
    bit_rate: float = 300e6
    distance_km: float = 5000.0
    iframe_ber: float = 1e-6
    cframe_ber: float = 1e-8
    iframe_payload_bits: int = 8192
    iframe_overhead_bits: int = 80
    cframe_bits: int = 96
    processing_time: float = 10e-6
    checkpoint_interval: float = 0.005
    cumulation_depth: int = 3
    window_size: int = 64
    alpha: float = 0.05
    sequence_bits: int = 7
    numbering_bits: int = 16
    # Registered error-model names (see repro.simulator.errormodel).
    # None keeps the historical default: Bernoulli at the scenario BER
    # when nonzero, perfect otherwise.  Strings only, so the dataclass
    # stays asdict/JSON-clean for sweep cache keys.
    iframe_error_model: Optional[str] = None
    cframe_error_model: Optional[str] = None
    # Asymmetric feedback channel: the reverse direction (receiver ->
    # sender, carrying checkpoints and NAKs) defaults to mirroring the
    # forward model/BER; any of these four decouples it, so checkpoint/
    # NAK loss can be swept independently of the forward BER
    # (Khosravirad & Viswanathan's feedback-error axis).
    reverse_iframe_error_model: Optional[str] = None
    reverse_cframe_error_model: Optional[str] = None
    reverse_iframe_ber: Optional[float] = None
    reverse_cframe_ber: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("bit_rate", "distance_km", "checkpoint_interval"):
            value = getattr(self, name)
            if not 0 < value < math.inf:  # NaN fails both comparisons
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

    # -- derived ---------------------------------------------------------

    @property
    def iframe_bits(self) -> int:
        return self.iframe_payload_bits + self.iframe_overhead_bits

    @property
    def one_way_delay(self) -> float:
        return self.distance_km / LIGHT_SPEED_KM_S

    @property
    def round_trip_time(self) -> float:
        return 2.0 * self.one_way_delay

    @property
    def iframe_time(self) -> float:
        return self.iframe_bits / self.bit_rate

    @property
    def timeout(self) -> float:
        """HDLC's ``t_out = R + alpha``."""
        return self.round_trip_time + self.alpha

    def with_(self, **changes: Any) -> "LinkScenario":
        """A copy with fields replaced (sweep helper)."""
        return replace(self, **changes)

    # -- materialisation -----------------------------------------------------

    def model_parameters(self) -> ModelParameters:
        """The closed-form model's view of this scenario."""
        return ModelParameters.from_link(
            bit_rate=self.bit_rate,
            distance_km=self.distance_km,
            iframe_bits=self.iframe_bits,
            cframe_bits=self.cframe_bits,
            iframe_ber=self.iframe_ber,
            cframe_ber=self.cframe_ber,
            processing_time=self.processing_time,
            checkpoint_interval=self.checkpoint_interval,
            cumulation_depth=self.cumulation_depth,
            window_size=self.window_size,
            alpha=self.alpha,
        )

    def lams_config(self, **overrides: Any) -> LamsDlcConfig:
        base = dict(
            checkpoint_interval=self.checkpoint_interval,
            cumulation_depth=self.cumulation_depth,
            iframe_payload_bits=self.iframe_payload_bits,
            iframe_overhead_bits=self.iframe_overhead_bits,
            cframe_base_bits=self.cframe_bits,
            processing_time=self.processing_time,
            numbering_bits=self.numbering_bits,
        )
        base.update(overrides)
        return LamsDlcConfig(**base)

    def hdlc_config(self, **overrides: Any) -> HdlcConfig:
        base = dict(
            window_size=self.window_size,
            sequence_bits=self.sequence_bits,
            timeout=self.timeout,
            iframe_payload_bits=self.iframe_payload_bits,
            iframe_overhead_bits=self.iframe_overhead_bits,
            control_frame_bits=self.cframe_bits,
            processing_time=self.processing_time,
        )
        base.update(overrides)
        return HdlcConfig(**base)

    def nbdt_config(self, **overrides: Any):
        from ..nbdt.config import NbdtConfig

        base = dict(
            timeout=self.timeout,
            iframe_payload_bits=self.iframe_payload_bits,
            processing_time=self.processing_time,
        )
        base.update(overrides)
        return NbdtConfig(**base)

    def protocol_config(self, protocol: str, **overrides: Any) -> Any:
        """The config dataclass for any protocol name / alias.

        Alias-implied settings (``"gbn"`` -> ``selective=False``,
        ``"nbdt-multiphase"`` -> ``mode="multiphase"``) are folded in
        before *overrides*, so explicit overrides always win.
        """
        family, implied = resolve_protocol(protocol)
        builders = {
            "lams": self.lams_config,
            "hdlc": self.hdlc_config,
            "nbdt": self.nbdt_config,
        }
        try:
            builder = builders[family]
        except KeyError:
            raise ValueError(
                f"no scenario config factory for protocol family {family!r}"
            ) from None
        implied.update(overrides)
        return builder(**implied)

    def build_link(
        self,
        sim: Simulator,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
        iframe_errors: Optional[ErrorModelSpec] = None,
        cframe_errors: Optional[ErrorModelSpec] = None,
        reverse_iframe_errors: Optional[ErrorModelSpec] = None,
        reverse_cframe_errors: Optional[ErrorModelSpec] = None,
    ) -> FullDuplexLink:
        """A live link with this scenario's rate/delay/error models.

        The ``*_errors`` arguments accept any
        :data:`~repro.simulator.errormodel.ErrorModelSpec` (instance,
        registered name, ``(name, kwargs)``, mapping) and default to the
        scenario's ``*_error_model`` fields; everything resolves through
        the error-model registry with the scenario's BER and bit rate as
        context, one fresh instance per direction (see
        :func:`~repro.simulator.errormodel.resolve_link_error_models`).

        This is :func:`repro.topology.spec.build_link` on a one-link
        :class:`~repro.topology.spec.LinkSpec` named after the scenario
        (imported at call time: topology sits above workloads).
        """
        from ..topology.spec import LinkSpec, build_link

        return build_link(
            LinkSpec(
                name=self.name, scenario=self, seed=seed,
                iframe_errors=iframe_errors, cframe_errors=cframe_errors,
                reverse_iframe_errors=reverse_iframe_errors,
                reverse_cframe_errors=reverse_cframe_errors,
            ),
            sim, tracer=tracer,
        )


class DeliveredList(list):
    """A list that can notify on append (completion detection hooks)."""

    def __init__(self) -> None:
        super().__init__()
        self.on_append: Optional[Any] = None

    def append(self, item: Any) -> None:
        super().append(item)
        if self.on_append is not None:
            self.on_append()


@dataclass
class SimulationSetup:
    """A ready-to-run one-way transfer: A sends, B receives.

    ``fault_injector`` and ``recovery`` are populated when the setup was
    built with a fault plan; otherwise they stay ``None``.
    """

    sim: Simulator
    link: FullDuplexLink
    endpoint_a: Endpoint
    endpoint_b: Endpoint
    delivered: DeliveredList
    tracer: Tracer
    fault_injector: Optional[FaultInjector] = None
    recovery: Optional[RecoveryMetrics] = None
    monitors: Optional[Any] = None
    """Armed :class:`~repro.invariants.monitors.MonitorSuite` when the
    setup was built with ``run_with_invariants=True``."""

    def run(self, until: float) -> None:
        self.sim.run(until=until)

    def finalize_monitors(self) -> Any:
        """Run the monitors' end-of-run checks; returns the suite."""
        if self.monitors is not None:
            self.monitors.finalize(self.sim.now)
        return self.monitors


def build_simulation(
    scenario: LinkScenario,
    protocol: str = "lams",
    seed: int = 0,
    tracer: Optional[Tracer] = None,
    overrides: Optional[dict] = None,
    iframe_errors: Optional[ErrorModelSpec] = None,
    cframe_errors: Optional[ErrorModelSpec] = None,
    reverse_iframe_errors: Optional[ErrorModelSpec] = None,
    reverse_cframe_errors: Optional[ErrorModelSpec] = None,
    error_model: Optional[ErrorModelSpec] = None,
    fault_plan: Optional[FaultPlan] = None,
    run_with_invariants: bool = False,
) -> SimulationSetup:
    """One-way transfer over this scenario's link, any protocol.

    *protocol* is any name from :func:`repro.api.available_protocols`;
    the config is derived from the scenario (plus *overrides*) and the
    endpoints are built through the unified pair-factory registry.  A
    is the sender, B the receiver; the unused halves stay down so
    one-way experiments see no reverse-direction chatter.

    *reverse_iframe_errors* / *reverse_cframe_errors* override the
    receiver->sender direction only (the feedback channel carrying
    checkpoints and NAKs); they default to the scenario's reverse
    fields and, failing that, mirror the forward direction.

    *error_model* is a shorthand :data:`ErrorModelSpec` for the data
    (I-frame) error process — ``"gilbert-elliott"``, ``("bernoulli",
    {"ber": 1e-5})``, an instance — equivalent to passing
    *iframe_errors*.  *fault_plan* schedules a
    :class:`~repro.faults.plan.FaultPlan` on the link via a
    :class:`~repro.faults.injector.FaultInjector` and attaches
    :class:`~repro.faults.metrics.RecoveryMetrics` to the tracer; both
    land on the returned setup.

    *run_with_invariants* arms the full
    :mod:`repro.invariants` monitor suite on the tracer (LAMS-family
    protocols only); the armed suite lands on ``setup.monitors`` and
    ``setup.finalize_monitors()`` runs its end-of-run checks.
    """
    if error_model is not None and iframe_errors is not None:
        raise ValueError("pass error_model or iframe_errors, not both")
    # Lazy import: the topology package sits above workloads in the
    # layering (it consumes LinkScenario); only the spec module is
    # needed here, and only at call time.
    from ..topology.spec import EndpointSpec, LinkSpec, build_link, instantiate_pair

    sim = Simulator()
    tracer = tracer or Tracer()
    delivered = DeliveredList()
    # The whole one-way setup as a single declarative spec.  The fault
    # plan deliberately stays OFF the spec: the injector must be
    # created after the endpoints start (below) to preserve the event
    # sequence ordering this function has always had.
    spec = LinkSpec(
        name=scenario.name,
        protocol=protocol,
        scenario=scenario,
        overrides=overrides,
        seed=seed,
        iframe_errors=iframe_errors,
        cframe_errors=cframe_errors,
        reverse_iframe_errors=reverse_iframe_errors,
        reverse_cframe_errors=reverse_cframe_errors,
        error_model=error_model,
        endpoint_a=EndpointSpec(receive=False),
        endpoint_b=EndpointSpec(deliver=delivered.append, send=False),
    )
    link = build_link(spec, sim, tracer=tracer)
    a, b = instantiate_pair(spec, sim, link, tracer=tracer)
    a.start(send=True, receive=False)
    b.start(send=False, receive=True)
    injector = recovery = None
    if fault_plan is not None and len(fault_plan):
        recovery = RecoveryMetrics(tracer)
        injector = FaultInjector(sim, link, fault_plan, tracer=tracer)
    setup = SimulationSetup(
        sim, link, a, b, delivered, tracer,
        fault_injector=injector, recovery=recovery,
    )
    if run_with_invariants:
        # Lazy import: the invariants package sits above workloads in
        # the layering and is only needed when monitoring is requested.
        from ..invariants.harness import attach_monitors

        setup.monitors = attach_monitors(
            setup, scenario, fault_plan=fault_plan,
            context={"scenario": scenario.name, "protocol": protocol, "seed": seed},
        )
    return setup


PRESETS: dict[str, LinkScenario] = {
    "short_hop": LinkScenario(
        name="short_hop", bit_rate=300e6, distance_km=2000.0,
        iframe_ber=1e-7, cframe_ber=1e-9,
    ),
    "nominal": LinkScenario(name="nominal"),
    # A 1 Gbps DCE must process a frame faster than it serialises
    # (t_proc < t_f = 8.3 us), or the receiver, not the link, becomes
    # the bottleneck and Stop-Go throttles the sender.
    "long_haul": LinkScenario(
        name="long_haul", bit_rate=1e9, distance_km=10_000.0,
        iframe_ber=1e-6, cframe_ber=1e-8, checkpoint_interval=0.010,
        processing_time=2e-6,
    ),
    "noisy": LinkScenario(
        name="noisy", bit_rate=300e6, distance_km=5000.0,
        iframe_ber=1e-5, cframe_ber=1e-7,
    ),
}


def preset(name: str) -> LinkScenario:
    """Look up a named preset scenario."""
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        ) from None
