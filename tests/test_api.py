"""Tests for the `repro.api` facade and the endpoint-pair registry.

One factory — :func:`repro.api.make_endpoint_pair` — must build every
executable protocol, aliases and overrides included, and the legacy
per-protocol pair factories must be behaviour-identical shims over it.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro import api
from repro.core.config import LamsDlcConfig
from repro.core.endpoint import build_endpoint_pair, pair_factory
from repro.core.protocol import lams_dlc_pair
from repro.hdlc.config import HdlcConfig
from repro.hdlc.protocol import hdlc_pair
from repro.nbdt.config import NbdtConfig
from repro.nbdt.protocol import nbdt_pair
from repro.simulator.engine import Simulator
from repro.simulator.trace import Tracer
from repro.workloads import build_simulation, preset
from repro.workloads.generators import FiniteBatch

ALL_PROTOCOLS = [
    "lams", "lams-dlc", "hdlc", "sr-hdlc", "gbn",
    "nbdt", "nbdt-continuous", "nbdt-multiphase",
]


def _pair(protocol: str, **kwargs):
    scenario = preset("short_hop")
    sim = Simulator()
    link = scenario.build_link(sim, seed=0)
    config = scenario.protocol_config(protocol)
    pair = api.make_endpoint_pair(protocol, sim, link, config, **kwargs)
    return sim, link, pair


class TestResolveProtocol:
    def test_known_aliases(self):
        assert api.resolve_protocol("lams") == ("lams", {})
        assert api.resolve_protocol("LAMS-DLC") == ("lams", {})
        assert api.resolve_protocol("gbn") == ("hdlc", {"selective": False})
        assert api.resolve_protocol("nbdt-multiphase") == (
            "nbdt", {"mode": "multiphase"}
        )

    def test_unknown_protocol(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            api.resolve_protocol("tcp")

    def test_available_protocols_cover_families(self):
        names = api.available_protocols()
        for name in ALL_PROTOCOLS:
            assert name in names

    def test_pair_factory_unknown_family(self):
        with pytest.raises(ValueError):
            pair_factory("not-a-family")


class TestMakeEndpointPair:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_builds_structural_endpoints(self, protocol):
        _, _, (a, b) = _pair(protocol)
        assert isinstance(a, api.Endpoint)
        assert isinstance(b, api.Endpoint)
        assert a.name.endswith(".A") and b.name.endswith(".B")

    def test_gbn_turns_off_selective_repeat(self):
        _, _, (a, _) = _pair("gbn")
        assert a.config.selective is False

    def test_sr_hdlc_keeps_selective_repeat(self):
        _, _, (a, _) = _pair("sr-hdlc")
        assert a.config.selective is True

    def test_multiphase_mode_applied(self):
        _, _, (a, _) = _pair("nbdt-multiphase")
        assert a.config.mode == "multiphase"

    def test_explicit_config_fields_survive_aliases(self):
        # An override-free alias must not clobber an explicit config.
        scenario = preset("short_hop")
        sim = Simulator()
        link = scenario.build_link(sim, seed=0)
        config = scenario.nbdt_config(mode="multiphase")
        a, _ = api.make_endpoint_pair("nbdt", sim, link, config)
        assert a.config.mode == "multiphase"

    def test_tracer_threaded_through(self):
        tracer = Tracer()
        _, _, (a, _) = _pair("lams", tracer=tracer)
        assert a.tracer is tracer

    @pytest.mark.parametrize("protocol", ["lams", "hdlc", "gbn", "nbdt"])
    def test_round_trip_delivers(self, protocol):
        sim, _, (a, b) = _pair(protocol, deliver_b=(delivered := []).append)
        a.start(send=True, receive=False)
        b.start(send=False, receive=True)
        FiniteBatch(sim, a, count=50).start()
        sim.run(until=5.0)
        assert len(delivered) == 50

    def test_register_new_family(self):
        calls = []

        @api.register_pair_factory("test-fake-proto")
        def fake(sim, link, config, **kwargs):
            calls.append(config)
            return None, None

        try:
            assert api.resolve_protocol("test-fake-proto") == (
                "test-fake-proto", {}
            )
            build_endpoint_pair("test-fake-proto", Simulator(), None, "cfg")
            assert calls == ["cfg"]
        finally:
            from repro.core import endpoint as registry

            registry._FACTORIES.pop("test-fake-proto", None)
            registry._ALIASES.pop("test-fake-proto", None)


class TestShimEquivalence:
    """The legacy factories defer to the registry and behave identically."""

    def _run(self, build_pair, config_cls):
        scenario = preset("short_hop")
        sim = Simulator()
        link = scenario.build_link(sim, seed=3)
        delivered = []
        if config_cls is LamsDlcConfig:
            config = scenario.lams_config()
        elif config_cls is HdlcConfig:
            config = scenario.hdlc_config()
        else:
            config = scenario.nbdt_config()
        a, b = build_pair(sim, link, config, deliver_b=delivered.append)
        a.start(send=True, receive=False)
        b.start(send=False, receive=True)
        FiniteBatch(sim, a, count=30).start()
        sim.run(until=5.0)
        return delivered

    @pytest.mark.parametrize("shim,unified,config_cls", [
        (lams_dlc_pair, "lams", LamsDlcConfig),
        (hdlc_pair, "hdlc", HdlcConfig),
        (nbdt_pair, "nbdt", NbdtConfig),
    ])
    def test_shim_matches_unified(self, shim, unified, config_cls):
        via_shim = self._run(shim, config_cls)
        via_api = self._run(
            lambda sim, link, config, **kw: api.make_endpoint_pair(
                unified, sim, link, config, **kw
            ),
            config_cls,
        )
        assert via_shim == via_api
        assert len(via_shim) == 30


class TestBuildSimulation:
    @pytest.mark.parametrize("protocol", ["lams", "hdlc", "gbn",
                                          "nbdt-multiphase"])
    def test_unified_builder_runs(self, protocol):
        setup = build_simulation(preset("short_hop"), protocol, seed=2)
        FiniteBatch(setup.sim, setup.endpoint_a, count=50).start()
        setup.run(until=5.0)
        assert len(setup.delivered) == 50

    def test_matches_legacy_builder(self):
        from repro.workloads import build_lams_simulation

        new = build_simulation(preset("short_hop"), "lams", seed=9)
        old = build_lams_simulation(preset("short_hop"), seed=9)
        for setup in (new, old):
            FiniteBatch(setup.sim, setup.endpoint_a, count=40).start()
            setup.run(until=5.0)
        assert [p for p in new.delivered] == [p for p in old.delivered]

    def test_overrides_reach_config(self):
        setup = build_simulation(
            preset("short_hop"), "lams", seed=0,
            overrides={"cumulation_depth": 7},
        )
        assert setup.endpoint_a.config.cumulation_depth == 7

    def test_api_reexports_builder(self):
        setup = api.build_simulation(preset("short_hop"), "lams", seed=1)
        assert isinstance(setup.endpoint_a, api.Endpoint)


class TestErrorModelRegistry:
    def test_available_names(self):
        names = api.available_error_models()
        for name in ("perfect", "bernoulli", "gilbert-elliott"):
            assert name in names

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown error model"):
            api.make_error_model("carrier-pigeon")

    def test_context_fills_missing_params(self):
        model = api.make_error_model("bernoulli", {"ber": 1e-5, "bit_rate": 1e6})
        assert model.ber == pytest.approx(1e-5)
        # Explicit kwargs beat context.
        model = api.make_error_model("bernoulli", {"ber": 1e-5}, ber=1e-3)
        assert model.ber == pytest.approx(1e-3)

    def test_resolve_variants(self):
        from repro.simulator.errormodel import (
            BernoulliChannel,
            GilbertElliottChannel,
            PerfectChannel,
        )

        assert isinstance(api.resolve_error_model(None), PerfectChannel)
        assert isinstance(api.resolve_error_model(None, ber=1e-6),
                          BernoulliChannel)
        assert isinstance(api.resolve_error_model("perfect"), PerfectChannel)
        by_tuple = api.resolve_error_model(("bernoulli", {"ber": 1e-4}))
        assert by_tuple.ber == pytest.approx(1e-4)
        by_map = api.resolve_error_model({"model": "bernoulli", "ber": 1e-4})
        assert by_map.ber == pytest.approx(1e-4)
        ge = api.resolve_error_model(
            {"model": "gilbert-elliott", "good_ber": 1e-7, "bad_ber": 1e-3,
             "mean_good": 1.0, "mean_bad": 0.01},
            bit_rate=1e6,
        )
        assert isinstance(ge, GilbertElliottChannel)
        instance = BernoulliChannel(1e-2)
        assert api.resolve_error_model(instance) is instance

    def test_resolve_rejects_garbage(self):
        with pytest.raises(ValueError, match="'model' key"):
            api.resolve_error_model({"ber": 1e-4})
        with pytest.raises(TypeError, match="not an error-model spec"):
            api.resolve_error_model(42)

    def test_register_custom_model(self):
        from repro.simulator.errormodel import _ERROR_MODELS, PerfectChannel

        @api.register_error_model("test-always-clean")
        class AlwaysClean(PerfectChannel):
            pass

        try:
            assert "test-always-clean" in api.available_error_models()
            assert isinstance(
                api.resolve_error_model("test-always-clean"), AlwaysClean
            )
        finally:
            _ERROR_MODELS.pop("test-always-clean", None)


class TestFacadeFaultKwargs:
    def test_error_model_kwarg_replaces_channel_models(self):
        from repro.simulator.errormodel import BernoulliChannel

        _, link, _ = _pair("lams", error_model=("bernoulli", {"ber": 1e-3}))
        assert isinstance(link.forward.iframe_errors, BernoulliChannel)
        assert link.forward.iframe_errors.ber == pytest.approx(1e-3)
        assert link.reverse.iframe_errors.ber == pytest.approx(1e-3)

    def test_fault_plan_kwarg_schedules_injector(self):
        from repro.faults import FaultPlan

        plan = FaultPlan.single_outage(start=0.05, duration=0.02)
        sim, link, (a, b) = _pair("lams", fault_plan=plan)
        states = {}
        sim.schedule_at(0.06, lambda: states.update(mid=link.forward.is_up))
        a.start(send=True, receive=False)
        b.start(send=False, receive=True)
        sim.run(until=0.1)
        assert states["mid"] is False
        assert link.forward.is_up  # restored after the fault window

    def test_build_simulation_error_model_kwarg(self):
        from repro.simulator.errormodel import GilbertElliottChannel

        setup = build_simulation(
            preset("short_hop"), "lams", seed=0,
            error_model={"model": "gilbert-elliott", "good_ber": 1e-7,
                         "bad_ber": 1e-3, "mean_good": 1.0, "mean_bad": 0.01},
        )
        assert isinstance(setup.link.forward.iframe_errors,
                          GilbertElliottChannel)

    def test_build_simulation_rejects_conflicting_error_specs(self):
        from repro.simulator.errormodel import BernoulliChannel

        with pytest.raises(ValueError, match="not both"):
            build_simulation(
                preset("short_hop"), "lams", seed=0,
                error_model="perfect",
                iframe_errors=BernoulliChannel(1e-6),
            )

    def test_build_simulation_fault_plan_populates_setup(self):
        from repro.faults import FaultInjector, FaultPlan, RecoveryMetrics

        plan = FaultPlan.single_outage(start=0.05, duration=0.02)
        setup = build_simulation(
            preset("short_hop"), "lams", seed=0, fault_plan=plan,
        )
        assert isinstance(setup.fault_injector, FaultInjector)
        assert isinstance(setup.recovery, RecoveryMetrics)

    def test_scenario_error_model_fields(self):
        from repro.simulator.errormodel import PerfectChannel

        scenario = preset("short_hop").with_(
            iframe_error_model="perfect", cframe_error_model="perfect",
        )
        sim = Simulator()
        link = scenario.build_link(sim, seed=0)
        assert isinstance(link.forward.iframe_errors, PerfectChannel)
        assert isinstance(link.forward.cframe_errors, PerfectChannel)


class TestSpecFacade:
    """The kwargs facade is a thin wrapper over the LinkSpec path."""

    def test_topology_surface_is_exported(self):
        for name in ("LinkSpec", "EndpointSpec", "Topology", "NodeSpec",
                     "FlowSpec", "Constellation", "ConstellationBuilder",
                     "build_constellation", "ring_topology",
                     "chain_topology", "grid_topology", "cross_traffic"):
            assert name in api.__all__
            assert hasattr(api, name)
        # repro.__version__ is the one version literal; pyproject reads it.
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        assert not re.search(r'(?m)^version\s*=\s*"', pyproject.read_text())

    def test_spec_from_kwargs_migrates_failure_callbacks(self):
        alarm = lambda: None  # noqa: E731
        spec = api.spec_from_kwargs(
            "lams", LamsDlcConfig(),
            config_b=None, deliver_a=None, deliver_b=None,
            error_model=None, fault_plan=None,
            on_failure_a=alarm, delivery_interval_b=0.01,
        )
        assert spec.endpoint_a.on_failure is alarm
        assert spec.endpoint_b.on_failure is None
        assert "on_failure_a" not in spec.extras
        assert spec.extras["delivery_interval_b"] == 0.01

    def test_facade_and_spec_path_build_identical_runs(self):
        """Same seed, same scenario: the legacy facade and a hand-built
        LinkSpec must produce the same delivered sequence."""
        from repro.topology.spec import build_link, instantiate_pair

        scenario = preset("short_hop")

        def run_facade():
            sim = Simulator()
            link = scenario.build_link(sim, seed=3)
            delivered = []
            a, b = api.make_endpoint_pair(
                "lams", sim, link, scenario.lams_config(),
                deliver_b=delivered.append,
            )
            a.start(send=True, receive=False)
            b.start(send=False, receive=True)
            FiniteBatch(sim, a, count=400).start()
            sim.run(until=1.0)
            return delivered

        def run_spec():
            sim = Simulator()
            spec = api.LinkSpec(
                name=scenario.name,
                scenario=scenario,
                config=scenario.lams_config(),
                seed=3,
                endpoint_a=api.EndpointSpec(receive=False),
            )
            delivered = []
            spec = spec.with_(
                endpoint_b=api.EndpointSpec(deliver=delivered.append,
                                            send=False))
            link = build_link(spec, sim)
            a, b = instantiate_pair(spec, sim, link)
            a.start(send=True, receive=False)
            b.start(send=False, receive=True)
            FiniteBatch(sim, a, count=400).start()
            sim.run(until=1.0)
            return delivered

        assert run_facade() == run_spec()


class TestBackendRegistry:
    def test_available_backends_lists_des_and_udp(self):
        names = api.available_backends()
        assert "des" in names
        assert "udp" in names

    def test_resolve_backend_lazy_loads_udp(self):
        impl = api.resolve_backend("udp")
        assert impl.name == "udp"
        assert impl.families == frozenset({"lams"})
        assert impl.build_simulation is not None

    def test_resolve_backend_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            api.resolve_backend("carrier-pigeon")

    def test_des_backend_carries_every_family(self):
        impl = api.resolve_backend("des")
        assert impl.families is None

    def test_udp_backend_rejects_des_substrate(self):
        scenario = preset("short_hop")
        sim = Simulator()
        link = scenario.build_link(sim, seed=0)
        with pytest.raises(TypeError, match="AsyncioClock"):
            api.make_endpoint_pair(
                "lams", sim, link, scenario.lams_config(), backend="udp")

    def test_udp_backend_rejects_foreign_families(self):
        scenario = preset("short_hop")
        sim = Simulator()
        link = scenario.build_link(sim, seed=0)
        with pytest.raises(ValueError, match="not available on backend"):
            api.make_endpoint_pair(
                "hdlc", sim, link, HdlcConfig(), backend="udp")

    def test_make_endpoint_pair_unknown_backend(self):
        scenario = preset("short_hop")
        sim = Simulator()
        link = scenario.build_link(sim, seed=0)
        with pytest.raises(ValueError, match="unknown backend"):
            api.make_endpoint_pair(
                "lams", sim, link, scenario.lams_config(), backend="tcp")

    def test_build_simulation_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            api.build_simulation(preset("short_hop"), backend="smoke-signals")


class TestDeprecatedShims:
    """The per-protocol pair factories warn but keep working."""

    def test_lams_dlc_pair_warns(self):
        scenario = preset("short_hop")
        sim = Simulator()
        link = scenario.build_link(sim, seed=0)
        with pytest.warns(DeprecationWarning, match="lams_dlc_pair"):
            a, b = lams_dlc_pair(sim, link, scenario.lams_config())
        assert a is not None and b is not None

    def test_hdlc_pair_warns(self):
        scenario = preset("short_hop")
        sim = Simulator()
        link = scenario.build_link(sim, seed=0)
        with pytest.warns(DeprecationWarning, match="hdlc_pair"):
            hdlc_pair(sim, link, HdlcConfig())

    def test_nbdt_pair_warns(self):
        scenario = preset("short_hop")
        sim = Simulator()
        link = scenario.build_link(sim, seed=0)
        with pytest.warns(DeprecationWarning, match="nbdt_pair"):
            nbdt_pair(sim, link, NbdtConfig())

    def test_facade_path_stays_silent(self):
        import warnings as _warnings

        scenario = preset("short_hop")
        sim = Simulator()
        link = scenario.build_link(sim, seed=0)
        with _warnings.catch_warnings():
            _warnings.simplefilter("error", DeprecationWarning)
            api.make_endpoint_pair("lams", sim, link, scenario.lams_config())
