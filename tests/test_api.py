"""Tests for the `repro.api` surface and the endpoint-pair registry.

One function — :func:`repro.api.make_endpoint_pair` — must build every
executable protocol, aliases and overrides included; `repro.api` itself
defines nothing, and the names it replaced stay gone.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

from repro import api
from repro.core.endpoint import pair_factory
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

    @pytest.mark.parametrize("protocol", ["hdlc", "nbdt"])
    def test_baseline_endpoint_refuses_a_frame_it_has_no_route_for(self, protocol):
        from repro.core.frames import CheckpointFrame

        _, _, (a, _) = _pair(protocol)
        frame = CheckpointFrame(cp_index=0, issue_time=0.0, naks=(), frontier=None,
                                enforced=False)
        with pytest.raises(TypeError, match="unknown frame type: CheckpointFrame"):
            a.on_frame(frame, False)

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
            api.make_endpoint_pair("test-fake-proto", Simulator(), None, "cfg")
            assert calls == ["cfg"]
        finally:
            from repro.core import endpoint as registry

            registry._FACTORIES.pop("test-fake-proto", None)
            registry._ALIASES.pop("test-fake-proto", None)


class TestBuildSimulation:
    @pytest.mark.parametrize("protocol", ["lams", "hdlc", "gbn",
                                          "nbdt-multiphase"])
    def test_unified_builder_runs(self, protocol):
        setup = build_simulation(preset("short_hop"), protocol, seed=2)
        FiniteBatch(setup.sim, setup.endpoint_a, count=50).start()
        setup.run(until=5.0)
        assert len(setup.delivered) == 50

    def test_overrides_reach_config(self):
        setup = build_simulation(
            preset("short_hop"), "lams", seed=0,
            overrides={"cumulation_depth": 7},
        )
        assert setup.endpoint_a.config.cumulation_depth == 7

    def test_api_reexports_builder(self):
        from repro.core import endpoint
        from repro.topology import spec
        from repro.workloads import scenarios

        assert api.build_simulation is scenarios.build_simulation
        assert api.make_endpoint_pair is endpoint.make_endpoint_pair
        assert api.build_link is spec.build_link
        assert api.instantiate_pair is spec.instantiate_pair
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


# The names that were second ways to build a link (or, for
# repro.benchmark, to measure a speed; for repro.experiments, to run or
# summarise a sweep), each beside the module it lived in; none may come
# back.  Written with a "|" inside so that `git grep`
# for one of them finds nothing in the tree but the oracles that keep
# a deleted class on purpose (tests/*_reference.py); the "|" is dropped
# before use.
DELETED_NAMES = [
    ("repro.core.protocol", "lams_dlc_|pair"),
    ("repro.hdlc.protocol", "hdlc_|pair"),
    ("repro.nbdt.protocol", "nbdt_|pair"),
    ("repro.workloads.scenarios", "build_|lams_simulation"),
    ("repro.workloads.scenarios", "build_|hdlc_simulation"),
    ("repro.workloads.scenarios", "build_|nbdt_simulation"),
    ("repro.session.factories", "lams_|session_factory"),
    ("repro.session.factories", "hdlc_|session_factory"),
    ("repro.core.endpoint", "build_|endpoint_pair"),
    ("repro.core.endpoint", "Transport|Backend"),
    ("repro.core.endpoint", "register_|backend"),
    ("repro.core.endpoint", "resolve_|backend"),
    ("repro.core.endpoint", "available_|backends"),
    ("repro.topology.spec", "spec_from_|kwargs"),
    ("repro.core.endpoint", "registered_|families"),
    ("repro.transport.backend", "UDP_|BACKEND"),
    ("repro.benchmark", "run_hotpath_|bench"),
    ("repro.experiments.parallel", "Sweep|Pool"),
    ("repro.experiments", "Sweep|Pool"),
    ("repro.experiments", "Replication|Summary"),
    ("repro.experiments", "replic|ate"),
    ("repro.experiments", "replicate_|all"),
    ("repro.experiments", "wel|ford"),
    ("repro.experiments.sweeps", "Streaming|Summary"),
    # Reached by nothing but their own unit tests (DESIGN.md §3a).
    ("repro.simulator.engine", "Ev|ent"),
    ("repro.simulator.engine", "Time|out"),
    ("repro.simulator.engine", "Pro|cess"),
    ("repro.simulator.engine", "Inter|rupt"),
    ("repro.simulator.engine", "Any|Of"),
    ("repro.simulator.engine", "All|Of"),
    ("repro.simulator.engine", "Stop|Simulation"),
    ("repro.simulator", "Pro|cess"),
    ("repro.core.clock", "Clo|ck"),
    ("repro.fec.interleaver", "Block|Interleaver"),
    ("repro.fec.codec", "Hamming|Code74"),
    ("repro.fec.codec", "Repetition|Code"),
    ("repro.fec", "burst_|spread"),
    ("repro.workloads.generators", "OnOff|Source"),
    ("repro.experiments.reporting", "render_|series"),
    ("repro.core.seqspace", "cyclic_|less_equal"),
    ("repro.simulator.link", "delay_from_|distance_km"),
    ("repro.simulator.orbit", "propagation_|delay_fn"),
    ("repro.session.manager", "Session|Endpoint"),
    ("repro.core.frames", "Lams|Frame"),
    ("repro.hdlc.frames", "Hdlc|Frame"),
    ("repro.analysis.bounds", "link_frame_|length"),
    ("repro.analysis.bounds", "hdlc_inconsistency_|gap_expected"),
    ("repro.analysis.bounds", "gbn_discards_|per_error"),
    ("repro.analysis.compare", "find_|crossover"),
    ("repro.analysis.delay", "lams_mean_|delay"),
    ("repro.analysis.delay", "hdlc_delay_|quantile"),
    ("repro.analysis.delay", "hdlc_delay_|for_attempts"),
    ("repro.analysis.delay", "resequencing_|buffer_bound"),
    ("repro.analysis.framesize", "frame_size_|sweep"),
    ("repro.analysis.hybrid", "best_|codec"),
    # The baselines' record-per-frame windows and per-family endpoint
    # classes: their senders keep the window in SendBuffer's columns,
    # and core.endpoint.BaselineEndpoint serves both families.
    ("repro.hdlc.window", "Sender|Window"),
    ("repro.hdlc", "Sender|Window"),
    ("repro.hdlc.sender", "Hdlc|Outstanding"),
    ("repro.hdlc", "Hdlc|Outstanding"),
    ("repro.nbdt.sender", "Nbdt|Outstanding"),
    ("repro.nbdt", "Nbdt|Outstanding"),
    ("repro.hdlc.protocol", "Hdlc|Endpoint"),
    ("repro.hdlc", "Hdlc|Endpoint"),
    ("repro.nbdt.protocol", "Nbdt|Endpoint"),
    ("repro.nbdt", "Nbdt|Endpoint"),
    # Three validation experiments folded into E26's table, and the
    # report module folded into experiments/reporting.py.
    ("repro.experiments.registry", "e2_delivery_time_|measured"),
    ("repro.experiments.registry", "e12_|validation"),
    ("repro.experiments.registry", "e19_|validation_matrix"),
    ("repro.experiments.report", "generate_|report"),
    # The tracer's point-sample statistic, one Welford accumulator with
    # the replication summary (StreamingSummary).
    ("repro.simulator.trace", "Sample|Stat"),
    ("repro.simulator", "Sample|Stat"),
]

# Methods that went the same way, beside the class they were on.
DELETED_ATTRIBUTES = [
    ("repro.simulator.engine", "Simulator", "time|out"),
    ("repro.simulator.engine", "Simulator", "ev|ent"),
    ("repro.simulator.engine", "Simulator", "pro|cess"),
    ("repro.simulator.engine", "Simulator", "any_|of"),
    ("repro.simulator.engine", "Simulator", "all_|of"),
    ("repro.simulator.trace", "Tracer", "format_|timeline"),
    ("repro.topology.graph", "Topology", "links_|at"),
    ("repro.session.manager", "LinkSessionManager", "session_|active"),
    ("repro.session.manager", "PassSchedule", "from_|windows"),
    ("repro.hdlc.config", "HdlcConfig", "timeout_for_|link"),
    ("repro.netlayer.packet", "Datagram", "flow_|id"),
    ("repro.netlayer.resequencer", "Resequencer", "pending_|sources"),
    ("repro.faults.plan", "FaultPlan", "out|ages"),
    ("repro.faults.plan", "FaultPlan", "transport_|faults"),
    ("repro.core.receiver", "LamsReceiver", "_stop_|indicated"),
    ("repro.core.receiver", "LamsReceiver", "_origin_|retention"),
]

# Whole modules that went with their names: these must not import.
DELETED_MODULES = {"repro.transport.backend", "repro.benchmark",
                   "repro.experiments.sweeps", "repro.core.clock",
                   "repro.fec.interleaver", "repro.experiments.report"}


class TestSpecFacade:
    """`repro.api` is a pinned list of re-exports over the one stack."""

    def test_topology_surface_is_exported(self):
        assert api.__all__ == [
            "Constellation", "ConstellationBuilder", "Endpoint",
            "EndpointPair", "EndpointSpec", "EpisodeSpec", "ErrorModelSpec",
            "FaultInjector", "FaultPlan", "FlowSpec", "InvariantMonitor",
            "LinkSpec", "MonitorSuite", "NodeSpec", "RecoveryMetrics",
            "SoakResult", "Topology", "Violation", "attach_monitors",
            "available_error_models", "available_protocols",
            "build_constellation", "build_link", "build_simulation",
            "chain_topology", "cross_traffic", "generate_episodes",
            "grid_topology", "instantiate_pair", "make_endpoint_pair",
            "make_error_model", "register_error_model",
            "register_pair_factory", "resolve_error_model",
            "resolve_protocol", "ring_topology", "run_soak",
        ]
        for name in api.__all__:
            assert hasattr(api, name)
        source = Path(api.__file__).read_text()
        assert not re.search(r"(?m)^\s*(async\s+)?def\s", source)
        # repro.__version__ is the one version literal; pyproject reads it.
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        assert not re.search(r'(?m)^version\s*=\s*"', pyproject.read_text())

    @pytest.mark.parametrize("module,name", [
        pytest.param(module, name.replace("|", ""),
                     id=f"{module}.{name.replace('|', '')}")
        for module, name in DELETED_NAMES
    ])
    def test_deleted_name_stays_deleted(self, module, name):
        if module in DELETED_MODULES:
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module)
            return
        home = importlib.import_module(module)
        assert not hasattr(home, name)
        assert not hasattr(api, name)

    @pytest.mark.parametrize("module,owner,name", [
        pytest.param(module, owner, name.replace("|", ""),
                     id=f"{owner}.{name.replace('|', '')}")
        for module, owner, name in DELETED_ATTRIBUTES
    ])
    def test_deleted_method_stays_deleted(self, module, owner, name):
        assert not hasattr(getattr(importlib.import_module(module), owner), name)

    def test_facade_and_spec_path_build_identical_runs(self):
        """Same seed, same scenario: a hand-built link + pair and a
        LinkSpec must produce the same delivered sequence."""

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
            link = api.build_link(spec, sim)
            a, b = api.instantiate_pair(spec, sim, link)
            a.start(send=True, receive=False)
            b.start(send=False, receive=True)
            FiniteBatch(sim, a, count=400).start()
            sim.run(until=1.0)
            return delivered

        assert run_facade() == run_spec()


def test_design_table_has_a_row_for_every_module():
    """DESIGN.md §3a says who reaches each module other than its own
    tests; a new module has to say so too, and a row may not outlive its
    file or plead "own tests only"."""
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "repro"
    modules = {path.relative_to(package).as_posix()
               for path in package.rglob("*.py")}
    section = (root / "DESIGN.md").read_text().split("## 3a. Reachability")[1]
    rows = dict(re.findall(r"(?m)^\| `([\w/]+\.py)` \| (.+) \|$",
                           section.split("\n## ")[0]))
    assert set(rows) == modules
    assert not [name for name, reached_by in rows.items()
                if "own tests only" in reached_by.lower()]
