"""Time-varying channels: trace replay, orbit coupling, feedback asymmetry.

Also the error-model registry regression suite for the fixes shipped
alongside the channel subsystem: per-generator Bernoulli draw buffers,
the Gilbert–Elliott FIFO-time guard, the factory-signature cache, and
tuple-spec validation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.simulator.channels import (
    OrbitCoupledChannel,
    RecordingChannel,
    TraceReplayChannel,
    delivered_digest,
    load_trace,
    replay_trace,
    synthesize_trace,
    write_trace,
)
from repro.simulator.errormodel import (
    BernoulliChannel,
    GilbertElliottChannel,
    PerfectChannel,
    available_error_models,
    error_model_factory,
    make_error_model,
    register_error_model,
    resolve_error_model,
    resolve_link_error_models,
)
from repro.simulator.orbit import IsolatedLinkGeometry, Satellite
from repro.workloads.scenarios import preset

GE_PARAMS = {
    "good_ber": 1e-7, "bad_ber": 1e-4, "mean_good": 0.02, "mean_bad": 0.004,
}


def _rng(seed: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


# ---------------------------------------------------------------------------
# Trace replay
# ---------------------------------------------------------------------------


class TestTraceReplayChannel:
    def test_frame_mode_pops_decisions_without_rng(self):
        channel = TraceReplayChannel(records=[False, True, False], mode="frame")
        rng = _rng(1)
        before = rng.bit_generator.state
        assert [channel.frame_error(0.0, 100, rng) for _ in range(3)] == [
            False, True, False,
        ]
        assert rng.bit_generator.state == before
        assert channel.remaining == 0

    def test_frame_mode_exhaustion_policies(self):
        exhausted = TraceReplayChannel(records=[True], mode="frame")
        exhausted.frame_error(0.0, 8, _rng())
        with pytest.raises(ValueError, match="exhausted"):
            exhausted.frame_error(1.0, 8, _rng())

        perfect = TraceReplayChannel(
            records=[True], mode="frame", on_exhausted="perfect"
        )
        perfect.frame_error(0.0, 8, _rng())
        assert perfect.frame_error(1.0, 8, _rng()) is False

        looped = TraceReplayChannel(
            records=[True, False], mode="frame", on_exhausted="loop"
        )
        decisions = [looped.frame_error(float(i), 8, _rng()) for i in range(4)]
        assert decisions == [True, False, True, False]

    def test_strict_bits_catches_geometry_mismatch(self):
        channel = TraceReplayChannel(
            records=[{"t": 0.0, "bits": 100, "error": False}],
            mode="frame", strict_bits=True,
        )
        with pytest.raises(ValueError, match="100-bit"):
            channel.frame_error(0.0, 200, _rng())

    def test_ber_mode_piecewise_constant(self):
        channel = TraceReplayChannel(
            records=[(0.0, 0.0), (1.0, 1.0)], mode="ber"
        )
        assert channel.instantaneous_ber(0.5) == 0.0
        assert channel.instantaneous_ber(1.5) == 1.0
        rng = _rng(2)
        before = rng.bit_generator.state
        # Zero-BER segment: no error and no draw consumed.
        assert channel.frame_error(0.5, 1000, rng) is False
        assert rng.bit_generator.state == before
        # BER 1.0 segment: certain error.
        assert channel.frame_error(1.5, 1000, rng) is True

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="exactly one"):
            TraceReplayChannel()
        with pytest.raises(ValueError, match="on_exhausted"):
            TraceReplayChannel(records=[True], mode="frame", on_exhausted="nope")


class TestTraceFiles:
    def test_round_trip_preserves_header_and_records(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        header = write_trace(
            path,
            [{"t": 0.0, "bits": 64, "error": True}, {"error": False}],
            mode="frame", model="bernoulli", seed=3, digest="abc",
        )
        loaded_header, records = load_trace(path)
        assert loaded_header == header
        assert loaded_header["mode"] == "frame"
        assert loaded_header["records"] == 2
        assert records[0] == {"t": 0.0, "bits": 64, "error": True}
        channel = TraceReplayChannel(path=path)
        assert channel.length == 2
        assert channel.header["digest"] == "abc"

    def test_unsupported_schema_version_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "trace-header", "version": 99}\n')
        with pytest.raises(ValueError, match="version"):
            load_trace(str(path))

    def test_headerless_trace_is_valid(self, tmp_path):
        path = tmp_path / "plain.jsonl"
        path.write_text('{"t": 0.0, "ber": 1e-4}\n{"t": 1.0, "ber": 0.0}\n')
        channel = TraceReplayChannel(path=str(path), mode="ber")
        assert channel.instantaneous_ber(0.5) == 1e-4


class TestSynthesisReplayDigest:
    """The acceptance loop: a synthesized trace replays bit-identically."""

    def test_replay_reproduces_digest(self, tmp_path):
        scenario = preset("noisy")
        spec = ("gilbert-elliott", GE_PARAMS)
        recorded = synthesize_trace(scenario, spec, seed=3, n_frames=150)
        assert recorded.delivered == 150
        assert any(record["error"] for record in recorded.records)

        replayed = replay_trace(scenario, recorded.records, seed=3, n_frames=150)
        assert replayed.digest == recorded.digest

        path = str(tmp_path / "ge.jsonl")
        write_trace(path, recorded.records, mode="frame", digest=recorded.digest)
        from_file = replay_trace(scenario, path, seed=3, n_frames=150)
        assert from_file.digest == recorded.digest

    def test_recording_is_transparent(self):
        # A recorded run and an unrecorded run must be bit-identical.
        scenario = preset("noisy")
        bare = synthesize_trace(scenario, "bernoulli", seed=5, n_frames=40)
        inner = BernoulliChannel(scenario.iframe_ber)
        wrapped = RecordingChannel(inner)
        rng_a, rng_b = _rng(3), _rng(3)
        reference = BernoulliChannel(scenario.iframe_ber)
        for i in range(200):
            assert wrapped.frame_error(i * 1e-3, 8272, rng_a) == \
                reference.frame_error(i * 1e-3, 8272, rng_b)
        assert len(wrapped.records) == 200
        assert bare.digest == delivered_digest_of_rerun(scenario, seed=5)

    def test_trace_synth_cli_verify(self, tmp_path):
        out = str(tmp_path / "cli.jsonl")
        code = main([
            "trace-synth", "--preset", "noisy", "--model", "bernoulli",
            "--frames", "30", "--seed", "4", "--output", out, "--verify",
        ])
        assert code == 0
        header, records = load_trace(out)
        assert header["records"] == len(records)
        assert "digest" in header


def delivered_digest_of_rerun(scenario, seed: int) -> str:
    """Digest of the same batch run without a recorder in the path."""
    result = synthesize_trace(scenario, "bernoulli", seed=seed, n_frames=40)
    return result.digest


# ---------------------------------------------------------------------------
# Orbit-coupled BER
# ---------------------------------------------------------------------------


class TestOrbitCoupledChannel:
    def test_ber_tracks_distance(self):
        channel = OrbitCoupledChannel(ber=1e-6, mispointing_gain=0.0)
        reference = channel.instantaneous_ber(0.0)
        assert reference == pytest.approx(1e-6)
        series = [channel.instantaneous_ber(t) for t in range(0, 3600, 60)]
        assert max(series) > min(series)  # geometry actually moves the BER

    def test_max_ber_clamp(self):
        channel = OrbitCoupledChannel(ber=1e-3, max_ber=1e-3)
        assert all(
            channel.instantaneous_ber(float(t)) <= 1e-3
            for t in range(0, 7200, 600)
        )

    def test_injected_geometry_wins(self):
        geometry = IsolatedLinkGeometry(
            Satellite("a", altitude_km=800.0),
            Satellite("b", altitude_km=800.0, phase_deg=15.0),
        )
        channel = OrbitCoupledChannel(1e-6, geometry)
        assert channel.geometry is geometry
        assert channel.ref_distance_km == pytest.approx(geometry.distance_km(0.0))

    def test_coincident_fallback_rejected(self):
        with pytest.raises(ValueError, match="coincident"):
            OrbitCoupledChannel(
                raan_separation_deg=0.0, phase_separation_deg=0.0
            )

    def test_topology_injects_link_geometry(self):
        # A link between two satellite nodes hands its own geometry to
        # the orbit-coupled model via the registry context.
        from repro.simulator.engine import Simulator
        from repro.topology.spec import LinkSpec
        from repro.topology.spec import build_link as build_topology_link

        sat_a = Satellite("sat-a", altitude_km=900.0)
        sat_b = Satellite("sat-b", altitude_km=900.0, raan_deg=25.0)
        geometry = IsolatedLinkGeometry(sat_a, sat_b)
        scenario = preset("nominal").with_(iframe_error_model="orbit-coupled")
        spec = LinkSpec(scenario=scenario, a="sat-a", b="sat-b")
        link = build_topology_link(
            spec, Simulator(), geometry=geometry,
        )
        model = link.forward.iframe_errors
        assert isinstance(model, OrbitCoupledChannel)
        assert model.geometry is geometry
        # The reverse direction got its own fresh instance, not a share.
        reverse_model = link.reverse.iframe_errors
        assert isinstance(reverse_model, OrbitCoupledChannel)
        assert reverse_model is not model

    def test_constellation_builder_wires_satellite_geometry(self):
        from repro.topology import Topology, build_constellation
        from repro.topology.spec import LinkSpec

        sat_a = Satellite("sat-a", altitude_km=900.0)
        sat_b = Satellite("sat-b", altitude_km=900.0, raan_deg=25.0)
        scenario = preset("nominal").with_(iframe_error_model="orbit-coupled")
        topology = Topology(
            name="pair",
            nodes=(sat_a, sat_b),
            links=(LinkSpec(scenario=scenario, a="sat-a", b="sat-b"),),
        )
        constellation = build_constellation(topology, master_seed=3)
        (built,) = constellation.links.values()
        model = built.link.forward.iframe_errors
        assert isinstance(model, OrbitCoupledChannel)
        assert model.geometry.a is sat_a
        assert model.geometry.b is sat_b


# ---------------------------------------------------------------------------
# Asymmetric feedback channels
# ---------------------------------------------------------------------------


class TestAsymmetricFeedback:
    def test_reverse_mirrors_forward_by_default(self):
        models = resolve_link_error_models(
            iframe="bernoulli", iframe_ber=1e-5, cframe_ber=1e-7,
        )
        iframe, cframe, reverse_iframe, reverse_cframe = models
        assert isinstance(iframe, BernoulliChannel)
        assert isinstance(reverse_iframe, BernoulliChannel)
        assert reverse_iframe is not iframe  # fresh instance per direction
        assert reverse_iframe.ber == iframe.ber
        assert reverse_cframe.ber == cframe.ber

    def test_reverse_ber_override(self):
        models = resolve_link_error_models(
            cframe_ber=1e-8, reverse_cframe_ber=1e-3,
        )
        assert models[1].ber == 1e-8
        assert models[3].ber == 1e-3

    def test_instance_forward_keeps_legacy_sharing(self):
        shared = BernoulliChannel(1e-5)
        models = resolve_link_error_models(iframe=shared)
        assert models[0] is shared
        assert models[2] is None  # FullDuplexLink falls back to sharing

    def test_scenario_reverse_fields_reach_the_link(self):
        from repro.simulator.engine import Simulator

        scenario = preset("nominal").with_(
            reverse_cframe_ber=0.25, reverse_iframe_ber=0.125,
        )
        link = scenario.build_link(Simulator(), seed=1)
        assert link.forward.cframe_errors.ber == scenario.cframe_ber
        assert link.reverse.cframe_errors.ber == 0.25
        assert link.reverse.iframe_errors.ber == 0.125

    def test_impairments_directions(self):
        from repro.transport.impair import Impairments

        scenario = preset("nominal").with_(
            reverse_cframe_ber=1e-3, reverse_cframe_error_model="bernoulli",
        )
        forward = Impairments.from_scenario(scenario)
        reverse = Impairments.from_scenario(scenario, direction="reverse")
        assert forward.cframe_ber == scenario.cframe_ber
        assert forward.cframe_errors == scenario.cframe_error_model
        assert reverse.cframe_ber == 1e-3
        assert reverse.cframe_errors == "bernoulli"
        # Unset reverse fields fall back to the forward values.
        assert reverse.iframe_ber == scenario.iframe_ber
        with pytest.raises(ValueError, match="direction"):
            Impairments.from_scenario(scenario, direction="sideways")

    # scenario_error_specs' precedence as a table over preset("noisy")
    # (I-frame BER 1e-5, control BER 1e-7): what the scenario pins on the
    # feedback direction x which explicit overrides are passed -> the
    # (class, BER) the forward and the reverse direction must carry for
    # (I-frames, control frames).  A model without a `ber` reads None.
    _B, _GE, _P = BernoulliChannel, GilbertElliottChannel, PerfectChannel
    _DEFAULT = ((_B, 1e-5), (_B, 1e-7))
    _RECIPE = ((_GE, None), (_P, None))
    _LIVE = ((_B, 0.5), (_B, 0.25))
    _PERFECT = ((_P, None), (_P, None))
    _NO_PIN = {}
    _MODEL_PIN = {"reverse_iframe_error_model": "perfect",
                  "reverse_cframe_error_model": "perfect"}
    _BER_PIN = {"reverse_iframe_ber": 1e-3, "reverse_cframe_ber": 1e-4}
    _OVERRIDES = {
        "none": dict,
        "recipe": lambda: {"error_model": ("gilbert-elliott", GE_PARAMS),
                           "cframe_errors": "perfect"},
        "live": lambda: {"iframe_errors": BernoulliChannel(0.5),
                         "cframe_errors": BernoulliChannel(0.25)},
    }

    @pytest.mark.parametrize("pinned,override,forward,reverse", [
        (_NO_PIN, "none", _DEFAULT, _DEFAULT),
        (_NO_PIN, "recipe", _RECIPE, _RECIPE),
        (_NO_PIN, "live", _LIVE, _LIVE),
        # The scenario's reverse model beats a forward override.
        (_MODEL_PIN, "none", _DEFAULT, _PERFECT),
        (_MODEL_PIN, "recipe", _RECIPE, _PERFECT),
        (_MODEL_PIN, "live", _LIVE, _PERFECT),
        # A reverse BER reaches whatever model reads the link's BER.
        (_BER_PIN, "none", _DEFAULT, ((_B, 1e-3), (_B, 1e-4))),
        (_BER_PIN, "recipe", _RECIPE, _RECIPE),
        (_BER_PIN, "live", _LIVE, _LIVE),
    ])
    def test_des_and_udp_links_carry_the_table(self, pinned, override,
                                               forward, reverse):
        """One precedence behind both construction paths: each cell gives
        the DES link (``build_simulation``) and the UDP link
        (``open_loopback``) the same model class and BER per direction."""
        import asyncio

        from repro.transport.session import open_loopback
        from repro.workloads.scenarios import build_simulation

        scenario = preset("noisy").with_(**pinned)
        make_overrides = self._OVERRIDES[override]

        def carried(link):
            return tuple(
                tuple((type(model), getattr(model, "ber", None))
                      for model in (channel.iframe_errors, channel.cframe_errors))
                for channel in (link.forward, link.reverse)
            ) + (link.reverse.iframe_errors is link.forward.iframe_errors,)

        async def udp_carried():
            setup = await open_loopback(scenario, "lams", 1,
                                        run_with_invariants=False,
                                        **make_overrides())
            try:
                return carried(setup.link)
            finally:
                await setup.close()

        des = build_simulation(scenario, "lams", seed=1, **make_overrides()).link
        # A live instance left unpinned is shared by both directions; a
        # recipe builds one fresh instance each.
        shared = override == "live" and pinned is not self._MODEL_PIN
        assert carried(des) == asyncio.run(udp_carried()) == (forward, reverse, shared)

    def test_e25_rows_cover_the_sweep(self):
        from repro.experiments.registry import e25_feedback_asymmetry

        result = e25_feedback_asymmetry(
            duration=0.05, feedback_bers=(0.0, 5e-3), depths=(2,),
        )
        assert [row["feedback_ber"] for row in result.rows] == [0.0, 5e-3]
        clean, lossy = result.rows
        assert clean["p_nak_streak_lost"] == 0.0
        assert 0.0 < lossy["p_nak_streak_lost"] < 1.0
        assert clean["efficiency"] > 0.0


# ---------------------------------------------------------------------------
# Chaos episodes draw the new models
# ---------------------------------------------------------------------------


class TestChaosEpisodeModels:
    def test_both_new_models_are_drawable(self):
        from repro.chaos.episodes import generate_episode

        kinds = set()
        for index in range(64):
            spec = generate_episode(20260806, index)
            model = spec.iframe_errors
            kinds.add(model[0] if isinstance(model, tuple) else model)
        assert "trace-replay" in kinds
        assert "orbit-coupled" in kinds

    def test_episode_specs_resolve_to_live_models(self):
        from repro.chaos.episodes import generate_episode

        for index in range(16):
            spec = generate_episode(20260806, index)
            if spec.iframe_errors is None:
                continue
            model = resolve_error_model(
                spec.iframe_errors, ber=1e-6, bit_rate=3e8,
            )
            assert hasattr(model, "frame_error")


# ---------------------------------------------------------------------------
# Registry regression suite (the satellite bugfixes)
# ---------------------------------------------------------------------------


class TestBernoulliBufferedDraws:
    def test_two_generators_match_scalar_reference(self):
        # One instance alternating two RNG streams must produce, per
        # stream, the same decisions as dedicated instances: the draw
        # buffer is kept per generator, not per instance.
        shared = BernoulliChannel(0.3)
        rng_a, rng_b = _rng(10), _rng(20)
        solo_a, solo_b = BernoulliChannel(0.3), BernoulliChannel(0.3)
        ref_a, ref_b = _rng(10), _rng(20)
        for i in range(1300):  # crosses the 512-draw buffer boundary
            assert shared.frame_error(i * 1e-3, 100, rng_a) == \
                solo_a.frame_error(i * 1e-3, 100, ref_a)
            assert shared.frame_error(i * 1e-3, 100, rng_b) == \
                solo_b.frame_error(i * 1e-3, 100, ref_b)

    def test_matches_unbuffered_scalar_draws(self):
        channel = BernoulliChannel(0.25)
        rng = _rng(7)
        reference = _rng(7)
        for i in range(600):
            expected = reference.random() < 0.25
            assert channel.frame_error(i * 1e-3, 1, rng) == expected


class TestGilbertElliottTimeGuard:
    def test_backwards_time_raises(self):
        channel = GilbertElliottChannel(bit_rate=3e8, **GE_PARAMS)
        channel.frame_error(1.0, 1000, _rng())
        with pytest.raises(ValueError, match="time went backwards"):
            channel.frame_error(0.5, 1000, _rng())

    def test_equal_time_is_fine(self):
        channel = GilbertElliottChannel(bit_rate=3e8, **GE_PARAMS)
        rng = _rng(1)
        channel.frame_error(1.0, 1000, rng)
        channel.frame_error(1.0, 1000, rng)  # piggyback at the same instant

    def test_trace_synth_refuses_a_nan_sojourn(self, tmp_path, capsys):
        """``--params`` is JSON, which spells NaN; a NaN ``mean_good`` used
        to record a trace of a perfect channel and exit 0."""
        out = tmp_path / "nan.jsonl"
        code = main([
            "trace-synth", "--preset", "noisy", "--model", "gilbert-elliott",
            "--params", '{"good_ber": 1e-7, "bad_ber": 1e-3, "mean_good": NaN,'
                        ' "mean_bad": 0.004}',
            "--frames", "30", "--seed", "3", "--output", str(out),
        ])
        assert code == 1
        assert "mean_good must be positive and finite" in capsys.readouterr().err
        assert not out.exists()


class TestRegistryEdgeCases:
    def test_duplicate_registration_replaces(self):
        try:
            register_error_model("channels-test-dup", lambda: PerfectChannel())
            replacement = lambda: BernoulliChannel(0.5)  # noqa: E731
            register_error_model("channels-test-dup", replacement)
            assert error_model_factory("channels-test-dup") is replacement
        finally:
            from repro.simulator.errormodel import _ERROR_MODELS

            _ERROR_MODELS.pop("channels-test-dup", None)

    def test_case_insensitive_lookup(self):
        assert error_model_factory("BERNOULLI") is BernoulliChannel
        model = make_error_model("Bernoulli", ber=1e-4)
        assert isinstance(model, BernoulliChannel)

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(ValueError, match="bernoulli"):
            error_model_factory("no-such-model")

    def test_mapping_without_model_key(self):
        with pytest.raises(ValueError, match="'model' key"):
            resolve_error_model({"ber": 1e-4})

    def test_instance_passes_through(self):
        instance = PerfectChannel()
        assert resolve_error_model(instance) is instance
        with pytest.raises(TypeError, match="not an error-model spec"):
            resolve_error_model(object())

    def test_none_context_defaulting(self):
        model = make_error_model("bernoulli", None, ber=1e-4)
        assert model.ber == 1e-4
        # None-valued context entries are never injected.
        model = make_error_model("bernoulli", {"ber": None, "bit_rate": None},
                                 ber=1e-5)
        assert model.ber == 1e-5

    def test_new_models_are_registered(self):
        names = available_error_models()
        assert "trace-replay" in names
        assert "orbit-coupled" in names


class TestFactorySignatureCache:
    def test_var_keyword_factory_receives_context(self):
        received = {}

        def factory(**kwargs):
            received.update(kwargs)
            return PerfectChannel()

        try:
            register_error_model("channels-test-kwargs", factory)
            make_error_model(
                "channels-test-kwargs",
                {"ber": 1e-6, "bit_rate": 3e8, "geometry": None},
            )
            assert received == {"ber": 1e-6, "bit_rate": 3e8}
        finally:
            from repro.simulator.errormodel import _ERROR_MODELS

            _ERROR_MODELS.pop("channels-test-kwargs", None)

    def test_signature_inspected_once_per_factory(self):
        from repro.simulator.errormodel import _FACTORY_ACCEPTS, _factory_accepts

        first = _factory_accepts(BernoulliChannel)
        second = _factory_accepts(BernoulliChannel)
        assert first is second
        assert BernoulliChannel in _FACTORY_ACCEPTS

    def test_explicit_kwargs_beat_context(self):
        model = make_error_model("bernoulli", {"ber": 1e-3}, ber=1e-6)
        assert model.ber == 1e-6


class TestTupleSpecValidation:
    def test_mapping_second_element(self):
        model = resolve_error_model(("bernoulli", {"ber": 1e-4}))
        assert model.ber == 1e-4

    def test_pair_tuple_second_element(self):
        # The chaos plane's frozen episode specs store params as nested
        # key/value pair tuples; dict() digests them.
        model = resolve_error_model(("bernoulli", (("ber", 1e-4),)))
        assert model.ber == 1e-4

    def test_scalar_second_element_rejected_helpfully(self):
        with pytest.raises(ValueError, match="mapping"):
            resolve_error_model(("bernoulli", 0.5))

    def test_malformed_pairs_rejected_helpfully(self):
        with pytest.raises(ValueError, match="mapping"):
            resolve_error_model(("bernoulli", [1, 2, 3]))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError, match="\\(name, kwargs\\)"):
            resolve_error_model(("bernoulli",))
