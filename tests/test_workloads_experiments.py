"""Tests for workload generators, scenarios, and the experiment harness."""

from __future__ import annotations

import math

import pytest

from repro.experiments import (
    REGISTRY,
    experiment_ids,
    render_table,
    run_experiment,
)
from repro.experiments.reporting import format_value
from repro.experiments.runner import (
    measure_batch_transfer,
    measure_constant_rate,
    measure_failure_recovery,
    measure_saturated,
)
from repro.simulator.engine import Simulator
from repro.workloads import (
    LinkScenario,
    PRESETS,
    build_simulation,
    preset,
)
from repro.workloads.generators import (
    ConstantRateSource,
    FiniteBatch,
    SaturatedSource,
)


class Collector:
    """Accept-all packet target recording offers."""

    def __init__(self, refuse_after: int | None = None):
        self.packets = []
        self.refuse_after = refuse_after

    def accept(self, packet):
        if self.refuse_after is not None and len(self.packets) >= self.refuse_after:
            return False
        self.packets.append(packet)
        return True


class TestGenerators:
    def test_finite_batch_offers_all(self):
        sim = Simulator()
        target = Collector()
        batch = FiniteBatch(sim, target, count=10)
        batch.start()
        assert batch.offered == 10 and len(target.packets) == 10

    def test_finite_batch_counts_refusals(self):
        sim = Simulator()
        target = Collector(refuse_after=4)
        batch = FiniteBatch(sim, target, count=10)
        batch.start()
        assert batch.offered == 4 and batch.refused == 6

    def test_constant_rate_timing(self):
        sim = Simulator()
        target = Collector()
        source = ConstantRateSource(sim, target, rate=100.0, limit=5)
        source.start()
        sim.run(until=1.0)
        assert len(target.packets) == 5
        # Packets tagged with creation times 0, 0.01, 0.02, ...
        times = [p[2] for p in target.packets]
        assert times == pytest.approx([0.0, 0.01, 0.02, 0.03, 0.04])

    def test_constant_rate_stop(self):
        sim = Simulator()
        target = Collector()
        source = ConstantRateSource(sim, target, rate=100.0)
        source.start()
        sim.schedule(0.05, source.stop)
        sim.run(until=1.0)
        assert len(target.packets) <= 7

    def test_saturated_source_keeps_backlog(self):
        sim = Simulator()
        target = Collector()
        drained = []

        def backlog():
            # Pretend consumption: 10 per poll.
            take = min(10, len(target.packets) - len(drained))
            drained.extend(target.packets[len(drained):len(drained) + take])
            return len(target.packets) - len(drained)

        source = SaturatedSource(
            sim, target, backlog_fn=backlog, low_water=5, chunk=20, poll_interval=0.01
        )
        source.start()
        sim.run(until=0.5)
        source.stop()
        assert source.offered > 100  # kept refilling

    def test_saturated_source_limit(self):
        sim = Simulator()
        target = Collector()
        source = SaturatedSource(
            sim, target, backlog_fn=lambda: 0, low_water=5, chunk=10,
            poll_interval=0.01, limit=25,
        )
        source.start()
        sim.run(until=1.0)
        assert source.offered == 25

    @staticmethod
    def _restart(source):
        source.stop()
        source.start()

    def test_constant_rate_restart_inside_an_interval_is_one_chain(self):
        """stop(); start() while an emission is pending: the pending one
        is void.  Two chains ran before — 2012 packets here, not 1012."""
        sim = Simulator()
        target = Collector()
        source = ConstantRateSource(sim, target, rate=1000.0)
        source.start()
        sim.schedule(0.0105, self._restart, source)
        sim.run(until=1.0108)
        # 11 emissions at 0 … 10 ms, then 1001 at 10.5 … 1010.5 ms.
        assert len(target.packets) == 1012
        times = [packet[2] for packet in target.packets]
        assert times == sorted(times) and len(set(times)) == len(times)

    def test_saturated_restart_inside_an_interval_is_one_chain(self):
        sim = Simulator()
        polls = []
        source = SaturatedSource(
            sim, Collector(), backlog_fn=lambda: polls.append(sim.now) or 10**9,
            poll_interval=0.001,
        )
        source.start()
        sim.schedule(0.0105, self._restart, source)
        sim.schedule(0.0107, source.start)  # a second start without a stop
        sim.run(until=1.0109)
        # 11 polls at 0 … 10 ms, the restart's, then 1001 at 10.7 … 1010.7 ms.
        assert len(polls) == 11 + 1 + 1001
        assert len(set(polls)) == len(polls)

    def test_saturated_source_rearms_through_the_instance_attribute(self):
        """``bench/workloads.py`` shadows ``source._tick`` on the instance
        to time the source: every tick armed after that goes through it."""
        sim = Simulator()
        source = SaturatedSource(sim, Collector(), backlog_fn=lambda: 0,
                                 poll_interval=0.01)
        source.start()
        seen = []
        inner = source._tick
        source._tick = lambda *args: seen.append(sim.now) or inner(*args)
        sim.run(until=0.055)
        assert seen == pytest.approx([0.02, 0.03, 0.04, 0.05])

    def test_invalid_parameters(self):
        sim = Simulator()
        target = Collector()
        with pytest.raises(ValueError):
            ConstantRateSource(sim, target, rate=0)
        with pytest.raises(ValueError):
            FiniteBatch(sim, target, count=-1)

    @pytest.mark.parametrize("name,build", [
        # An infinite rate ran away at t=0; a NaN one was accepted; a
        # rate this small has an interval that overflows to inf.
        ("rate", lambda sim, t: ConstantRateSource(sim, t, rate=math.inf)),
        ("rate", lambda sim, t: ConstantRateSource(sim, t, rate=math.nan)),
        ("rate", lambda sim, t: ConstantRateSource(sim, t, rate=5e-324)),
        ("poll_interval", lambda sim, t: SaturatedSource(sim, t, lambda: 0, poll_interval=math.nan)),
        ("poll_interval", lambda sim, t: SaturatedSource(sim, t, lambda: 0, poll_interval=math.inf)),
        # A NaN low water never refills: the source offered nothing.
        ("low_water", lambda sim, t: SaturatedSource(sim, t, lambda: 0, low_water=math.nan)),
        ("low_water", lambda sim, t: SaturatedSource(sim, t, lambda: 0, low_water=math.inf)),
        # Fractional sizes failed only at start().
        ("chunk", lambda sim, t: SaturatedSource(sim, t, lambda: 0, chunk=2.5)),
        ("chunk", lambda sim, t: SaturatedSource(sim, t, lambda: 0, chunk=0)),
        ("count", lambda sim, t: FiniteBatch(sim, t, count=10.0)),
    ])
    def test_a_bad_source_parameter_is_refused_at_construction_by_name(self, name, build):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            build(Simulator(), Collector())

    def test_sources_fall_back_to_accept_for_a_target_without_accept_many(self):
        """A stretch offered to an ``accept``-only target stops at its
        first refusal, and ``make_packet`` runs once per offer."""
        made = []
        target = Collector(refuse_after=3)
        source = SaturatedSource(
            Simulator(), target, backlog_fn=lambda: 0, chunk=8, poll_interval=1.0,
            make_packet=lambda index, now: made.append(index) or index,
        )
        source.start()
        assert (source.offered, source.refused, made) == (3, 1, [0, 1, 2, 3])


class TestScenarios:
    def test_presets_exist(self):
        for name in ("short_hop", "nominal", "long_haul", "noisy"):
            assert preset(name).name == name

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            preset("marsnet")

    def test_derived_quantities(self):
        scenario = LinkScenario(bit_rate=300e6, distance_km=5000)
        assert scenario.round_trip_time == pytest.approx(2 * 5000 / 299792.458)
        assert scenario.iframe_time == pytest.approx(scenario.iframe_bits / 300e6)
        assert scenario.timeout == pytest.approx(scenario.round_trip_time + scenario.alpha)

    def test_model_parameters_consistent(self):
        scenario = preset("nominal")
        params = scenario.model_parameters()
        assert params.round_trip_time == pytest.approx(scenario.round_trip_time)
        assert params.window_size == scenario.window_size

    def test_config_factories(self):
        scenario = preset("nominal")
        lams = scenario.lams_config()
        hdlc = scenario.hdlc_config()
        assert lams.checkpoint_interval == scenario.checkpoint_interval
        assert hdlc.timeout == pytest.approx(scenario.timeout)
        overridden = scenario.lams_config(cumulation_depth=7)
        assert overridden.cumulation_depth == 7

    def test_build_simulations_run(self):
        for protocol in ("lams", "hdlc"):
            setup = build_simulation(preset("short_hop"), protocol, seed=2)
            FiniteBatch(setup.sim, setup.endpoint_a, count=50).start()
            setup.run(until=3.0)
            assert len(setup.delivered) == 50

    def test_with_replaces(self):
        scenario = preset("nominal").with_(distance_km=2000.0)
        assert scenario.distance_km == 2000.0

    @pytest.mark.parametrize("field", ["bit_rate", "distance_km", "checkpoint_interval"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_link_parameters_must_be_positive_and_finite(self, field, value):
        """NaN used to pass ``<= 0`` and run a simulation to ``duration nan``."""
        with pytest.raises(ValueError, match=field):
            preset("nominal").with_(**{field: value})


class TestRunner:
    def test_batch_transfer_completes(self):
        result = measure_batch_transfer(preset("short_hop"), "lams", 200, seed=1)
        assert result["completed"]
        assert result["delivered"] == 200
        assert 0 < result["efficiency"] <= 1.0

    def test_batch_transfer_hdlc(self):
        result = measure_batch_transfer(preset("short_hop"), "hdlc", 200, seed=1)
        assert result["completed"]
        assert result["delivered"] == 200

    def test_saturated_reports_metrics(self):
        result = measure_saturated(preset("short_hop"), "lams", duration=0.5, seed=1)
        assert result["delivered"] > 0
        assert 0 < result["efficiency"] <= 1.0
        assert result["sendbuf_max"] >= result["sendbuf_avg"]

    def test_constant_rate_growth_detection(self):
        lams = measure_constant_rate(preset("short_hop"), "lams", duration=1.0, load=0.5, seed=1)
        hdlc = measure_constant_rate(preset("short_hop"), "hdlc", duration=1.0, load=0.5, seed=1)
        assert lams["growth"] < hdlc["growth"]

    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            measure_batch_transfer(preset("short_hop"), "tcp", 10)

    def test_failure_recovery_zero_loss(self):
        result = measure_failure_recovery(
            preset("short_hop"), outage_start=0.02, outage_duration=0.01,
            total_time=5.0, n_frames=500, seed=2,
        )
        assert result["lost"] == 0


class TestRegistry:
    def test_all_ids_registered(self):
        for eid in (
            "E1", "E2", "E3", "E4", "E4-sim", "E5", "E6", "E6-ber",
            "E7", "E8", "E9", "E10", "E11", "E26",
        ):
            assert eid in REGISTRY
        assert set(experiment_ids()) == set(REGISTRY)

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("E99")

    @pytest.mark.parametrize("eid", ["E1", "E2", "E3", "E4", "E5", "E6", "E6-ber", "E7", "E9", "E11"])
    def test_model_experiments_produce_rows(self, eid):
        result = run_experiment(eid)
        assert result.rows, eid
        assert result.experiment_id == eid
        assert result.title

    def test_column_accessor(self):
        result = run_experiment("E1")
        assert len(result.column("ber")) == len(result.rows)


class TestReporting:
    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(3) == "3"
        assert format_value(float("inf")) == "inf"
        assert format_value(float("nan")) == "nan"
        assert format_value(0.0) == "0"
        assert format_value("text") == "text"

    def test_render_table_alignment(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.25}]
        text = render_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_render_table_empty(self):
        assert "(empty)" in render_table([], title="T")
