"""Tests for the fault-injection subsystem (plan, injector, metrics).

Covers: fault-plan validation and JSON round-trips, the injector's
channel manipulation (outages, nesting, model swap/restore, control
corruption), recovery metrics against the paper's Section 3.2 latency
bounds, and bit-identical determinism — repeated runs and parallel
sweep execution must agree exactly.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments.registry import e21_fault_matrix, run_experiment
from repro.experiments.runner import measure_fault_plan
from repro.faults import (
    TRANSPORT_FAULT_KINDS,
    BerStorm,
    ControlCorruption,
    EndpointStall,
    FaultInjector,
    FaultPlan,
    FeedbackBlackout,
    HandshakeBlackhole,
    LinkOutage,
    PeerRestart,
    RecoveryMetrics,
    SendErrorBurst,
    declared_failure_bound,
    detection_bound,
    fault_from_dict,
)
from repro.simulator.engine import Simulator
from repro.simulator.errormodel import BernoulliChannel, PerfectChannel
from repro.simulator.link import FullDuplexLink
from repro.simulator.rng import StreamRegistry
from repro.simulator.trace import Tracer
from repro.workloads.scenarios import build_simulation, preset


def make_link(sim, seed=0, tracer=None):
    return FullDuplexLink(
        sim, bit_rate=1e6, propagation_delay=0.010,
        streams=StreamRegistry(seed=seed), tracer=tracer,
    )


FULL_PLAN = FaultPlan(
    faults=(
        LinkOutage(start=0.1, duration=0.05),
        FeedbackBlackout(start=0.3, duration=0.02),
        BerStorm(start=0.5, duration=0.1, model="bernoulli",
                 params={"ber": 1e-3}, direction="forward"),
        ControlCorruption(start=0.7, duration=0.05, probability=0.5),
    ),
    name="everything",
)


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError, match="negative"):
            LinkOutage(start=-1.0, duration=1.0)
        with pytest.raises(ValueError, match="positive"):
            LinkOutage(start=0.0, duration=0.0)
        with pytest.raises(ValueError, match="direction"):
            LinkOutage(start=0.0, duration=1.0, direction="sideways")
        with pytest.raises(ValueError, match="target"):
            BerStorm(start=0.0, duration=1.0, targets=("header",))
        with pytest.raises(ValueError, match="at least one"):
            BerStorm(start=0.0, duration=1.0, targets=())
        with pytest.raises(ValueError, match="probability"):
            ControlCorruption(start=0.0, duration=1.0, probability=1.5)
        with pytest.raises(TypeError, match="not a fault"):
            FaultPlan(faults=("oops",))

    def test_derived_properties(self):
        outage = LinkOutage(start=0.2, duration=0.3)
        assert outage.end == pytest.approx(0.5)
        assert FeedbackBlackout(start=0.0, duration=1.0).direction == "reverse"
        assert FULL_PLAN.horizon == pytest.approx(0.75)
        assert len(FULL_PLAN) == 4
        assert FaultPlan().horizon == 0.0

    def test_json_round_trip_all_kinds(self):
        text = FULL_PLAN.to_json(indent=2)
        rebuilt = FaultPlan.from_json(text)
        assert rebuilt == FULL_PLAN
        assert rebuilt.name == "everything"

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            fault_from_dict({"kind": "meteor", "start": 0.0, "duration": 1.0})
        with pytest.raises(ValueError, match="unknown field"):
            fault_from_dict({"kind": "outage", "start": 0.0, "duration": 1.0,
                             "severity": 9})

    def test_single_outage_helper(self):
        plan = FaultPlan.single_outage(start=1.0, duration=2.0)
        assert len(plan) == 1
        assert plan.faults[0].kind == "outage"
        assert plan.faults[0].end == pytest.approx(3.0)

    def test_storm_params_mapping_canonicalised(self):
        a = BerStorm(start=0.0, duration=1.0, params={"ber": 1e-4})
        b = BerStorm(start=0.0, duration=1.0, params=(("ber", 1e-4),))
        assert a == b
        assert a.model_kwargs == {"ber": 1e-4}


TRANSPORT_PLAN = FaultPlan(
    faults=(
        SendErrorBurst(start=0.05, duration=0.1, probability=0.5,
                       direction="reverse"),
        EndpointStall(start=0.2, duration=0.3, endpoint="a"),
        PeerRestart(start=0.6, duration=0.2),
        HandshakeBlackhole(start=0.0, duration=0.4),
    ),
    name="transport",
)


class TestTransportFaultKinds:
    def test_validation(self):
        with pytest.raises(ValueError, match="probability"):
            SendErrorBurst(start=0.0, duration=1.0, probability=0.0)
        with pytest.raises(ValueError, match="direction"):
            SendErrorBurst(start=0.0, duration=1.0, direction="sideways")
        with pytest.raises(ValueError, match="endpoint"):
            EndpointStall(start=0.0, duration=1.0, endpoint="c")
        with pytest.raises(ValueError, match="endpoint"):
            PeerRestart(start=0.0, duration=1.0, endpoint="ab")
        with pytest.raises(ValueError, match="positive"):
            HandshakeBlackhole(start=0.0, duration=0.0)

    def test_direction_derived_from_endpoint(self):
        assert EndpointStall(start=0.0, duration=1.0, endpoint="b").direction == "reverse"
        assert EndpointStall(start=0.0, duration=1.0, endpoint="a").direction == "forward"
        assert PeerRestart(start=0.0, duration=1.0).direction == "reverse"
        assert HandshakeBlackhole(start=0.0, duration=1.0).direction == "both"

    def test_json_round_trip_all_transport_kinds(self):
        rebuilt = FaultPlan.from_json(TRANSPORT_PLAN.to_json())
        assert rebuilt == TRANSPORT_PLAN
        assert {f.kind for f in rebuilt} == TRANSPORT_FAULT_KINDS
        assert not {f.kind for f in FULL_PLAN} & TRANSPORT_FAULT_KINDS

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(ValueError, match="unknown field"):
            fault_from_dict({"kind": "peer-restart", "start": 0.0,
                             "duration": 1.0, "pid": 42})
        with pytest.raises(ValueError, match="unknown field"):
            fault_from_dict({"kind": "handshake-blackhole", "start": 0.0,
                             "duration": 1.0, "endpoint": "b"})
        with pytest.raises(TypeError):
            fault_from_dict({"kind": "endpoint-stall", "endpoint": "a"})

    def test_des_injector_rejects_transport_kinds(self):
        sim = Simulator()
        link = make_link(sim)
        for fault in TRANSPORT_PLAN:
            with pytest.raises(ValueError, match="transport-native"):
                FaultInjector(sim, link, FaultPlan(faults=(fault,)))


class TestFaultInjector:
    def probe(self, sim, link, plan, times):
        """Channel up/down state sampled at the given times."""
        injector = FaultInjector(sim, link, plan)
        states = {}
        for t in times:
            sim.schedule_at(
                t, lambda t=t: states.update(
                    {t: (link.forward.is_up, link.reverse.is_up)}
                )
            )
        sim.run()
        return injector, states

    def test_outage_cuts_and_restores_both(self):
        sim = Simulator()
        link = make_link(sim)
        plan = FaultPlan.single_outage(start=1.0, duration=1.0)
        injector, states = self.probe(sim, link, plan, [0.5, 1.5, 2.5])
        assert states[0.5] == (True, True)
        assert states[1.5] == (False, False)
        assert states[2.5] == (True, True)
        assert injector.faults_started == injector.faults_ended == 1

    def test_directional_outage(self):
        sim = Simulator()
        link = make_link(sim)
        plan = FaultPlan(faults=(
            LinkOutage(start=1.0, duration=1.0, direction="forward"),
        ))
        _, states = self.probe(sim, link, plan, [1.5])
        assert states[1.5] == (False, True)

    def test_feedback_blackout_cuts_reverse_only(self):
        sim = Simulator()
        link = make_link(sim)
        plan = FaultPlan(faults=(FeedbackBlackout(start=1.0, duration=1.0),))
        _, states = self.probe(sim, link, plan, [1.5])
        assert states[1.5] == (True, False)

    def test_overlapping_outages_nest(self):
        sim = Simulator()
        link = make_link(sim)
        plan = FaultPlan(faults=(
            LinkOutage(start=1.0, duration=2.0),
            LinkOutage(start=1.5, duration=0.2),
        ))
        _, states = self.probe(sim, link, plan, [1.8, 2.5, 3.5])
        assert states[1.8] == (False, False)  # inner fault ended, outer holds
        assert states[2.5] == (False, False)
        assert states[3.5] == (True, True)

    def test_does_not_restore_channel_it_never_downed(self):
        """A channel someone else (the session manager) put down stays down."""
        sim = Simulator()
        link = make_link(sim)
        link.down()
        plan = FaultPlan.single_outage(start=1.0, duration=1.0)
        _, states = self.probe(sim, link, plan, [2.5])
        assert states[2.5] == (False, False)

    def test_ber_storm_swaps_and_restores_models(self):
        sim = Simulator()
        link = make_link(sim)
        original = link.forward.iframe_errors
        plan = FaultPlan(faults=(
            BerStorm(start=1.0, duration=1.0, model="bernoulli",
                     params={"ber": 0.5}, direction="forward"),
        ))
        FaultInjector(sim, link, plan)
        seen = {}
        sim.schedule_at(1.5, lambda: seen.update(mid=link.forward.iframe_errors))
        sim.run()
        assert isinstance(seen["mid"], BernoulliChannel)
        assert seen["mid"].ber == pytest.approx(0.5)
        assert link.forward.iframe_errors is original
        assert link.reverse.iframe_errors is not seen["mid"]

    def test_control_corruption_targets_cframes_only(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Frame:
            size_bits: int = 1000
            is_control: bool = False

        sim = Simulator()
        link = make_link(sim)
        arrived = []
        link.attach(lambda f, c: arrived.append(("rev", f.is_control, c)),
                    lambda f, c: arrived.append(("fwd", f.is_control, c)))
        plan = FaultPlan(faults=(
            ControlCorruption(start=0.0001, duration=2.0, probability=1.0,
                              direction="reverse"),
        ))
        FaultInjector(sim, link, plan)
        sim.schedule_at(0.001, lambda: link.reverse.send(Frame(is_control=True)))
        sim.schedule_at(0.001, lambda: link.reverse.send(Frame(is_control=False)))
        sim.run(until=5.0)
        assert ("rev", True, True) in arrived    # control frame corrupted
        assert ("rev", False, False) in arrived  # data frame untouched
        assert isinstance(link.reverse.cframe_errors, PerfectChannel)  # restored

    @pytest.mark.parametrize("storm_first", [False, True])
    def test_storm_and_corruption_compose_in_either_order(self, storm_first):
        """A storm replaces the model, corruption wraps it — whichever
        started first (soak seed 7 episode 144: a storm starting inside
        a p=1 corruption window used to throw the wrapper away)."""
        from repro.faults.injector import ControlCorruptingModel

        sim = Simulator()
        link = make_link(sim)
        original = link.reverse.cframe_errors
        storm_start, corruption_start = (1.0, 1.2) if storm_first else (1.2, 1.0)
        plan = FaultPlan(faults=(
            ControlCorruption(start=corruption_start, duration=1.0, probability=1.0,
                              direction="reverse"),
            BerStorm(start=storm_start, duration=1.0, model="bernoulli",
                     params={"ber": 1e-4}, direction="reverse", targets=("cframe",)),
        ))
        FaultInjector(sim, link, plan)
        seen = {}
        for t in (1.1, 1.5, 2.1):
            sim.schedule_at(t, lambda t=t: seen.update({t: link.reverse.cframe_errors}))
        sim.run()
        both = seen[1.5]
        assert isinstance(both, ControlCorruptingModel) and both.probability == 1.0
        assert isinstance(both.base, BernoulliChannel)
        assert both.base.ber == pytest.approx(1e-4)
        # Before and after the overlap each fault stands alone.
        first, last = seen[1.1], seen[2.1]
        if storm_first:
            assert isinstance(first, BernoulliChannel)
            assert isinstance(last, ControlCorruptingModel) and last.base is original
        else:
            assert isinstance(first, ControlCorruptingModel) and first.base is original
            assert isinstance(last, BernoulliChannel)
        assert link.reverse.cframe_errors is original

    def test_emits_fault_events(self):
        sim = Simulator()
        tracer = Tracer(record_timeline=True)
        link = make_link(sim, tracer=tracer)
        FaultInjector(sim, link, FaultPlan.single_outage(start=1.0, duration=1.0))
        sim.run()
        events = [(r.event, r.detail["kind"]) for r in tracer.timeline("faults")]
        assert events == [("fault_start", "outage"), ("fault_end", "outage")]


class TestRecoveryMetrics:
    def run_outage(self, duration, c_depth=2, seed=7, total_time=2.0):
        scenario = preset("nominal").with_(cumulation_depth=c_depth)
        plan = FaultPlan.single_outage(start=0.05, duration=duration)
        setup = build_simulation(scenario, "lams", seed=seed, fault_plan=plan)
        from repro.workloads.generators import FiniteBatch
        FiniteBatch(setup.sim, setup.endpoint_a, 800).start()
        setup.sim.run(until=total_time)
        return scenario, setup

    def test_setup_carries_fault_objects(self):
        _, setup = self.run_outage(0.01)
        assert setup.fault_injector is not None
        assert isinstance(setup.recovery, RecoveryMetrics)
        assert setup.fault_injector.faults_started == 1

    def test_detection_latency_within_paper_bound(self):
        """Measured probe latency obeys the C_depth * W_cp bound."""
        scenario, setup = self.run_outage(0.2)
        config = scenario.lams_config()
        [outage] = setup.recovery.outages
        assert outage.time_to_checkpoint_timeout is not None
        assert outage.time_to_first_request_nak is not None
        assert outage.time_to_first_request_nak <= detection_bound(config) + 1e-9
        assert detection_bound(config) == pytest.approx(
            config.cumulation_depth * config.checkpoint_interval
        )

    def test_declared_failure_within_response_time_bound(self):
        """Failure declaration lands within C_depth*W_cp + the failure budget."""
        scenario, setup = self.run_outage(0.2)
        config = scenario.lams_config()
        [outage] = setup.recovery.outages
        bound = declared_failure_bound(config, scenario.round_trip_time)
        assert outage.time_to_declared_failure is not None
        assert outage.time_to_declared_failure <= bound + 1e-9
        assert setup.recovery.failures_declared == 1

    def test_short_outage_recovers_instead(self):
        _, setup = self.run_outage(0.03, total_time=3.0)
        [outage] = setup.recovery.outages
        assert outage.time_to_declared_failure is None
        assert outage.time_to_enforced_nak is not None
        assert outage.recovered
        assert outage.post_recovery_delivery_delay is not None
        assert outage.post_recovery_delivery_delay >= 0.0

    def test_post_recovery_delay_is_the_earliest_arrival_in_any_record(self):
        """Link Y's run is recorded before link X's, whose first frame
        landed earlier: the delay is X's, not the first one heard."""
        tracer = Tracer()
        metrics = RecoveryMetrics(tracer)
        tracer.emit(1.0, "faults", "fault_start", kind="outage", index=0)
        tracer.emit(2.0, "faults", "fault_end", kind="outage", index=0)
        tracer.emit(2.5, "Y.fwd", "frames_delivered", times=[2.5], control=False, corrupted=[])
        tracer.emit(2.1, "X.fwd", "frames_delivered", times=[2.1, 2.9], control=False,
                    corrupted=[])
        [outage] = metrics.outages
        assert outage.post_recovery_delivery_delay == pytest.approx(0.1)

    def test_frames_lost_counted_per_outage(self):
        _, setup = self.run_outage(0.03, total_time=3.0)
        [outage] = setup.recovery.outages
        assert outage.frames_lost > 0
        assert setup.recovery.frames_lost_total == outage.frames_lost

    def test_summary_shape(self):
        _, setup = self.run_outage(0.03, total_time=3.0)
        summary = setup.recovery.summary()
        assert summary["outages"] == 1
        assert summary["recoveries"] == 1
        assert summary["failures_declared"] == 0
        assert not math.isnan(summary["mean_detection_latency"])


class TestMeasureFaultPlan:
    def test_zero_loss_accounting(self):
        scenario = preset("nominal")
        plan = FaultPlan.single_outage(start=0.05, duration=0.05)
        result = measure_fault_plan(scenario, plan, total_time=3.0,
                                    n_frames=600, seed=3)
        assert result["lost"] == 0
        assert result["faults"] == 1
        assert result["outages"] == 1

    @pytest.mark.parametrize("protocol, family", [
        ("hdlc", "hdlc"), ("gbn", "hdlc"), ("nbdt-multiphase", "nbdt"),
    ])
    def test_refuses_a_family_without_a_failure_declaration(self, protocol, family):
        plan = FaultPlan.single_outage(start=0.05, duration=0.05)
        with pytest.raises(ValueError, match=f"{protocol!r} \\({family} family\\)"):
            measure_fault_plan(preset("nominal"), plan, total_time=1.0,
                               protocol=protocol)

    def test_repeated_runs_bit_identical(self):
        scenario = preset("nominal").with_(cumulation_depth=2)
        plan = FaultPlan.single_outage(start=0.05, duration=0.05)
        runs = [
            measure_fault_plan(scenario, plan, total_time=2.0,
                               n_frames=600, seed=11)
            for _ in range(2)
        ]
        assert repr(sorted(runs[0].items())) == repr(sorted(runs[1].items()))


class TestE21:
    def test_matrix_shape_and_bounds(self):
        result = run_experiment("E21")
        assert len(result.rows) == 6
        for row in result.rows:
            assert row["detection_within_bound"]
            assert row["failure_within_bound"]
            assert row["lost"] == 0
        # Deeper cumulation rides out the 50 ms outage; shallow declares.
        by_cell = {(r["c_depth"], r["outage"]): r for r in result.rows}
        assert by_cell[(2, 0.05)]["failure_declared"]
        assert not by_cell[(4, 0.05)]["failure_declared"]

    def test_parallel_sweep_bit_identical(self):
        """E21 through the process pool equals the serial run exactly."""
        from repro.experiments.parallel import run_experiments_parallel

        serial = e21_fault_matrix()
        parallel = run_experiments_parallel(["E21"], jobs=4, cache=None)["E21"]
        assert repr(serial.rows) == repr(parallel.rows)
