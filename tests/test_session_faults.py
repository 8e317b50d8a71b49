"""Session-manager behaviour under mid-pass faults.

A declared link failure during an active pass must tear the session
down early (reason="link_failure"), reclaim the sender's unresolved
frames into the backlog, and let the next pass finish the job — the
zero-loss property of the session layer extended across the fault
layer.
"""

from __future__ import annotations

import pytest

from repro.core import LamsDlcConfig
from repro.faults import FaultInjector, FaultPlan
from repro.hdlc import HdlcConfig
from repro.invariants.monitors import MonitorSuite, ZeroLossLedger
from repro.session import LinkSessionManager, PassSchedule
from repro.session.factories import session_factory
from repro.simulator import (
    BernoulliChannel,
    FullDuplexLink,
    Simulator,
    StreamRegistry,
)
from repro.simulator.trace import Tracer
from repro.workloads.scenarios import preset


def make_link(sim, tracer, seed=1):
    return FullDuplexLink(
        sim, bit_rate=100e6, propagation_delay=0.010, name="x",
        iframe_errors=BernoulliChannel(1e-7),
        streams=StreamRegistry(seed=seed), tracer=tracer,
    )


def run_faulted_session(protocol, config, plan, n=2000, seed=2,
                        pass_duration=1.0, count=2, until=3.5):
    sim = Simulator()
    tracer = Tracer(record_timeline=True)
    link = make_link(sim, tracer, seed=seed)
    schedule = PassSchedule.periodic(
        first_start=0.1, duration=pass_duration, gap=0.3, count=count,
    )
    delivered = []
    manager = LinkSessionManager(
        sim, link, schedule, session_factory(protocol, config),
        init_time=0.05, deliver=delivered.append, tracer=tracer,
    )
    FaultInjector(sim, link, plan, tracer=tracer)
    for i in range(n):
        manager.send(("pkt", i))
    sim.run(until=until)
    return manager, delivered, tracer


LAMS_CONFIG_KW = dict(checkpoint_interval=0.005, cumulation_depth=3)


class TestMidPassFailure:
    def run_one(self, n=2000):
        # Outage [0.3, 0.8) inside pass 1 [0.1, 1.1); with C_depth=3 and
        # W_cp=5ms the failure budget is tens of ms, far below 500 ms,
        # so the sender declares the link failed mid-pass.
        plan = FaultPlan.single_outage(start=0.3, duration=0.5)
        return run_faulted_session(
            "lams", LamsDlcConfig(**LAMS_CONFIG_KW), plan, n=n,
        )

    def test_failure_tears_session_down_early(self):
        manager, delivered, tracer = self.run_one()
        assert manager.failures == 1
        assert manager.session_history[0]["reason"] == "link_failure"
        [failure] = tracer.timeline("session", "session_failure")
        assert 0.3 < failure.time < 0.8  # well before the pass boundary

    def test_backlog_survives_declared_failure(self):
        manager, delivered, tracer = self.run_one()
        assert manager.session_history[0]["reclaimed"] > 0
        assert manager.carried_over > 0
        # Pass 2 ran and drained the carried-over backlog.
        assert manager.passes_run == 2
        assert manager.session_history[1]["reason"] == "pass_end"

    def test_zero_loss_across_failure(self):
        n = 2000
        manager, delivered, tracer = self.run_one(n=n)
        ids = {p[1] for p in delivered}
        # Nothing vanished: every payload was delivered or still queued.
        assert len(ids) + manager.backlog >= n
        # The fault cost duplicates at most, never loss.
        assert ids >= set(range(500))

    def test_session_down_reason_in_trace(self):
        manager, delivered, tracer = self.run_one()
        downs = tracer.timeline("session", "session_down")
        assert [d.detail["reason"] for d in downs] == ["link_failure", "pass_end"]


class TestRideOutFault:
    def test_short_outage_recovers_without_teardown(self):
        """An outage inside the failure budget never reaches the manager."""
        # C_depth=8 → 40 ms watchdog; a 20 ms cut ends before even the
        # detection bound, so enforced recovery (or plain checkpoints)
        # resolves it with the session still up.
        config = LamsDlcConfig(checkpoint_interval=0.005, cumulation_depth=8)
        plan = FaultPlan.single_outage(start=0.3, duration=0.02)
        manager, delivered, tracer = run_faulted_session(
            "lams", config, plan, n=1500,
        )
        assert manager.failures == 0
        assert all(h["reason"] == "pass_end" for h in manager.session_history)
        ids = {p[1] for p in delivered}
        assert len(ids) + manager.backlog >= 1500

    def test_hdlc_sessions_never_declare_failure(self):
        """A protocol without a failure path just stalls through the cut."""
        config = HdlcConfig(window_size=32, sequence_bits=7, timeout=0.06)
        plan = FaultPlan.single_outage(start=0.3, duration=0.1)
        manager, delivered, tracer = run_faulted_session(
            "hdlc", config, plan, n=1000,
        )
        assert manager.failures == 0
        ids = {p[1] for p in delivered}
        assert len(ids) + manager.backlog >= 1000


class TestInjectorManagerInterplay:
    def test_fault_end_between_passes_leaves_link_down(self):
        """The injector never forces up a link the manager downed.

        An outage spanning a pass boundary ends in the gap; the link
        must stay down until the next pass activates.
        """
        sim = Simulator()
        tracer = Tracer(record_timeline=True)
        link = make_link(sim, tracer)
        schedule = PassSchedule.periodic(
            first_start=0.1, duration=0.4, gap=0.6, count=2,
        )
        manager = LinkSessionManager(
            sim, link, schedule,
            session_factory("lams", LamsDlcConfig(**LAMS_CONFIG_KW)),
            init_time=0.05, deliver=lambda p: None, tracer=tracer,
        )
        # Fault starts in the gap (link already down) and ends there too.
        FaultInjector(
            sim, link,
            FaultPlan.single_outage(start=0.6, duration=0.2), tracer=tracer,
        )
        states = {}
        sim.schedule_at(0.9, lambda: states.update(gap=link.forward.is_up))
        sim.schedule_at(1.2, lambda: states.update(pass2=link.forward.is_up))
        for i in range(50):
            manager.send(("pkt", i))
        sim.run(until=2.0)
        assert states["gap"] is False   # injector did not resurrect the link
        assert states["pass2"] is True  # second pass activated normally
        assert manager.failures == 0


class TestPassScheduleValidation:
    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError, match="duration must be positive"):
            PassSchedule.periodic(first_start=0.0, duration=0.0, gap=1.0, count=3)
        with pytest.raises(ValueError, match="duration must be positive"):
            PassSchedule.periodic(first_start=0.0, duration=-2.0, gap=1.0, count=3)

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError, match="gap cannot be negative"):
            PassSchedule.periodic(first_start=0.0, duration=1.0, gap=-0.1, count=3)

    def test_zero_gap_back_to_back_passes_allowed(self):
        schedule = PassSchedule.periodic(
            first_start=0.0, duration=1.0, gap=0.0, count=3,
        )
        assert len(schedule) == 3
        assert schedule.total_link_time == pytest.approx(3.0)

    def test_count_still_validated(self):
        with pytest.raises(ValueError, match="at least one pass"):
            PassSchedule.periodic(first_start=0.0, duration=1.0, gap=1.0, count=0)


class _ScriptedEndpoint:
    """Test double: accepts up to *capacity* payloads; the last
    *unresolved_tail* of them are still held at teardown."""

    def __init__(self, capacity, unresolved_tail=0):
        self.capacity = capacity
        self.unresolved_tail = unresolved_tail
        self.accepted = []
        self.sender = self

    def held_payloads(self):
        if not self.unresolved_tail:
            return []
        return list(self.accepted[-self.unresolved_tail:])

    def accept(self, payload):
        if len(self.accepted) >= self.capacity:
            return False
        self.accepted.append(payload)
        return True

    def stop(self):
        pass


class TestBacklogReplayOrder:
    """Regression: payloads reclaimed from a failed pass must be re-sent
    *before* queued traffic, in their original order (the deque
    ``extendleft(reversed(...))`` dance in ``_teardown``)."""

    def run_scripted(self):
        sim = Simulator()
        tracer = Tracer(record_timeline=True)
        link = make_link(sim, tracer)
        schedule = PassSchedule.periodic(
            first_start=0.0, duration=1.0, gap=0.5, count=2,
        )
        endpoints = []

        def factory(sim_, link_, deliver, remaining, on_failure=None):
            first = not endpoints
            endpoint = _ScriptedEndpoint(
                capacity=6 if first else 100,
                unresolved_tail=4 if first else 0,
            )
            endpoints.append(endpoint)
            if first and on_failure is not None:
                # Declare the link failed mid-pass, as the LAMS sender
                # would after an exhausted enforced recovery.
                sim_.schedule(0.5, on_failure)
            return endpoint, endpoint

        manager = LinkSessionManager(
            sim, link, schedule, factory,
            init_time=0.0, deliver=lambda p: None, tracer=tracer,
        )
        for i in range(10):
            manager.send(("pkt", i))
        sim.run(until=3.0)
        return manager, endpoints, tracer

    def test_reclaimed_replayed_first_in_original_order(self):
        manager, endpoints, tracer = self.run_scripted()
        assert len(endpoints) == 2
        # Pass 1 accepted pkt0..pkt5 and held pkt2..pkt5 unresolved at
        # the declared failure; pass 2 must see the reclaimed frames
        # first, in order, then the never-sent backlog pkt6..pkt9.
        assert endpoints[0].accepted == [("pkt", i) for i in range(6)]
        assert endpoints[1].accepted == [("pkt", i) for i in (2, 3, 4, 5, 6, 7, 8, 9)]
        assert manager.backlog == 0

    def test_failure_teardown_reported_and_traced(self):
        manager, endpoints, tracer = self.run_scripted()
        assert manager.failures == 1
        assert manager.session_history[0]["reason"] == "link_failure"
        assert manager.session_history[0]["reclaimed"] == 4
        assert manager.carried_over == 4
        [event] = tracer.timeline("session", "backlog_reclaimed")
        assert event.detail["reclaimed"] == 4
        assert event.detail["payloads"] == tuple(("pkt", i) for i in (2, 3, 4, 5))
        assert event.detail["backlog"] == 8  # 4 reclaimed + 4 never sent

    def test_real_protocol_failure_pass_loses_nothing(self):
        """End-to-end flavor: across a declared-failure LAMS pass every
        queued payload is either delivered or still in the backlog."""
        plan = FaultPlan.single_outage(start=0.3, duration=0.5)
        manager, delivered, _ = run_faulted_session(
            "lams", LamsDlcConfig(**LAMS_CONFIG_KW), plan, n=800,
        )
        assert manager.failures == 1
        ids = sorted({p[1] for p in delivered})
        assert len(ids) + manager.backlog >= 800


class TestMonitoredPasses:
    """A zero-loss ledger on the link's tracer, over six short passes
    that each end with frames unresolved: the held backlog at the end
    is the manager's queue."""

    def run_monitored(self, n=300):
        scenario = preset("nominal").with_(bit_rate=100e6, distance_km=3000.0)
        sim = Simulator()
        link = scenario.build_link(sim, seed=15)
        config = LamsDlcConfig(
            checkpoint_interval=scenario.checkpoint_interval,
            cumulation_depth=scenario.cumulation_depth,
        )
        inner = session_factory("lams", config)
        accepted = []

        def factory(sim_, link_, deliver, remaining, on_failure=None):
            endpoint_a, endpoint_b = inner(
                sim_, link_, deliver, remaining, on_failure=on_failure,
            )
            accept_many = endpoint_a.accept_many

            def counted(packets):
                taken = accept_many(packets)
                accepted.append(taken)
                return taken

            endpoint_a.accept_many = counted
            return endpoint_a, endpoint_b

        delivered = []
        manager = LinkSessionManager(
            sim, link, PassSchedule.periodic(0.05, 0.05, 0.05, 6), factory,
            init_time=0.01, deliver=delivered.append, tracer=link.tracer,
        )
        ledger = ZeroLossLedger()
        suite = MonitorSuite(
            link.tracer, [ledger], held_snapshot=lambda: list(manager._queue),
        )
        for i in range(n):
            manager.send(("pkt", i))
        sim.run(until=1.0)
        suite.finalize(sim.now)
        return manager, delivered, ledger, suite, sum(accepted)

    def test_replayed_payloads_are_not_owed_twice(self):
        """The DES reclaim record lists its payloads, so a payload
        replayed on the next pass is owed once, not reported lost."""
        manager, delivered, ledger, suite, _ = self.run_monitored()
        assert manager.carried_over > 0
        assert {p[1] for p in delivered} == set(range(300))
        assert ledger.accepted > 0
        assert suite.ok, suite.report()

    def test_suite_sees_every_pass_of_the_session(self):
        """Each pass's endpoints trace into the link's tracer: the ledger
        counts every payload the endpoints accepted."""
        manager, delivered, ledger, suite, accepted = self.run_monitored()
        assert manager.passes_run == 6
        assert accepted > 0
        assert ledger.accepted == accepted
