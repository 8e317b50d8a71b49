"""Runtime invariant monitors: clean runs stay clean, broken ones are caught.

The acceptance bar for the monitor suite runs in both directions:

- a nominal LAMS-DLC run (and one crossing a declared link failure)
  must finish with *zero* violations, and
- a deliberately broken protocol double — here, a duplicate-delivering
  destination — must be caught with a report that names the invariant,
  carries the trace window around the violation, and stamps the
  reproducer context (seed / scenario) onto it.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan
from repro.invariants import (
    CheckpointCoverageMonitor,
    DestinationOrderingMonitor,
    MonitorSuite,
    ReceiverQueueBoundMonitor,
    ZeroLossLedger,
    attach_monitors,
    fault_silence_windows,
)
from repro.invariants.monitors import merge_windows
from repro.simulator.trace import Tracer
from repro.workloads import preset
from repro.workloads.generators import FiniteBatch
from repro.workloads.scenarios import build_simulation


def run_monitored(scenario_name="nominal", n_frames=200, fault_plan=None,
                  until=2.0, seed=1, **overrides):
    scenario = preset(scenario_name).with_(checkpoint_interval=0.005)
    setup = build_simulation(
        scenario, "lams", seed=seed, overrides=overrides or None,
        fault_plan=fault_plan, run_with_invariants=True,
    )
    batch = FiniteBatch(setup.sim, setup.endpoint_a, n_frames)
    batch.start()
    setup.run(until=until)
    suite = setup.finalize_monitors()
    return setup, suite


class TestCleanRunsStayClean:
    def test_nominal_run_all_invariants_held(self):
        setup, suite = run_monitored()
        assert suite.ok
        assert suite.report() == "all invariants held"
        assert len(setup.delivered) == 200
        # Every monitor is armed and none fired.
        names = set(suite.summary())
        assert {"zero-loss", "destination-ordering", "receiver-queue-bound",
                "holding-time-bound", "checkpoint-coverage",
                "failure-latency"} <= names
        assert all(count == 0 for count in suite.summary().values())

    def test_declared_failure_run_stays_clean(self):
        """An outage long enough to declare link failure leaves stranded
        frames — the ledger must count them as held, not lost, and the
        failure-latency monitor must see the declaration in bound."""
        plan = FaultPlan.single_outage(start=0.3, duration=0.4)
        setup, suite = run_monitored(fault_plan=plan, until=3.0)
        assert setup.recovery is not None
        assert setup.recovery.failures_declared >= 1
        assert suite.ok, suite.report()

    def test_finalize_is_idempotent(self):
        setup, suite = run_monitored(n_frames=50, until=1.0)
        again = setup.finalize_monitors()
        assert again is suite
        assert suite.ok


class TestBrokenProtocolCaught:
    """The acceptance criterion: an injected duplicate-delivery bug in a
    test double is caught and fully attributed."""

    def make_suite(self, monitors, context=None):
        tracer = Tracer()
        suite = MonitorSuite(
            tracer, monitors,
            context=context or {"seed": 1234, "scenario": "broken-double",
                                "master_seed": 99, "episode": 7},
        )
        return tracer, suite

    def test_duplicate_delivery_named_with_window_and_seed(self):
        tracer, suite = self.make_suite([DestinationOrderingMonitor()])
        for time, seq in ((0.1, 0), (0.2, 1), (0.3, 1), (0.4, 2)):
            tracer.emit(time, "dest", "dest_deliver", flow="a", seq=seq)
        suite.finalize(0.5)
        [violation] = suite.violations
        assert violation.invariant == "destination-ordering"
        assert "duplicate" in violation.message
        assert violation.time == pytest.approx(0.3)
        # The report carries its own reproducer.
        assert violation.context["seed"] == 1234
        assert violation.context["episode"] == 7
        assert violation.trace_window
        assert any("dest_deliver" in line for line in violation.trace_window)
        as_dict = violation.as_dict()
        assert as_dict["invariant"] == "destination-ordering"
        assert "destination-ordering" in suite.report()
        assert not suite.ok

    def test_one_duplicate_yields_one_violation_not_a_cascade(self):
        tracer, suite = self.make_suite([DestinationOrderingMonitor()])
        sequence = [0, 1, 1, 2, 3, 4, 5]
        for index, seq in enumerate(sequence):
            tracer.emit(0.1 * (index + 1), "dest", "dest_deliver", flow="a", seq=seq)
        suite.finalize(1.0)
        assert len(suite.violations) == 1

    def test_skipped_sequence_caught(self):
        tracer, suite = self.make_suite([DestinationOrderingMonitor()])
        for time, seq in ((0.1, 0), (0.2, 2)):
            tracer.emit(time, "dest", "dest_deliver", flow="a", seq=seq)
        suite.finalize(0.5)
        [violation] = suite.violations
        assert "out-of-order/skipped" in violation.message

    def test_lost_payload_caught_by_ledger(self):
        tracer, suite = self.make_suite([ZeroLossLedger()])
        tracer.emit(0.1, "a", "payloads_accepted", payloads=[("pkt", 0)])
        tracer.emit(0.2, "a", "payloads_accepted", payloads=[("pkt", 1)])
        tracer.emit(0.3, "b", "payloads_delivered", times=[0.3], payloads=[("pkt", 0)])
        suite.finalize(1.0)
        [violation] = suite.violations
        assert violation.invariant == "zero-loss"
        assert violation.detail["lost_count"] == 1
        assert ("pkt", 1) in violation.detail["sample"]

    def test_payload_owed_again_after_its_delivery_is_caught_lost(self):
        """The same value accepted again after its first delivery, then
        lost: the ledger keeps only what is in flight, so it is owed."""
        tracer, suite = self.make_suite([ZeroLossLedger()])
        tracer.emit(0.1, "a", "payloads_accepted", payloads=[("pkt", 0)])
        tracer.emit(0.2, "b", "payloads_delivered", times=[0.2], payloads=[("pkt", 0)])
        tracer.emit(0.3, "a", "payloads_accepted", payloads=[("pkt", 0)])
        suite.finalize(1.0)
        [violation] = suite.violations
        assert violation.detail["sample"] == [("pkt", 0)]
        assert (violation.detail["accepted"], violation.detail["delivered"]) == (2, 1)

    def test_lost_copy_of_a_value_accepted_twice_is_caught(self):
        """Two copies of one value in flight, one delivered: the other
        is owed, and finalizing with nothing held finds it lost."""
        tracer, suite = self.make_suite([ZeroLossLedger()])
        tracer.emit(0.1, "a", "payloads_accepted", payloads=[b"x"])
        tracer.emit(0.2, "a", "payloads_accepted", payloads=[b"x"])
        tracer.emit(0.3, "b", "payloads_delivered", times=[0.3], payloads=[b"x"])
        suite.finalize(1.0)
        [violation] = suite.violations
        assert (violation.detail["lost_count"], violation.detail["sample"]) == (1, [b"x"])

    def test_copies_are_counted_against_the_held_backlog(self):
        """One copy held of two owed is one lost; an unhashable payload
        is keyed by its repr; a delivery owed nothing (a DLC duplicate)
        takes nothing off the ledger."""
        tracer = Tracer()
        suite = MonitorSuite(tracer, [ZeroLossLedger()],
                             held_snapshot=lambda: [["u"], b"y"])
        tracer.emit(0.1, "a", "payloads_accepted", payloads=[["u"], ["u"], b"y", b"y", b"z"])
        tracer.emit(0.2, "b", "payloads_delivered", times=[0.2] * 3, payloads=[b"z", b"z", b"w"])
        suite.finalize(1.0)
        [violation] = suite.violations
        assert violation.detail["sample"] == [["u"], b"y"]
        assert (violation.detail["accepted"], violation.detail["delivered"],
                violation.detail["held"]) == (5, 3, 2)

    def test_replayed_backlog_is_the_same_copy(self):
        """A torn-down sender's backlog is re-accepted by its successor:
        a reclaimed payload owed once stays owed once, and one lost
        after its replay is one lost."""
        tracer, suite = self.make_suite([ZeroLossLedger()])
        tracer.emit(0.1, "a", "payloads_accepted", payloads=[b"x", b"y", b"z", b"z"])
        tracer.emit(0.2, "b", "payloads_delivered", times=[0.2], payloads=[b"y"])
        tracer.emit(0.3, "supervisor", "backlog_reclaimed",
                    payloads=(b"x", b"y", b"z", b"z", b"z"))
        tracer.emit(0.4, "a2", "payloads_accepted", payloads=[b"x", b"y", b"z", b"z"])
        tracer.emit(0.5, "b2", "payloads_delivered", times=[0.5, 0.51, 0.52],
                    payloads=[b"x", b"y", b"z"])
        suite.finalize(1.0)
        [violation] = suite.violations
        assert violation.detail["sample"] == [b"z"]

    def test_held_backlog_is_not_loss(self):
        tracer = Tracer()
        suite = MonitorSuite(
            tracer, [ZeroLossLedger()],
            held_snapshot=lambda: [("pkt", 1)],
        )
        tracer.emit(0.1, "a", "payloads_accepted", payloads=[("pkt", 0)])
        tracer.emit(0.2, "a", "payloads_accepted", payloads=[("pkt", 1)])
        tracer.emit(0.3, "b", "payloads_delivered", times=[0.3], payloads=[("pkt", 0)])
        suite.finalize(1.0)
        assert suite.ok

    def test_missing_cumulative_nak_caught(self):
        tracer, suite = self.make_suite([CheckpointCoverageMonitor(3)])
        tracer.emit(0.10, "b", "error_logged", seq=5)
        # The next non-enforced checkpoint omits seq 5 entirely.
        tracer.emit(0.15, "b", "checkpoint_sent", seqs=(2, 3), enforced=False)
        suite.finalize(0.2)
        [violation] = suite.violations
        assert violation.invariant == "checkpoint-coverage"
        assert violation.detail["seq"] == 5

    def test_cumulative_nak_repeated_c_depth_times_is_clean(self):
        tracer, suite = self.make_suite([CheckpointCoverageMonitor(2)])
        tracer.emit(0.10, "b", "error_logged", seq=5)
        tracer.emit(0.15, "b", "checkpoint_sent", seqs=(5,), enforced=False)
        tracer.emit(0.20, "b", "checkpoint_sent", seqs=(5,), enforced=False)
        # After C_depth repeats the seq may drop out of later NAK lists.
        tracer.emit(0.25, "b", "checkpoint_sent", seqs=(), enforced=False)
        suite.finalize(0.3)
        assert suite.ok

    def test_checkpoint_coverage_is_per_receiver(self):
        """Many links share one tracer: a checkpoint only answers for
        the errors its own receiver logged."""
        tracer, suite = self.make_suite([CheckpointCoverageMonitor(2)])
        tracer.emit(0.10, "b1", "error_logged", seq=5)
        tracer.emit(0.11, "b2", "error_logged", seq=5)
        tracer.emit(0.12, "b2", "error_logged", seq=6)
        tracer.emit(0.15, "b1", "checkpoint_sent", seqs=(5,), enforced=False)
        tracer.emit(0.16, "b2", "checkpoint_sent", seqs=(6,), enforced=False)
        tracer.emit(0.20, "b1", "checkpoint_sent", seqs=(5,), enforced=False)
        tracer.emit(0.21, "b2", "checkpoint_sent", seqs=(), enforced=False)
        suite.finalize(0.3)
        assert [(v.time, v.detail["seq"]) for v in suite.violations] == [
            (0.16, 5), (0.21, 6),
        ]

    def test_receiver_queue_bound_violation_fires_once(self):
        tracer, suite = self.make_suite([ReceiverQueueBoundMonitor(bound=4)])
        tracer.emit(0.1, "b", "rxqueue_peak", depth=10)
        tracer.emit(0.2, "b", "rxqueue_peak", depth=11)
        suite.finalize(0.3)
        assert len(suite.violations) == 1
        assert suite.violations[0].invariant == "receiver-queue-bound"


class TestFaultWindowDerivation:
    def test_outage_and_blackout_are_silence_windows(self):
        plan = FaultPlan.from_dict({
            "name": "w", "faults": [
                {"kind": "outage", "start": 0.1, "duration": 0.2,
                 "direction": "both"},
                {"kind": "feedback-blackout", "start": 0.5, "duration": 0.1},
            ],
        })
        windows = fault_silence_windows(plan)
        assert (0.1, pytest.approx(0.3)) in [
            (s, pytest.approx(e)) for s, e in windows
        ] or windows[0][0] == 0.1
        assert len(windows) == 2

    def test_forward_only_outage_is_not_feedback_silence(self):
        plan = FaultPlan.from_dict({
            "name": "w", "faults": [
                {"kind": "outage", "start": 0.1, "duration": 0.2,
                 "direction": "forward"},
            ],
        })
        assert fault_silence_windows(plan) == []

    def test_merge_windows(self):
        merged = merge_windows([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)])
        assert merged == [(0.0, 2.0), (3.0, 4.0)]


class TestAttachValidation:
    def test_attach_requires_lams_shaped_setup(self):
        scenario = preset("nominal")
        setup = build_simulation(scenario, "hdlc", seed=1)
        with pytest.raises(ValueError, match="invariant"):
            attach_monitors(setup, scenario)
