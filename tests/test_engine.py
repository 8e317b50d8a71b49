"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.simulator.engine import SimulationError, Simulator

from .timer_reference import timer_entries


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_callbacks_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, log.append, "late")
        sim.schedule(1.0, log.append, "early")
        sim.run()
        assert log == ["early", "late"]

    def test_same_time_callbacks_run_fifo(self):
        sim = Simulator()
        log = []
        for i in range(10):
            sim.schedule(1.0, log.append, i)
        sim.run()
        assert log == list(range(10))

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        sim.schedule(3.5, lambda: None)
        sim.run()
        assert sim.now == 3.5

    def test_tie_break_is_scheduling_order_across_entry_points(self):
        """Same-timestamp callbacks fire in exact scheduling order, no
        matter how they were scheduled (relative, absolute, mid-run)."""
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "rel-first")
        sim.schedule_at(1.0, log.append, "abs-second")

        def reentrant():
            log.append("reentrant-third")
            # Scheduled *during* dispatch at t=1.0 with zero delay:
            # still runs after everything already queued for t=1.0.
            sim.schedule(0.0, log.append, "nested-fifth")

        sim.schedule(1.0, reentrant)
        sim.schedule_at(1.0, log.append, "abs-fourth")
        sim.run()
        assert log == [
            "rel-first", "abs-second", "reentrant-third",
            "abs-fourth", "nested-fifth",
        ]

    def test_tie_break_identical_across_runs(self):
        """Two identically-built simulations dispatch ties identically
        (the determinism contract every seeded experiment relies on)."""

        def build_and_run():
            sim = Simulator()
            log = []
            for index in range(50):
                # All land at t=1.0 via alternating entry points.
                if index % 2:
                    sim.schedule_at(1.0, log.append, index)
                else:
                    sim.schedule(1.0, log.append, index)
            sim.run()
            return log

        assert build_and_run() == build_and_run() == list(range(50))

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        times = []
        sim.schedule(1.0, lambda: sim.schedule_at(5.0, lambda: times.append(sim.now)))
        sim.run()
        assert times == [5.0]

    def test_run_until_stops_clock_exactly(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, fired.append, "x")
        assert sim.run(until=4.0) == 4.0
        assert fired == []
        assert sim.now == 4.0

    def test_run_until_includes_boundary_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(4.0, fired.append, "x")
        sim.run(until=4.0)
        assert fired == ["x"]

    def test_run_continues_after_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, fired.append, "x")
        sim.run(until=4.0)
        sim.run()
        assert fired == ["x"]
        assert sim.now == 10.0

    def test_run_until_with_empty_heap_advances_clock(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_max_events_guard(self):
        sim = Simulator()

        def rearm():
            sim.schedule(0.1, rearm)

        sim.schedule(0.0, rearm)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=100)

    def test_stop_halts_run(self):
        sim = Simulator()
        log = []

        def first():
            log.append("a")
            sim.stop()

        sim.schedule(1.0, first)
        sim.schedule(2.0, log.append, "b")
        sim.run()
        assert log == ["a"]
        assert sim.now == 1.0

    def test_peek_returns_next_event_time(self):
        sim = Simulator()
        assert sim.peek() is None
        sim.schedule(2.5, lambda: None)
        assert sim.peek() == 2.5

    def test_until_then_stop_accounting(self):
        """until-clamp, an integer absolute time, stop(), return values."""
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "a")
        sim.schedule_at(2, seen.append, "b")
        sim.schedule(3.0, sim.stop)
        sim.schedule(4.0, seen.append, "never")
        assert sim.run(until=1.5) == 1.5
        assert seen == ["a"]
        assert sim.event_count == 1
        assert sim.run() == 3.0
        assert seen == ["a", "b"]
        assert sim.now == 3.0
        assert sim.event_count == 3

    def test_max_events_accounting(self):
        sim = Simulator()
        for index in range(10):
            sim.schedule(index * 0.1, lambda: None)
        with pytest.raises(SimulationError) as excinfo:
            sim.run(max_events=5)
        assert str(excinfo.value) == (
            "exceeded max_events=5 (possible runaway simulation)"
        )
        assert sim.event_count == 5
        assert sim.now == 4 * 0.1

    def test_callback_exception_propagates_and_run_resumes(self):
        class Boom(Exception):
            pass

        def bang():
            raise Boom("bang")

        sim = Simulator()
        log = []
        sim.schedule(0.5, log.append, "before")
        sim.schedule(1.0, bang)
        sim.schedule(1.5, log.append, "after")
        with pytest.raises(Boom):
            sim.run()
        # The raising event is not counted; the clock stays at its time
        # and the later entry is still queued.
        assert sim.event_count == 1
        assert sim.now == 1.0
        assert [entry[0] for entry in sim._heap] == [1.5]
        assert sim.run() == 1.5
        assert log == ["before", "after"]
        assert sim.event_count == 2


class TestTimer:
    def test_timer_fires_after_delay(self, sim):
        fired = []
        timer = sim.timer(lambda: fired.append(sim.now))
        timer.start(2.0)
        sim.run()
        assert fired == [2.0]

    def test_restart_pushes_deadline(self, sim):
        fired = []
        timer = sim.timer(lambda: fired.append(sim.now))
        timer.start(2.0)
        sim.schedule(1.0, timer.restart, 2.0)
        sim.run()
        assert fired == [3.0]

    def test_cancel_suppresses_expiry(self, sim):
        fired = []
        timer = sim.timer(lambda: fired.append(sim.now))
        timer.start(2.0)
        sim.schedule(1.0, timer.cancel)
        sim.run()
        assert fired == []

    def test_running_and_deadline(self, sim):
        timer = sim.timer(lambda: None)
        assert not timer.running and timer.deadline is None
        timer.start(5.0)
        assert timer.running and timer.deadline == 5.0
        timer.cancel()
        assert not timer.running

    def test_timer_reusable_after_expiry(self, sim):
        fired = []
        timer = sim.timer(lambda: fired.append(sim.now))
        timer.start(1.0)
        sim.run()
        timer.start(1.0)
        sim.run()
        assert fired == [1.0, 2.0]

    def test_negative_delay_rejected(self, sim):
        timer = sim.timer(lambda: None)
        with pytest.raises(ValueError):
            timer.start(-1.0)


class TestTimerCompaction:
    """Restart/cancel churn cannot grow the heap: a timer keeps one
    carrier entry however often it is restarted (this class used to
    check a batch sweep of dead entries; there are none to sweep now)."""

    def test_restart_churn_keeps_heap_bounded(self, sim):
        timer = sim.timer(lambda: None)
        for _ in range(640):
            timer.start(1.0)
        assert len(sim._heap) == 1

    def test_cancelled_timers_never_fire(self, sim):
        log = []
        # Live work interleaved with churned timers.
        for index in range(20):
            sim.schedule(1.0 + index * 0.1, log.append, index)
        timers = [sim.timer(lambda: log.append("timer")) for _ in range(8)]
        for _ in range(50):
            for timer in timers:
                timer.start(5.0)
        for timer in timers:
            timer.cancel()
        assert len(sim._heap) == 20 + len(timers)
        sim.run()
        assert log == list(range(20))
        assert sim.now == 5.0  # the carriers lapsed there, silently

    def test_churn_leaves_a_pending_timer_alone(self, sim):
        fired = []
        keeper = sim.timer(lambda: fired.append(sim.now))
        keeper.start(2.0)
        churn = sim.timer(lambda: fired.append("churn"))
        for _ in range(320):
            churn.start(1.0)
        churn.cancel()
        assert len(sim._heap) == 2
        sim.run()
        assert fired == [2.0]

    def test_restart_churn_across_rounds(self, sim):
        """Restarts from eight rounds, carried by one entry per timer."""
        fired = []
        timers = [sim.timer(lambda i=i: fired.append(i)) for i in range(64)]

        def churn():
            for timer in timers:
                timer.restart(0.5)
            assert len(sim._heap) <= 8 + len(timers)

        for round_index in range(8):
            sim.schedule(round_index * 0.1, churn)
        sim.run()
        assert fired == list(range(64))
        assert sim.now == 7 * 0.1 + 0.5
        # 8 churn calls + three surfacings per timer: the carrier pushed
        # at 0.5 meets deadline 1.0 (the 0.5 churn runs first, it was
        # scheduled first) and is re-pushed there, meets 1.2 at 1.0, and
        # fires at 1.2.  One push per restart popped 8 + 64 * 8 = 520;
        # the batch sweep this replaced got that down to 121.
        assert sim.event_count == 8 + 3 * 64
        assert sim._sequence == 8 + 8 * 64  # every restart reserved one

    def test_cancel_then_start_reuses_the_entry(self, sim):
        fired = []
        timer = sim.timer(lambda: fired.append(sim.now))
        timer.start(1.0)
        (entry,) = sim._heap
        for _ in range(69):
            timer.cancel()
            timer.start(1.0)
        assert sim._heap == [entry] and sim._heap[0] is entry
        timer.cancel()
        sim.run()
        # The clock advances over the lapsed carrier, but the cancelled
        # timer never fires.
        assert fired == [] and sim.now == 1.0 and sim.event_count == 1

    def test_shortening_restart_fires_at_the_new_deadline(self, sim):
        fired = []
        timer = sim.timer(lambda: fired.append(sim.now))
        timer.start(3.0)
        sim.schedule(2.5, fired.append, "between")
        timer.start(1.0)  # earlier than the carrier: the one case that pushes
        assert [entry[0] for entry in sorted(timer_entries(sim, timer))] == [1.0, 3.0]
        sim.run(until=2.0)
        assert fired == [1.0] and not timer.running
        timer.start(2.0)  # deadline 4.0, past the entry left behind at 3.0
        sim.run()
        assert fired == [1.0, "between", 4.0]
        assert sim.event_count == 4  # the entry at 3.0 surfaced as a no-op
