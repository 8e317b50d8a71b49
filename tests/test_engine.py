"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import gc
import math
from heapq import heappush

import pytest

from repro.simulator.engine import _AFTER, _GEN0_FLOOR, Agenda, SimulationError, Simulator
from repro.transport.clock import AsyncioClock

from . import spec
from .test_engine_properties import _StubLoop, round_entries, round_members, timer_entries


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

    def test_nan_delay_rejected(self):
        """A NaN delay used to pass the ``< 0`` test and corrupt the heap
        order: 1.0 dispatched before 0.5, and the clock went through nan."""
        sim = Simulator()
        log = []
        for delay in (2.0, float("nan"), 1.0, 3.0, 0.5):
            try:
                sim.schedule(delay, lambda: log.append(sim.now))
            except ValueError:
                log.append("rejected")
        with pytest.raises(ValueError):
            sim.schedule_at(float("nan"), lambda: None)
        sim.run()
        assert log == ["rejected", 0.5, 1.0, 2.0, 3.0]

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

    @pytest.mark.parametrize("make", [Simulator, spec.Engine], ids=["shipped", "spec"])
    def test_an_until_behind_now_never_moves_the_clock_back(self, make):
        """Events at 2 and 5, ``run(until=3)`` run: a later ``run(until=1)``
        runs nothing and leaves the clock at 3, so a delay scheduled after
        it counts from 3 — with the heap empty too."""
        sim, log = make(), []
        for when in (2.0, 5.0):
            sim.schedule_at(when, lambda: log.append(sim.now))
        assert sim.run(until=3.0) == 3.0
        assert sim.run(until=1.0) == 3.0 and sim.now == 3.0
        sim.schedule(0.5, lambda: log.append(sim.now))
        sim.run()
        assert log == [2.0, 3.5, 5.0]
        assert sim.run(until=1.0) == 5.0 and sim.now == 5.0

    @pytest.mark.parametrize("make", [Simulator, spec.Engine], ids=["shipped", "spec"])
    def test_a_nan_until_is_refused(self, make):
        """Every ``when > until`` is false for a NaN *until*, so the run
        would have no bound (with an ``every()`` callback, none at all): it
        raises before running anything, as a NaN delay does, and the clock
        stays where it was."""
        sim, log = make(), []
        for when in (1.0, 2.0, 3.0):
            sim.schedule_at(when, lambda: log.append(sim.now))
        with pytest.raises(ValueError, match="nan"):
            sim.run(until=math.nan)
        assert log == [] and sim.now == 0.0
        assert sim.run(until=2.0) == 2.0 and log == [1.0, 2.0]

    @pytest.mark.parametrize("make", [Simulator, spec.Engine], ids=["shipped", "spec"])
    def test_an_infinite_until_is_no_bound(self, make):
        """``run(until=inf)`` runs what ``run()`` runs and leaves the clock
        at the last event, not at infinity: a delay scheduled after it
        counts from there."""
        sim, log = make(), []
        for when in (2.0, 5.0):
            sim.schedule_at(when, lambda: log.append(sim.now))
        assert sim.run(until=math.inf) == 5.0 and sim.now == 5.0
        sim.schedule(0.5, lambda: log.append(sim.now))
        assert sim.run(until=math.inf) == 5.5
        assert log == [2.0, 5.0, 5.5]

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

    def test_a_stopped_bounded_run_leaves_the_clock_at_the_stop(self):
        """``run(until=u)`` ended by ``stop()`` is not a run to *u*: the
        clock stays at the stopping event, so the next run's events do
        not take it backwards."""
        sim = Simulator()
        seen = []
        sim.schedule(1.0, sim.stop)
        sim.schedule(2.0, lambda: seen.append(sim.now))
        assert sim.run(until=10.0) == 1.0
        assert sim.now == 1.0
        assert sim.run() == 2.0
        assert seen == [2.0]
        assert sim.run(until=10.0) == 10.0  # an unstopped run still reaches u

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


# The ways out of ``Simulator.run``, each given the simulator whose run it ends.
def _returns(sim):
    sim.run()


def _reaches_until(sim):
    sim.schedule_at(3.0, lambda: None)
    assert sim.run(until=2.0) == 2.0


def _stops(sim):
    sim.schedule_at(2.0, sim.stop)
    sim.schedule_at(3.0, lambda: None)
    assert sim.run() == 2.0


def _raises(sim):
    def bang():
        raise KeyError("bang")

    sim.schedule_at(2.0, bang)
    with pytest.raises(KeyError):
        sim.run()


def _runs_away(sim):
    sim.every(1.0, lambda: None)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=5)


def _runs_another_inside(sim):
    inner, log = Simulator(), []
    inner.schedule_at(0.5, lambda: log.append(gc.get_threshold()))
    sim.schedule_at(2.0, inner.run)
    sim.schedule_at(3.0, lambda: log.append(gc.get_threshold()))
    sim.run()
    assert log == [TestTheCollectorPolicy.RAISED] * 2


class TestTheCollectorPolicy:
    """docs/TUNING.md §12: while ``Simulator.run`` runs, the cyclic
    collector's generation-0 threshold is at least ``_GEN0_FLOOR``; a
    caller's threshold at or above it, or 0, is left alone; and the
    caller's thresholds are back however the run ends."""

    CALLER = (700, 9, 11)
    RAISED = (_GEN0_FLOOR, 9, 11)

    @pytest.fixture(autouse=True)
    def collector(self):
        """The caller's thresholds and switch, put back after each test."""
        thresholds, enabled = gc.get_threshold(), gc.isenabled()
        gc.set_threshold(*self.CALLER)
        try:
            yield
        finally:
            gc.set_threshold(*thresholds)
            if enabled:
                gc.enable()
            else:
                gc.disable()

    @staticmethod
    def seen(sim):
        """Schedule a read of the thresholds at t = 1; the reads."""
        log = []
        sim.schedule_at(1.0, lambda: log.append(gc.get_threshold()))
        return log

    @pytest.mark.parametrize(
        "way_out", [_returns, _reaches_until, _stops, _raises, _runs_away, _runs_another_inside],
        ids=["return", "until", "stop", "raise", "max_events", "nested"])
    def test_the_callers_thresholds_are_back_on_every_way_out(self, way_out):
        """A callback sees the floor; the caller's thresholds come back."""
        sim = Simulator()
        log = self.seen(sim)
        way_out(sim)
        assert log == [self.RAISED]
        assert gc.get_threshold() == self.CALLER

    @pytest.mark.parametrize("first", [_GEN0_FLOOR, 5 * _GEN0_FLOOR, 0],
                             ids=["at-the-floor", "above-it", "collector-off"])
    def test_a_callers_threshold_at_or_above_the_floor_or_0_is_left_alone(self, first):
        gc.set_threshold(first, *self.CALLER[1:])
        sim = Simulator()
        log = self.seen(sim)
        sim.run()
        assert log == [gc.get_threshold()] == [(first, *self.CALLER[1:])]

    def test_a_disabled_collector_stays_disabled(self):
        gc.disable()
        sim = Simulator()
        log = []
        sim.schedule_at(1.0, lambda: log.append(gc.isenabled()))
        sim.run()
        assert log == [False] and not gc.isenabled()
        assert gc.get_threshold() == self.CALLER


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

    def test_nan_delay_rejected(self, sim):
        timer = sim.timer(lambda: None)
        with pytest.raises(ValueError):
            timer.start(float("nan"))
        assert not timer.running and sim._heap == []


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


class TestEvery:
    """``Simulator.every``: periodic callbacks, one heap entry a round."""

    def test_fires_every_interval_until_cancelled(self, sim):
        fired = []
        tick = sim.every(0.1, lambda: fired.append(sim.now))
        sim.run(until=0.35)
        # Each deadline is the previous firing's now + interval: the
        # floats a timer restarted from inside its callback computes.
        assert fired == [0.1, 0.1 + 0.1, 0.1 + 0.1 + 0.1]
        tick.cancel()
        sim.run(until=1.0)
        assert len(fired) == 3
        assert sim._heap == [] and sim._rounds == {}  # the entry lapsed

    def test_a_round_of_one_is_one_event_an_interval(self, sim):
        sim.every(1.0, lambda: None)
        sim.run(until=10.0)
        assert sim.event_count == 10 and len(sim._heap) == 1

    def test_interval_must_be_positive(self, sim):
        for interval in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                sim.every(interval, lambda: None)

    def test_equal_deadline_and_interval_share_one_entry(self, sim):
        log = []
        for name in "abc":
            sim.every(1.0, lambda name=name: log.append((sim.now, name)))
        assert len(sim._heap) == 1
        sim.schedule(0.5, sim.every, 1.0, lambda: log.append((sim.now, "late")))
        sim.every(2.0, lambda: log.append((sim.now, "slow")))  # same instant, other interval
        sim.run(until=2.0)
        # Join order inside a round; a member that joined at another
        # instant, or on another interval, is a round of its own.
        assert log == [(1.0, "a"), (1.0, "b"), (1.0, "c"), (1.5, "late"),
                       (2.0, "slow"), (2.0, "a"), (2.0, "b"), (2.0, "c")]
        assert len(sim._heap) == len(round_entries(sim)) == 3
        assert sim.event_count == 1 + 2 + 1 + 1  # the join, two rounds of three, late, slow

    def test_cancelled_members_are_skipped_and_dropped(self, sim):
        log = []
        ticks = {}

        def member(name, victim=None):
            def run():
                log.append((sim.now, name))
                if victim is not None and sim.now == 1.0:
                    ticks[victim].cancel()
            ticks[name] = sim.every(1.0, run)

        member("a", victim="a")  # from inside its own callback
        member("b", victim="d")  # a later member of the firing round
        member("c")
        member("d")
        sim.schedule(1.5, lambda: ticks["c"].cancel())  # from outside
        sim.run(until=3.0)
        assert log == [(1.0, "a"), (1.0, "b"), (1.0, "c"),
                       (2.0, "b"), (3.0, "b")]
        (entry,) = sim._heap
        assert [m.callback is not None for m in round_members(entry)] == [True]

    def test_stop_start_at_one_instant_runs_once(self, sim):
        log = []
        first = sim.every(1.0, lambda: log.append("first"))
        first.cancel()
        sim.every(1.0, lambda: log.append("second"))
        assert len(sim._heap) == 1
        sim.run(until=2.0)
        assert log == ["second", "second"]

    def test_a_join_while_the_round_fires_first_runs_next_time(self, sim):
        log = []

        def spawner():
            log.append((sim.now, "spawner"))
            if sim.now == 1.0:
                sim.every(1.0, lambda: log.append((sim.now, "spawned")))

        sim.every(1.0, lambda: log.append((sim.now, "first")))
        sim.every(1.0, spawner)
        sim.every(1.0, lambda: log.append((sim.now, "last")))
        sim.run(until=2.0)
        # Not at 1.0; at 2.0 ahead of the round that was firing, which
        # re-armed onto the key the newcomer had armed and joined behind.
        assert log == [
            (1.0, "first"), (1.0, "spawner"), (1.0, "last"),
            (2.0, "spawned"), (2.0, "first"), (2.0, "spawner"), (2.0, "last"),
        ]
        assert len(sim._heap) == 1 and len(sim._rounds) == 1

    def test_two_rounds_landing_on_one_key_merge(self, sim):
        log = []
        # Scheduled ahead of the round's entry for 1.0, so it runs first
        # there and arms (2.0, 1.0) before the old round gets to.
        sim.schedule(1.0, sim.every, 1.0, lambda: log.append((sim.now, "new")))
        sim.every(1.0, lambda: log.append((sim.now, "old")))
        sim.run(until=1.0)
        assert len(round_entries(sim)) == 1 and len(sim._rounds) == 1
        sim.run(until=3.0)
        assert log == [(1.0, "old"), (2.0, "new"), (2.0, "old"),
                       (3.0, "new"), (3.0, "old")]
        # As the timers: "new" started before "old" restarted at 1.0.
        assert sim.event_count == 1 + 1 + 2  # the join, old alone, then one round

    @pytest.mark.parametrize("periodic", ["every", "reference"])
    def test_the_ordering_rule(self, sim, periodic):
        """The one consequence of a round having one sequence number: an
        entry for a round's instant that would have run *between* two
        members now runs on one side of them all — ahead if it was
        pushed while the round last fired (the round re-arms after its
        last member), behind if it was pushed between two joins of the
        round's first interval (the entry is the first joiner's)."""
        log = []

        if periodic == "reference":  # the specification: an entry per firing
            sim = spec.Engine()
        every = sim.every

        def pusher():
            log.append((sim.now, "pusher"))
            if sim.now == 1.0:
                sim.schedule(1.0, log.append, (2.0, "pushed by pusher"))

        every(1.0, lambda: log.append((sim.now, "first")))
        sim.schedule(1.0, log.append, (1.0, "pushed between joins"))
        every(1.0, pusher)
        every(1.0, lambda: log.append((sim.now, "last")))
        sim.run(until=2.0)
        at = {1.0: [who for now, who in log if now == 1.0],
              2.0: [who for now, who in log if now == 2.0]}
        if periodic == "every":
            assert at[1.0] == ["first", "pusher", "last", "pushed between joins"]
            assert at[2.0] == ["pushed by pusher", "first", "pusher", "last"]
        else:
            assert at[1.0] == ["first", "pushed between joins", "pusher", "last"]
            assert at[2.0] == ["first", "pushed by pusher", "pusher", "last"]

    @pytest.mark.parametrize("periodic", ["every", "reference"])
    def test_stop_inside_a_member_leaves_the_rest_for_the_next_run(self, sim,
                                                                   periodic):
        log = []

        if periodic == "reference":  # the specification: an entry per firing
            sim = spec.Engine()
        every = sim.every

        def stopper():
            log.append((sim.now, "stopper"))
            sim.stop()

        every(1.0, stopper)
        every(1.0, lambda: log.append((sim.now, "second")))
        sim.schedule(1.0, log.append, (1.0, "after the round"))
        assert sim.run(until=10.0) == 1.0
        assert log == [(1.0, "stopper")]
        if periodic == "every":
            # The rest at the entry's own (time, sequence), not re-armed yet.
            (pending,) = round_entries(sim)
            assert pending[0] == 1.0 and list(sim._rounds) == [(1.0, 1.0)]
            assert len(round_members(pending)) == 1  # "second", not yet run
        assert sim.run(until=1.5) == 1.5
        assert log == [(1.0, "stopper"), (1.0, "second"), (1.0, "after the round")]
        assert sim.run(until=2.5) == 2.0
        assert log[3:] == [(2.0, "stopper")]
        sim.run(until=2.5)
        assert log[4:] == [(2.0, "second")]

    @pytest.mark.parametrize("periodic", ["every", "reference"])
    def test_a_raising_member_is_dropped_and_the_rest_run_next(self, sim,
                                                               periodic):
        class Boom(Exception):
            pass

        log = []

        if periodic == "reference":  # the specification: an entry per firing
            sim = spec.Engine()
        every = sim.every

        def bang():
            log.append((sim.now, "bang"))
            raise Boom

        for name, callback in (("first", None), ("bang", bang), ("last", None)):
            every(1.0, callback or (lambda name=name: log.append((sim.now, name))))
        with pytest.raises(Boom):
            sim.run(until=3.0)
        assert log == [(1.0, "first"), (1.0, "bang")] and sim.now == 1.0
        sim.run(until=3.0)
        assert log[2:] == [(1.0, "last"), (2.0, "first"), (2.0, "last"),
                           (3.0, "first"), (3.0, "last")]

    def test_a_raising_last_member_still_re_arms_the_others(self, sim):
        log = []

        def bang():
            raise KeyError("bang")

        sim.every(1.0, lambda: log.append(sim.now))
        sim.every(1.0, bang)
        with pytest.raises(KeyError):
            sim.run(until=3.0)
        sim.run(until=3.0)
        assert log == [1.0, 2.0, 3.0]
        (entry,) = round_entries(sim)
        assert len(round_members(entry)) == 1

    def test_entries_pushed_outside_a_firing_keep_their_side(self, sim):
        """Before the round's number was taken: ahead of it.  After: behind."""
        log = []
        sim.schedule(2.0, log.append, "before the first join")
        sim.every(1.0, lambda: log.append(sim.now))
        sim.every(1.0, lambda: log.append(sim.now))
        sim.schedule(1.0, log.append, "after the last join")
        sim.schedule(1.5, sim.schedule, 0.5, log.append, "after the re-arm")
        sim.run(until=2.0)
        assert log == [1.0, 1.0, "after the last join",
                       "before the first join", 2.0, 2.0, "after the re-arm"]


class TestTheSameInstantRule:
    """docs/TUNING.md §10: at one instant, every numbered entry runs first,
    in number order; planned deliveries run last, in the order their
    arrivals were numbered — a key that never changes."""

    @staticmethod
    def tie(sim):
        """Two planned deliveries at t = 2 — on an agenda, and an entry of
        its own as a frame handed over with no agenda plans it — whose
        arrivals were numbered first of all, the later-numbered one planned
        first; tied with an entry numbered at t = 0, one numbered at t = 1,
        one the first of those pushes at t = 2 and one the first delivery
        pushes there.  The order they ran in."""
        log = []
        agenda = Agenda(sim)
        first = sim._sequence + 1
        sim._sequence += 2  # two arrivals, numbered ahead of everything

        def planned(name):
            log.append(name)
            if name == "planned 1":
                sim.schedule_at(2.0, log.append, "numbered by planned 1")

        agenda.lanes[1].append((2.0, _AFTER + first + 1, planned, ("planned 2",)))
        agenda.added(2.0, _AFTER + first + 1)
        heappush(sim._heap, (2.0, _AFTER + first, planned, ("planned 1",)))

        def before():
            log.append("numbered at 0")
            sim.schedule_at(2.0, log.append, "numbered at 2")

        sim.schedule_at(2.0, before)
        sim.schedule_at(1.0, sim.schedule_at, 2.0, log.append, "numbered at 1")
        return log

    ORDER = ["numbered at 0", "numbered at 1", "numbered at 2", "planned 1",
             "numbered by planned 1", "planned 2"]

    def test_on_a_run(self):
        sim = Simulator()
        log = self.tie(sim)
        sim.run()
        assert log == self.ORDER

    def test_on_a_hand_pumped_asyncio_clock(self):
        loop = _StubLoop()
        clock = AsyncioClock(loop)
        log = self.tie(clock)
        for now in (1.0, 2.0):
            loop.now = now
            clock.kick()
        assert not clock._heap
        assert log == self.ORDER
