"""Hypothesis property tests for the discrete-event engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.engine import Simulator, Timer
from repro.transport.clock import AsyncioClock

from .timer_reference import ReferenceTimer, timer_entries


class TestSchedulingProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=200))
    def test_callbacks_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)
        assert sim.now == max(delays)

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=100))
    def test_equal_times_fire_fifo(self, delays):
        """Events at identical times run in scheduling order."""
        sim = Simulator()
        fired = []
        quantised = [round(d, 0) for d in delays]  # force many collisions
        for index, delay in enumerate(quantised):
            sim.schedule(delay, fired.append, (delay, index))
        sim.run()
        # Sort stability: within each time, indices ascend.
        for time in set(quantised):
            indices = [i for (t, i) in fired if t == time]
            assert indices == sorted(indices)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1000.0),
                st.floats(min_value=0.0, max_value=1000.0),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_nested_scheduling_never_goes_backwards(self, pairs):
        """Callbacks scheduling further callbacks keep the clock monotone."""
        sim = Simulator()
        observed = []

        def outer(extra):
            observed.append(sim.now)
            sim.schedule(extra, lambda: observed.append(sim.now))

        for first, second in pairs:
            sim.schedule(first, outer, second)
        sim.run()
        assert observed == sorted(observed)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_run_until_partitions_execution(self, delays, boundary):
        """run(until=b); run() fires every event exactly once, in order."""
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, fired.append, delay)
        sim.run(until=boundary)
        assert all(value <= boundary for value in fired)
        sim.run()
        assert sorted(fired) == sorted(delays)


class TestTimerProperties:
    @given(
        st.lists(
            st.tuples(st.sampled_from(["start", "cancel"]),
                      st.floats(min_value=0.01, max_value=10.0)),
            min_size=1, max_size=40,
        )
    )
    def test_timer_fires_iff_last_op_was_uncancelled_start(self, operations):
        """Under any start/cancel sequence (applied at t=0), the timer
        fires exactly once iff the final operation was a start."""
        sim = Simulator()
        fired = []
        timer = sim.timer(lambda: fired.append(sim.now))
        last = None
        for op, delay in operations:
            if op == "start":
                timer.start(delay)
                last = delay
            else:
                timer.cancel()
                last = None
        sim.run()
        if last is None:
            assert fired == []
        else:
            assert fired == [last]

    @given(st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=20))
    def test_sequential_restarts_fire_once_per_cycle(self, delays):
        """start → run → start → run …: one firing per cycle, at the
        cumulative deadline."""
        sim = Simulator()
        fired = []
        timer = sim.timer(lambda: fired.append(sim.now))
        expected = []
        now = 0.0
        for delay in delays:
            timer.start(delay)
            expected.append(now + delay)
            sim.run()
            now = sim.now
        assert len(fired) == len(expected)
        for got, want in zip(fired, expected):
            assert abs(got - want) < 1e-9


# -- the carrier rule against the push-per-start reference -------------------

TIMERS = 3
# A coarse grid, for both the instants operations run at and their
# delays: deadlines then collide with each other, with carriers and with
# plain events, and same-instant order is what is being compared.
GRID = [0.0, 1.0, 2.0, 3.0, 4.0]

_timer_op = st.tuples(
    st.sampled_from(GRID), st.integers(0, TIMERS - 1),
    st.sampled_from(["start", "cancel", "cancel-start"]), st.sampled_from(GRID),
)
_plain_op = st.tuples(
    st.sampled_from(GRID), st.none(), st.just("plain"), st.sampled_from(GRID),
)
_histories = st.lists(st.one_of(_timer_op, _plain_op), max_size=40)
# Per timer, the delays it restarts itself with from inside its own
# callback, one per firing.
_refires = st.lists(st.lists(st.sampled_from(GRID), max_size=3),
                    min_size=TIMERS, max_size=TIMERS)


class _StubLoop:
    """What AsyncioClock needs of a loop, with a clock the test advances."""

    class _Handle:
        def cancel(self):
            pass

    def __init__(self):
        self.now = 0.0

    def time(self):
        return self.now

    def call_at(self, when, callback):
        return self._Handle()


def _run_des(step):
    sim = Simulator()
    return sim, sim.run


def _run_pumped(step):
    loop = _StubLoop()
    clock = AsyncioClock(loop)

    def drain():
        while clock._heap:
            loop.now += step
            clock.kick()

    return clock, drain


def _play(make_clock, timer_class, history, refires, step):
    """Run *history*; the log of live callbacks, ``_sequence``, ``event_count``."""
    clock, drain = make_clock(step)
    log = []
    refires = [list(delays) for delays in refires]
    shortened = [0] * TIMERS  # starts that pushed beside a later carrier

    def check_one_entry_per_timer():
        if timer_class is not Timer:
            return
        for timer, spare in zip(timers, shortened):
            assert len(timer_entries(clock, timer)) <= 1 + spare

    def start(index, delay):
        carried = getattr(timers[index], "_carrier_time", None)
        if carried is not None and clock.now + delay < carried:
            shortened[index] += 1
        timers[index].start(delay)

    def fired(index):
        log.append((clock.now, f"timer{index}"))
        if refires[index]:
            start(index, refires[index].pop(0))
        check_one_entry_per_timer()

    def apply(number, index, action, delay):
        if action == "plain":
            clock.schedule(delay, lambda: log.append((clock.now, f"plain{number}")))
            return
        if action != "start":
            timers[index].cancel()
        if action != "cancel":
            start(index, delay)
        check_one_entry_per_timer()

    timers = [timer_class(clock, lambda index=index: fired(index))
              for index in range(TIMERS)]
    for number, (at, index, action, delay) in enumerate(history):
        clock.schedule(at, apply, number, index, action, delay)
    drain()
    assert not any(timer.running for timer in timers)
    return log, clock._sequence, clock.event_count


class TestTimerAgainstReference:
    @pytest.mark.parametrize("make_clock", [_run_des, _run_pumped])
    @settings(max_examples=300, deadline=None)
    @given(history=_histories, refires=_refires,
           step=st.sampled_from([0.5, 1.0, 2.5]))
    def test_same_live_callbacks_in_the_same_order(self, make_clock, history,
                                                   refires, step):
        """Start later / at the same instant / earlier, cancel,
        cancel-then-start, restart from inside the callback: every live
        callback at the reference's ``(now, who)``, every sequence
        number reserved, never more than one heap entry per timer unless
        a start shortened its deadline — and nothing popped that the
        reference did not pop."""
        log, sequence, events = _play(make_clock, Timer, history, refires, step)
        want_log, want_sequence, want_events = _play(
            make_clock, ReferenceTimer, history, refires, step)
        assert log == want_log
        assert sequence == want_sequence
        assert events <= want_events
