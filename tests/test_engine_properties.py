"""Hypothesis property tests for the discrete-event engine."""

from __future__ import annotations

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.engine import Periodic, Simulator, Timer, _Round
from repro.topology import build_constellation, ring_topology
from repro.transport.clock import AsyncioClock

from . import spec
from .conftest import PerFrameClock


def timer_entries(sim: Simulator, timer: Timer) -> list[tuple]:
    """The heap entries that will surface for *timer* (carrier or left behind)."""
    return [entry for entry in sim._heap
            if entry[2] is Timer._surfaced and entry[3][0] is timer]


def round_entries(sim: Simulator) -> list[tuple]:
    """The heap entries of ``sim.every``'s rounds."""
    return [entry for entry in sim._heap if entry[2] is _Round._fire]


def round_members(entry: tuple) -> list[Periodic]:
    """The members a round's heap entry runs next, in order."""
    return list(entry[3][0].calls)


def pending_calls(clock) -> list[tuple[float, object, tuple]]:
    """``(time, callback, args)`` of every call still due, in dispatch
    order: a round of :meth:`Simulator.every` counts once per member."""
    if isinstance(clock, spec.Engine):
        return clock.pending()
    calls = []
    for when, _, callback, args in sorted(clock._heap):
        if callback is _Round._fire:
            calls.extend((when, member, ()) for member in args[0].calls)
        else:
            calls.append((when, callback, args))
    return calls


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


# -- the carrier rule against the specification's entry per start ------------

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


def _run_des(step, reference=False):
    return _des_until(step, reference, horizon=None)


def _run_pumped(step, reference=False):
    return _pumped_until(step, reference, horizon=24.0)  # past every deadline


def _play(make_clock, reference, history, refires, step):
    """Run *history*, on the specification's engine if *reference*; the
    log of live callbacks, ``_sequence`` and ``event_count``."""
    clock, drain = make_clock(step, reference)
    log = []
    refires = [list(delays) for delays in refires]
    shortened = [0] * TIMERS  # starts that pushed beside a later carrier

    def check_one_entry_per_timer():
        if reference:
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

    timers = [clock.timer(lambda index=index: fired(index)) for index in range(TIMERS)]
    for number, (at, index, action, delay) in enumerate(history):
        clock.schedule(at, apply, number, index, action, delay)
    drain(log)
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
        callback at the ``(now, who)`` of the specification's timer (an
        entry per start), every sequence number reserved, never more than
        one heap entry per timer unless a start shortened its deadline —
        and nothing popped that the specification did not pop."""
        log, sequence, events = _play(make_clock, False, history, refires, step)
        want_log, want_sequence, want_events = _play(make_clock, True, history, refires, step)
        assert log == want_log
        assert sequence == want_sequence
        assert events <= want_events


# -- rounds against one self-restarting timer per callback -------------------

MEMBERS = 4
# Halves are exact in binary, so instants and deadlines collide for real:
# equal keys share a round, and same-instant order is what is compared.
INSTANTS = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0]
INTERVALS = [0.5, 1.0, 2.0]
HORIZON = 8.0

# (instant, late, action, member, interval or delay).  A *late* op goes
# through a zero-delay hop, so it runs behind whatever was already queued
# for its instant — after the rounds due then have fired and re-armed.
_round_op = st.tuples(
    st.sampled_from(INSTANTS), st.booleans(), st.sampled_from(["join", "cancel"]),
    st.integers(0, MEMBERS - 1), st.sampled_from(INTERVALS),
)
_round_plain = st.tuples(
    st.sampled_from(INSTANTS), st.just(False), st.just("plain"), st.none(),
    st.sampled_from(INTERVALS),
)
_round_histories = st.lists(st.one_of(_round_op, _round_plain), max_size=30)


def _scripts(actions):
    """Per member, what its callback does on each of its first firings."""
    return st.lists(st.lists(actions, max_size=3),
                    min_size=MEMBERS, max_size=MEMBERS)


# What a callback may do where the order inside an instant is compared
# exactly: cancel itself, a later member of the firing round or any
# other, join a member on an interval other than its own, stop() the
# run or raise ...
_exact_scripts = _scripts(st.one_of(
    st.just(("none",)),
    st.tuples(st.just("cancel"), st.integers(0, MEMBERS - 1)),
    st.tuples(st.just("join-other-interval"), st.integers(0, MEMBERS - 1),
              st.integers(1, len(INTERVALS) - 1)),
    st.just(("stop",)),
    st.just(("raise",)),
))
# ... and where only the instants are: what touches nobody but itself,
# entries and re-joins on its own interval included.
_self_scripts = _scripts(st.one_of(
    st.just(("none",)),
    st.just(("cancel-self",)),
    st.tuples(st.just("rejoin-self"), st.sampled_from(INTERVALS)),
    st.tuples(st.just("plain"), st.sampled_from(INTERVALS)),
))


class Boom(Exception):
    """What a scripted callback raises."""


def _des_until(step, reference=False, horizon=HORIZON):
    sim = spec.Engine() if reference else Simulator()

    def drain(log):
        while True:  # a stop() or an exception ends a run: run again
            try:
                sim.run(until=horizon)
            except Boom:
                continue
            if not sim._stopped:
                return
            log.append((sim.now, "stopped"))  # what ran before the stop

    return sim, drain


def _kick(kick):
    while True:  # an exception ends a pump: pump again
        try:
            kick()
            return
        except Boom:
            pass


def _pumped_until(step, reference=False, horizon=HORIZON):
    if reference:  # run to each step of the wall clock, deaf to stop() as a pump is
        engine = spec.Engine()
        engine.stop = lambda: None

        def drain_spec(log):
            wall = 0.0
            while wall < horizon:
                wall += step
                _kick(partial(engine.run, until=wall))

        return engine, drain_spec
    loop = _StubLoop()
    clock = AsyncioClock(loop)

    def drain(log):
        while loop.now < horizon:
            loop.now += step  # 2.5: every round is pumped late, some twice over
            _kick(clock.kick)

    return clock, drain


def _play_rounds(make_clock, reference, history, scripts, step):
    """Run *history*; the ``(now, who)`` log and ``event_count``."""
    clock, drain = make_clock(step, reference)
    log = []
    scripts = [list(script) for script in scripts]
    handles = [None] * MEMBERS
    intervals = [None] * MEMBERS

    def check_one_entry_per_round():
        if reference:
            return
        entries = round_entries(clock)
        assert len(entries) == len(clock._rounds)
        for when, _, _, (armed, _) in entries:
            assert armed.key[0] == when and clock._rounds[armed.key] is armed

    def cancel(index):
        if handles[index] is not None:
            handles[index].cancel()
            handles[index] = None

    def join(index, interval):
        cancel(index)  # on a running member this is stop(); start()
        intervals[index] = interval
        callback = partial(fired, index)
        handles[index] = clock.every(interval, callback)

    def plain(tag, delay):
        clock.schedule(delay, lambda: log.append((clock.now, tag)))

    def fired(index):
        log.append((clock.now, f"member{index}"))
        action = scripts[index].pop(0) if scripts[index] else ("none",)
        if action[0] == "cancel":
            cancel(action[1])
        elif action[0] == "join-other-interval":
            own = INTERVALS.index(intervals[index])
            join(action[1], INTERVALS[(own + action[2]) % len(INTERVALS)])
        elif action[0] == "cancel-self":
            cancel(index)
        elif action[0] == "rejoin-self":
            join(index, action[1])
        elif action[0] == "plain":
            plain(f"scheduled-by-member{index}", action[1])
        elif action[0] == "stop":
            clock.stop()
        elif action[0] == "raise":
            raise Boom(index)

    def apply(number, action, index, value):
        if action == "plain":
            plain(f"plain{number}", value)
        elif action == "join":
            join(index, value)
        else:
            cancel(index)
        check_one_entry_per_round()

    for number, (at, late, action, index, value) in enumerate(history):
        if late:
            clock.schedule(at, clock.schedule, 0.0, apply, number, action, index, value)
        else:
            clock.schedule(at, apply, number, action, index, value)
    drain(log)
    check_one_entry_per_round()
    return log, clock.event_count


class TestRoundsAgainstReference:
    @pytest.mark.parametrize("make_clock", [_des_until, _pumped_until])
    @settings(max_examples=300, deadline=None)
    @given(history=_round_histories, scripts=_exact_scripts,
           step=st.sampled_from([0.5, 1.0, 2.5]))
    def test_same_callbacks_in_the_same_order(self, make_clock, history,
                                              scripts, step):
        """Join at equal and at different instants and intervals, cancel
        from outside, from inside one's own callback and of a later
        member of the firing round, stop(); start() at one instant, join
        during a firing, a round re-arming onto another's key, a member
        calling ``sim.stop()`` or raising mid-round and the run (or pump)
        started again: the same
        ``(now, who)`` log as the specification's self-restarting timer
        per callback, plain events at the rounds' instants included, one
        heap entry a round throughout — and nothing popped the
        specification did not pop.

        Exact, because nothing here takes a number *between* two members
        of a round: each instant's plain entries are scheduled before its
        joins, and a callback joins nobody to its own interval."""
        history = sorted(history, key=lambda op: op[2] != "plain")
        log, events = _play_rounds(make_clock, False, history, scripts, step)
        want_log, want_events = _play_rounds(make_clock, True, history, scripts, step)
        assert log == want_log
        assert events <= want_events

    @pytest.mark.parametrize("make_clock", [_des_until, _pumped_until])
    @settings(max_examples=300, deadline=None)
    @given(history=_round_histories, scripts=_self_scripts,
           step=st.sampled_from([0.5, 1.0, 2.5]))
    def test_same_callbacks_at_the_same_instants(self, make_clock, history,
                                                 scripts, step):
        """Entries and re-joins from inside a member's callback, entries
        between two joins: an entry can now take a number between two
        members, so it runs on one side of the whole round — every
        callback still at the specification's instant, bit for bit."""
        log, events = _play_rounds(make_clock, False, history, scripts, step)
        want_log, want_events = _play_rounds(make_clock, True, history, scripts, step)
        assert sorted(log) == sorted(want_log)
        assert [now for now, _ in log] == [now for now, _ in want_log]
        assert events <= want_events


# -- same-instant entries, timers and rounds against an entry per call -------

# Deltas from 0.0 to 1.0 in halves: entries from different ops and from
# inside callbacks land on each other's instants.
ENTRY_INSTANTS = [0.0, 0.5, 1.0, 2.0]
ENTRY_DELAYS = [0.0, 0.5, 1.0]
ENTRY_HORIZON = 5.0

# What a scheduled callback does when it runs.  What it schedules
# carries no action of its own, so a history stays finite.
_entry_then = st.one_of(
    st.just(("none",)),
    st.tuples(st.just("entries"), st.integers(1, 3), st.sampled_from(ENTRY_DELAYS)),
    st.tuples(st.just("plain"), st.sampled_from(ENTRY_DELAYS)),
    st.tuples(st.just("timer"), st.integers(0, TIMERS - 1),
              st.sampled_from(ENTRY_DELAYS)),
    st.just(("stop",)),
    st.just(("raise",)),
)
# One step of an op; an op's steps are made back to back from one callback.
# An entries step is a run of entries for one instant, each with its own action.
_entry_step = st.one_of(
    st.tuples(st.just("entries"), st.sampled_from(ENTRY_DELAYS),
              st.lists(_entry_then, min_size=1, max_size=4)),
    st.tuples(st.just("timer"), st.integers(0, TIMERS - 1),
              st.sampled_from(["start", "cancel", "cancel-start"]),
              st.sampled_from(ENTRY_DELAYS)),
    st.tuples(st.just("every"), st.sampled_from([0.5, 1.0])),
)
_entry_histories = st.lists(
    st.tuples(st.sampled_from(ENTRY_INSTANTS),
              st.lists(_entry_step, min_size=1, max_size=6)),
    max_size=10,
)


def _entry_des(step, reference=False):
    return _des_until(step, reference, ENTRY_HORIZON)


def _entry_pumped(step, reference=False):
    return _pumped_until(step, reference, ENTRY_HORIZON)  # step 1.5: most entries late


def _play_entries(make_clock, reference, history, step):
    """Run *history*; the ``(now, who)`` log, what is still pending as
    ``(time, who)`` in dispatch order, and ``event_count``."""
    clock, drain = make_clock(step, reference)
    log = []

    def expired(index):
        log.append((clock.now, f"timer{index}"))

    timers = [clock.timer(partial(expired, index)) for index in range(TIMERS)]

    def fired(label, then):
        log.append((clock.now, label))
        if then[0] == "entries":  # zero delay included: at the running instant
            for nested in range(then[1]):
                clock.schedule_at(clock.now + then[2], fired, f"{label}/{nested}", ("none",))
        elif then[0] == "plain":
            clock.schedule(then[1], plain, f"{label}/plain")
        elif then[0] == "timer":
            timers[then[1]].start(then[2])
        elif then[0] == "stop":
            clock.stop()
        elif then[0] == "raise":
            raise Boom(label)

    def plain(label):
        log.append((clock.now, label))

    def apply(number, steps):
        for index, (kind, *values) in enumerate(steps):
            label = f"op{number}.{index}"
            if kind == "entries":
                delay, thens = values
                for member, then in enumerate(thens):
                    clock.schedule_at(clock.now + delay, fired, f"{label}.{member}", then)
            elif kind == "timer":
                timer, action, delay = values
                if action != "start":
                    timers[timer].cancel()
                if action != "cancel":
                    timers[timer].start(delay)
            else:
                clock.every(values[0], partial(plain, label))

    def who(callback, args):
        if callback in (fired, plain):
            return args[0]
        if callback is Timer._surfaced:
            return f"timer{timers.index(args[0])}"
        owner = getattr(callback, "__self__", callback)  # the specification's are bound
        if isinstance(owner, (Periodic, spec.Periodic)):
            return "member " + owner.callback.args[0]
        return f"timer{timers.index(owner)}"

    for number, (at, steps) in enumerate(history):
        clock.schedule(at, apply, number, steps)
    drain(log)
    pending = [(when, who(callback, args))
               for when, callback, args in pending_calls(clock)]
    return log, pending, clock.event_count


class TestPushRuleAgainstReference:
    # The ids these tests were first listed under.
    @pytest.mark.parametrize("make_clock", [_entry_des, _entry_pumped],
                             ids=["_push_des", "_push_pumped"])
    @settings(max_examples=300, deadline=None)
    @given(history=_entry_histories, step=st.sampled_from([0.5, 1.0, 1.5]))
    def test_same_calls_in_the_same_order(self, make_clock, history, step):
        """Runs of entries for one instant, made back to back and from
        inside a running entry (zero delay included), with nested
        ``schedule`` calls, timer start / restart / cancel and ``every``
        joins between them, a callback calling ``stop()`` or raising and
        the run (or pump) started again: the same ``(now, who)`` log as
        the specification's engine, the same calls pending past the
        horizon in the same order — and nothing popped that the
        specification did not.  Where two ``every`` joins of one interval
        may share a round, an entry can take a number between its
        members (the ordering rule in ``every``'s docstring): there only
        the instants are compared."""
        log, pending, events = _play_entries(make_clock, False, history, step)
        want_log, want_pending, want_events = _play_entries(
            make_clock, True, history, step)
        times = [now for now, _ in log]
        assert times == sorted(times)  # a stopped run leaves now where it stopped
        intervals = [values[0] for _, steps in history for kind, *values in steps
                     if kind == "every"]
        if len(intervals) != len(set(intervals)):  # two joins can share a round
            log, want_log, pending, want_pending = map(
                sorted, (log, want_log, pending, want_pending))
        assert log == want_log
        assert pending == want_pending
        assert events <= want_events


# -- rounds and batches in one history, against the specification ------------

# A *batch* here is a run of entries scheduled back to back for one
# instant.  Members join on whole intervals and batches land on halves as
# well, so rounds and batches share instants.
MIXED_INTERVALS = [1.0, 2.0]


def _mixed_case(exact):
    """``(exact, history, scripts)``: timed ops, and per member what its
    callback does on each of its first firings.

    *exact*: no batch is a whole interval ahead and no member joins anyone
    on its own interval, so nothing takes a sequence number between two
    members of a round, the order is compared exactly, and calls may
    cancel and join each other.  Otherwise a call touches only itself
    (schedule a batch, rejoin or cancel itself, stop, raise, start a
    member of its own), and only the instants are compared."""
    delays = [0.0, 0.5, 1.5] if exact else [0.0, 0.5, 1.0, 2.0]
    nested = st.tuples(st.just("entries"), st.sampled_from(delays),
                       st.lists(st.just(("none",)), min_size=1, max_size=2))
    join = st.tuples(st.just("join"), st.integers(0, MEMBERS - 1),
                     st.sampled_from(MIXED_INTERVALS))
    cancel = st.tuples(st.just("cancel"), st.integers(0, MEMBERS - 1))
    either = [st.just(("none",)), st.just(("stop",)), st.just(("raise",)), nested]
    if exact:
        scheduled = member = st.one_of(*either, join, cancel)
    else:
        scheduled = st.one_of(*either, st.just(("join-new",)))
        member = st.one_of(*either, st.just(("cancel-self",)),
                           st.tuples(st.just("rejoin-self"),
                                     st.sampled_from(MIXED_INTERVALS)))
    batch = st.tuples(st.just("entries"), st.sampled_from(delays),
                      st.lists(scheduled, min_size=1, max_size=3))
    return st.tuples(
        st.just(exact),
        st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                           st.one_of(join, cancel, batch)), max_size=12),
        st.lists(st.lists(st.one_of(member, batch), max_size=3),
                 min_size=MEMBERS, max_size=MEMBERS),
    )


def _play_mixed(make_clock, reference, history, scripts, step):
    """Run *history*; the ``(now, who)`` log and ``event_count``."""
    clock, drain = make_clock(step, reference)
    log = []
    scripts = [list(script) for script in scripts]
    firings = [0] * MEMBERS
    handles = {}  # name -> what every() returned
    intervals = {}

    def note(label):
        log.append((clock.now, label))

    def cancel(name):
        if name in handles:
            handles.pop(name).cancel()

    def join(name, interval, callback):
        cancel(name)
        intervals[name] = interval
        handles[name] = clock.every(interval, callback)

    def act(label, then, index=None):
        kind, own = then[0], f"member{index}"
        if kind == "entries":
            for number, nested in enumerate(then[2]):
                clock.schedule_at(clock.now + then[1], scheduled, f"{label}/{number}", nested)
        elif kind == "join" and intervals.get(own) != then[2]:  # not onto its own round
            join(f"member{then[1]}", then[2], partial(fired, then[1]))
        elif kind == "cancel":
            cancel(f"member{then[1]}")
        elif kind == "join-new":
            join(f"{label}+", 1.0, partial(note, f"{label}+"))
        elif kind == "cancel-self":
            cancel(own)
        elif kind == "rejoin-self":
            join(own, then[1], partial(fired, index))
        elif kind == "stop":
            clock.stop()
        elif kind == "raise":
            raise Boom(label)

    def scheduled(label, then):
        note(label)
        act(label, then)

    def fired(index):
        note(f"member{index}")
        firings[index] += 1
        then = scripts[index].pop(0) if scripts[index] else ("none",)
        act(f"member{index}.{firings[index]}", then, index)

    for number, (at, op) in enumerate(history):
        clock.schedule(at, act, f"op{number}", op)
    drain(log)
    return log, clock.event_count


class TestRoundsAndBatchesAgainstReference:
    @pytest.mark.parametrize("make_clock", [_des_until, _pumped_until])
    @settings(max_examples=300, deadline=None)
    @given(case=st.one_of(_mixed_case(True), _mixed_case(False)),
           step=st.sampled_from([0.5, 1.0, 2.5]))
    def test_same_calls_at_the_same_instants(self, make_clock, case, step):
        """Members of ``every`` rounds schedule same-instant batches, batch
        members join and cancel rounds, either calls ``stop()`` or
        raises and the run (or pump) starts again: against the
        specification's engine, the same ``(now, who)`` log where the
        ordering rule promises the order, every call at the same instant
        elsewhere — and nothing popped that the specification did not
        pop."""
        exact, history, scripts = case
        log, events = _play_mixed(make_clock, False, history, scripts, step)
        want_log, want_events = _play_mixed(make_clock, True, history, scripts, step)
        if exact:
            assert log == want_log
        else:
            assert sorted(log) == sorted(want_log)
            assert [now for now, _ in log] == [now for now, _ in want_log]
        assert events <= want_events


class TestCheckpointRounds:
    """What ``LamsReceiver`` holds in the heap for its periodic Check-Point."""

    @staticmethod
    def ring():
        # On the per-frame path: parked, an idle link leaves its round.
        constellation = build_constellation(ring_topology(6), sim=PerFrameClock(),
                                            master_seed=7)
        receivers = [endpoint.receiver for runtime in constellation.links.values()
                     for endpoint in (runtime.endpoint_a, runtime.endpoint_b)]
        return constellation.sim, receivers

    def test_twelve_receivers_started_together_hold_one_entry(self):
        sim, receivers = self.ring()
        interval = receivers[0].config.checkpoint_interval
        assert len(receivers) == 12
        (entry,) = round_entries(sim)
        assert entry[0] == interval and len(round_members(entry)) == 12
        before = sim.event_count
        sim.run(until=10.5 * interval)
        (entry,) = round_entries(sim)
        assert len(round_members(entry)) == 12
        assert [receiver.checkpoints_sent for receiver in receivers] == [10] * 12
        # Ten firings of the one entry (it was ten of each of twelve);
        # the 120 checkpoints' completions and the 84 that have landed,
        # an entry each; and 36 surfacings of the senders' timeout
        # carriers.
        assert sim.event_count - before == 10 + 120 + 84 + 36

    def test_a_receiver_restarted_mid_interval_gets_its_own(self):
        sim, receivers = self.ring()
        interval = receivers[0].config.checkpoint_interval
        sim.run(until=2.5 * interval)
        receivers[5].stop()
        receivers[5].start()
        shared, own = sorted(round_entries(sim))
        assert (shared[0], own[0]) == (3 * interval, 2.5 * interval + interval)
        assert len(round_members(own)) == 1
        sim.run(until=4.25 * interval)
        # The shared round dropped the cancelled member when it fired.
        shared, own = sorted(round_entries(sim), key=lambda entry: -len(
            round_members(entry)))
        assert len(round_members(shared)) == 11
        assert len(round_members(own)) == 1
        assert [r.checkpoints_sent for r in receivers] == [4] * 5 + [3] + [4] * 6
        # Stopped for good: its round of one lapses, the entry is gone.
        receivers[5].stop()
        sim.run(until=5.25 * interval)
        assert len(round_entries(sim)) == 1
        assert receivers[5].checkpoints_sent == 3


class TestIdleChannelEntries:
    """What an idle constellation's channels hold in the heap per ``W_cp``."""

    def test_twenty_four_idle_receivers_one_entry_each(self):
        """ring-12: each interval's 24 checkpoints leave the transmitters
        as 24 ``_complete`` entries and land as 24 ``_deliver`` entries:
        no frame shares another's entry, and none takes two."""
        constellation = build_constellation(ring_topology(12), sim=PerFrameClock(),
                                            master_seed=7)
        sim = constellation.sim
        link = next(iter(constellation.links.values()))
        interval = link.endpoint_a.receiver.config.checkpoint_interval
        seen = {id(entry): entry for entry in sim._heap}  # held: ids stay unique
        entries = {}  # (interval index, kind) -> heap entries pushed
        while sim.peek() <= 10 * interval:
            # One instant at a time: a channel entry is never due at the
            # instant it is pushed, so each shows up in the heap after it.
            sim.run(until=sim.peek())
            cycle = int(sim.now / interval + 1e-9)
            for entry in sim._heap:
                if id(entry) in seen:
                    continue
                seen[id(entry)] = entry
                kind = getattr(entry[2], "__name__", None)
                if kind in ("_complete", "_deliver"):
                    entries[cycle, kind] = entries.get((cycle, kind), 0) + 1
        assert {cycle for cycle, _ in entries} == set(range(1, 11))
        assert set(entries.values()) == {24}
