"""One loop wake-up per frame on the live link.

- The alarm rule: a frame's serialisation end keeps its heap entry but
  wakes the loop no sooner than its frame can reach the wire
  (``AsyncioClock.defer_wakeup``).  A :class:`UdpChannel` on a clock
  pumped only at its armed deadlines sends the same datagrams at the
  same wall instants, runs its idle callbacks and timers at the same
  times and counts the same as one pumped at every entry's due time;
  and no deadline is ever armed past the heap's next entry.
- The loopback read: on a :class:`UdpLink` each ``sendto`` is followed
  by one read of the peer's socket, so a datagram is handled in the
  dispatch that sent it, at its emulated arrival instant; a datagram not
  there yet still arrives through the loop's reader.  At zero BER such a
  session retransmits nothing unless a datagram was left to that reader.

The loopback tests rely on the kernel queueing a loopback datagram on
its destination socket before ``sendto`` returns, as Linux does.  A
datagram the kernel has not queued yet is read by the loop a pass later
and stamped at wall time, as on the two-process path; the tests bound
how many may be, and let a retransmission through only for such a one.
"""

from __future__ import annotations

import asyncio
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frames import CheckpointFrame, IFrame
from repro.simulator import StreamRegistry
from repro.transport import AsyncioClock, Impairments, golden_scenario
from repro.transport import udp
from repro.transport.conformance import make_payload, payload_index
from repro.transport.session import open_loopback
from repro.transport.udp import UdpChannel

RATE = 1e6
DELAY = 0.005  # a propagation delay of a little over two frame times
FRAME_BITS = 2128
TX = FRAME_BITS / RATE


class _AlarmLoop:
    """What AsyncioClock needs of a loop: a time the test sets, and
    ``call_at`` keeping the one live alarm and recording, for each
    deadline armed, the time of the heap's next entry."""

    def __init__(self) -> None:
        self.now = 0.0
        self.clock: AsyncioClock | None = None
        self.alarm: _Alarm | None = None
        self.armed: list[tuple[float, float]] = []

    def time(self) -> float:
        return self.now

    def call_at(self, when: float, callback) -> "_Alarm":
        following = [entry[0] for entry in self.clock._heap[1:3]]
        self.armed.append((when, min(following, default=math.inf)))
        self.alarm = _Alarm(self, when, callback)
        return self.alarm


class _Alarm:
    def __init__(self, loop: _AlarmLoop, when: float, callback) -> None:
        self.loop, self.when, self.callback = loop, when, callback

    def cancel(self) -> None:
        if self.loop.alarm is self:
            self.loop.alarm = None


def _frame(index: int, control: bool = False):
    if control:
        return CheckpointFrame(cp_index=index, issue_time=0.0, size_bits=96)
    return IFrame(seq=index, payload=bytes([index % 256]) * 256,
                  size_bits=FRAME_BITS, transmit_index=index)


def _play(script, armed: bool, impairments: Impairments, source: int = 0):
    """Play *script*, ``(wall time, action, argument)`` in time order, on a
    ``UdpChannel``; pump the clock at its armed deadlines (*armed*) or at
    every entry's due time.  The channel's idle callback sends the next
    of *source* frames, as a sender's drain does."""
    loop = _AlarmLoop()
    clock = loop.clock = AsyncioClock(loop)
    emits, idles, timers = [], [], []
    channel = UdpChannel(
        clock, "t.fwd", emit=lambda data: emits.append((loop.now, clock.now, data)),
        bit_rate=RATE, impairments=impairments, streams=StreamRegistry(seed=5),
    )
    backlog = [_frame(100 + index) for index in range(source)]

    def idle() -> None:
        idles.append(clock.now)
        if backlog:
            channel.send(backlog.pop(0))

    channel.on_idle(idle)

    def advance(until: float) -> None:
        while True:
            if armed:
                due = loop.alarm.when if loop.alarm is not None else None
            else:
                due = clock._heap[0][0] if clock._heap else None
            if due is None or due > until:
                break
            loop.now = max(loop.now, due)
            if armed:
                callback, loop.alarm = loop.alarm.callback, None
                callback()
            else:
                clock.kick()
        loop.now = max(loop.now, until)

    for when, action, argument in [*script, (math.inf, None, None)]:
        advance(when)
        if action == "send":  # an external entry: bracketed by kicks
            clock.kick()
            for frame in argument:
                channel.send(frame)
            clock.kick()
        elif action == "down":
            channel.down()
        elif action == "up":
            channel.up()
        elif action == "kick":
            clock.kick()
        elif action == "timer":
            clock.kick()
            clock.schedule(argument, lambda: timers.append(clock.now))
            clock.kick()
    assert not clock._heap
    counters = (channel.frames_sent, channel.frames_corrupted, channel.frames_dropped,
                channel.frames_lost_outage, channel.bytes_sent, channel.busy_seconds,
                clock.event_count)
    return emits, idles, timers, counters, loop.armed


def _assert_exact(script, impairments=Impairments(propagation_delay=DELAY), source=0):
    armed = _play(script, True, impairments, source)
    every = _play(script, False, impairments, source)
    # Datagrams leave at the same wall instants, stamped the same.
    assert armed[0] == every[0]
    assert all(wall == now for wall, now, _ in armed[0])
    assert armed[1:4] == every[1:4]
    for deadline, following in armed[4]:
        assert deadline <= following
    return armed


CASES = {
    "lone frame": [(0.0, "send", [_frame(1)])],
    "back-to-back queue": [(0.0, "send", [_frame(1), _frame(2), _frame(3, control=True)])],
    "down before the deferred wake-up": [
        (0.0, "send", [_frame(1), _frame(2)]),
        (TX + DELAY / 2, "down", None),
        (3 * TX + 2 * DELAY, "up", None),
        (4 * TX + 3 * DELAY, "send", [_frame(3)]),
    ],
    "kick before the deferred wake-up": [
        (0.0, "send", [_frame(1)]),
        (TX + DELAY / 3, "kick", None),
        (TX + DELAY / 2, "send", [_frame(2)]),
    ],
    "timers among the frames": [
        (0.0, "timer", TX + DELAY / 4),
        (0.0, "send", [_frame(1), _frame(2)]),
        (TX / 2, "timer", 2 * TX),
    ],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_deferred_wakeup_changes_nothing_but_the_wakeup(case):
    emits, idles, _, counters, _ = _assert_exact(CASES[case], source=4)
    assert emits and idles
    assert len(emits) + counters[3] == counters[0]  # sent: on the wire or lost


def test_a_lone_frame_costs_one_wakeup():
    emits, idles, _, counters, armed = _assert_exact(CASES["lone frame"])
    assert [now for _, now, _ in emits] == [TX + DELAY]
    assert idles == [TX]
    # One alarm, at the arrival: the serialisation end waits for it.
    assert [deadline for deadline, _ in armed] == [TX + DELAY]


def test_a_cut_while_the_wakeup_waits_loses_the_frame_where_it_would_have():
    _, _, _, counters, _ = _assert_exact(CASES["down before the deferred wake-up"])
    assert counters[3] == 2  # both in flight when the direction went down


def test_jitter_drops_and_corruption_draw_the_same():
    impairments = Impairments(propagation_delay=DELAY, jitter=DELAY,
                              iframe_ber=1e-4, drop=("uniform-loss", {"probability": 0.2}))
    _, _, _, counters, _ = _assert_exact(CASES["back-to-back queue"], impairments, source=24)
    assert counters[1] and counters[2]  # some corrupted, some dropped


ACTIONS = st.one_of(
    st.tuples(st.just("send"), st.integers(1, 3), st.booleans()),
    st.tuples(st.just("timer"), st.sampled_from([0.0, TX / 2, TX, DELAY, DELAY + TX])),
    st.tuples(st.sampled_from(["down", "up", "kick"])),
)
STEPS = st.lists(st.tuples(st.sampled_from([0.0, TX / 4, TX, DELAY / 2, DELAY]), ACTIONS),
                 max_size=8)


@settings(max_examples=80, deadline=None)
@given(STEPS, st.integers(0, 6), st.booleans())
def test_generated_scripts_are_exact(steps, source, jitter):
    script, when, index = [], 0.0, 0
    for gap, action in steps:
        when += gap
        if action[0] == "send":
            frames = [_frame(index + k, control=action[2] and k == 0)
                      for k in range(action[1])]
            index += action[1]
            script.append((when, "send", frames))
        elif action[0] == "timer":
            script.append((when, "timer", action[1]))
        else:
            script.append((when, action[0], None))
    impairments = Impairments(propagation_delay=DELAY, jitter=DELAY if jitter else 0.0)
    _assert_exact(script, impairments, source)


# -- the loopback read -------------------------------------------------------

# udp_paced's link: 2 Mbps, 300 km, W_cp 50 ms, offered at 60% of its frame rate.
PACED = golden_scenario("clean").with_(bit_rate=2e6, distance_km=300.0,
                                       checkpoint_interval=0.05)
PAYLOAD_BYTES = 256


async def _paced_session(count: int, seed: int, patch=None) -> dict:
    """Offer *count* payloads at 60% of the link's frame rate and wait for
    them all and for the sender's ledger to drain; what was seen."""
    setup = await open_loopback(PACED, "lams", seed, run_with_invariants=False)
    loop, clock, link = asyncio.get_running_loop(), setup.sim, setup.link
    seen = {"inline": 0, "emit_time": 0, "handled": 0}
    sending: list[float] = []
    for sock in (link.socket_a, link.socket_b):
        channel, handler = sock.channel, sock.handler

        def emit(data, control, corrupted, inner=channel._emit_datagram):
            sending.append(clock.now)
            try:
                inner(data, control, corrupted)
            finally:
                sending.pop()

        def handle(frame, corrupted, inner=handler):
            seen["handled"] += 1
            if sending:
                seen["inline"] += 1
                seen["emit_time"] += clock.now == sending[-1]
            inner(frame, corrupted)

        channel._emit_datagram = emit
        sock.attach(handle)
        if patch is not None:
            patch(sock)
    sender = setup.endpoint_a.sender
    frame_bits = 8 * PAYLOAD_BYTES + PACED.iframe_overhead_bits
    interval = frame_bits / (0.6 * PACED.bit_rate)
    origin = loop.time()
    try:
        for index in range(count):
            delay = origin + index * interval - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            clock.kick()
            assert setup.endpoint_a.accept(make_payload(index, PAYLOAD_BYTES))
            clock.kick()
        deadline = loop.time() + 10.0
        while loop.time() < deadline:
            clock.kick()
            unique = {payload_index(data) for data in setup.delivered}
            if len(unique) == count and not sender.held_payloads():
                break
            await asyncio.sleep(0.005)
    finally:
        await setup.close()
    seen.update(
        unique=len({payload_index(data) for data in setup.delivered}),
        delivered=len(setup.delivered),
        retransmissions=sender.retransmissions,
        datagrams=link.socket_a.datagrams_received + link.socket_b.datagrams_received,
        frames=link.forward.frames_sent + link.reverse.frames_sent,
    )
    return seen


def _count_loop_reads(monkeypatch) -> list[int]:
    reads = [0]
    received = udp._UdpPeerProtocol.datagram_received

    def counted(self, data, addr):
        reads[0] += 1
        received(self, data, addr)

    monkeypatch.setattr(udp._UdpPeerProtocol, "datagram_received", counted)
    return reads


def test_a_loopback_datagram_is_handled_in_the_dispatch_that_sent_it(monkeypatch):
    reads = _count_loop_reads(monkeypatch)
    seen = asyncio.run(_paced_session(120, seed=7))
    assert seen["unique"] == 120
    assert seen["datagrams"] == seen["frames"] == seen["handled"]
    # The kernel hands a loopback datagram over within sendto; the loop's
    # reader is left (next to) nothing.
    assert reads[0] <= seen["datagrams"] // 50
    assert seen["inline"] == seen["datagrams"] - reads[0]
    assert seen["emit_time"] == seen["inline"]


def test_a_datagram_not_there_yet_arrives_through_the_loop(monkeypatch):
    reads = _count_loop_reads(monkeypatch)

    def not_yet(size):
        raise BlockingIOError

    def patch(sock):
        monkeypatch.setattr(sock, "_recvfrom", not_yet)

    seen = asyncio.run(_paced_session(120, seed=7, patch=patch))
    assert seen["unique"] == 120
    assert seen["datagrams"] == seen["frames"] == seen["handled"] == reads[0]
    assert seen["inline"] == 0


def test_zero_ber_loopback_transfer_retransmits_nothing(monkeypatch):
    """At zero BER a retransmission is spurious, and so is the duplicate
    it delivers: every original arrives.  A datagram read in the dispatch
    that sent it cannot wait a loop pass while a timer fires; one the
    loop's reader took may have, so each such datagram allows at most one
    retransmission (and none are expected on an idle host)."""
    reads = _count_loop_reads(monkeypatch)
    seen = asyncio.run(_paced_session(400, seed=23))
    assert seen["unique"] == 400
    assert reads[0] <= seen["datagrams"] // 50
    assert seen["retransmissions"] <= reads[0]
    assert seen["delivered"] - 400 <= seen["retransmissions"]  # duplicates
