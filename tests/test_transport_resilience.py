"""Tests for the supervised session lifecycle (transport resilience).

The :class:`~repro.transport.supervisor.SessionSupervisor` promises
bounded establishment, dead-peer detection, reconnect-with-backoff, and
backlog replay across restarts — may fail, must never hang, never loses
acknowledged data.  These tests drive real loopback UDP sessions
through transport-level fault plans and assert those guarantees, with
the invariant monitors armed throughout.

No pytest-asyncio in the toolchain: async pieces run under
``asyncio.run`` inside plain test functions.
"""

from __future__ import annotations

import asyncio
import errno

import pytest

from repro.faults import (
    EndpointStall,
    FaultPlan,
    HandshakeBlackhole,
    PeerRestart,
    SendErrorBurst,
)
from repro.simulator import Tracer
from repro.transport import (
    AsyncioClock,
    Deadline,
    DecorrelatedJitterBackoff,
    Impairments,
    SupervisorPolicy,
    UdpLink,
    golden_scenario,
    run_supervised_transfer,
)


def _violations(result):
    suite = result.monitors
    return [] if suite is None else list(suite.violations)


# -- Deadline --------------------------------------------------------------


class TestDeadline:
    def test_counts_down_and_expires(self):
        ticks = iter([0.0, 0.4, 0.9, 1.1])
        clock = lambda: next(ticks)
        deadline = Deadline(1.0, clock=clock)
        assert deadline.remaining() == pytest.approx(0.6)
        assert not deadline.expired
        assert deadline.expired

    def test_remaining_never_negative(self):
        now = [0.0]
        deadline = Deadline(0.5, clock=lambda: now[0])
        now[0] = 2.0
        assert deadline.remaining() == 0.0
        assert deadline.elapsed() == pytest.approx(2.0)

    def test_sub_deadline_capped_by_parent(self):
        now = [0.0]
        deadline = Deadline(1.0, clock=lambda: now[0])
        now[0] = 0.8
        child = deadline.sub(5.0)
        assert child.remaining() == pytest.approx(0.2)
        small = deadline.sub(0.05)
        assert small.remaining() == pytest.approx(0.05)


# -- DecorrelatedJitterBackoff ---------------------------------------------


class TestDecorrelatedJitterBackoff:
    def _rng(self, seed=0):
        import numpy as np

        return np.random.Generator(np.random.PCG64(seed))

    def test_deterministic_for_a_seeded_rng(self):
        a = DecorrelatedJitterBackoff(0.05, 2.0, self._rng(7))
        b = DecorrelatedJitterBackoff(0.05, 2.0, self._rng(7))
        assert [a.next() for _ in range(6)] == [b.next() for _ in range(6)]

    def test_delays_respect_base_and_cap(self):
        backoff = DecorrelatedJitterBackoff(0.05, 0.3, self._rng(1))
        delays = [backoff.next() for _ in range(50)]
        assert all(0.05 <= d <= 0.3 for d in delays)
        # The decorrelated window must actually grow to the cap.
        assert max(delays) > 0.2

    def test_reset_shrinks_the_window(self):
        backoff = DecorrelatedJitterBackoff(0.05, 10.0, self._rng(2))
        for _ in range(8):
            backoff.next()
        backoff.reset()
        assert backoff.next() <= 0.15  # back inside [base, 3*base]


# -- SupervisorPolicy ------------------------------------------------------


class TestSupervisorPolicy:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            SupervisorPolicy(handshake_timeout=0.0)
        with pytest.raises(ValueError):
            SupervisorPolicy(heartbeat_timeout=-1.0)
        with pytest.raises(ValueError):
            SupervisorPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            SupervisorPolicy(backoff_base=0.5, backoff_cap=0.1)

    def test_for_scenario_is_slower_than_the_protocol(self):
        scenario = golden_scenario("clean")
        config = scenario.protocol_config("lams")
        policy = SupervisorPolicy.for_scenario(scenario, config=config)
        # The protocol's own detection machinery gets first claim.
        assert policy.handshake_timeout > config.checkpoint_timeout
        from repro.faults.metrics import declared_failure_bound

        bound = declared_failure_bound(config, scenario.round_trip_time)
        assert policy.heartbeat_timeout > bound

    def test_for_scenario_overrides_win(self):
        policy = SupervisorPolicy.for_scenario(
            golden_scenario("clean"), max_attempts=2, heartbeat_timeout=9.0,
        )
        assert policy.max_attempts == 2
        assert policy.heartbeat_timeout == 9.0


# -- supervised lifecycle over real sockets --------------------------------


class TestSupervisedTransfer:
    def test_clean_session_completes_in_one_attempt(self):
        result = run_supervised_transfer(
            golden_scenario("clean"), "lams", seed=3,
            n_frames=16, timeout=20.0,
        )
        assert result.completed
        assert result.failure_reason is None
        assert result.attempts == 1
        assert result.reconnects == 0
        assert result.digest == result.expected_digest
        assert _violations(result) == []

    def test_peer_restart_recovers_via_reconnect_and_replay(self):
        """The acceptance scenario: a mid-transfer peer restart must
        complete through supervised reconnect + backlog replay with
        zero invariant violations and no lost acknowledged data."""
        scenario = golden_scenario("clean")
        plan = FaultPlan(faults=(PeerRestart(start=0.03, duration=0.4),))
        policy = SupervisorPolicy.for_scenario(
            scenario, max_attempts=8, backoff_cap=0.3,
        )
        result = run_supervised_transfer(
            scenario, "lams", seed=11, n_frames=24, timeout=25.0,
            policy=policy, fault_plan=plan,
        )
        assert result.completed, result.failure_reason
        assert result.reconnects >= 1
        assert result.stats["payloads_reclaimed"] > 0
        assert result.delivered_unique == 24
        assert result.digest == result.expected_digest
        assert _violations(result) == []

    def test_dead_peer_declared_within_heartbeat_bound(self):
        """A peer that stops scheduling entirely — with the protocol's
        own watchdog slowed so it cannot react first — must yield a
        reason-tagged declared failure within the heartbeat budget."""
        scenario = golden_scenario("clean")
        stall_start, heartbeat = 0.3, 0.25
        # Slow the protocol detectors below the supervisor's heartbeat
        # so the keepalive is provably the one that fires.
        overrides = {"checkpoint_interval": 0.05, "cumulation_depth": 8}
        plan = FaultPlan(faults=(
            EndpointStall(start=stall_start, duration=30.0, endpoint="b"),
        ))
        policy = SupervisorPolicy(
            handshake_timeout=1.0, heartbeat_timeout=heartbeat, max_attempts=1,
        )
        result = run_supervised_transfer(
            scenario, "lams", seed=5, n_frames=400, timeout=20.0,
            policy=policy, overrides=overrides, fault_plan=plan,
        )
        assert not result.completed
        assert result.failure_reason == "peer-dead"
        # Detection bound: stall start + heartbeat budget + poll slack.
        assert result.elapsed <= stall_start + heartbeat + 0.5
        assert _violations(result) == []

    def test_handshake_blackhole_retries_until_established(self):
        scenario = golden_scenario("clean")
        plan = FaultPlan(faults=(
            HandshakeBlackhole(start=0.0, duration=0.8),
        ))
        policy = SupervisorPolicy.for_scenario(
            scenario, max_attempts=10, backoff_cap=0.3,
        )
        result = run_supervised_transfer(
            scenario, "lams", seed=9, n_frames=16, timeout=25.0,
            policy=policy, fault_plan=plan,
        )
        assert result.completed, result.failure_reason
        assert result.attempts > 1
        assert result.stats["datagrams_blackholed"] > 0
        assert _violations(result) == []

    def test_send_error_burst_is_absorbed(self):
        scenario = golden_scenario("clean")
        plan = FaultPlan(faults=(
            SendErrorBurst(start=0.01, duration=0.15,
                           probability=1.0, direction="forward"),
        ))
        result = run_supervised_transfer(
            scenario, "lams", seed=13, n_frames=24, timeout=25.0,
            policy=SupervisorPolicy.for_scenario(scenario, max_attempts=8,
                                                 backoff_cap=0.3),
            fault_plan=plan,
        )
        assert result.completed, result.failure_reason
        assert result.stats["send_errors"] > 0
        assert result.digest == result.expected_digest
        assert _violations(result) == []

    def test_pre_set_stop_event_interrupts_immediately(self):
        stop = asyncio.Event()
        stop.set()
        result = run_supervised_transfer(
            golden_scenario("clean"), "lams", seed=1,
            n_frames=8, timeout=10.0, stop_event=stop,
        )
        assert not result.completed
        assert result.failure_reason == "interrupted"
        assert result.attempts == 0


# -- OS send-path errors ---------------------------------------------------


class TestOsSendErrors:
    def test_transient_oserror_counted_and_survived(self):
        """A kernel sendto failure is accounted as a lost datagram and
        the pump keeps running — no exception escapes the socket."""

        class _Boom:
            def __init__(self):
                self.calls = 0

            def sendto(self, data, addr):
                self.calls += 1
                raise OSError(errno.ENOBUFS, "no buffer space")

            def close(self):
                pass

        async def scenario():
            clock = AsyncioClock()
            tracer = Tracer(record_timeline=True)
            link = await UdpLink.open(
                clock, name="oserr", bit_rate=2e6,
                impairments=Impairments(), seed=0, tracer=tracer,
            )
            sock = link.socket_a
            real = sock._transport
            boom = _Boom()
            sock._transport = boom
            try:
                sock.sendto(b"datagram")
                sock.sendto(b"datagram")
            finally:
                sock._transport = real
                link.close()
                clock.close()
            events = [r for r in tracer.timeline()
                      if r.event == "udp_send_error"]
            return boom.calls, sock.send_errors, events

        calls, send_errors, events = asyncio.run(scenario())
        assert calls == 2
        assert send_errors == 2
        assert len(events) == 2
        assert all(e.detail.get("forced") is False for e in events)
        assert events[0].detail.get("errno") == errno.ENOBUFS

    def test_a_real_kernel_send_failure_is_a_send_error(self):
        """asyncio's transport catches the kernel's OSError and reports it
        through ``error_received``, not by raising: an oversize datagram
        on a real socket is still a send error with its record."""

        async def scenario():
            clock = AsyncioClock()
            tracer = Tracer(record_timeline=True)
            link = await UdpLink.open(
                clock, name="emsgsize", bit_rate=2e6,
                impairments=Impairments(), seed=0, tracer=tracer,
            )
            sock = link.socket_a
            try:
                sock.sendto(bytes(70_000))  # above UDP's 65,507-byte payload
            finally:
                link.close()
                clock.close()
            events = [r for r in tracer.timeline() if r.event == "udp_send_error"]
            return sock.send_errors, sock.socket_errors, events

        send_errors, socket_errors, events = asyncio.run(scenario())
        assert (send_errors, socket_errors) == (1, 0)
        assert len(events) == 1
        assert events[0].detail == {"forced": False, "errno": errno.EMSGSIZE}
