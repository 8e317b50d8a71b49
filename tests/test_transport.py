"""Tests for the asyncio-UDP transport backend.

No pytest-asyncio in the toolchain: async pieces run under
``asyncio.run`` inside plain test functions.  Real sockets bind to
127.0.0.1 with ephemeral ports, so the tests are hermetic.
"""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.core.frames import CheckpointFrame, IFrame
from repro.core.wire import encode_frame
from repro.faults import FaultPlan, HandshakeBlackhole
from repro.faults.metrics import declared_failure_bound
from repro.faults.plan import LinkOutage
from repro.simulator import StreamRegistry, Tracer
from repro.transport import (
    AsyncioClock,
    Impairments,
    SessionSupervisor,
    UdpLink,
    corrupt_crc,
    decode_datagram,
    golden_scenario,
    run_transfer,
)
from repro.transport.conformance import make_payload, payload_digest, payload_index
from repro.transport.session import _client, _serve


# -- AsyncioClock ----------------------------------------------------------


class TestAsyncioClock:
    def test_pump_runs_due_callbacks_in_order(self):
        async def scenario():
            clock = AsyncioClock()
            fired: list[str] = []
            clock.schedule(0.0, fired.append, "a")
            clock.schedule(0.01, fired.append, "b")
            clock.kick()
            await clock.drain(settle=0.03)
            clock.close()
            return fired

        assert asyncio.run(scenario()) == ["a", "b"]

    def test_now_is_monotone_across_pumps(self):
        async def scenario():
            clock = AsyncioClock()
            stamps: list[float] = []
            clock.schedule(0.0, lambda: stamps.append(clock.now))
            clock.schedule(0.005, lambda: stamps.append(clock.now))
            clock.kick()
            await clock.drain(settle=0.02)
            clock.close()
            return stamps

        stamps = asyncio.run(scenario())
        assert stamps == sorted(stamps)

    def test_timer_fires_and_cancel_suppresses(self):
        async def scenario():
            clock = AsyncioClock()
            fired: list[str] = []
            live = clock.timer(lambda: fired.append("live"))
            dead = clock.timer(lambda: fired.append("dead"))
            live.start(0.005)
            dead.start(0.005)
            dead.cancel()
            clock.kick()
            await clock.drain(settle=0.03)
            clock.close()
            return fired

        assert asyncio.run(scenario()) == ["live"]

    def test_pinned_epoch_starts_now_on_shared_axis(self):
        async def scenario():
            pinned = AsyncioClock(epoch=0.0)
            private = AsyncioClock()
            loop_now = asyncio.get_running_loop().time()
            try:
                return pinned.now, private.now, loop_now
            finally:
                pinned.close()
                private.close()

        pinned_now, private_now, loop_now = asyncio.run(scenario())
        assert pinned_now == pytest.approx(loop_now, abs=0.05)
        assert private_now == pytest.approx(0.0, abs=0.05)

    def test_run_is_refused(self):
        async def scenario():
            clock = AsyncioClock()
            try:
                with pytest.raises(RuntimeError):
                    clock.run(until=1.0)
            finally:
                clock.close()

        asyncio.run(scenario())


# -- Impairments -----------------------------------------------------------


class TestImpairments:
    def test_from_scenario_carries_link_conditions(self):
        scenario = golden_scenario("lossy")
        imp = Impairments.from_scenario(scenario)
        assert imp.propagation_delay == pytest.approx(scenario.one_way_delay)
        assert imp.iframe_ber == scenario.iframe_ber
        assert imp.drop is None

    def test_drop_shorthand_builds_uniform_loss(self):
        scenario = golden_scenario("clean")
        imp = Impairments.from_scenario(scenario, drop=0.25)
        _, _, drop_model = imp.resolve_models(scenario.bit_rate)
        assert drop_model is not None
        rng = StreamRegistry(seed=1).get("drop-test")
        outcomes = {drop_model.frame_error(0.0, 1, rng) for _ in range(200)}
        assert outcomes == {True, False}

    def test_with_replaces_fields(self):
        imp = Impairments(propagation_delay=0.01)
        assert imp.with_(jitter=0.002).jitter == 0.002
        assert imp.jitter == 0.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Impairments(propagation_delay=-1.0)


# -- datagram decode -------------------------------------------------------


class TestDecodeDatagram:
    def test_clean_frame(self):
        data = encode_frame(CheckpointFrame(
            cp_index=1, issue_time=0.5, naks=(), frontier=None,
            enforced=False, stop_go=False, size_bits=96))
        frame, corrupted = decode_datagram(data)
        assert isinstance(frame, CheckpointFrame)
        assert corrupted is False

    def test_crc_damage_salvages_header(self):
        data = encode_frame(
            IFrame(seq=3, payload=b"xyz", size_bits=128, transmit_index=9),
            b"xyz")
        frame, corrupted = decode_datagram(corrupt_crc(data))
        assert corrupted is True
        assert isinstance(frame, IFrame)
        assert frame.seq == 3

    def test_garbage_is_undecodable(self):
        frame, corrupted = decode_datagram(b"\xff\xfenot a frame")
        assert frame is None
        assert corrupted is True


# -- live UDP channel ------------------------------------------------------


class TestUdpLink:
    def _open_link(self, clock, scenario, **kwargs):
        return UdpLink.open(
            clock, name="t", bit_rate=scenario.bit_rate,
            impairments=Impairments.from_scenario(scenario, **kwargs),
            seed=3, tracer=Tracer(),
        )

    def test_frames_cross_real_sockets(self):
        async def scenario():
            clock = AsyncioClock()
            link = await self._open_link(clock, golden_scenario("clean"))
            heard_a: list = []
            heard_b: list = []
            link.attach(lambda f, c: heard_a.append((f, c)),
                        lambda f, c: heard_b.append((f, c)))
            frame = IFrame(seq=1, payload=b"ping", size_bits=2128,
                           transmit_index=0)
            link.forward.send(frame)
            clock.kick()
            await clock.drain(settle=link.round_trip_time() + 0.05)
            # drain() watches the heap; the hop across the OS socket is
            # asynchronous on top of it, so give the loop a beat.
            await asyncio.sleep(0.05)
            link.close()
            clock.close()
            await asyncio.sleep(0)
            return heard_a, heard_b

        heard_a, heard_b = asyncio.run(scenario())
        assert heard_a == []  # A hears the reverse direction only
        assert len(heard_b) == 1
        frame, corrupted = heard_b[0]
        assert frame.seq == 1 and corrupted is False

    def test_outage_loses_frames(self):
        async def scenario():
            clock = AsyncioClock()
            link = await self._open_link(clock, golden_scenario("clean"))
            heard: list = []
            link.attach(lambda f, c: None, lambda f, c: heard.append(f))
            link.down()
            link.forward.send(IFrame(seq=1, payload=b"x", size_bits=2128,
                                     transmit_index=0))
            clock.kick()
            await clock.drain(settle=link.round_trip_time() + 0.05)
            lost = link.forward.frames_lost_outage
            link.close()
            clock.close()
            await asyncio.sleep(0)
            return heard, lost

        heard, lost = asyncio.run(scenario())
        assert heard == []
        assert lost == 1

    def test_round_trip_time_matches_scenario(self):
        async def scenario():
            clock = AsyncioClock()
            sc = golden_scenario("clean")
            link = await self._open_link(clock, sc)
            rtt = link.round_trip_time()
            link.close()
            clock.close()
            await asyncio.sleep(0)
            return rtt, sc.round_trip_time

        rtt, expected = asyncio.run(scenario())
        assert rtt == pytest.approx(expected, rel=0.01)


# -- whole-session loopback ------------------------------------------------


class TestLoopbackSession:
    def test_clean_transfer_digest_and_invariants(self):
        result = run_transfer(golden_scenario("clean"), n_frames=12,
                              timeout=20.0)
        assert result.completed
        assert result.delivered_unique == 12
        assert result.digest == result.expected_digest
        assert result.monitors is not None and result.monitors.ok
        assert result.ok

    def test_lossy_transfer_recovers_every_payload(self):
        result = run_transfer(golden_scenario("lossy"), n_frames=12,
                              timeout=20.0)
        assert result.completed
        assert result.digest == result.expected_digest
        assert result.ok

    def test_datagram_drop_is_recovered(self):
        result = run_transfer(golden_scenario("clean"), n_frames=12,
                              timeout=20.0, drop=0.1, seed=5)
        assert result.completed
        assert result.digest == result.expected_digest
        assert result.ok

    def test_udp_backend_rejects_foreign_families(self, monkeypatch):
        """Only the LAMS family has a wire codec; any other protocol is
        refused where its name enters, before a socket exists to leak."""
        opened = []

        def reached(*args, **kwargs):
            opened.append(args)
            raise AssertionError("UdpLink.open reached")

        monkeypatch.setattr(UdpLink, "open", reached)
        with pytest.raises(ValueError, match="no wire codec"):
            run_transfer(golden_scenario("clean"), "hdlc", n_frames=1)
        with pytest.raises(ValueError, match="no wire codec"):
            SessionSupervisor(golden_scenario("clean"), "nbdt")
        assert opened == []


class TestPlainTransferContract:
    """What ``run_transfer`` promises beyond a supervised session: the
    supervisor declares nothing itself and never reconnects; the
    protocol's declared failure ends the session."""

    def test_silent_peer_ends_in_the_protocols_declared_failure(self):
        """No checkpoint ever arrives: the sender's startup watchdog and
        failure timer declare the link failed, well inside the deadline."""
        blackhole = FaultPlan(faults=(HandshakeBlackhole(start=0.0, duration=60.0),))
        result = run_transfer(golden_scenario("clean"), n_frames=8, timeout=5.0,
                              fault_plan=blackhole)
        assert not result.completed
        assert result.failure_reason == "protocol-failure"
        assert result.elapsed < 1.0

    def test_a_cut_the_protocol_cannot_see_ends_in_watchdog_at_the_timeout(self):
        """Only the data direction is cut: the peer's checkpoints keep
        arriving, so nothing is declared and the deadline ends it."""
        cut = FaultPlan(faults=(LinkOutage(start=0.05, duration=60.0, direction="forward"),))
        result = run_transfer(golden_scenario("clean"), n_frames=400, timeout=1.0,
                              fault_plan=cut, seed=3)
        assert not result.completed
        assert result.failure_reason == "watchdog"
        assert 1.0 <= result.elapsed < 2.0

    def test_a_declared_link_failure_ends_it_at_once(self):
        """A cut of both directions outlasting ``C_depth · W_cp`` plus the
        response time: the sender declares the link failed, and the one
        attempt ends there, not at its deadline."""
        scenario = golden_scenario("clean")
        cut = FaultPlan(faults=(LinkOutage(start=0.05, duration=60.0),))
        result = run_transfer(scenario, n_frames=400, timeout=5.0, fault_plan=cut, seed=3)
        assert not result.completed
        assert result.failure_reason == "protocol-failure"
        bound = declared_failure_bound(scenario.lams_config(), 2 * scenario.one_way_delay)
        assert result.elapsed < 0.05 + 4 * bound < 1.0

    def test_signal_before_the_session_starts_interrupts_it(self, monkeypatch):
        """A SIGINT already pending when the handlers go in: the stop
        event is set before the first offer."""
        monkeypatch.setattr(asyncio.SelectorEventLoop, "add_signal_handler",
                            lambda loop, signum, callback, *args: callback(*args))
        monkeypatch.setattr(asyncio.SelectorEventLoop, "remove_signal_handler",
                            lambda loop, signum: True)
        result = run_transfer(golden_scenario("clean"), n_frames=8, timeout=10.0,
                              install_signals=True)
        assert not result.completed
        assert result.failure_reason == "interrupted"
        assert result.elapsed < 5.0


def _free_udp_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestTwoProcessMode:
    def test_client_completes_and_server_receives_every_payload(self):
        """``serve`` and ``transmit --connect`` halves in one loop: the
        client's ledger drains, and the server resequences exactly the
        offered payloads."""
        scenario = golden_scenario("clean")
        address = ("127.0.0.1", _free_udp_port())
        n_frames = 24

        async def session():
            stop = asyncio.Event()
            server = asyncio.ensure_future(
                _serve(scenario, address, 0, 30.0, None, None, stop_event=stop))
            await asyncio.sleep(0.05)  # the server binds before the first send
            try:
                client = await _client(scenario, address, 0, n_frames, 256, 20.0,
                                       None, None)
            finally:
                stop.set()
            return client, await server

        client, server = asyncio.run(session())
        assert client.completed, client.reason
        assert client.offered == n_frames
        assert client.held_remaining == 0
        assert server.reason == "interrupted"
        assert server.received_unique == n_frames
        assert server.digest == payload_digest(
            [make_payload(i, 256) for i in range(n_frames)])


# -- payload helpers -------------------------------------------------------


class TestPayloadHelpers:
    def test_payload_roundtrip(self):
        payload = make_payload(42, 64)
        assert len(payload) == 64
        assert payload_index(payload) == 42

    def test_payload_index_rejects_garbage(self):
        assert payload_index(b"not indexed") is None
        assert payload_index(None) is None

    def test_digest_is_order_sensitive(self):
        a, b = make_payload(0), make_payload(1)
        assert payload_digest([a, b]) != payload_digest([b, a])
