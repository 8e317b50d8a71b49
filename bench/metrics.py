"""The benchmark's vocabulary: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root carries the same names, units
and directions (``bench/test_bench_smoke.py`` fails if they drift); this
module adds what that file's fixed schema has no room for — how each
per-layer metric is obtained and which end-to-end metric it is expected
to move on which workload.
"""

from __future__ import annotations

from typing import NamedTuple

WORKLOADS: dict[str, str] = {
    "sat_clean": (
        "Saturated nominal LAMS link, Bernoulli errors, tracer inactive: the "
        "hot path at its cheapest (dispatch, send_burst, draw_window, drain, "
        "clean receive)."
    ),
    "sat_bursty": (
        "Same link under Gilbert-Elliott bursts (~9% retransmitted): NAK lists, "
        "renumbered retransmission, gap bookkeeping; a clean-path gain that "
        "costs recovery shows here."
    ),
    "sat_monitored": (
        "sat_clean with the invariant suite attached: tracer emit and monitors "
        "do most of the work here and none in sat_clean; soak, chaos and "
        "run_transfer defaults pay it."
    ),
    "constellation_1000": (
        "1000-link ring in one engine, 8 two-hop Poisson flows: timer churn, "
        "per-link state and idle checkpoint traffic dominate; the frame path "
        "does little."
    ),
    "udp_paced": (
        "Live loopback UDP session, open loop at 60% of a 2 Mbps emulated link "
        "for 8 s: the only workload running transport.clock, transport.udp, "
        "core.wire and real sockets."
    ),
}


class EndToEnd(NamedTuple):
    unit: str
    better: str
    bound: float
    meaning: str


# Bounds come from the measured spread (bench/README.md, "Bounds"): the
# driver applies a metric's one bound on every workload, so each is at
# least twice the widest spread the metric showed on any of the five.
# Host seconds are calibrated process CPU on the DES workloads and real
# time on udp_paced (bench/workloads.py says how and why).
END_TO_END: dict[str, EndToEnd] = {
    "frames_per_s": EndToEnd(
        "1/s", "higher", 0.15,
        "link frames carried (I + control, every link, both directions) per "
        "host second of the timed window"),
    "sim_link_s_per_s": EndToEnd(
        "1/s", "higher", 0.15,
        "links x link-seconds advanced per host second (udp_paced runs in "
        "real time, so 1.0 there unless its clock falls behind)"),
    "cpu_us_per_payload": EndToEnd(
        "us", "lower", 0.20,
        "CPU over the timed window / unique payloads delivered (process CPU "
        "on DES; on udp_paced the polling-loop variant: the event loop's CPU "
        "outside its busy wait)"),
    "latency_p50_ms": EndToEnd(
        "ms", "lower", 0.15,
        "what a user waits for one unit of progress: median due-time-to-"
        "delivery of a payload on udp_paced (polling-loop variant), median "
        "host time per 5 ms simulated step on the DES workloads"),
    "peak_rss_mb": EndToEnd(
        "MB", "lower", 0.05, "peak resident set of the measuring process"),
    "setup_s": EndToEnd(
        "s", "lower", 0.25,
        "interpreter start of `import repro...` to ready-to-run, median over "
        "fresh interpreters"),
}

SAT = ("sat_clean", "sat_bursty", "sat_monitored")
DES = SAT + ("constellation_1000",)


class PerLayer(NamedTuple):
    unit: str
    better: str
    kind: str          # drive | count | trace | workload
    moves: tuple[tuple[str, tuple[str, ...]], ...]


def _m(metric: str, *workloads: str) -> tuple[str, tuple[str, ...]]:
    return metric, workloads


PER_LAYER: dict[str, PerLayer] = {
    # simulator.engine
    "simulator.engine.dispatch_ns_per_event": PerLayer(
        "ns", "lower", "drive",
        (_m("frames_per_s", "sat_clean"), _m("sim_link_s_per_s", "constellation_1000"))),
    "simulator.engine.timer_restart_ns": PerLayer(
        "ns", "lower", "drive", (_m("sim_link_s_per_s", "constellation_1000"),)),
    "simulator.engine.events_per_frame": PerLayer(
        "count", "lower", "count", (_m("frames_per_s", *SAT),)),
    "simulator.engine.events_per_link_sim_s": PerLayer(
        "count", "lower", "count", (_m("sim_link_s_per_s", "constellation_1000"),)),
    "simulator.engine.peak_heap": PerLayer(
        "count", "lower", "count", (_m("sim_link_s_per_s", "constellation_1000"),)),
    "simulator.engine.events_per_s": PerLayer("1/s", "higher", "workload", ()),
    "simulator.engine.residual_share": PerLayer("share", "lower", "trace", ()),
    # simulator.errormodel
    "simulator.errormodel.bernoulli_frame_error_ns": PerLayer(
        "ns", "lower", "drive", (_m("frames_per_s", "sat_clean"),)),
    "simulator.errormodel.bernoulli_draw_window_ns_per_frame": PerLayer(
        "ns", "lower", "drive", (_m("frames_per_s", "sat_clean"),)),
    "simulator.errormodel.ge_frame_error_ns": PerLayer(
        "ns", "lower", "drive", (_m("frames_per_s", "sat_bursty"),)),
    "simulator.errormodel.ge_draw_window_ns_per_frame": PerLayer(
        "ns", "lower", "drive", (_m("frames_per_s", "sat_bursty"),)),
    "simulator.errormodel.busy_share": PerLayer(
        "share", "lower", "trace", (_m("frames_per_s", *SAT),)),
    # simulator.link
    "simulator.link.send_ns_per_frame": PerLayer(
        "ns", "lower", "drive", (_m("frames_per_s", *SAT),)),
    "simulator.link.send_burst_ns_per_frame": PerLayer(
        "ns", "lower", "drive", (_m("frames_per_s", *SAT),)),
    "simulator.link.busy_share": PerLayer(
        "share", "lower", "trace", (_m("frames_per_s", *SAT),)),
    # core.sender
    "core.sender.accept_ns_per_payload": PerLayer(
        "ns", "lower", "drive", (_m("frames_per_s", *SAT),)),
    "core.sender.drain_ns_per_frame": PerLayer(
        "ns", "lower", "drive", (_m("frames_per_s", *SAT),)),
    "core.sender.on_checkpoint_idle_ns": PerLayer(
        "ns", "lower", "drive", (_m("sim_link_s_per_s", "constellation_1000"),)),
    "core.sender.on_checkpoint_clean_ns": PerLayer(
        "ns", "lower", "drive", (_m("frames_per_s", "sat_clean"),)),
    "core.sender.on_checkpoint_nak_ns": PerLayer(
        "ns", "lower", "drive", (_m("frames_per_s", "sat_bursty"),)),
    "core.sender.retransmission_ratio": PerLayer(
        "ratio", "lower", "count",
        (_m("frames_per_s", "sat_bursty"), _m("cpu_us_per_payload", "udp_paced"))),
    "core.sender.useful_ratio": PerLayer(
        "ratio", "higher", "count", (_m("cpu_us_per_payload", "udp_paced"),)),
    "core.sender.busy_share": PerLayer(
        "share", "lower", "trace", (_m("frames_per_s", *SAT),)),
    # core.receiver
    "core.receiver.on_iframe_clean_ns": PerLayer(
        "ns", "lower", "drive", (_m("frames_per_s", "sat_clean"),)),
    "core.receiver.on_iframe_gap_ns": PerLayer(
        "ns", "lower", "drive", (_m("frames_per_s", "sat_bursty"),)),
    "core.receiver.checkpoint_build_ns": PerLayer(
        "ns", "lower", "drive",
        (_m("frames_per_s", "sat_bursty"), _m("sim_link_s_per_s", "constellation_1000"))),
    "core.receiver.busy_share": PerLayer(
        "share", "lower", "trace", (_m("frames_per_s", *SAT),)),
    # netlayer
    "netlayer.resequencer.push_inorder_ns": PerLayer(
        "ns", "lower", "drive", (_m("sim_link_s_per_s", "constellation_1000"),)),
    "netlayer.resequencer.push_reordered_ns": PerLayer(
        "ns", "lower", "drive", (_m("sim_link_s_per_s", "constellation_1000"),)),
    "netlayer.deliver.busy_share": PerLayer(
        "share", "lower", "trace", (_m("sim_link_s_per_s", "constellation_1000"),)),
    # simulator.trace
    "simulator.trace.emit_inactive_ns": PerLayer(
        "ns", "lower", "drive", (_m("frames_per_s", "sat_clean"),)),
    "simulator.trace.emit_active_ns": PerLayer(
        "ns", "lower", "drive", (_m("frames_per_s", "sat_monitored"),)),
    "simulator.trace.emit_timeline_ns": PerLayer(
        "ns", "lower", "drive", (_m("frames_per_s", "sat_monitored"),)),
    "simulator.trace.busy_share": PerLayer(
        "share", "lower", "trace", (_m("frames_per_s", "sat_monitored"),)),
    # invariants.monitors
    "invariants.monitors.suite_ns_per_record": PerLayer(
        "ns", "lower", "drive", (_m("frames_per_s", "sat_monitored"),)),
    "invariants.monitors.records_per_frame": PerLayer(
        "count", "lower", "count", (_m("frames_per_s", "sat_monitored"),)),
    "invariants.monitors.overhead_ns_per_frame": PerLayer(
        "ns", "lower", "workload",
        (_m("frames_per_s", "sat_monitored"), _m("peak_rss_mb", "sat_monitored"))),
    "invariants.monitors.busy_share": PerLayer(
        "share", "lower", "trace", (_m("frames_per_s", "sat_monitored"),)),
    # topology
    "topology.builder.build_us_per_link": PerLayer(
        "us", "lower", "workload", (_m("setup_s", "constellation_1000"),)),
    "topology.builder.state_kb_per_link": PerLayer(
        "kB", "lower", "workload", (_m("peak_rss_mb", "constellation_1000"),)),
    "topology.stats.per_link_cost_ratio": PerLayer(
        "ratio", "lower", "workload", (_m("sim_link_s_per_s", "constellation_1000"),)),
    "topology.stats.rollup_ms": PerLayer("ms", "lower", "workload", ()),
    # core.wire / fec.crc
    "core.wire.encode_iframe_ns": PerLayer(
        "ns", "lower", "drive", (_m("cpu_us_per_payload", "udp_paced"),)),
    "core.wire.decode_iframe_ns": PerLayer(
        "ns", "lower", "drive", (_m("cpu_us_per_payload", "udp_paced"),)),
    "core.wire.encode_checkpoint_ns": PerLayer(
        "ns", "lower", "drive", (_m("cpu_us_per_payload", "udp_paced"),)),
    "core.wire.decode_checkpoint_ns": PerLayer(
        "ns", "lower", "drive", (_m("cpu_us_per_payload", "udp_paced"),)),
    "core.wire.decode_salvage_ns": PerLayer(
        "ns", "lower", "drive", (_m("cpu_us_per_payload", "udp_paced"),)),
    "core.wire.crc_256B_ns": PerLayer(
        "ns", "lower", "drive", (_m("cpu_us_per_payload", "udp_paced"),)),
    "core.wire.derived_share": PerLayer(
        "share", "lower", "trace", (_m("cpu_us_per_payload", "udp_paced"),)),
    # transport.clock
    "transport.clock.pump_ns_per_event": PerLayer(
        "ns", "lower", "drive",
        (_m("cpu_us_per_payload", "udp_paced"), _m("latency_p50_ms", "udp_paced"))),
    "transport.clock.events_per_payload": PerLayer(
        "count", "lower", "count",
        (_m("cpu_us_per_payload", "udp_paced"), _m("latency_p50_ms", "udp_paced"))),
    # transport.udp
    "transport.udp.socket_hop_us_per_datagram": PerLayer(
        "us", "lower", "drive",
        (_m("cpu_us_per_payload", "udp_paced"), _m("latency_p50_ms", "udp_paced"))),
    "transport.udp.channel_send_us_per_frame": PerLayer(
        "us", "lower", "drive",
        (_m("cpu_us_per_payload", "udp_paced"), _m("latency_p50_ms", "udp_paced"))),
    "transport.udp.datagrams_per_payload": PerLayer(
        "count", "lower", "count", (_m("cpu_us_per_payload", "udp_paced"),)),
    "transport.udp.busy_share": PerLayer(
        "share", "lower", "trace", (_m("cpu_us_per_payload", "udp_paced"),)),
    # transport.session
    "transport.session.open_loopback_ms": PerLayer(
        "ms", "lower", "workload", (_m("setup_s", "udp_paced"),)),
    "transport.session.latency_p99_ms": PerLayer("ms", "lower", "workload", ()),
    "transport.session.latency_excess_p50_ms": PerLayer(
        "ms", "lower", "workload", (_m("latency_p50_ms", "udp_paced"),)),
    "transport.session.generator_lateness_p95_ms": PerLayer(
        "ms", "lower", "workload", ()),
    # udp_paced on a stock sleeping loop, plain process CPU: what the
    # gated polling-loop variant leaves out.
    "transport.session.sleeping_cpu_us_per_payload": PerLayer(
        "us", "lower", "workload", ()),
    "transport.session.sleeping_latency_p50_ms": PerLayer(
        "ms", "lower", "workload", ()),
    "transport.session.sleeping_retransmission_ratio": PerLayer(
        "ratio", "lower", "workload", ()),
    # the benchmark's own cost
    "workload.source.busy_share": PerLayer("share", "lower", "trace", ()),
    "trace_overhead_share": PerLayer("share", "lower", "trace", ()),
}

# Traced layers (span names) whose self time is reported as `<layer>.busy_share`.
TRACED_LAYERS = tuple(
    name[:-len(".busy_share")] for name in PER_LAYER if name.endswith(".busy_share")
)
