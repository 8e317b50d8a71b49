"""One run of one workload in this interpreter: the driver contract.

``python -m bench --workload W --seed N --seconds S --trace 0|1`` lands
here.  With ``--trace 0`` the run measures the end-to-end metrics,
tracing off.  With ``--trace 1`` it measures an untraced reference
window, installs the shims of :mod:`bench.tracing`, measures a traced
window, runs the layer drives and reports every per-layer metric (a
metric that does not exist on this workload reads 0).

The last line of standard output is the contract's result object; the
line before it is a ``detail`` object the multi-run orchestrator reads.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any

from . import metrics
from .workloads import (
    SAT_SIM_PER_SECOND,
    ConstellationWorkload,
    Window,
    make_workload,
    spin,
)

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_TIMEOUT_S = 60.0
SETUP_SPINS = 15


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_kb() -> float:
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * resource.getpagesize() / 1024.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def stamp() -> dict[str, Any]:
    """What the numbers depend on besides the code: compared results
    must agree on all of it."""
    from repro.core.config import _default_batch_window
    from repro.simulator.engine import engine_backend

    return {
        "engine": engine_backend(),
        "batch_window": _default_batch_window(),
        "timer_wheel": os.environ.get("REPRO_TIMER_WHEEL") or "off",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        # Host seconds are scaled by constants fitted to one host
        # (REFERENCE_SPIN_NS, REFERENCE_STEP_NS): results of two hosts
        # are not comparable.
        "host": f"{platform.node()} {cpu_model()}",
    }


# -- set-up time ------------------------------------------------------------

def setup_sample(started: float) -> float:
    """Calibrated seconds since *started*: the wall time of import and
    build divided by the slowdown a few spins see right after it (raw
    set-up medians drifted 25% between campaigns an hour apart)."""
    elapsed = time.perf_counter() - started
    return elapsed / statistics.median(spin() for _ in range(SETUP_SPINS))


def setup_only(workload: str, seed: int, seconds: float, started: float) -> int:
    """Import, build, report the set-up time, exit: one extra sample."""
    make_workload(workload, seed, seconds).build()
    print(json.dumps({"setup_s": setup_sample(started)}))
    return 0


def extra_setup_samples(workload: str, seed: int, seconds: float, count: int) -> list[float]:
    """Set-up times of *count* further fresh interpreters, one at a time."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-m", "bench", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()[-400:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# -- end-to-end -------------------------------------------------------------

def end_to_end(window: Window, setup_samples: list[float]) -> dict[str, float]:
    return {
        "frames_per_s": window.frames / window.wall_s,
        "sim_link_s_per_s": window.links * window.sim_s / window.wall_s,
        "cpu_us_per_payload": window.cpu_s / window.payloads * 1e6,
        "latency_p50_ms": window.latency_p50_ms,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setup_samples),
    }


# -- per-layer --------------------------------------------------------------

def cost_per_unit(window: Window) -> float:
    """Host cost per unit of work, comparable between two windows of one
    workload: CPU per payload when paced, wall per simulated second
    otherwise."""
    if window.paced:
        return window.cpu_s / window.payloads
    return window.wall_s / window.sim_s


def monitor_overhead_ns(workload: Any, monitored: Window, seconds: float) -> float:
    """Differential, untraced: ``sat_monitored`` minus ``sat_clean`` host
    time per frame, the clean twin built from the same seed."""
    clean = make_workload("sat_clean", workload.seed,
                          seconds * SAT_SIM_PER_SECOND["sat_monitored"]
                          / SAT_SIM_PER_SECOND["sat_clean"])
    clean.build()
    clean.warm_up()
    twin = clean.run_window(0.5)
    return (monitored.wall_s / monitored.frames - twin.wall_s / twin.frames) * 1e9


def constellation_extras(workload: ConstellationWorkload, reference: Window,
                         rss_before_kb: float, rss_after_kb: float,
                         seconds: float) -> dict[str, float]:
    links = workload.links
    start = time.perf_counter()
    workload.constellation.network_rollup()
    rollup_ms = (time.perf_counter() - start) * 1e3
    small = ConstellationWorkload(workload.seed, seconds, links=links // 10)
    small.build()
    side = small.run_window(0.5)
    return {
        "topology.builder.build_us_per_link": workload.build_wall_s / links * 1e6,
        "topology.builder.state_kb_per_link": (rss_after_kb - rss_before_kb) / links,
        # Ghaderi-Towsley flatness: host time per link and step at 1000
        # links over the same at 100 links; 1.0 is flat.  Taken on the
        # median step, which is idle checkpoint traffic and so per link;
        # the eight flows and the probes are the same at either size.
        "topology.stats.per_link_cost_ratio": (
            (reference.latency_p50_ms / links)
            / (side.latency_p50_ms / small.links)),
        "topology.stats.rollup_ms": rollup_ms,
    }


def sleeping_loop_reading(seed: int, seconds: float) -> dict[str, float]:
    """``udp_paced`` as users run it, on a stock sleeping event loop:
    half a window, plain process CPU.  Ungated: on this host its latency
    and retransmissions follow the hypervisor's wake-up latency and one
    session in ten fails outright, which is printed here, not scored."""
    from .workloads import UdpPacedWorkload

    session = UdpPacedWorkload(seed, seconds / 2.0, polling=False)
    session.build()
    window = session.run_window(1.0)
    attempted, failed, reasons = session.finish()
    counts = session.counts()
    if failed or reasons:
        print(f"# udp_paced on a sleeping loop: {failed} of {attempted} payloads "
              f"failed ({'; '.join(reasons)})")
    return {
        "transport.session.sleeping_cpu_us_per_payload":
            window.cpu_s / max(1, window.payloads) * 1e6,
        "transport.session.sleeping_latency_p50_ms": window.latency_p50_ms,
        "transport.session.sleeping_retransmission_ratio":
            counts["retransmissions"] / max(1, counts["iframes_sent"]),
    }


def drive_estimates(name: str, drives: dict[str, float], counts: dict[str, int],
                    traced: Window, spans: dict[str, dict[str, int]]) -> dict[str, float]:
    """``drive ns x count`` per layer over the traced window, in ns."""
    from .drives import FRAMES_PER_CHECKPOINT

    def d(metric: str) -> float:
        return drives[metric]

    model = "ge" if name == "sat_bursty" else "bernoulli"
    control = traced.frames - traced.iframes
    records = spans.get("invariants.monitors", {}).get("spans", 0)
    checkpoints = counts.get("sender.checkpoints", 0)
    # A checkpoint costs its idle handling plus the release of the frames
    # it covers; the loaded drives cover one nominal interval's worth.
    idle = d("core.sender.on_checkpoint_idle_ns")
    loaded = d("core.sender.on_checkpoint_nak_ns" if name == "sat_bursty"
               else "core.sender.on_checkpoint_clean_ns")
    release_per_frame = max(0.0, loaded - idle) / FRAMES_PER_CHECKPOINT
    estimates = {
        "simulator.engine": d("simulator.engine.dispatch_ns_per_event") * traced.events,
        "core.sender": (
            d("core.sender.accept_ns_per_payload") * counts.get("sender.accepts", 0)
            + (d("core.sender.drain_ns_per_frame") + release_per_frame) * traced.iframes
            + idle * checkpoints),
        "core.receiver": (
            d("core.receiver.on_iframe_clean_ns") * counts.get("receiver.frames", 0)
            + d("core.receiver.checkpoint_build_ns") * control),
        "simulator.trace": d("simulator.trace.emit_active_ns") * records,
        "invariants.monitors": d("invariants.monitors.suite_ns_per_record") * records,
    }
    if traced.paced:
        estimates["core.wire"] = (
            traced.iframes * (d("core.wire.encode_iframe_ns") + d("core.wire.decode_iframe_ns"))
            + control * (d("core.wire.encode_checkpoint_ns")
                         + d("core.wire.decode_checkpoint_ns")))
        estimates["transport.udp"] = 1e3 * traced.frames * (
            d("transport.udp.channel_send_us_per_frame")
            + d("transport.udp.socket_hop_us_per_datagram"))
        estimates["transport.clock"] = d("transport.clock.pump_ns_per_event") * traced.events
    else:
        estimates["simulator.errormodel"] = (
            d(f"simulator.errormodel.{model}_draw_window_ns_per_frame")
            * counts.get("errormodel.window_frames", 0)
            + d(f"simulator.errormodel.{model}_frame_error_ns")
            * counts.get("errormodel.scalar_frames", 0))
        estimates["simulator.link"] = (
            d("simulator.link.send_burst_ns_per_frame") * counts.get("link.burst_frames", 0)
            + d("simulator.link.send_ns_per_frame") * counts.get("link.scalar_frames", 0))
    return estimates


def print_budget(name: str, busy_ns: float, spans: dict[str, dict[str, int]],
                 estimates: dict[str, float], residual: float, overhead: float) -> None:
    print(f"# layer budget of {name}: traced window, {busy_ns / 1e6:.1f} ms of host time")
    print(f"# {'layer':<22}{'self ms':>10}{'share':>8}{'spans':>10}{'drive ns x count, ms':>24}")
    for layer in sorted(set(spans) | set(estimates)):
        span = spans.get(layer, {"self_ns": 0, "spans": 0})
        estimate = estimates.get(layer)
        note = " (derived)" if layer == "core.wire" else ""
        print(f"# {layer:<22}{span['self_ns'] / 1e6:>10.1f}"
              f"{span['self_ns'] / busy_ns:>8.3f}{span['spans']:>10}"
              + (f"{estimate / 1e6:>24.1f}{note}" if estimate is not None else f"{'-':>24}"))
    print(f"# {'(residual: no span)':<22}{residual * busy_ns / 1e6:>10.1f}{residual:>8.3f}"
          f"{'':>10}{'see simulator.engine':>24}")
    print(f"# trace_overhead_share {overhead:.3f} (traced / untraced cost per unit - 1)")


def run(workload_name: str, seed: int, seconds: float, trace: bool, *,
        started: float, setup_samples: int = 5, drive_scale: float = 1.0) -> int:
    workload = make_workload(workload_name, seed, seconds)
    rss_before_kb = current_rss_kb()
    workload.build()
    rss_after_kb = current_rss_kb()
    own_setup_s = 0.0 if trace else setup_sample(started)
    workload.warm_up()

    detail: dict[str, Any] = {"workload": workload_name, "seed": seed,
                              "seconds": seconds, "trace": int(trace),
                              "stamp": stamp()}
    if not trace:
        window = workload.run_window(1.0)
        attempted, failed, reasons = workload.finish()
        counts = workload.counts()
        samples = [own_setup_s] + extra_setup_samples(
            workload_name, seed, seconds, setup_samples - 1)
        values = end_to_end(window, samples)
        units = {name: spec.unit for name, spec in metrics.END_TO_END.items()}
        detail.update({"setup_samples_s": samples,
                       "host_slowdown": window.host_slowdown,
                       "raw_host_s": window.raw_host_s})
    else:
        from . import drives, tracing

        reference = workload.run_window(0.5)
        recorder = tracing.SpanRecorder()
        workload.instrument(recorder)
        traced = workload.run_window(0.5)
        attempted, failed, reasons = workload.finish()
        counts = workload.counts()
        values = dict.fromkeys(metrics.PER_LAYER, 0.0)
        values.update(workload_layer_metrics(
            workload, reference, traced, recorder, counts, seconds,
            rss_before_kb, rss_after_kb))
        os.makedirs(OUT_DIR, exist_ok=True)
        recorder.write(os.path.join(OUT_DIR, f"trace-{workload_name}.json"),
                       {"workload": workload_name, "seed": seed, "seconds": seconds})
        # The drives run on a heap the workload no longer fills, or the
        # collector's walks over its leftovers would inflate them.
        del workload
        gc.collect()
        drive_values = drives.run_all(seed, drive_scale)
        values.update(drive_values)
        values.update(budget(workload_name, reference, traced, recorder, drive_values,
                             values["invariants.monitors.overhead_ns_per_frame"]))
        units = {name: spec.unit for name, spec in metrics.PER_LAYER.items()}
    detail.update({"counts": counts, "reasons": reasons})

    correct = failed == 0 and not reasons
    for name, value in values.items():
        print(f"{workload_name:<20}{name:<58}{value:>16.6g} {units[name]}")
    print(f"{workload_name:<20}ops_attempted {attempted}  ops_failed {failed}"
          + (f"  reasons: {'; '.join(reasons)}" if reasons else ""))
    print("counts " + " ".join(f"{key}={value}" for key, value in counts.items()))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


def workload_layer_metrics(workload: Any, reference: Window, traced: Window,
                           recorder: Any, counts: dict[str, int], seconds: float,
                           rss_before_kb: float, rss_after_kb: float) -> dict[str, float]:
    """The count- and workload-kind metrics: everything that needs the
    live workload rather than the drives."""
    name = workload.name
    listener_spans = recorder.layers().get("invariants.monitors", {"spans": 0})["spans"]
    values = {
        "simulator.engine.events_per_frame": counts["events"] / counts["frames"],
        "simulator.engine.events_per_s": reference.events / reference.wall_s,
        "simulator.engine.peak_heap": counts["peak_heap"],
        "core.sender.retransmission_ratio":
            counts["retransmissions"] / counts["iframes_sent"],
        "core.sender.useful_ratio": counts["payloads_unique"] / counts["iframes_sent"],
        "invariants.monitors.records_per_frame": listener_spans / traced.frames,
    }
    if not reference.paced:
        values["simulator.engine.events_per_link_sim_s"] = (
            counts["events"] / (workload.links * counts["sim_time_us"] / 1e6))
    if name == "sat_monitored":
        values["invariants.monitors.overhead_ns_per_frame"] = monitor_overhead_ns(
            workload, reference, seconds)
    if name == "constellation_1000":
        values.update(constellation_extras(workload, reference, rss_before_kb,
                                           rss_after_kb, seconds))
    if name == "udp_paced":
        unique = counts["payloads_unique"]
        values.update({
            "transport.clock.events_per_payload": counts["events"] / unique,
            "transport.udp.datagrams_per_payload": counts["datagrams"] / unique,
            "transport.session.open_loopback_ms": workload.open_wall_s * 1e3,
            "transport.session.latency_p99_ms": percentile(reference.latencies_ms, 0.99),
            "transport.session.latency_excess_p50_ms":
                statistics.median(reference.latencies_ms) - workload.floor_ms,
            "transport.session.generator_lateness_p95_ms":
                percentile(workload.lateness_ms, 0.95),
        })
        values.update(sleeping_loop_reading(workload.seed, seconds))
    return values


def budget(name: str, reference: Window, traced: Window, recorder: Any,
           drives: dict[str, float], monitor_overhead: float) -> dict[str, float]:
    """The trace-kind metrics, and the printed per-layer budget."""
    spans = recorder.layers()
    busy_ns = traced.raw_host_s * 1e9
    values = {
        f"{layer}.busy_share": spans.get(layer, {"self_ns": 0})["self_ns"] / busy_ns
        for layer in metrics.TRACED_LAYERS
    }
    residual = 1.0 - sum(span["self_ns"] for span in spans.values()) / busy_ns
    overhead = cost_per_unit(traced) / cost_per_unit(reference) - 1.0
    estimates = drive_estimates(name, drives, recorder.counts, traced, spans)
    values["simulator.engine.residual_share"] = residual
    values["trace_overhead_share"] = overhead
    values["core.wire.derived_share"] = estimates.get("core.wire", 0.0) / busy_ns
    print_budget(name, busy_ns, spans, estimates, residual, overhead)
    if name == "sat_monitored":
        listener_ns = spans.get("invariants.monitors", {"self_ns": 0})["self_ns"]
        print(f"# invariants.monitors.overhead_ns_per_frame (differential, untraced) "
              f"{monitor_overhead:.0f} ns beside traced listener self time "
              f"{listener_ns / traced.frames:.0f} ns per frame; untraced host time "
              f"per frame {reference.wall_s / reference.frames * 1e9:.0f} ns")
    return values
