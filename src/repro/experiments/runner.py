"""Measured (simulation) experiment runs.

Each function builds a live simulation from a
:class:`~repro.workloads.scenarios.LinkScenario`, drives a workload,
and returns the paper's metrics as a flat dict — the simulation-side
counterpart of the closed-form rows in :mod:`repro.analysis.compare`.
"""

from __future__ import annotations

from typing import Any, Optional

from ..core.endpoint import resolve_protocol
from ..faults.plan import FaultPlan
from ..simulator.engine import Simulator
from ..simulator.errormodel import ErrorModel
from ..workloads.generators import FiniteBatch, SaturatedSource
from ..workloads.scenarios import LinkScenario, SimulationSetup, build_simulation

__all__ = [
    "measure_batch_transfer",
    "measure_saturated",
    "measure_burst_utilization",
    "measure_failure_recovery",
    "measure_fault_plan",
    "require_lams_family",
]


def measure_batch_transfer(
    scenario: LinkScenario,
    protocol: str,
    n_frames: int,
    seed: int = 0,
    max_time: float = 600.0,
    overrides: Optional[dict] = None,
) -> dict[str, Any]:
    """Transfer a finite batch of N frames; measure total delivery time.

    The low-traffic experiment of Section 4: N frames ready at t=0,
    nothing more afterwards.  The clock stops when the N-th frame is
    delivered at the receiver.
    """
    setup = build_simulation(scenario, protocol, seed=seed, overrides=overrides)
    batch = FiniteBatch(setup.sim, setup.endpoint_a, n_frames)
    batch.start()
    if batch.refused:
        raise RuntimeError(
            f"sending buffer refused {batch.refused} frames; raise its capacity"
        )

    completion: dict[str, float] = {}

    def check_done() -> None:
        if len(setup.delivered) >= n_frames and "time" not in completion:
            completion["time"] = setup.sim.now
            setup.sim.stop()

    setup.delivered.on_append = check_done
    setup.sim.run(until=max_time)
    duration = completion.get("time", float("nan"))

    sender = setup.endpoint_a.sender
    iframe_time = scenario.iframe_time
    return {
        "protocol": protocol,
        "n_frames": n_frames,
        "duration": duration,
        "eta": n_frames / duration if duration == duration else float("nan"),
        "efficiency": n_frames * iframe_time / duration if duration == duration else float("nan"),
        "delivered": len(setup.delivered),
        "iframes_sent": sender.iframes_sent,
        "retransmissions": sender.retransmissions,
        "mean_holding_time": sender.mean_holding_time,
        "completed": duration == duration,
    }


def measure_saturated(
    scenario: LinkScenario,
    protocol: str,
    duration: float,
    seed: int = 0,
    overrides: Optional[dict] = None,
    iframe_errors: Optional[ErrorModel] = None,
    cframe_errors: Optional[ErrorModel] = None,
) -> dict[str, Any]:
    """Saturated source for *duration* seconds; measure steady throughput.

    The high-traffic experiment: the sending buffer never runs dry
    (incoming rate pinned at the line rate), so efficiency is
    deliveries per frame-time of elapsed time, and the sending-buffer
    trajectory reveals whether a transparent size exists (finite for
    LAMS-DLC, divergent for SR-HDLC).
    """
    setup = build_simulation(
        scenario, protocol, seed=seed, overrides=overrides,
        iframe_errors=iframe_errors, cframe_errors=cframe_errors,
    )
    sender = setup.endpoint_a.sender
    backlog = lambda: sender.pending_count
    source = SaturatedSource(
        setup.sim, setup.endpoint_a, backlog_fn=backlog,
        low_water=256, chunk=512, poll_interval=scenario.iframe_time * 64,
    )
    source.start()
    setup.sim.run(until=duration)

    delivered = len(setup.delivered)
    iframe_time = scenario.iframe_time
    setup.tracer.settle()  # the gauges read below are complete
    buf_stat = setup.tracer.levels.get(f"{setup.endpoint_a.name}.tx.sendbuf")
    return {
        "protocol": protocol,
        "duration": duration,
        "delivered": delivered,
        "eta": delivered / duration,
        "efficiency": delivered * iframe_time / duration,
        "iframes_sent": sender.iframes_sent,
        "retransmissions": sender.retransmissions,
        "mean_holding_time": sender.mean_holding_time,
        "sendbuf_avg": buf_stat.mean(duration) if buf_stat else float("nan"),
        "sendbuf_max": buf_stat.maximum if buf_stat else float("nan"),
        "offered": source.offered,
        "utilization": setup.link.forward.utilization(duration),
    }


def measure_constant_rate(
    scenario: LinkScenario,
    protocol: str,
    duration: float,
    load: float = 0.9,
    seed: int = 0,
    overrides: Optional[dict] = None,
) -> dict[str, Any]:
    """Constant-rate offered load at *load* × line rate.

    The buffer-divergence experiment: input arrives at a fixed rate
    regardless of protocol state.  A protocol with a transparent buffer
    size (LAMS-DLC, for load below its efficiency) reaches a plateau;
    SR-HDLC's sending buffer grows without bound because every window
    stalls for its resolution time while input keeps arriving.

    Returns the buffer occupancy at the midpoint and end of the run so
    callers can test for growth vs plateau.
    """
    from ..workloads.generators import ConstantRateSource

    setup = build_simulation(scenario, protocol, seed=seed, overrides=overrides)
    sender = setup.endpoint_a.sender
    rate = load / scenario.iframe_time
    source = ConstantRateSource(setup.sim, setup.endpoint_a, rate=rate)
    source.start()

    checkpoints: dict[str, int] = {}

    def snapshot_mid() -> None:
        checkpoints["mid"] = sender.occupancy

    setup.sim.schedule_at(duration / 2, snapshot_mid)
    setup.sim.run(until=duration)
    occupancy_end = sender.occupancy
    return {
        "protocol": protocol,
        "load": load,
        "duration": duration,
        "delivered": len(setup.delivered),
        "efficiency": len(setup.delivered) * scenario.iframe_time / duration,
        "occupancy_mid": checkpoints.get("mid", 0),
        "occupancy_end": occupancy_end,
        "growth": occupancy_end - checkpoints.get("mid", 0),
        "offered": source.offered,
    }


def measure_burst_utilization(
    scenario: LinkScenario,
    protocol: str,
    duration: float,
    mean_burst: float,
    mean_gap: float,
    bad_ber: float = 1e-3,
    seed: int = 0,
    overrides: Optional[dict] = None,
) -> dict[str, Any]:
    """Saturated transfer over a Gilbert–Elliott burst channel.

    The Section 3.3 burst scenario: mispointing episodes of mean length
    *mean_burst* seconds corrupt nearly everything in flight.  The
    cumulative-NAK condition ``C_depth * W_cp > L_burst`` decides
    whether LAMS-DLC rides the burst out.
    """
    # Registry specs, not instances: the resolver stamps out one fresh
    # GilbertElliottChannel per channel direction, which the model's
    # FIFO-time guard requires (a shared instance would see the two
    # directions' interleaved, non-monotonic frame times).
    burst_model = (
        "gilbert-elliott",
        {
            "good_ber": scenario.iframe_ber,
            "bad_ber": bad_ber,
            "mean_good": mean_gap,
            "mean_bad": mean_burst,
            "bit_rate": scenario.bit_rate,
        },
    )
    result = measure_saturated(
        scenario, protocol, duration, seed=seed, overrides=overrides,
        iframe_errors=burst_model, cframe_errors=burst_model,
    )
    result["mean_burst"] = mean_burst
    result["covered"] = (
        scenario.cumulation_depth * scenario.checkpoint_interval > mean_burst
    )
    return result


def measure_failure_recovery(
    scenario: LinkScenario,
    outage_start: float,
    outage_duration: float,
    total_time: float,
    n_frames: int = 5000,
    seed: int = 0,
    overrides: Optional[dict] = None,
) -> dict[str, Any]:
    """LAMS-DLC behaviour across a link outage (Section 3.2).

    Cuts both directions at *outage_start* for *outage_duration*
    seconds while a batch transfer is in flight, then measures: whether
    enforced recovery fired, whether a (premature) failure was
    declared, and whether every frame was still delivered (zero loss) —
    with duplicate delivery counted separately, since the paper admits
    duplication in this corner.
    """
    setup = build_simulation(scenario, "lams", seed=seed, overrides=overrides)
    batch = FiniteBatch(setup.sim, setup.endpoint_a, n_frames)
    batch.start()
    setup.sim.schedule_at(outage_start, setup.link.down)
    setup.sim.schedule_at(outage_start + outage_duration, setup.link.up)
    setup.sim.run(until=total_time)

    sender = setup.endpoint_a.sender
    return {
        "outage_duration": outage_duration,
        "request_naks_sent": sender.request_naks_sent,
        "failure_declared": sender.failed,
        "recovered": not sender.failed,
        **_zero_loss_ledger(setup, n_frames),
        "retransmissions": sender.retransmissions,
    }


def _zero_loss_ledger(setup: SimulationSetup, n_frames: int) -> dict[str, int]:
    """Where the *n_frames* offered payloads are: the zero-loss columns.

    A frame is only *lost* if it was neither delivered nor still held by
    the sender.  On a declared failure the sender retains every
    unresolved frame for the network layer (Section 3.3: the ends "can
    recover I-frames without loss").
    """
    payload_ids = [p[1] for p in setup.delivered]
    unique = set(payload_ids)
    buffered_ids = {p[1] for p in setup.endpoint_a.sender.held_payloads()}
    return {
        "delivered_total": len(payload_ids),
        "delivered_unique": len(unique),
        "duplicates": len(payload_ids) - len(unique),
        "buffered_at_sender": len(buffered_ids),
        "lost": n_frames - len(unique | buffered_ids),
    }


def require_lams_family(protocol: str) -> None:
    """Raise ``ValueError`` unless *protocol* is a LAMS-family name.

    :func:`measure_fault_plan` reads what only the LAMS-DLC sender
    keeps — the failure declaration, the Request-NAK count, the
    held-payload ledger — so any other family is refused before a
    simulation is built rather than after it has run.
    """
    family, _ = resolve_protocol(protocol)
    if family != "lams":
        raise ValueError(
            f"a fault plan is measured from the LAMS-DLC sender's failure "
            f"declaration and held-payload ledger; protocol {protocol!r} "
            f"({family} family) has neither"
        )


def measure_fault_plan(
    scenario: LinkScenario,
    fault_plan: FaultPlan,
    total_time: float,
    n_frames: int = 3000,
    seed: int = 0,
    overrides: Optional[dict] = None,
    protocol: str = "lams",
) -> dict[str, Any]:
    """Batch transfer under a declarative :class:`FaultPlan`.

    The generalisation of :func:`measure_failure_recovery`: instead of
    one hard-coded both-ways cut, the plan may mix outages, feedback
    blackouts, BER storms, and control-frame corruption.  Recovery
    metrics come from the fault layer's
    :class:`~repro.faults.metrics.RecoveryMetrics` (detection latency,
    frames lost per outage, post-recovery delay), merged with the same
    zero-loss accounting the outage experiment uses.  Everything is
    driven by the simulation's seeded streams, so the same (plan, seed)
    returns bit-identical numbers.  LAMS family only
    (:func:`require_lams_family`).
    """
    require_lams_family(protocol)
    setup = build_simulation(
        scenario, protocol, seed=seed, overrides=overrides, fault_plan=fault_plan,
    )
    batch = FiniteBatch(setup.sim, setup.endpoint_a, n_frames)
    batch.start()
    setup.sim.run(until=total_time)

    sender = setup.endpoint_a.sender
    recovery = setup.recovery
    result: dict[str, Any] = {
        "plan": fault_plan.name,
        "faults": len(fault_plan),
        "failure_declared": sender.failed,
        "recovered": not sender.failed,
        "request_naks_sent": sender.request_naks_sent,
        "retransmissions": sender.retransmissions,
        **_zero_loss_ledger(setup, n_frames),
    }
    if recovery is not None:
        setup.tracer.settle()  # a run still landing at the horizon counts too
        result.update(recovery.summary())
        if recovery.outages:
            # Single-outage plans are the common case; surface the first
            # outage's timeline as flat columns.
            result.update(recovery.outages[0].as_row())
    return result
