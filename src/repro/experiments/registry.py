"""Experiment registry: every evaluation series of the paper
(``python -m repro experiments list`` prints the ids).

The tech report's evaluation is the set of closed-form comparisons in
Section 4 plus the qualitative claims of Sections 2–3 (it prints no
numbered figures/tables); DESIGN.md maps each onto an experiment id.
Every entry here regenerates its series — from the analytic model, the
discrete-event simulation, or both — and returns printable rows.

Each experiment function returns an :class:`ExperimentResult`; the
benchmark files under ``benchmarks/`` call these, print the tables, and
assert the paper's qualitative shape (who wins, how the curve moves).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from ..analysis import bounds, compare
from ..analysis import hdlc as hdlc_model
from ..analysis import lams as lams_model
from ..analysis.errorprobs import (
    frame_error_probability,
    retransmission_probability_piggyback,
)
from ..faults import FaultPlan, declared_failure_bound, detection_bound
from ..simulator.orbit import Satellite, rtt_statistics
from ..simulator.trace import StreamingSummary
from ..workloads.scenarios import PRESETS, LinkScenario, preset
from . import runner

__all__ = [
    "ExperimentResult",
    "REGISTRY",
    "SIMULATED_EXPERIMENTS",
    "default_seed",
    "run_experiment",
    "experiment_ids",
]


@dataclass
class ExperimentResult:
    """Rows + metadata for one regenerated experiment."""

    experiment_id: str
    title: str
    rows: list[dict] = field(default_factory=list)
    notes: str = ""

    def column(self, name: str) -> list:
        """One column across all rows."""
        return [row[name] for row in self.rows]


# ---------------------------------------------------------------------------
# E1 — retransmission factor s̄ vs BER
# ---------------------------------------------------------------------------


def e1_retransmission_factor(
    scenario: LinkScenario | None = None, seed: int = 0
) -> ExperimentResult:
    """``s̄_LAMS`` vs ``s̄_HDLC`` over the paper's BER envelope."""
    scenario = scenario or preset("nominal")
    rows = []
    for ber in np.logspace(-7, -4.3, 12):
        params = scenario.with_(iframe_ber=float(ber)).model_parameters()
        p_f = params.p_f
        rows.append(
            {
                "ber": float(ber),
                "p_f": p_f,
                "p_r_lams": p_f,
                "p_r_hdlc": params.p_f + params.p_c - params.p_f * params.p_c,
                "p_r_piggyback": retransmission_probability_piggyback(p_f),
                "s_bar_lams": lams_model.s_bar(params),
                "s_bar_hdlc": hdlc_model.s_bar(params),
                "s_bar_piggyback": 1.0 / (1.0 - retransmission_probability_piggyback(p_f)),
            }
        )
    return ExperimentResult(
        "E1",
        "Mean transmissions per frame (s̄) vs BER: NAK-only vs pos-ack",
        rows,
        notes="s̄_HDLC ≥ s̄_LAMS everywhere; piggyback acks (P_C = P_F) double the gap.",
    )


# ---------------------------------------------------------------------------
# E2 — low-traffic total delivery time D_low(N)
# ---------------------------------------------------------------------------


def e2_delivery_time(
    scenario: LinkScenario | None = None, seed: int = 0
) -> ExperimentResult:
    """``D_low(N)`` for both protocols (model; E26 measures it)."""
    scenario = scenario or preset("noisy")
    params = scenario.model_parameters()
    rows = []
    for n in (1, 4, 16, min(64, scenario.window_size)):
        rows.append(
            {
                "n_frames": n,
                "d_low_lams": lams_model.total_delivery_time_low(params, n),
                "d_low_lams_approx": lams_model.total_delivery_time_low(params, n, approximate=True),
                "d_low_hdlc": hdlc_model.total_delivery_time_low(params, n),
                "d_low_hdlc_paper": hdlc_model.total_delivery_time_low(params, n, variant="paper"),
            }
        )
    return ExperimentResult(
        "E2",
        "Low-traffic delivery time D_low(N) (seconds)",
        rows,
        notes="Near-parity when alpha→0 and P_C→0; the alpha term separates them.",
    )


# ---------------------------------------------------------------------------
# E3 — mean holding time
# ---------------------------------------------------------------------------


def e3_holding_time(
    scenario: LinkScenario | None = None, seed: int = 0
) -> ExperimentResult:
    """``H_frame`` vs BER and vs checkpoint interval."""
    scenario = scenario or preset("nominal")
    rows = []
    for ber in np.logspace(-7, -4.3, 6):
        for i_cp in (0.002, 0.005, 0.010, 0.020):
            params = scenario.with_(
                iframe_ber=float(ber), checkpoint_interval=i_cp
            ).model_parameters()
            h_frame = lams_model.holding_time(params)
            rows.append(
                {
                    "ber": float(ber),
                    "i_cp": i_cp,
                    "h_frame": h_frame,
                    "h_frame_approx": lams_model.holding_time(params, approximate=True),
                    # Holding time of a single (re)transmission attempt —
                    # the quantity the Section-3.3 resolving-period bound
                    # applies to (renumbering resets the clock).
                    "h_attempt": h_frame * (1.0 - params.p_f),
                    "resolving_bound": bounds.lams_resolving_period(params),
                }
            )
    return ExperimentResult(
        "E3",
        "Mean holding time H_frame (s) vs BER and checkpoint interval",
        rows,
        notes="Shrinking I_cp shrinks the holding time — the paper's buffer control.",
    )


# ---------------------------------------------------------------------------
# E4 — transparent buffer size (model) + HDLC divergence (simulation)
# ---------------------------------------------------------------------------


def e4_buffer_model(
    scenario: LinkScenario | None = None, seed: int = 0
) -> ExperimentResult:
    """``B_LAMS`` over distance and checkpoint interval; B_HDLC = ∞."""
    scenario = scenario or preset("nominal")
    rows = []
    for distance in (2000.0, 5000.0, 10_000.0):
        for i_cp in (0.002, 0.005, 0.010):
            params = scenario.with_(
                distance_km=distance, checkpoint_interval=i_cp
            ).model_parameters()
            rows.append(
                {
                    "distance_km": distance,
                    "i_cp": i_cp,
                    "b_lams_frames": lams_model.transparent_buffer_size(params),
                    "b_hdlc": float("inf"),
                }
            )
    return ExperimentResult(
        "E4",
        "Transparent buffer size (frames): finite for LAMS-DLC, none for SR-HDLC",
        rows,
        notes="B_LAMS ≈ s̄(R + (n̄_cp−½)I_cp)/t_f; grows with distance and I_cp.",
    )


def e4_buffer_simulation(
    scenario: LinkScenario | None = None, duration: float = 3.0, seed: int = 3
) -> ExperimentResult:
    """Constant-rate load: LAMS buffer plateaus, HDLC's diverges.

    Offered load is fixed at 80% of the line rate — comfortably inside
    LAMS-DLC's capacity, far beyond SR-HDLC's window-stalled service
    rate.  Occupancy is sampled at the midpoint and end of the run: a
    protocol with a transparent buffer size shows ~zero growth between
    the two samples, an unbounded one keeps climbing.
    """
    scenario = scenario or preset("nominal")
    params = scenario.model_parameters()
    rows = []
    for protocol in ("lams", "hdlc"):
        result = runner.measure_constant_rate(
            scenario, protocol, duration, load=0.8, seed=seed
        )
        result["b_lams_model"] = lams_model.transparent_buffer_size(params)
        rows.append(result)
    return ExperimentResult(
        "E4-sim",
        "Sending-buffer growth under 80% constant offered load",
        rows,
        notes="'growth' is occupancy(end) − occupancy(mid): ≈0 for LAMS-DLC "
        "(transparent size exists), strictly positive and proportional to run "
        "length for SR-HDLC (B_HDLC = ∞).",
    )


# ---------------------------------------------------------------------------
# E5 — the N_total subperiod recursion
# ---------------------------------------------------------------------------


def e5_n_total(
    scenario: LinkScenario | None = None, seed: int = 0
) -> ExperimentResult:
    """``N_total(N)`` recursion vs the closed form ``N·s̄``."""
    scenario = scenario or preset("noisy")
    params = scenario.model_parameters()
    rows = []
    for n in (100, 1000, 10_000, 100_000):
        schedule = lams_model.subperiod_schedule(params, n)
        rows.append(
            {
                "n_frames": n,
                "n_total_recursive": schedule.total_transmissions,
                "n_total_closed": lams_model.n_total(params, n),
                "subperiods": schedule.subperiod_count,
                "first_subperiod_new": schedule.new_frames[0],
            }
        )
    return ExperimentResult(
        "E5",
        "Total transmissions N_total(N): subperiod recursion vs N·s̄",
        rows,
        notes="The recursion converges to N·s̄; the transient shows the "
        "retransmission load ramping to equilibrium over the first holding times.",
    )


# ---------------------------------------------------------------------------
# E6 — high-traffic throughput efficiency
# ---------------------------------------------------------------------------


def e6_throughput_vs_n(
    scenario: LinkScenario | None = None, seed: int = 0
) -> ExperimentResult:
    """η vs channel traffic N: LAMS rises toward 1, HDLC stays flat."""
    scenario = scenario or preset("nominal")
    params = scenario.model_parameters()
    rows = []
    for n in (100, 1000, 10_000, 100_000, 1_000_000):
        rows.append(
            {
                "n_frames": n,
                "eta_lams": lams_model.throughput_efficiency(params, n),
                "eta_hdlc": hdlc_model.throughput_efficiency(params, n),
                "ratio": compare.efficiency_ratio(params, n),
            }
        )
    return ExperimentResult(
        "E6",
        "Throughput efficiency vs offered frames N (model)",
        rows,
        notes="LAMS-DLC amortises its fixed s̄R + δ over all N; SR-HDLC pays "
        "(m+1)(s̄R + δ) — once per window — so its efficiency plateaus low.",
    )


def e6_throughput_vs_ber(
    scenario: LinkScenario | None = None, seed: int = 0
) -> ExperimentResult:
    """η vs BER at fixed high traffic, model + simulation."""
    scenario = scenario or preset("nominal")
    rows = []
    for ber in np.logspace(-7, -4.3, 8):
        point = scenario.with_(iframe_ber=float(ber), cframe_ber=float(ber) / 100.0)
        params = point.model_parameters()
        n = 50_000
        rows.append(
            {
                "ber": float(ber),
                "eta_lams": lams_model.throughput_efficiency(params, n),
                "eta_hdlc": hdlc_model.throughput_efficiency(params, n),
                "ratio": compare.efficiency_ratio(params, n),
            }
        )
    return ExperimentResult(
        "E6-ber",
        "Throughput efficiency vs BER at N = 50k frames (model)",
        rows,
        notes="Both decline with BER; LAMS-DLC declines like 1/s̄_LAMS while "
        "HDLC also pays timeout recoveries, so the ratio widens.",
    )


def e6_window_sweep(
    scenario: LinkScenario | None = None, seed: int = 0
) -> ExperimentResult:
    """η_HDLC vs window size, including the paper's W = B_LAMS point.

    Section 4's canonical comparison gives SR-HDLC a window equal to
    LAMS-DLC's transparent buffer size ("if W = B_LAMS ... the
    throughput efficiency η_HDLC with the buffer size B_HDLC =
    2·B_LAMS") — the most generous setting the paper grants HDLC.
    """
    scenario = scenario or preset("nominal")
    base = scenario.model_parameters()
    b_lams = lams_model.transparent_buffer_size(base)
    n = 100_000
    rows = []
    windows = [8, 64, 512, int(round(b_lams)), 4 * int(round(b_lams))]
    for window in windows:
        params = base.with_(window_size=window)
        rows.append(
            {
                "window": window,
                "is_paper_point": window == int(round(b_lams)),
                "eta_hdlc": hdlc_model.throughput_efficiency(params, n),
                "eta_lams": lams_model.throughput_efficiency(base, n),
                "hdlc_buffer": "2*B_LAMS" if window == int(round(b_lams)) else "unbounded",
            }
        )
    return ExperimentResult(
        "E6-window",
        "η_HDLC vs window size (paper point: W = B_LAMS)",
        rows,
        notes=f"B_LAMS = {b_lams:.0f} frames. Even at the paper's generous "
        "W = B_LAMS — where HDLC's receive buffer alone equals LAMS-DLC's "
        "total — LAMS-DLC retains the lead, because every window still "
        "pays its own s̄R + δ while LAMS-DLC pays once.",
    )


# ---------------------------------------------------------------------------
# E7 — ablation over (I_cp, C_depth)
# ---------------------------------------------------------------------------


def e7_knob_ablation(
    scenario: LinkScenario | None = None, seed: int = 0
) -> ExperimentResult:
    """The paper's two knobs: checkpoint interval and cumulation depth."""
    scenario = scenario or preset("noisy")
    rows = []
    n = 50_000
    for i_cp in (0.001, 0.002, 0.005, 0.010, 0.020):
        for c_depth in (1, 2, 3, 5, 8):
            params = scenario.with_(
                checkpoint_interval=i_cp, cumulation_depth=c_depth
            ).model_parameters()
            rows.append(
                {
                    "i_cp": i_cp,
                    "c_depth": c_depth,
                    "eta_lams": lams_model.throughput_efficiency(params, n),
                    "b_lams": lams_model.transparent_buffer_size(params),
                    "numbering": bounds.lams_required_numbering_size(params),
                    "inconsistency_gap": bounds.lams_inconsistency_gap(params),
                }
            )
    return ExperimentResult(
        "E7",
        "Ablation: checkpoint interval × cumulation depth",
        rows,
        notes="Small I_cp: less wait, smaller buffer, more control overhead and "
        "larger numbering per second; C_depth trades failure-detection latency "
        "(C_depth·W_cp) against NAK-loss robustness.",
    )


# ---------------------------------------------------------------------------
# E8 — burst errors (simulation)
# ---------------------------------------------------------------------------


def e8_burst_utilization(
    scenario: LinkScenario | None = None, duration: float = 4.0, seed: int = 8
) -> ExperimentResult:
    """Utilization under Gilbert–Elliott bursts: cumulative NAKs vs SREJ."""
    scenario = scenario or preset("nominal").with_(
        checkpoint_interval=0.005, cumulation_depth=4
    )
    rows = []
    for mean_burst in (0.002, 0.010, 0.040):
        for protocol in ("lams", "hdlc"):
            result = runner.measure_burst_utilization(
                scenario, protocol, duration,
                mean_burst=mean_burst, mean_gap=0.25, seed=seed,
            )
            rows.append(
                {
                    "mean_burst_s": mean_burst,
                    "protocol": protocol,
                    "efficiency": result["efficiency"],
                    "retransmissions": result["retransmissions"],
                    "covered": result["covered"],
                }
            )
    return ExperimentResult(
        "E8",
        "Goodput efficiency under burst errors (simulation)",
        rows,
        notes="'covered' marks C_depth·W_cp > L_burst — the paper's condition "
        "for cumulative NAKs to ride out a burst without resynchronising.",
    )


# ---------------------------------------------------------------------------
# E9 — numbering-size requirement
# ---------------------------------------------------------------------------


def e9_numbering(
    scenario: LinkScenario | None = None, seed: int = 0
) -> ExperimentResult:
    """Bounded (LAMS) vs unbounded-tail (HDLC) numbering requirements."""
    scenario = scenario or preset("long_haul")
    rows = []
    for ber in (1e-7, 1e-6, 1e-5):
        params = scenario.with_(iframe_ber=ber).model_parameters()
        rows.append(
            {
                "ber": ber,
                "lams_required": bounds.lams_required_numbering_size(params),
                "hdlc_q90": bounds.hdlc_required_numbering_size_quantile(params, 0.90),
                "hdlc_q999": bounds.hdlc_required_numbering_size_quantile(params, 0.999),
                "hdlc_q999999": bounds.hdlc_required_numbering_size_quantile(params, 0.999999),
            }
        )
    return ExperimentResult(
        "E9",
        "Required sequence-number space (frames)",
        rows,
        notes="LAMS-DLC's requirement is a constant set by the resolving period; "
        "HDLC's grows without bound as the coverage quantile → 1.",
    )


# ---------------------------------------------------------------------------
# E10 — enforced recovery / failure detection (simulation)
# ---------------------------------------------------------------------------


def e10_recovery(
    scenario: LinkScenario | None = None, seed: int = 10
) -> ExperimentResult:
    """Outage handling: recovery within lifetime, zero loss, duplicates."""
    scenario = scenario or preset("nominal")
    rows = []
    for outage in (0.02, 0.05, 0.2):
        result = runner.measure_failure_recovery(
            scenario, outage_start=0.05, outage_duration=outage,
            total_time=8.0, n_frames=3000, seed=seed,
        )
        result["outage"] = outage
        rows.append(result)
    return ExperimentResult(
        "E10",
        "Enforced recovery across link outages (simulation)",
        rows,
        notes="Zero loss in every case; duplicates may appear only via enforced "
        "recovery (the paper's admitted corner) and are removed by the "
        "destination resequencer.",
    )


# ---------------------------------------------------------------------------
# E11 — HDLC timeout-margin (alpha) sensitivity
# ---------------------------------------------------------------------------


def e11_alpha_sensitivity(
    scenario: LinkScenario | None = None, seed: int = 0
) -> ExperimentResult:
    """η_HDLC vs alpha, with the orbit model supplying realistic alphas."""
    scenario = scenario or preset("noisy")
    sat_a = Satellite("sat-a", altitude_km=1000, inclination_deg=60, phase_deg=0)
    sat_b = Satellite("sat-b", altitude_km=1000, inclination_deg=60, raan_deg=25, phase_deg=12)
    stats = rtt_statistics(sat_a, sat_b, 0.0, 600.0, step_s=5.0)
    rows = []
    n = 50_000
    for alpha in (0.0, 0.01, stats["alpha_min"], 0.05, 0.1, 0.3):
        params = scenario.with_(alpha=float(alpha)).model_parameters()
        rows.append(
            {
                "alpha": float(alpha),
                "eta_hdlc": hdlc_model.throughput_efficiency(params, n),
                "eta_lams": lams_model.throughput_efficiency(params, n),
                "is_orbit_alpha": abs(alpha - stats["alpha_min"]) < 1e-12,
            }
        )
    return ExperimentResult(
        "E11",
        "HDLC timeout-margin sensitivity (alpha = t_out − R)",
        rows,
        notes=f"Orbit-model alpha lower bound for this pair: "
        f"{stats['alpha_min']:.4f}s (RTT var {stats['variance']:.3e}). "
        "η_HDLC decays with alpha; η_LAMS has no alpha dependence at all.",
    )


# ---------------------------------------------------------------------------
# E13 — zero-duplication ablation (the paper's "more recent version")
# ---------------------------------------------------------------------------


def e13_zero_duplication(
    scenario: LinkScenario | None = None, seed: int = 13
) -> ExperimentResult:
    """Duplicates across an enforced recovery, with and without the mode."""
    scenario = scenario or preset("nominal")
    rows = []
    for zero_dup in (False, True):
        result = runner.measure_failure_recovery(
            scenario, outage_start=0.05, outage_duration=0.02,
            total_time=10.0, n_frames=3000, seed=seed,
            overrides={"zero_duplication": zero_dup},
        )
        rows.append(
            {
                "zero_duplication": zero_dup,
                "recovered": result["recovered"],
                "delivered_unique": result["delivered_unique"],
                "duplicates": result["duplicates"],
                "lost": result["lost"],
                "retransmissions": result["retransmissions"],
            }
        )
    return ExperimentResult(
        "E13",
        "Zero-duplication extension across an enforced recovery",
        rows,
        notes="Section 3.2: 'A more recent version of LAMS-DLC guarantees "
        "zero duplication as well as zero loss'. The receiver suppresses "
        "duplicate incarnations; loss stays zero either way.",
    )


# ---------------------------------------------------------------------------
# E14 — stutter-mode ablation (Section 1 background: Stutter / SR+ST)
# ---------------------------------------------------------------------------


def e14_stutter(
    scenario: LinkScenario | None = None, seed: int = 14
) -> ExperimentResult:
    """SR-HDLC batch completion time with and without stutter mode."""
    scenario = (scenario or preset("noisy")).with_(window_size=16)
    rows = []
    for stutter in (False, True):
        result = runner.measure_batch_transfer(
            scenario, "hdlc", 400, seed=seed,
            overrides={"stutter": stutter}, max_time=120.0,
        )
        rows.append(
            {
                "stutter": stutter,
                "duration": result["duration"],
                "iframes_sent": result["iframes_sent"],
                "delivered": result["delivered"],
                "completed": result["completed"],
            }
        )
    return ExperimentResult(
        "E14",
        "Stutter mode (idle-time repeats) for SR-HDLC, lossy batch transfer",
        rows,
        notes="The Stutter-GBN / SR+ST idea of references [1][3]: filling "
        "the stalled window's idle time with repeats cuts completion time "
        "at the price of channel occupancy. LAMS-DLC gets the same latency "
        "benefit structurally, without extra copies.",
    )


# ---------------------------------------------------------------------------
# E15 — link lifetime / retargeting overhead across passes
# ---------------------------------------------------------------------------


def e15_link_sessions(
    scenario: LinkScenario | None = None, seed: int = 15
) -> ExperimentResult:
    """Goodput over short link passes with retargeting overhead."""
    from ..core.config import LamsDlcConfig
    from ..hdlc.config import HdlcConfig
    from ..session import LinkSessionManager, PassSchedule
    from ..session.factories import session_factory
    from ..simulator.engine import Simulator

    scenario = scenario or preset("nominal").with_(
        bit_rate=100e6, distance_km=3000.0
    )
    rows = []
    for protocol in ("lams", "hdlc"):
        for init_time in (0.01, 0.10):
            sim = Simulator()
            link = scenario.build_link(sim, seed=seed)
            schedule = PassSchedule.periodic(
                first_start=0.05, duration=0.5, gap=0.2, count=4
            )
            if protocol == "lams":
                config = LamsDlcConfig(
                    checkpoint_interval=scenario.checkpoint_interval,
                    cumulation_depth=scenario.cumulation_depth,
                )
            else:
                config = HdlcConfig(
                    window_size=scenario.window_size,
                    sequence_bits=scenario.sequence_bits,
                    timeout=scenario.timeout,
                )
            factory = session_factory(protocol, config)
            delivered: list = []
            manager = LinkSessionManager(
                sim, link, schedule, factory,
                init_time=init_time, deliver=delivered.append,
            )
            total = 40_000
            for i in range(total):
                manager.send(("pkt", i))
            sim.run(until=4.0)
            delivered_ids = {p[1] for p in delivered}
            backlog_ids = {p[1] for p in manager._queue}
            iframe_time = scenario.iframe_time
            rows.append(
                {
                    "protocol": protocol,
                    "init_overhead_s": init_time,
                    "passes": manager.passes_run,
                    "delivered_unique": len(delivered_ids),
                    "goodput_eff": len(delivered_ids) * iframe_time / schedule.total_link_time,
                    "carried_over": manager.carried_over,
                    "lost": total - len(delivered_ids | backlog_ids),
                }
            )
    return ExperimentResult(
        "E15",
        "Goodput across short link passes with retargeting overhead",
        rows,
        notes="Section 1: links live for minutes with 'large retargeting "
        "overhead'. Goodput per second of link time falls with overhead for "
        "both protocols, but LAMS-DLC uses the remaining time at line rate "
        "while SR-HDLC stays window-stalled.",
    )


# ---------------------------------------------------------------------------
# E18 — the full protocol field: LAMS vs SR-HDLC vs GBN vs NBDT
# ---------------------------------------------------------------------------


def e18_protocol_field(
    scenario: LinkScenario | None = None, duration: float = 2.0, seed: int = 18
) -> ExperimentResult:
    """Saturated-load comparison of every implemented protocol."""
    scenario = scenario or preset("noisy")
    rows = []
    for protocol in ("lams", "hdlc", "gbn", "nbdt-continuous", "nbdt-multiphase"):
        result = runner.measure_saturated(scenario, protocol, duration, seed=seed)
        rows.append(
            {
                "protocol": protocol,
                "efficiency": result["efficiency"],
                "retransmissions": result["retransmissions"],
                "mean_holding_time": result["mean_holding_time"],
                "delivered": result["delivered"],
            }
        )
    return ExperimentResult(
        "E18",
        "Saturated goodput of every implemented protocol (simulation)",
        rows,
        notes="The paper's full landscape: LAMS-DLC and NBDT-continuous "
        "avoid window stalls (high efficiency); NBDT still needs positive "
        "acks (memory until report) and has no failure handling; "
        "multiphase and the windowed protocols pay per-cycle round trips.",
    )


# ---------------------------------------------------------------------------
# E16 — Type-I hybrid ARQ/FEC (Section 1, references [13–15])
# ---------------------------------------------------------------------------


def e16_hybrid_arq_fec(
    scenario: LinkScenario | None = None, seed: int = 0
) -> ExperimentResult:
    """Goodput of the codec ladder across channel BERs: the ARQ/FEC trade."""
    from ..analysis import hybrid

    scenario = scenario or preset("nominal")
    base = scenario.model_parameters()
    rows = []
    for channel_ber in (1e-6, 1e-5, 1e-4, 1e-3):
        for row in hybrid.codec_sweep(base, scenario.iframe_bits, channel_ber):
            row["channel_ber"] = channel_ber
            rows.append(row)
    return ExperimentResult(
        "E16",
        "Type-I hybrid ARQ/FEC: goodput of codec strengths vs channel BER",
        rows,
        notes="Clean channels favour no coding (parity is pure overhead); "
        "noisy channels favour coding (retransmissions cost more than "
        "parity). The optimum codec strengthens as the channel degrades — "
        "the Type-I rationale of references [13–15].",
    )


# ---------------------------------------------------------------------------
# E17 — frame-size optimisation (Section 1 NBDT / Section 2.3)
# ---------------------------------------------------------------------------


def e17_frame_size(
    scenario: LinkScenario | None = None, seed: int = 0
) -> ExperimentResult:
    """Goodput vs payload size: the optimum the paper says NBDT chased."""
    from ..analysis import framesize

    scenario = scenario or preset("nominal")
    overhead = scenario.iframe_overhead_bits
    rows = []
    for ber in (1e-6, 1e-5, 1e-4):
        optimum = framesize.optimal_frame_size(overhead, ber)
        approx = framesize.optimal_frame_size_approx(overhead, ber)
        for size in (256, 1024, 4096, 8192, 32_768, 131_072):
            rows.append(
                {
                    "ber": ber,
                    "payload_bits": size,
                    "goodput": framesize.goodput_per_channel_bit(size, overhead, ber),
                    "optimal_bits": optimum,
                    "approx_bits": round(approx),
                }
            )
    return ExperimentResult(
        "E17",
        "Goodput vs frame size; optimum ≈ sqrt(overhead/BER)",
        rows,
        notes="Short frames drown in header overhead, long ones in "
        "retransmissions (Section 2.3). LAMS-DLC's renumbering lets the "
        "frame size track the optimum mid-stream — NBDT needed 32-bit "
        "absolute numbering for the same freedom.",
    )


# ---------------------------------------------------------------------------
# E21 — fault matrix: outage duration × cumulation depth (simulation)
# ---------------------------------------------------------------------------


def e21_fault_matrix(
    scenario: LinkScenario | None = None, seed: int = 21
) -> ExperimentResult:
    """Detection/recovery latency across outage duration × C_depth.

    Drives the declarative fault layer: one both-ways outage per cell,
    injected by a :class:`~repro.faults.injector.FaultInjector`, with
    recovery metrics from the fault layer's tracer listener.  Each row
    checks the paper's Section 3.2 latency guarantees — detection
    (first Request-NAK) within ``C_depth * W_cp`` of the cut, declared
    failure within that plus the failure-timer budget.
    """
    scenario = scenario or preset("nominal")
    rows = []
    for c_depth in (2, 4):
        point = scenario.with_(cumulation_depth=c_depth)
        config = point.lams_config()
        d_bound = detection_bound(config)
        f_bound = declared_failure_bound(config, point.round_trip_time)
        for outage in (0.01, 0.05, 0.2):
            plan = FaultPlan.single_outage(
                start=0.05, duration=outage, name=f"outage-{outage:g}",
            )
            result = runner.measure_fault_plan(
                point, plan, total_time=3.0, n_frames=1500, seed=seed,
            )
            t_probe = result.get("t_request_nak", float("nan"))
            t_fail = result.get("t_declared_failure", float("nan"))
            detected = t_probe == t_probe  # not NaN
            rows.append(
                {
                    "c_depth": c_depth,
                    "outage": outage,
                    "detected": detected,
                    "t_request_nak": t_probe,
                    "detection_bound": d_bound,
                    "detection_within_bound": (not detected) or t_probe <= d_bound + 1e-9,
                    "failure_declared": result["failure_declared"],
                    "t_declared_failure": t_fail,
                    "failure_bound": f_bound,
                    "failure_within_bound": (t_fail != t_fail) or t_fail <= f_bound + 1e-9,
                    "frames_lost": result.get("frames_lost", 0),
                    "recovered": result["recovered"],
                    "duplicates": result["duplicates"],
                    "lost": result["lost"],
                }
            )
    return ExperimentResult(
        "E21",
        "Fault matrix: outage duration × cumulation depth (simulation)",
        rows,
        notes="Detection fires within C_depth·W_cp of a full cut (an outage "
        "shorter than the watchdog rides out undetected); a declared "
        "failure lands within the detection bound plus the failure-timer "
        "budget. Zero loss in every cell: undelivered frames stay "
        "buffered at the sender for the network layer.",
    )


# ---------------------------------------------------------------------------
# E24 — constellation scale: M concurrent LAMS-DLC links, one engine
# ---------------------------------------------------------------------------


def e24_constellation(
    scenario: LinkScenario | None = None,
    seed: int = 24,
    scale_links: int = 100,
    duration: float = 2.0,
) -> ExperimentResult:
    """Constellation presets under cross-traffic, one engine per cell.

    Four cells exercise the topology layer's shapes (the paper's
    Section 2.1 environment at network scale):

    - ``ring-6`` — one orbital plane, stride-2 cross-traffic so every
      flow transits a relay;
    - ``chain-4`` — a store-and-forward pipeline with every node's
      flow converging on the far end: the hops nearest the sink carry
      the superposed load (relay congestion);
    - ``grid-3x4`` — three planes with cross-plane ISLs, stride-3
      cross-traffic;
    - ``ring-N`` (*scale_links* links, default 100) — the scale cell:
      M concurrent LAMS-DLC links in one engine, built and run twice
      from the same master seed with the rollups compared, so the row
      itself certifies determinism at scale.

    Every cell reports the network rollup (delivery accounting, merged
    delay streams, engine event count, peak event-queue width, peak
    per-link buffered state).
    """
    # Imported here for import cost only: E24 is the one experiment that
    # needs the topology and network layers (~27 ms of imports).
    from ..topology import (
        LinkSpec,
        build_constellation,
        chain_topology,
        cross_traffic,
        grid_topology,
        ring_topology,
    )
    from ..topology.flows import FlowSpec

    scenario = scenario or preset("nominal")
    template = LinkSpec(scenario=scenario)

    def run_cell(topo, flows, until):
        constellation = build_constellation(
            topo, master_seed=seed, flows=flows, horizon=until,
            probe_interval=until / 50.0,
        )
        constellation.run(until=until)
        return constellation.network_rollup()

    rows = []

    def add_row(cell, topo, flows, until, rollup, deterministic=None):
        sent = rollup["datagrams_sent"]
        rows.append(
            {
                "cell": cell,
                "nodes": len(topo.nodes),
                "links": rollup["links"],
                "flows": len(flows),
                "duration": until,
                "datagrams_sent": sent,
                "datagrams_delivered": rollup["datagrams_delivered"],
                "delivery_ratio": (
                    rollup["datagrams_delivered"] / sent if sent else 1.0
                ),
                "e2e_delay_mean": rollup["e2e_delay_mean"],
                "frames_sent": rollup["frames_sent"],
                "frames_corrupted": rollup["frames_corrupted"],
                "events": rollup["events"],
                "peak_heap": rollup["peak_heap"],
                "peak_buffered": rollup["peak_buffered_max"],
                "utilization_mean": rollup["utilization_mean"],
                "retry_backlog": rollup["retry_backlog"],
                "deterministic": deterministic,
            }
        )

    # ring-6: every flow crosses a relay.
    topo = ring_topology(6, template, name="ring-6")
    flows = cross_traffic(topo.node_names(), stride=2, messages=40,
                          interval=duration / 80.0)
    add_row("ring-6", topo, flows, duration, run_cell(topo, flows, duration))

    # chain-4: all flows converge on the far end; the last hops carry
    # the superposed load (relay congestion).
    topo = chain_topology(4, template, name="chain-4")
    sink = topo.node_names()[-1]
    flows = [
        FlowSpec(source=name, destination=sink, messages=40,
                 interval=duration / 80.0, poisson=True)
        for name in topo.node_names()[:-1]
    ]
    add_row("chain-4", topo, flows, duration, run_cell(topo, flows, duration))

    # grid-3x4: three planes, cross-plane ISLs.
    topo = grid_topology(3, 4, template, name="grid-3x4")
    flows = cross_traffic(topo.node_names(), stride=5, messages=20,
                          interval=duration / 40.0)
    add_row("grid-3x4", topo, flows, duration, run_cell(topo, flows, duration))

    # Scale cell: M concurrent links, run twice, rollups compared.
    if scale_links >= 3:
        until = min(duration, 1.0)
        topo = ring_topology(scale_links, template, name=f"ring-{scale_links}")
        names = topo.node_names()
        flows = [
            FlowSpec(source=names[i], destination=names[(i + 2) % len(names)],
                     messages=10, interval=until / 20.0, poisson=True)
            for i in range(0, len(names), max(1, len(names) // 8))
        ]
        first = run_cell(topo, flows, until)
        second = run_cell(topo, flows, until)
        add_row(f"ring-{scale_links}", topo, flows, until, first,
                deterministic=first == second)

    return ExperimentResult(
        "E24",
        "Constellation scale: concurrent LAMS-DLC links in one engine",
        rows,
        notes="Every datagram delivered exactly once through relay nodes; "
        "per-link streams merge into the network rollup. The scale cell "
        "is built and run twice from one master seed — 'deterministic' "
        "asserts the two rollups are identical, the stream-isolation "
        "guarantee at constellation scale.",
    )


# ---------------------------------------------------------------------------
# E25 — feedback asymmetry: checkpoint/NAK loss vs the cumulative-NAK bound
# ---------------------------------------------------------------------------


def e25_feedback_asymmetry(
    scenario: LinkScenario | None = None,
    seed: int = 25,
    duration: float = 2.0,
    feedback_bers: tuple[float, ...] = (1e-8, 1e-4, 1e-3, 5e-3, 2e-2),
    depths: tuple[int, ...] = (2, 4),
) -> ExperimentResult:
    """Throughput vs feedback-channel BER at fixed forward BER.

    The paper's recovery argument leans on cumulative NAKs: a NAK is
    repeated in ``C_depth`` consecutive checkpoints, so the sender
    misses a retransmission request only when *every* copy is lost —
    probability ``p_cp**C_depth`` for checkpoint-loss probability
    ``p_cp``.  The scenario's ``reverse_cframe_ber`` field decouples the
    feedback direction from the forward BER, so this sweep holds the
    forward channel fixed (the ``noisy`` preset) and degrades only the
    checkpoint/NAK path.

    Expected shape: efficiency is flat while ``p_cp**C_depth`` stays
    negligible (cumulation absorbs isolated feedback losses), then
    degrades as whole NAK streaks start vanishing and recovery waits on
    the ``C_depth·W_cp`` watchdog; a deeper ``C_depth`` holds the
    plateau further into the feedback-loss axis.
    """
    scenario = scenario or preset("noisy")
    rows = []
    for c_depth in depths:
        for fb in feedback_bers:
            cell = scenario.with_(
                name=f"{scenario.name}~fb{fb:g}~c{c_depth}",
                cumulation_depth=c_depth,
                reverse_cframe_ber=fb,
            )
            result = runner.measure_saturated(cell, "lams", duration, seed=seed)
            p_cp = frame_error_probability(fb, scenario.cframe_bits)
            rows.append(
                {
                    "c_depth": c_depth,
                    "feedback_ber": fb,
                    "forward_ber": scenario.iframe_ber,
                    "p_checkpoint_loss": p_cp,
                    "p_nak_streak_lost": p_cp ** c_depth,
                    "efficiency": result["efficiency"],
                    "delivered": result["delivered"],
                    "retransmissions": result["retransmissions"],
                    "mean_holding_time": result["mean_holding_time"],
                    "sendbuf_max": result["sendbuf_max"],
                }
            )
    return ExperimentResult(
        "E25",
        "Feedback asymmetry: checkpoint/NAK loss at fixed forward BER",
        rows,
        notes="Only the reverse (feedback) direction degrades; the forward "
        "channel is pinned at the preset BER. Efficiency holds while "
        "p_cp**C_depth is negligible — cumulative NAKs absorb isolated "
        "checkpoint losses — and falls once whole NAK streaks vanish "
        "and recovery waits on the watchdog.",
    )


# ---------------------------------------------------------------------------
# E26 — the Section-4 validation table: every closed form against the DES
# ---------------------------------------------------------------------------


VALIDATION_TOLERANCES: dict[tuple[str, str], float] = {
    ("eta", "lams"): 0.10, ("H_frame", "lams"): 0.02, ("s_bar", "lams"): 0.02,
    ("B_LAMS", "lams"): 0.10, ("D_low", "lams"): 0.10,
    ("eta", "hdlc"): 0.05, ("H_frame", "hdlc"): 0.05, ("s_bar", "hdlc"): 0.05,
    ("D_low", "hdlc"): 0.10,
}
"""The largest ``|mean/model - 1|`` an E26 row may show and read
``within``, one per (closed form, protocol)."""

_BACKLOG = "the sendbuf gauge also counts the source's 256-768-frame backlog"
_HDLC = ("SR-HDLC's analysis charges one frame's turnaround a period; the DES "
         "holds a window to its cumulative RR and re-sends frames in flight")
_SLOWEST = "a batch ends with its slowest frame; D_low charges (s̄-1) rounds"

KNOWN_DIVERGENCES: dict[tuple[str, str, str], str] = {
    **{(name, "lams", "B_LAMS"): _BACKLOG for name in ("short_hop", "nominal", "noisy")},
    **{(name, "hdlc", "eta"): _HDLC for name in ("nominal", "long_haul", "noisy")},
    **{(name, "hdlc", "H_frame"): _HDLC for name in PRESETS},
    ("noisy", "hdlc", "s_bar"): _HDLC,
    ("noisy", "lams", "D_low"): _SLOWEST,
    ("noisy", "hdlc", "D_low"): _SLOWEST,
}
"""E26 cells that cannot meet their tolerance and why (docs/ANALYSIS.md §8
has the numbers): they read ``known``, any other row outside ``outside``."""


def validation_points(
    seed: int, replications: int, duration: float, presets: Sequence[str] | None
) -> list:
    """E26's sweep points: a saturated cell per preset × protocol, then a
    ``noisy`` batch cell per batch size × protocol, over one seed list."""
    from .parallel import MeasurePoint, MeasureSpec, replication_seeds

    specs = [
        MeasureSpec.create("measure_saturated", PRESETS[name], protocol,
                           duration=duration)
        for name in (presets or PRESETS) for protocol in ("lams", "hdlc")
    ] + [
        MeasureSpec.create("measure_batch_transfer", PRESETS["noisy"], protocol,
                           n_frames=n, max_time=60.0)
        for n in (16, 64) for protocol in ("lams", "hdlc")
    ]
    # Seed-major, so every chunk a pool hands out mixes cheap and costly
    # cells (ten long_haul LAMS runs in a row would land on one worker).
    return [MeasurePoint(spec, s)
            for s in replication_seeds(seed, replications) for spec in specs]


def validation_rows(points: Sequence, results: Sequence) -> list[dict]:
    """Fold E26's results into one row per cell and closed form.

    Samples are folded in seed order, so the rows depend on the results
    alone, not on the worker count or the cache.  A NaN sample (an
    unfinished batch, say) raises ``ValueError`` naming its seed.
    """
    cells: dict = {}
    for point, result in zip(points, results):
        cells.setdefault(point.spec, []).append((point.seed, result))
    rows = []
    for spec, runs in cells.items():
        name, protocol = spec.scenario.name, spec.protocol
        params = spec.scenario.model_parameters()
        model = lams_model if protocol == "lams" else hdlc_model

        def summary(metric: str, sample: Callable[[dict], float]) -> StreamingSummary:
            for seed, result in runs:
                if sample(result) != sample(result):
                    raise ValueError(f"{spec.experiment_id}@{name}: {metric} "
                                     f"measurement returned NaN for seed {seed}")
            return StreamingSummary.from_samples(metric, (sample(r) for _, r in runs))

        if spec.runner == "measure_batch_transfer":
            n = dict(spec.kwargs)["n_frames"]
            forms = {"D_low": (model.total_delivery_time_low(params, n),
                               lambda r: r["duration"])}
        else:
            n = max(1, round(summary("delivered", lambda r: r["delivered"]).mean))
            forms = {
                "eta": (model.throughput_efficiency(params, n),
                        lambda r: r["efficiency"]),
                "H_frame": (model.holding_time(params),
                            lambda r: r["mean_holding_time"]),
                "s_bar": (model.s_bar(params), lambda r: r["iframes_sent"]
                          / (r["iframes_sent"] - r["retransmissions"])),
            }
            if protocol == "lams":
                forms["B_LAMS"] = (lams_model.transparent_buffer_size(params),
                                   lambda r: r["sendbuf_avg"])
        for metric, (predicted, sample) in forms.items():
            measured = summary(metric, sample)
            ratio = measured.mean / predicted
            tolerance = VALIDATION_TOLERANCES[(metric, protocol)]
            rows.append({
                "preset": name, "protocol": protocol, "metric": metric,
                "n_frames": n, "model": predicted, "mean": measured.mean,
                "ci95_half_width": measured.half_width, "n": measured.count,
                "ratio": ratio, "tolerance": tolerance,
                "verdict": "within" if abs(ratio - 1.0) <= tolerance
                else "known" if (name, protocol, metric) in KNOWN_DIVERGENCES
                else "outside",
            })
    return rows


def e26_validation_table(
    seed: int = 26,
    replications: int = 10,
    duration: float = 0.5,
    presets: Sequence[str] | None = None,
    jobs: int = 1,
) -> ExperimentResult:
    """Every Section-4 closed form the DES can measure, with a 95% CI.

    One ``run_sweep`` over :func:`validation_points`, folded by
    :func:`validation_rows`.  *jobs* only goes to ``run_sweep`` (the
    rows do not depend on it); it stays 1 by default because registry
    experiments also run inside sweep workers, which cannot start a pool.
    """
    from .parallel import run_sweep

    points = validation_points(seed, replications, duration, presets)
    return ExperimentResult(
        "E26",
        "Section-4 validation table: closed form vs simulation, 95% CIs",
        validation_rows(points, run_sweep(points, jobs=jobs)),
        notes="ratio = mean/model; eta at N = mean delivered, D_low to the "
        "batch's last delivery. 'known' rows are listed divergences, each "
        "with its cause in docs/ANALYSIS.md §8.",
    )


REGISTRY: dict[str, Callable[..., ExperimentResult]] = {
    "E1": e1_retransmission_factor,
    "E2": e2_delivery_time,
    "E3": e3_holding_time,
    "E4": e4_buffer_model,
    "E4-sim": e4_buffer_simulation,
    "E5": e5_n_total,
    "E6": e6_throughput_vs_n,
    "E6-ber": e6_throughput_vs_ber,
    "E6-window": e6_window_sweep,
    "E7": e7_knob_ablation,
    "E8": e8_burst_utilization,
    "E9": e9_numbering,
    "E10": e10_recovery,
    "E11": e11_alpha_sensitivity,
    "E13": e13_zero_duplication,
    "E14": e14_stutter,
    "E15": e15_link_sessions,
    "E16": e16_hybrid_arq_fec,
    "E17": e17_frame_size,
    "E18": e18_protocol_field,
    "E21": e21_fault_matrix,
    "E24": e24_constellation,
    "E25": e25_feedback_asymmetry,
    "E26": e26_validation_table,
}

SIMULATED_EXPERIMENTS: frozenset[str] = frozenset(
    {"E4-sim", "E8", "E10", "E13", "E14", "E15", "E18", "E21", "E24", "E25",
     "E26"}
)
"""Experiments whose rows come from the discrete-event simulator.

Every registry function accepts ``seed``; for the analytic (model-only)
series the kwarg is accepted and ignored so callers — and the parallel
sweep runner — can pass a uniform ``seed`` without special-casing ids.
Only the ids listed here actually consume it.
"""


def experiment_ids() -> list[str]:
    """All registered experiment ids."""
    return list(REGISTRY)


@lru_cache(maxsize=None)
def default_seed(experiment_id: str) -> int:
    """The registered default ``seed`` of one experiment, memoised.

    The sweep plane resolves a seed per dispatched point; inspecting
    the function signature costs more than many cache probes, so the
    answer is computed once per experiment id for the process lifetime.
    """
    fn = REGISTRY[experiment_id]
    parameter = inspect.signature(fn).parameters.get("seed")
    if parameter is None or parameter.default is inspect.Parameter.empty:
        return 0
    return int(parameter.default)


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    """Run one experiment by id."""
    try:
        fn = REGISTRY[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(REGISTRY)}"
        ) from None
    return fn(**kwargs)
