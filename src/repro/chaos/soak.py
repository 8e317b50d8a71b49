"""The chaos soak: randomized episodes under full invariant monitoring.

Each :class:`ChaosPoint` wraps one
:class:`~repro.chaos.episodes.EpisodeSpec` as a sweep work unit: build
the simulation with the invariant suite armed
(``build_simulation(..., run_with_invariants=True)``), wire a
destination :class:`~repro.netlayer.resequencer.Resequencer` so the
ordering monitor sees end-to-end releases, drive a finite workload
through the random fault plan, and report every invariant violation
with its trace window and reproducer seed.

:func:`run_soak` fans N episodes over one parallel sweep
(:func:`repro.experiments.parallel.run_sweep`); ``fail_fast`` aborts on
the first violating episode via
:class:`~repro.experiments.parallel.SweepStop` without losing the
violating report.  CLI: ``python -m repro soak``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..experiments.parallel import SweepStop, _jsonable, run_sweep
from ..netlayer.packet import Datagram
from ..netlayer.resequencer import Resequencer
from ..workloads.generators import FiniteBatch
from ..workloads.scenarios import build_simulation
from .episodes import EpisodeSpec, generate_episodes

__all__ = [
    "ChaosPoint",
    "SoakResult",
    "run_episode",
    "run_soak",
    "run_transport_episode",
]


def run_episode(spec: EpisodeSpec) -> dict[str, Any]:
    """Run one chaos episode under monitors; returns a plain-data report."""
    setup = build_simulation(
        spec.scenario, "lams",
        seed=spec.seed,
        overrides=spec.overrides_dict,
        iframe_errors=spec.iframe_errors,
        fault_plan=spec.fault_plan,
        run_with_invariants=True,
    )
    suite = setup.monitors
    suite.context.update(spec.reproducer())

    # Destination resequencer: DLC delivery order is relaxed, so the
    # ordering invariant is only checkable past this component.
    reseq = Resequencer(tracer=setup.tracer, clock=lambda: setup.sim.now)

    def on_append() -> None:
        payload = setup.delivered[-1]
        reseq.push(
            Datagram(
                source="a", destination="b",
                sequence=payload[1], created_at=setup.sim.now,
            )
        )

    setup.delivered.on_append = on_append
    batch = FiniteBatch(setup.sim, setup.endpoint_a, spec.n_frames)
    batch.start()
    setup.run(until=spec.max_time)
    setup.finalize_monitors()

    violations = [v.as_dict() for v in suite.violations]
    return {
        "episode": spec.index,
        "seed": spec.seed,
        "master_seed": spec.master_seed,
        "scenario": spec.scenario.name,
        "fault_plan": spec.fault_plan.to_dict(),
        "n_frames": spec.n_frames,
        "offered": batch.offered,
        "delivered": len(setup.delivered),
        "dest_released": reseq.delivered,
        "duplicates_dropped": reseq.duplicates_dropped,
        "failures_declared": (
            setup.recovery.failures_declared if setup.recovery else 0
        ),
        "monitor_summary": suite.summary(),
        "violations": violations,
        "ok": not violations,
        "reproducer": spec.reproducer(),
    }


def _synthetic_violation(
    invariant: str, message: str, spec: EpisodeSpec, **detail: Any,
) -> dict[str, Any]:
    """A violation-shaped entry for failures the monitors cannot see
    (wall-clock hangs, cross-backend digest mismatches)."""
    return {
        "invariant": invariant,
        "time": spec.max_time,
        "message": message,
        "detail": {k: repr(v) for k, v in detail.items()},
        "trace_window": [],
        "context": {k: repr(v) for k, v in spec.reproducer().items()},
    }


def run_transport_episode(spec: EpisodeSpec) -> dict[str, Any]:
    """Run one chaos episode as a supervised real-time UDP session.

    The episode's fault plan is injected at the transport layer
    (:class:`~repro.transport.impair.TransportFaultInjector`), the
    session runs under the full invariant suite plus the supervisor's
    reconnect/replay lifecycle, and ``spec.max_time`` acts as the
    per-episode watchdog — a session that hangs past it is reported as
    a synthetic ``transport-watchdog`` violation.  Fault-free episodes
    double as live conformance probes: their transfer is re-run on the
    DES backend and the wire digests must agree.
    """
    from ..transport.conformance import run_des_reference
    from ..transport.supervisor import SupervisorPolicy, run_supervised_transfer

    config = spec.scenario.protocol_config("lams", **spec.overrides_dict)
    # Tight reconnect pacing: soak episodes budget wall seconds, so cap
    # the backoff well below the interactive default and allow enough
    # attempts to ride out the longest generated stall.
    policy = SupervisorPolicy.for_scenario(
        spec.scenario, config=config, max_attempts=8, backoff_cap=0.4,
    )
    result = run_supervised_transfer(
        spec.scenario, "lams", seed=spec.seed,
        n_frames=spec.n_frames, payload_bytes=256,
        timeout=spec.max_time, policy=policy,
        overrides=spec.overrides_dict, fault_plan=spec.fault_plan,
        run_with_invariants=True,
    )
    suite = result.monitors
    if suite is not None:
        suite.context.update(spec.reproducer())
    violations = [v.as_dict() for v in result.violations]
    if result.failure_reason == "watchdog":
        violations.append(_synthetic_violation(
            "transport-watchdog",
            f"session hung past the {spec.max_time:.1f}s episode watchdog "
            f"({result.delivered_unique}/{spec.n_frames} delivered, "
            f"{result.attempts} attempt(s))",
            spec, attempts=result.attempts, reconnects=result.reconnects,
        ))
    if result.completed and result.digest != result.expected_digest:
        violations.append(_synthetic_violation(
            "transport-digest",
            "completed session delivered a payload set that does not "
            "match the offered bytes",
            spec, digest=result.digest, expected=result.expected_digest,
        ))
    conformance: dict[str, Any] | None = None
    if not len(spec.fault_plan):
        if not result.completed:
            violations.append(_synthetic_violation(
                "transport-completion",
                f"fault-free episode failed to complete "
                f"(reason={result.failure_reason!r})",
                spec, failure_reason=result.failure_reason,
            ))
        reference = run_des_reference(
            spec.scenario, "lams", seed=spec.seed,
            n_frames=spec.n_frames, payload_bytes=256,
            overrides=spec.overrides_dict,
        )
        conformance = {
            "des_completed": reference.completed,
            "des_digest": reference.digest,
            "udp_digest": result.digest,
            "match": reference.digest == result.digest,
        }
        if (reference.completed and result.completed
                and reference.digest != result.digest):
            violations.append(_synthetic_violation(
                "des-conformance",
                "fault-free UDP episode's wire digest disagrees with the "
                "DES reference",
                spec, des=reference.digest, udp=result.digest,
            ))
    return {
        "episode": spec.index,
        "seed": spec.seed,
        "master_seed": spec.master_seed,
        "backend": "udp",
        "scenario": spec.scenario.name,
        "fault_plan": spec.fault_plan.to_dict(),
        "n_frames": spec.n_frames,
        "completed": result.completed,
        "failure_reason": result.failure_reason,
        "attempts": result.attempts,
        "reconnects": result.reconnects,
        "delivered": result.delivered_unique,
        "duplicates": result.duplicates,
        "elapsed": result.elapsed,
        "stats": result.stats,
        "conformance": conformance,
        "monitor_summary": suite.summary() if suite is not None else {},
        "violations": violations,
        "ok": not violations,
        "reproducer": spec.reproducer(),
    }


@dataclass(frozen=True)
class ChaosPoint:
    """One episode as a picklable sweep work unit."""

    spec: EpisodeSpec

    @property
    def label(self) -> str:
        return self.spec.label

    def execute(self) -> Any:
        if self.spec.backend == "udp":
            return _jsonable(run_transport_episode(self.spec))
        return _jsonable(run_episode(self.spec))


@dataclass
class SoakResult:
    """Aggregate outcome of one soak run."""

    master_seed: int
    requested: int
    episodes: list[dict[str, Any]]
    stopped_early: bool = False

    @property
    def completed(self) -> int:
        return len(self.episodes)

    @property
    def violations(self) -> list[dict[str, Any]]:
        out: list[dict[str, Any]] = []
        for episode in self.episodes:
            out.extend(episode.get("violations", ()))
        return out

    @property
    def ok(self) -> bool:
        return not self.violations and not self.stopped_early

    def summary(self) -> dict[str, Any]:
        totals: dict[str, int] = {}
        for episode in self.episodes:
            for name, count in episode.get("monitor_summary", {}).items():
                totals[name] = totals.get(name, 0) + count
        return {
            "master_seed": self.master_seed,
            "episodes_requested": self.requested,
            "episodes_completed": self.completed,
            "stopped_early": self.stopped_early,
            "violations": len(self.violations),
            "violations_by_invariant": totals,
            "ok": self.ok,
        }


def run_soak(
    episodes: int = 50,
    master_seed: int = 0,
    jobs: int = 1,
    fail_fast: bool = False,
    only: Optional[int] = None,
    progress: Optional[Callable[[dict[str, Any]], None]] = None,
    *,
    backend: str = "des",
) -> SoakResult:
    """Run *episodes* randomized chaos episodes under full monitoring.

    *only* restricts the run to one episode index (reproducing a
    violation from its report).  *fail_fast* stops scheduling new
    episodes once any violation is seen; the violating episode's report
    is always retained.  *progress*, if given, receives each episode's
    report dict as it completes, in episode order.  *backend* selects
    the soak plane: ``"des"`` episodes run in virtual time,
    ``"udp"`` episodes as supervised real-time loopback sessions with
    transport-level fault injection.
    """
    specs = generate_episodes(master_seed, episodes, backend=backend)
    if only is not None:
        if not 0 <= only < len(specs):
            raise ValueError(
                f"--only index {only} outside the generated range 0..{len(specs) - 1}"
            )
        specs = [specs[only]]
    points = [ChaosPoint(spec) for spec in specs]
    stopped = False

    def on_progress(point: ChaosPoint, from_cache: bool, result: Any) -> None:
        nonlocal stopped
        if progress is not None:
            progress(result)
        if fail_fast and not result.get("ok", True):
            stopped = True
            raise SweepStop(point.label)

    results = run_sweep(points, jobs=jobs, progress=on_progress)
    reports = [r for r in results if r is not None]
    return SoakResult(
        master_seed=master_seed,
        requested=len(points),
        episodes=reports,
        stopped_early=stopped,
    )
