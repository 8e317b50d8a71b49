"""Command-line interface: ``python -m repro <command>``.

The commands cover the library's everyday uses:

- ``experiments list`` / ``experiments run <id>`` — the experiment registry.
- ``model`` — the Section-4 closed-form quantities at one operating point.
- ``compare`` — model-level LAMS-DLC vs SR-HDLC at one operating point.
- ``simulate`` — run an executable protocol (LAMS-DLC, SR-HDLC, GBN, or
  NBDT) over a simulated link.
- ``sweep`` — replicated measurements (or registry experiments) as one
  sweep over a ``multiprocessing`` pool, with an on-disk result cache
  (``--jobs N``, ``--cache-dir``, ``--no-cache``); ``cache`` inspects
  or clears that cache.
- ``soak`` — randomized chaos episodes under the full invariant-monitor
  suite (``--episodes N --seed S --jobs J --fail-fast``); exits
  non-zero if any invariant was violated, printing each violation with
  its trace window and reproducer command.
- ``transmit`` / ``serve`` — run LAMS-DLC over the real asyncio-UDP
  transport backend: loopback sessions with the invariant monitors
  attached (``transmit``), the DES-vs-UDP conformance harness
  (``transmit --conform``), or one endpoint per process
  (``serve`` + ``transmit --connect HOST:PORT``).  See
  ``docs/TRANSPORT.md``.
- ``orbit`` — LEO pair geometry: visibility windows and RTT statistics.
- ``trace-synth`` — record a replayable error trace from any registered
  model driving a batch transfer (``--verify`` replays it and checks
  the delivered-payload digest bit-identically); see docs/CHANNELS.md.
- ``channels`` — list or describe the registered error models
  (``--model NAME --timeline --span S`` prints a time-varying model's
  BER).
- ``report`` — regenerate the full evaluation as one document.

The four commands that evaluate one operating point — ``model``,
``compare``, ``simulate``, ``sweep`` — accept ``--preset`` (short_hop /
nominal / long_haul / noisy) plus the paper's operating-point overrides
(``--bit-rate --distance-km --iframe-ber --cframe-ber
--checkpoint-interval --cumulation-depth --window-size --alpha``);
``trace-synth`` accepts ``--preset`` alone and every other command runs
its documented scenario.  ``--seed``, ``--jobs`` and ``--fault-plan``
are defined once as argparse *parent parsers* for the two commands each
that accept them.  Every flag is one that a Makefile target, CI step,
documented command line or effect-asserting test passes; the per-flag
table is in docs/API.md.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from .analysis import bounds, compare, delay
from .analysis import hdlc as hdlc_model
from .analysis import lams as lams_model
from .experiments import REGISTRY, experiment_ids, render_table, run_experiment
from .experiments.runner import measure_batch_transfer, measure_saturated
from .simulator.orbit import Satellite, rtt_statistics, visibility_windows
from .workloads import preset
from .workloads.scenarios import LinkScenario

__all__ = ["main", "build_parser"]


def _add_preset_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", default="nominal",
                        help="scenario preset (short_hop/nominal/long_haul/noisy)")


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    """``--preset`` plus the paper's operating-point overrides."""
    _add_preset_argument(parser)
    parser.add_argument("--bit-rate", type=float, default=None, help="bits/second")
    parser.add_argument("--distance-km", type=float, default=None)
    parser.add_argument("--iframe-ber", type=float, default=None)
    parser.add_argument("--cframe-ber", type=float, default=None)
    parser.add_argument("--checkpoint-interval", type=float, default=None,
                        help="W_cp in seconds")
    parser.add_argument("--cumulation-depth", type=int, default=None, help="C_depth")
    parser.add_argument("--window-size", type=int, default=None, help="HDLC W")
    parser.add_argument("--alpha", type=float, default=None,
                        help="HDLC timeout margin t_out - R")


def _scenario_from_args(args: argparse.Namespace) -> LinkScenario:
    scenario = preset(args.preset)
    overrides = {}
    for field in ("bit_rate", "distance_km", "iframe_ber", "cframe_ber",
                  "checkpoint_interval", "cumulation_depth", "window_size", "alpha"):
        value = getattr(args, field)
        if value is not None:
            overrides[field] = value
    try:
        return scenario.with_(**overrides) if overrides else scenario
    except ValueError as error:  # e.g. --distance-km nan
        print(f"error: {error}", file=sys.stderr)
        raise SystemExit(2) from None


# -- shared parent parsers --------------------------------------------------
#
# One definition per cross-cutting knob; every subcommand that accepts
# the knob lists the parent, so help text, types, and defaults cannot
# drift between commands.


def _seed_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--seed", type=int, default=0,
                        help="simulation / master seed (derived streams "
                             "make runs reproducible)")
    return parent


def _pool_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--jobs", type=int, default=1,
                        help="worker processes")
    return parent


def _fault_plan_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--fault-plan", default=None, metavar="FILE",
                        help="JSON FaultPlan to inject during the run "
                             "(see docs/FAULTS.md)")
    return parent


def _validate_pool_args(args: argparse.Namespace) -> Optional[str]:
    """Shared --jobs validation; an error message or None."""
    if args.jobs < 1:
        return "--jobs must be >= 1"
    return None


def _with_error_model_arg(
    scenario: LinkScenario, args: argparse.Namespace,
) -> Optional[LinkScenario]:
    """Fold a validated --error-model into the scenario; None on error."""
    name = args.error_model
    if name is None:
        return scenario
    from .simulator.errormodel import available_error_models, resolve_error_model

    if name.lower() not in available_error_models():
        print(f"error: unknown error model {name!r} "
              f"(use one of: {', '.join(available_error_models())})",
              file=sys.stderr)
        return None
    try:
        # A bare name gets only what the scenario knows (BER, bit rate).
        resolve_error_model(name, ber=scenario.iframe_ber, bit_rate=scenario.bit_rate)
    except (TypeError, ValueError) as error:
        print(f"error: error model {name!r} cannot be built from a bare "
              f"name: {error}", file=sys.stderr)
        return None
    return scenario.with_(iframe_error_model=name, cframe_error_model=name)


def _load_fault_plan_arg(args: argparse.Namespace) -> tuple[Optional[object], bool]:
    """Load a --fault-plan file; ``(plan, ok)`` with errors printed."""
    path = args.fault_plan
    if path is None:
        return None, True
    from .faults import FaultPlan

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return FaultPlan.from_json(handle.read()), True
    except (OSError, ValueError, TypeError) as error:
        print(f"error: cannot load fault plan {path!r}: {error}",
              file=sys.stderr)
        return None, False


def _cmd_experiments(args: argparse.Namespace) -> int:
    if args.action == "list":
        for eid in experiment_ids():
            doc = (REGISTRY[eid].__doc__ or "").strip().splitlines()[0]
            print(f"{eid:8s} {doc}")
        return 0
    result = run_experiment(args.id)
    print(render_table(result.rows, title=f"[{result.experiment_id}] {result.title}"))
    if result.notes:
        print(f"\nnote: {result.notes}")
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    params = scenario.model_parameters()
    n = args.frames
    rows = [
        {"quantity": "P_F (I-frame error prob)", "value": params.p_f},
        {"quantity": "P_C (control error prob)", "value": params.p_c},
        {"quantity": "s_bar LAMS", "value": lams_model.s_bar(params)},
        {"quantity": "s_bar HDLC", "value": hdlc_model.s_bar(params)},
        {"quantity": "H_frame LAMS (s)", "value": lams_model.holding_time(params)},
        {"quantity": "B_LAMS (frames)", "value": lams_model.transparent_buffer_size(params)},
        {"quantity": f"D_low LAMS(N={n}) (s)",
         "value": lams_model.total_delivery_time_low(params, n)},
        {"quantity": f"D_low HDLC(N={n}) (s)",
         "value": hdlc_model.total_delivery_time_low(params, min(n, params.window_size))},
        {"quantity": f"eta LAMS (N={n})",
         "value": lams_model.throughput_efficiency(params, n)},
        {"quantity": f"eta HDLC (N={n})",
         "value": hdlc_model.throughput_efficiency(params, n)},
        {"quantity": "numbering required (LAMS)",
         "value": bounds.lams_required_numbering_size(params)},
        {"quantity": "inconsistency gap bound (s)",
         "value": bounds.lams_inconsistency_gap(params)},
        {"quantity": "delay p50 LAMS (s)", "value": delay.lams_delay_quantile(params, 0.5)},
        {"quantity": "delay p99.99 LAMS (s)",
         "value": delay.lams_delay_quantile(params, 0.9999)},
    ]
    print(render_table(rows, title=f"Section-4 model at preset '{scenario.name}'"))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    row = compare.comparison_row(scenario.model_parameters(), args.frames)
    print(render_table([row], title=f"LAMS-DLC vs SR-HDLC at preset '{scenario.name}' "
                                    f"(N={args.frames})"))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _with_error_model_arg(_scenario_from_args(args), args)
    if scenario is None:
        return 2
    plan, ok = _load_fault_plan_arg(args)
    if not ok:
        return 2
    if plan is not None:
        from .experiments.runner import measure_fault_plan, require_lams_family

        if args.saturated:
            print("error: --fault-plan runs a finite batch; drop --saturated",
                  file=sys.stderr)
            return 2
        try:
            require_lams_family(args.protocol)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        result = measure_fault_plan(
            scenario, plan, total_time=args.duration,
            n_frames=args.frames, protocol=args.protocol,
        )
        print(render_table([result], title=f"simulated {args.protocol} under "
                                           f"fault plan '{plan.name}' "
                                           f"({len(plan)} faults)"))
        return 0
    if args.saturated:
        result = measure_saturated(scenario, args.protocol, args.duration)
    else:
        result = measure_batch_transfer(
            scenario, args.protocol, args.frames, max_time=args.duration,
        )
    print(render_table([result], title=f"simulated {args.protocol} over "
                                       f"preset '{scenario.name}'"))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments.parallel import (
        MeasurePoint,
        MeasureSpec,
        ResultCache,
        replication_seeds,
        resolve_jobs,
        run_experiments_parallel,
        run_sweep,
    )
    from .simulator.trace import StreamingSummary, Tracer

    problem = _validate_pool_args(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    plan, ok = _load_fault_plan_arg(args)
    if not ok:
        return 2
    if args.experiments and plan is not None:
        print("error: --fault-plan shapes the scenario; registry "
              "experiments (--experiments) define their own",
              file=sys.stderr)
        return 2
    # Replicated fault-plan runs skip the cache: FaultPlan objects are
    # not cache-key serialisable.
    cache = (None if args.no_cache or plan is not None
             else ResultCache(args.cache_dir))
    stats = Tracer()
    # On a single-core host the request resolves to serial — no pool.
    jobs = resolve_jobs(args.jobs)

    try:
        if args.experiments:
            try:
                results = run_experiments_parallel(
                    args.experiments, jobs=jobs, cache=cache, stats=stats,
                )
            except KeyError as error:
                print(f"error: {error.args[0]}", file=sys.stderr)
                return 2
            for eid in args.experiments:
                result = results[eid]
                print(render_table(
                    result.rows, title=f"[{result.experiment_id}] {result.title}"
                ))
                print()
        else:
            from .core.endpoint import resolve_protocol
            from .experiments.runner import require_lams_family

            # A fault plan is measured from LAMS-only sender state.
            check = resolve_protocol if plan is None else require_lams_family
            try:
                for protocol in args.protocols:
                    check(protocol)
            except ValueError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
            scenario = _scenario_from_args(args)
            master_seed = 0
            seeds = replication_seeds(master_seed, args.seeds)
            if plan is not None:
                runner = "measure_fault_plan"
                kwargs = {"fault_plan": plan, "total_time": args.duration}
            else:
                runner = "measure_saturated"
                kwargs = {"duration": args.duration}
            specs = [
                MeasureSpec.create(runner, scenario, protocol, **kwargs)
                for protocol in args.protocols
            ]
            # One sweep over every (protocol, seed): one pool start-up,
            # work balanced across protocols.  Each protocol's slice is
            # then folded in seed order, so the table does not depend on
            # --jobs or on which results came from the cache.
            results = run_sweep(
                [MeasurePoint(spec, seed) for spec in specs for seed in seeds],
                jobs=jobs, cache=cache, stats=stats,
            )
            rows = []
            try:
                for index, protocol in enumerate(args.protocols):
                    replications = results[index * len(seeds):][:len(seeds)]
                    for metric in args.metrics:
                        summary = StreamingSummary.from_samples(
                            metric, (float(r[metric]) for r in replications)
                        )
                        rows.append({
                            "protocol": protocol,
                            "metric": metric,
                            "mean": summary.mean,
                            "ci95_half_width": summary.half_width,
                            "n": summary.count,
                        })
            except KeyError as error:
                print(f"error: metric {error.args[0]!r} is not in the "
                      f"runner's output; pick --metrics from the "
                      f"{runner} result columns", file=sys.stderr)
                return 2
            print(render_table(
                rows,
                title=f"replicated sweep over preset '{scenario.name}' "
                      f"({args.seeds} seeds, master {master_seed})",
            ))
    finally:
        if cache is not None:
            cache.close()

    executed = stats.counter("sweep.executed").value
    hits = stats.counter("sweep.cache_hits").value
    workers = sorted(
        name.split(".")[2]
        for name in stats.counters
        if name.startswith("sweep.worker.") and name.endswith(".tasks")
    )
    print(f"\nsweep: {executed} executed, {hits} cached "
          f"(jobs={jobs}, workers={len(workers) or 1}"
          f"{'' if cache is None else ', cache=' + cache.root})")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .experiments.parallel import ResultCache

    with ResultCache(args.cache_dir) as cache:
        if args.action == "info":
            info = cache.info()
            print(f"cache {cache.root}: {info['entries']} entries in "
                  f"{info['shards']} shard(s)")
        else:
            removed = cache.clear()
            print(f"cache {cache.root}: removed {removed} entries")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from .analysis.tuning import recommend_config

    config, rationale = recommend_config(
        bit_rate=args.bit_rate,
        distance_km=args.distance_km,
        mean_burst=args.mean_burst,
    )
    rows = [
        {"knob": "payload_bits", "value": config.iframe_payload_bits,
         "rule": rationale["payload_rule"]},
        {"knob": "checkpoint_interval_s", "value": config.checkpoint_interval,
         "rule": rationale["checkpoint_rule"]},
        {"knob": "cumulation_depth", "value": config.cumulation_depth,
         "rule": rationale["cumulation_rule"]},
        {"knob": "numbering_bits", "value": config.numbering_bits,
         "rule": rationale["numbering_rule"]},
        {"knob": "failure_detection_s",
         "value": rationale["failure_detection_latency"], "rule": "C_depth * W_cp"},
    ]
    print(render_table(rows, title=f"recommended LAMS-DLC configuration "
                                   f"({args.bit_rate/1e6:.0f} Mbps x "
                                   f"{args.distance_km:.0f} km)"))
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    from .chaos import run_soak

    if args.episodes < 1:
        print("error: --episodes must be >= 1", file=sys.stderr)
        return 2
    problem = _validate_pool_args(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    def progress(report: dict) -> None:
        status = "ok" if report["ok"] else "VIOLATION"
        if report.get("backend") == "udp":
            reason = report.get("failure_reason")
            outcome = "completed" if report["completed"] else f"failed:{reason}"
            print(f"episode[{report['episode']:>3}] {report['scenario']:<28} "
                  f"faults={len(report['fault_plan'].get('faults', ()))} "
                  f"delivered={report['delivered']}/{report['n_frames']} "
                  f"reconnects={report['reconnects']} {outcome} {status}")
        else:
            print(f"episode[{report['episode']:>3}] {report['scenario']:<28} "
                  f"faults={len(report['fault_plan'].get('faults', ()))} "
                  f"delivered={report['delivered']}/{report['offered']} "
                  f"failures={report['failures_declared']} {status}")

    try:
        result = run_soak(
            episodes=args.episodes, master_seed=args.seed, jobs=args.jobs,
            fail_fast=args.fail_fast, only=args.only, progress=progress,
            backend=args.backend,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    summary = result.summary()
    print(f"\nsoak: {summary['episodes_completed']}/"
          f"{summary['episodes_requested']} episodes "
          f"(master seed {summary['master_seed']}), "
          f"{summary['violations']} violation(s)"
          f"{', stopped early' if summary['stopped_early'] else ''}")
    if not result.violations:
        print("all invariants held")
        return 0
    for episode in result.episodes:
        for violation in episode.get("violations", ()):
            print(f"\n-- {violation['invariant']} at t={violation['time']:.6f} "
                  f"(episode {episode['episode']})")
            print(f"   {violation['message']}")
            command = episode.get("reproducer", {}).get("command")
            if command:
                print(f"   reproduce: {command}")
            for line in violation.get("trace_window", ())[-10:]:
                print(f"   | {line}")
    return 1


def _cmd_constellation(args: argparse.Namespace) -> int:
    from .topology import (
        LinkSpec,
        build_constellation,
        chain_topology,
        cross_traffic,
        grid_topology,
        ring_topology,
    )

    if args.duration <= 0:
        print("error: --duration must be positive", file=sys.stderr)
        return 2
    template = LinkSpec(scenario=preset("nominal"))
    if args.topology == "ring":
        topo = ring_topology(args.size, template, name=f"ring-{args.size}")
    elif args.topology == "chain":
        topo = chain_topology(args.size, template, name=f"chain-{args.size}")
    else:
        per_plane = max(3, args.size // max(1, args.planes))
        topo = grid_topology(args.planes, per_plane, template,
                             name=f"grid-{args.planes}x{per_plane}")
    flows = cross_traffic(
        topo.node_names(), stride=args.stride, messages=args.messages,
        interval=args.duration / max(1, 2 * args.messages),
    )
    constellation = build_constellation(
        topo, flows=flows, horizon=args.duration,
        probe_interval=args.duration / 50.0,
        dynamic_routing=args.dynamic_routing,
    )
    constellation.run(until=args.duration)
    rollup = constellation.network_rollup()
    print(render_table(
        constellation.link_summaries(),
        title=f"{topo.name}: {len(topo.nodes)} nodes, "
              f"{len(topo.links)} LAMS-DLC links, {len(flows)} flows, "
              f"{args.duration:g}s (seed {constellation.master_seed})",
    ))
    print()
    print(render_table(
        [{"quantity": key, "value": rollup[key]} for key in sorted(rollup)],
        title="network rollup",
    ))
    return 0


def _parse_hostport(value: str, default_port: int = 47901) -> tuple[str, int]:
    """``HOST[:PORT]`` -> ``(host, port)``; raises ValueError."""
    host, sep, port = value.rpartition(":")
    if not sep:
        return value, default_port
    if not host:
        raise ValueError(f"missing host in {value!r}")
    return host, int(port)


def _transport_scenario(args: argparse.Namespace) -> LinkScenario:
    """The scenario a transport command runs: golden, else nominal."""
    if args.golden is None:
        return preset("nominal")
    from .transport.conformance import golden_scenario

    return golden_scenario(args.golden)


def _cmd_transmit(args: argparse.Namespace) -> int:
    if args.frames < 1:
        print("error: --frames must be >= 1", file=sys.stderr)
        return 2
    if args.conform and args.connect:
        print("error: --conform runs loopback sessions; drop --connect",
              file=sys.stderr)
        return 2

    if args.conform:
        from .transport.conformance import run_conformance

        names = [args.golden] if args.golden is not None else None
        reports = run_conformance(names, n_frames=args.frames,
                                  timeout=args.timeout)
        for report in reports:
            print(report.summary())
        matches = all(report.matches for report in reports)
        print(f"\nconformance: {sum(r.matches for r in reports)}/"
              f"{len(reports)} scenario(s) match across backends")
        return 0 if matches else 1

    scenario = _transport_scenario(args)

    if args.connect:
        from .transport.session import run_client

        try:
            peer = _parse_hostport(args.connect)
        except ValueError as error:
            print(f"error: bad --connect address: {error}", file=sys.stderr)
            return 2
        report = run_client(
            scenario, connect=peer, n_frames=args.frames,
            timeout=args.timeout, install_signals=True,
        )
        status = "complete" if report.completed else f"INCOMPLETE:{report.reason}"
        print(f"transmit -> {peer[0]}:{peer[1]}: offered {report.offered} "
              f"frame(s), {report.retransmissions} retransmission(s), "
              f"{report.held_remaining} still held, "
              f"{report.elapsed:.2f}s [{status}]")
        if report.reason == "interrupted":
            return 130
        return 0 if report.completed else 1

    from .transport.session import run_transfer

    result = run_transfer(
        scenario, n_frames=args.frames, timeout=args.timeout,
        install_signals=True,
    )
    digest = "match" if result.digest == result.expected_digest else "MISMATCH"
    incomplete = ""
    if not result.completed:
        incomplete = f" [INCOMPLETE:{result.failure_reason}]"
    print(f"transport loopback: {result.scenario} (seed {result.seed}, "
          f"{result.n_frames} frames)")
    print(f"delivered {result.delivered_unique}/{result.n_frames} unique "
          f"({result.duplicates} duplicate(s)), digest {digest}, "
          f"{result.elapsed:.2f}s{incomplete}")
    stats = result.stats
    print(f"forward: {stats['forward_frames_sent']} frame(s) sent, "
          f"{stats['forward_frames_corrupted']} corrupted, "
          f"{stats['forward_frames_dropped']} dropped; "
          f"retransmissions {stats['retransmissions']}")
    print(f"invariants: {result.monitors.report()}")
    if result.failure_reason == "interrupted":
        return 130
    return 0 if result.ok else 1


_SERVE_SECONDS = 30.0
"""How long ``serve`` listens before it reports."""


def _cmd_serve(args: argparse.Namespace) -> int:
    scenario = _transport_scenario(args)
    try:
        bind = _parse_hostport(args.bind)
    except ValueError as error:
        print(f"error: bad --bind address: {error}", file=sys.stderr)
        return 2
    from .transport.session import run_serve

    print(f"serving {scenario.name} on {bind[0]}:{bind[1]} "
          f"for {_SERVE_SECONDS:g}s ...")
    report = run_serve(
        scenario, bind=bind, duration=_SERVE_SECONDS, install_signals=True,
    )
    print(f"serve: {report.received_unique} unique payload(s) "
          f"({report.duplicates} duplicate(s)), "
          f"{report.datagrams_received} datagram(s) "
          f"({report.datagrams_undecodable} undecodable), "
          f"digest {report.digest[:16]}..., {report.elapsed:.1f}s "
          f"[{report.reason}]")
    return 130 if report.reason == "interrupted" else 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments.reporting import generate_report

    text = generate_report(experiment_ids=args.only)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


_ORBIT_MAX_RANGE_KM = 6000.0
"""Laser range within which ``orbit`` counts the pair as visible."""


def _cmd_orbit(args: argparse.Namespace) -> int:
    # The default LEO pair (1000 km, 60 degrees), planes 30 degrees apart.
    sat_a = Satellite("a")
    sat_b = Satellite("b", raan_deg=30.0)
    stats = rtt_statistics(sat_a, sat_b, 0.0, args.span, step_s=args.step)
    print(render_table(
        [{"quantity": key, "value": value} for key, value in stats.items()],
        title=f"RTT statistics over {args.span:.0f}s "
              f"(altitude {sat_a.altitude_km:.0f} km)",
    ))
    windows = visibility_windows(
        sat_a, sat_b, 0.0, args.span, max_range_km=_ORBIT_MAX_RANGE_KM,
        step_s=args.step,
    )
    rows = [
        {"start_s": w.start, "end_s": w.end, "duration_s": w.duration}
        for w in windows
    ]
    print()
    print(render_table(rows, title=f"visibility windows (max range "
                                   f"{_ORBIT_MAX_RANGE_KM:.0f} km)"))
    return 0


def _cmd_trace_synth(args: argparse.Namespace) -> int:
    import json

    from .simulator.channels import replay_trace, synthesize_trace, write_trace

    scenario = preset(args.preset)
    model_spec = None
    if args.params is not None:
        if args.model is None:
            print("error: --params requires --model", file=sys.stderr)
            return 2
        try:
            params = json.loads(args.params)
        except json.JSONDecodeError as error:
            print(f"error: --params is not valid JSON: {error}", file=sys.stderr)
            return 2
        if not isinstance(params, dict):
            print("error: --params must be a JSON object", file=sys.stderr)
            return 2
        model_spec = (args.model, params)
    elif args.model is not None:
        model_spec = args.model
    try:
        result = synthesize_trace(
            scenario, model_spec, seed=args.seed, n_frames=args.frames,
        )
    except (TypeError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    write_trace(
        args.output, result.records, mode="frame",
        model=args.model, scenario=scenario.name, seed=args.seed,
        bit_rate=scenario.bit_rate, digest=result.digest,
        extra={"protocol": "lams", "n_frames": args.frames},
    )
    print(f"trace written to {args.output}: {len(result.records)} frame "
          f"records, {result.delivered} payloads delivered in "
          f"{result.duration:.3f}s")
    print(f"delivered-payload digest: {result.digest}")
    if args.verify:
        replayed = replay_trace(
            scenario, args.output, seed=args.seed, n_frames=args.frames,
        )
        if replayed.digest != result.digest:
            print(f"verify: FAIL — replay digest {replayed.digest} != "
                  f"recorded digest {result.digest}", file=sys.stderr)
            return 1
        print("verify: ok — replay reproduces the digest bit-identically")
    return 0


def _cmd_channels(args: argparse.Namespace) -> int:
    import inspect

    from .simulator.errormodel import (
        available_error_models,
        error_model_factory,
        resolve_error_model,
    )

    if args.model is None:
        rows = []
        for name in available_error_models():
            factory = error_model_factory(name)
            doc = inspect.getdoc(factory) or ""
            rows.append({"model": name,
                         "summary": doc.splitlines()[0] if doc else ""})
        print(render_table(rows, title="registered error models"))
        return 0

    try:
        factory = error_model_factory(args.model)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(f"{args.model}: {factory.__module__}.{factory.__qualname__}")
    print(f"  signature: {inspect.signature(factory)}")
    doc = inspect.getdoc(factory)
    if doc:
        print()
        print("\n".join(f"  {line}" for line in doc.splitlines()))
    if args.timeline:
        scenario = preset("nominal")
        try:
            instance = resolve_error_model(
                args.model, ber=scenario.iframe_ber, bit_rate=scenario.bit_rate,
            )
        except (TypeError, ValueError) as error:
            print(f"error: cannot instantiate {args.model!r}: {error}",
                  file=sys.stderr)
            return 1
        if not hasattr(instance, "instantaneous_ber"):
            print(f"error: {args.model!r} has no instantaneous_ber(t) — "
                  f"--timeline only applies to time-varying models",
                  file=sys.stderr)
            return 1
        rows = []
        t = 0.0
        while t <= args.span + 1e-9:
            rows.append({"t_s": t, "ber": instance.instantaneous_ber(t)})
            t += 60.0  # one row a minute
        print()
        print(render_table(rows, title=f"instantaneous BER over {args.span:g}s"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LAMS-DLC ARQ protocol reproduction (Ward & Choi, 1991)",
    )
    # Flags are spelled in full: with argparse's prefix matching,
    # `sweep --seed 7` (no such flag) would silently mean `--seeds 7`.
    subparsers = parser.add_subparsers(
        dest="command", required=True,
        parser_class=functools.partial(argparse.ArgumentParser,
                                       allow_abbrev=False),
    )

    # Shared parents: one definition per cross-cutting knob.
    seed_parent = _seed_parent()
    pool_parent = _pool_parent()
    fault_plan_parent = _fault_plan_parent()

    exp = subparsers.add_parser("experiments", help="run the experiment registry")
    exp_sub = exp.add_subparsers(dest="action", required=True)
    exp_sub.add_parser("list", help="list experiment ids")
    exp_run = exp_sub.add_parser("run", help="run one experiment")
    exp_run.add_argument("id", help="experiment id, e.g. E6")
    exp.set_defaults(handler=_cmd_experiments)

    model = subparsers.add_parser("model", help="closed-form quantities")
    _add_scenario_arguments(model)
    model.add_argument("--frames", type=int, default=50_000)
    model.set_defaults(handler=_cmd_model)

    cmp_parser = subparsers.add_parser("compare", help="LAMS vs HDLC (model)")
    _add_scenario_arguments(cmp_parser)
    cmp_parser.add_argument("--frames", type=int, default=50_000)
    cmp_parser.set_defaults(handler=_cmd_compare)

    sim_parser = subparsers.add_parser(
        "simulate", help="run the executable protocol",
        parents=[fault_plan_parent],
    )
    _add_scenario_arguments(sim_parser)
    sim_parser.add_argument(
        "--error-model", default=None,
        help="registered error-model name for both frame classes; only "
             "models buildable from the scenario's BER and bit rate alone "
             "(perfect/bernoulli/orbit-coupled)",
    )
    sim_parser.add_argument(
        "--protocol",
        choices=("lams", "hdlc", "gbn", "nbdt-continuous", "nbdt-multiphase"),
        default="lams",
    )
    sim_parser.add_argument("--frames", type=int, default=5000)
    sim_parser.add_argument("--duration", type=float, default=60.0,
                            help="max (batch) or total (saturated) seconds")
    sim_parser.add_argument("--saturated", action="store_true",
                            help="saturated source instead of a finite batch")
    sim_parser.set_defaults(handler=_cmd_simulate)

    sweep_parser = subparsers.add_parser(
        "sweep", help="replicated measurements over a process pool",
        parents=[pool_parent, fault_plan_parent],
    )
    _add_scenario_arguments(sweep_parser)
    sweep_parser.add_argument(
        "--experiments", nargs="*", default=None, metavar="ID",
        help="registry mode: run these experiment ids instead of replications",
    )
    sweep_parser.add_argument(
        "--protocols", nargs="*",
        default=["lams", "hdlc"],
        help="protocols to replicate (any repro.api name)",
    )
    sweep_parser.add_argument("--seeds", type=int, default=8,
                              help="replications per protocol")
    sweep_parser.add_argument("--duration", type=float, default=1.0,
                              help="simulated seconds per replication")
    sweep_parser.add_argument("--metrics", nargs="*", default=["efficiency"],
                              help="runner metrics to summarise")
    sweep_parser.add_argument("--cache-dir", default=".sweep-cache",
                              help="on-disk result cache directory")
    sweep_parser.add_argument("--no-cache", action="store_true",
                              help="disable the result cache")
    sweep_parser.set_defaults(handler=_cmd_sweep)

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or clear the on-disk sweep result cache"
    )
    cache_parser.add_argument("action", choices=("info", "clear"),
                              help="info: show entry/shard counts; "
                                   "clear: delete every cached result")
    cache_parser.add_argument("--cache-dir", default=".sweep-cache",
                              help="cache directory to operate on")
    cache_parser.set_defaults(handler=_cmd_cache)

    tune_parser = subparsers.add_parser(
        "tune", help="recommend a LAMS-DLC configuration for a link"
    )
    tune_parser.add_argument("--bit-rate", type=float, required=True)
    tune_parser.add_argument("--distance-km", type=float, required=True)
    tune_parser.add_argument("--mean-burst", type=float, default=0.0,
                             help="mean burst length in seconds")
    tune_parser.set_defaults(handler=_cmd_tune)

    soak_parser = subparsers.add_parser(
        "soak", help="randomized chaos soak under invariant monitors",
        parents=[seed_parent, pool_parent],
    )
    soak_parser.add_argument("--episodes", type=int, default=50,
                             help="number of randomized episodes")
    soak_parser.add_argument("--fail-fast", action="store_true",
                             help="stop scheduling new episodes after the "
                                  "first violation")
    soak_parser.add_argument("--only", type=int, default=None, metavar="INDEX",
                             help="run a single episode index (reproducing "
                                  "a violation report)")
    soak_parser.add_argument("--backend", choices=("des", "udp"), default="des",
                             help="episode substrate: 'des' (virtual time) or "
                                  "'udp' (supervised real-time loopback "
                                  "sessions with transport fault injection)")
    soak_parser.set_defaults(handler=_cmd_soak)

    constellation_parser = subparsers.add_parser(
        "constellation",
        help="run a multi-link constellation (topology layer) and print "
             "per-link + network rollup stats",
    )
    constellation_parser.add_argument(
        "--topology", choices=("ring", "chain", "grid"), default="ring",
        help="constellation shape",
    )
    constellation_parser.add_argument(
        "--size", type=int, default=6,
        help="nodes for ring, hops for chain, total satellites for grid",
    )
    constellation_parser.add_argument(
        "--planes", type=int, default=3,
        help="orbital planes (grid topology only)",
    )
    constellation_parser.add_argument("--stride", type=int, default=2,
                                      help="cross-traffic destination offset")
    constellation_parser.add_argument("--messages", type=int, default=40,
                                      help="datagrams per flow")
    constellation_parser.add_argument("--duration", type=float, default=2.0,
                                      help="simulated seconds")
    constellation_parser.add_argument(
        "--dynamic-routing", action="store_true",
        help="recompute routes and reclaim payloads on declared link failures",
    )
    constellation_parser.set_defaults(handler=_cmd_constellation)

    transmit_parser = subparsers.add_parser(
        "transmit",
        help="run LAMS-DLC over real asyncio-UDP sockets (loopback with "
             "invariant monitors, --connect for two-process, --conform "
             "for the DES-vs-UDP conformance harness)",
    )
    transmit_parser.add_argument(
        "--golden", choices=("clean", "lossy"), default=None,
        help="use a golden conformance scenario instead of the nominal "
             "preset (real-time-friendly rates; see docs/TRANSPORT.md)",
    )
    transmit_parser.add_argument("--frames", type=int, default=48,
                                 help="payloads to transfer")
    transmit_parser.add_argument("--timeout", type=float, default=30.0,
                                 help="wall-clock cap on the session")
    transmit_parser.add_argument("--connect", default=None, metavar="HOST:PORT",
                                 help="two-process mode: send to a running "
                                      "'repro serve' instead of loopback")
    transmit_parser.add_argument("--conform", action="store_true",
                                 help="run the golden scenarios on both "
                                      "backends and compare digests and "
                                      "monitor verdicts")
    transmit_parser.set_defaults(handler=_cmd_transmit)

    serve_parser = subparsers.add_parser(
        "serve",
        help="receive side of a two-process UDP session "
             "(pair with 'transmit --connect')",
    )
    serve_parser.add_argument(
        "--golden", choices=("clean", "lossy"), default=None,
        help="use a golden conformance scenario instead of the nominal "
             "preset",
    )
    serve_parser.add_argument("--bind", default="127.0.0.1:47901",
                              metavar="HOST:PORT",
                              help="address to listen on (the peer is "
                                   "learned from the first datagram)")
    serve_parser.set_defaults(handler=_cmd_serve)

    report_parser = subparsers.add_parser(
        "report", help="regenerate the full evaluation report"
    )
    report_parser.add_argument("--only", nargs="*", default=None,
                               help="experiment ids to include (default: all)")
    report_parser.add_argument("--output", default=None,
                               help="write to a file instead of stdout")
    report_parser.set_defaults(handler=_cmd_report)

    orbit_parser = subparsers.add_parser("orbit", help="LEO pair geometry")
    orbit_parser.add_argument("--span", type=float, default=12_000.0)
    orbit_parser.add_argument("--step", type=float, default=5.0)
    orbit_parser.set_defaults(handler=_cmd_orbit)

    trace_parser = subparsers.add_parser(
        "trace-synth",
        help="record an error trace from a registered model driving a "
             "batch transfer (every trace is a replayable regression "
             "fixture; see docs/CHANNELS.md)",
        parents=[seed_parent],
    )
    _add_preset_argument(trace_parser)
    trace_parser.add_argument("--model", default=None,
                              help="registered error-model name to record "
                                   "(default: the scenario's I-frame model)")
    trace_parser.add_argument("--params", default=None, metavar="JSON",
                              help="JSON object of model constructor kwargs, "
                                   "e.g. '{\"good_ber\": 1e-7, ...}'")
    trace_parser.add_argument("--frames", type=int, default=200,
                              help="payloads in the recorded batch")
    trace_parser.add_argument("--output", default="trace.jsonl",
                              help="JSONL trace file to write")
    trace_parser.add_argument("--verify", action="store_true",
                              help="replay the written trace and fail unless "
                                   "the delivered-payload digest matches "
                                   "bit-identically")
    trace_parser.set_defaults(handler=_cmd_trace_synth)

    channels_parser = subparsers.add_parser(
        "channels",
        help="list registered error models, or describe one "
             "(--model NAME [--timeline])",
    )
    channels_parser.add_argument("--model", default=None,
                                 help="describe one registered model instead "
                                      "of listing all")
    channels_parser.add_argument("--timeline", action="store_true",
                                 help="print instantaneous_ber(t) over --span "
                                      "(time-varying models only)")
    channels_parser.add_argument("--span", type=float, default=600.0,
                                 help="timeline span in seconds")
    channels_parser.set_defaults(handler=_cmd_channels)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
