"""``python -m bench``: every workload, one workload, or a comparison.

- ``python -m bench --seed S`` runs every workload (each run in a fresh
  child interpreter), checks outputs, prints every metric and writes
  ``bench/out/result.json``.
- ``python -m bench --workload W --seed N --seconds S --trace 0|1`` is
  one run in this interpreter (the driver contract, and what the
  multi-run mode spawns).
- ``python -m bench --compare A.json B.json`` judges B against A.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts from here: before any repro import

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

QUICK_SECONDS = 0.5
DEFAULT_SECONDS = 5.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    parser.add_argument("--seed", type=int, default=1,
                        help="the only input to workload generation")
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seconds", type=float,
                        help=f"size of the timed window (default {DEFAULT_SECONDS:g})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Plumbing between the multi-run mode and its child runs.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-samples", type=int, default=5, help=argparse.SUPPRESS)
    parser.add_argument("--drive-scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--quick", action="store_true",
                        help="one repeat, windows and drives cut ~10x")
    parser.add_argument("--out", help="result file (default bench/out/result.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        from .compare import compare_files

        return compare_files(*args.compare)
    seconds = args.seconds if args.seconds is not None else (
        QUICK_SECONDS if args.quick else DEFAULT_SECONDS)
    if seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload:
        from . import metrics, run

        if args.workload not in metrics.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(metrics.WORKLOADS)}")
        if args.setup_only:
            return run.setup_only(args.workload, args.seed, seconds, _STARTED)
        return run.run(args.workload, args.seed, seconds, bool(args.trace),
                       started=_STARTED, setup_samples=args.setup_samples,
                       drive_scale=args.drive_scale)
    from .runner import run_all

    return run_all(seed=args.seed, seconds=seconds, quick=args.quick, out=args.out)


if __name__ == "__main__":
    sys.exit(main())
