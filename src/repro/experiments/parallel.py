"""Parallel experiment execution: one process pool per sweep, a result cache.

The paper's evaluation is Monte-Carlo replication — the same
measurement across many independent seeds, BERs, and window settings —
and every replication is an isolated discrete-event simulation with no
shared state.  This module fans that work out over a
``multiprocessing`` pool while keeping three properties the serial
path guarantees:

**Determinism.**  Each replication derives its RNG streams from its own
seed (:mod:`repro.simulator.rng`), so a simulation's result depends
only on ``(spec, seed)`` — never on which process ran it or in what
order.  :func:`run_sweep` returns results in input order and the
replicate functions fold them in seed order, so a parallel sweep's
summaries are *bit-identical* to ``jobs=1`` on the same seeds.
:func:`replication_seeds` derives the per-replication seeds from one
master seed via :func:`~repro.simulator.rng.derive_seed`, so a sweep's
seed list is itself stable across runs and machines.

**Free re-runs.**  Results land in a sharded on-disk cache
(:class:`ResultCache`), keyed by ``(experiment_id, scenario, seed)``
plus the identity of the code that computed them: append-only
JSON-lines shard files with an in-memory index, so a fully warm
1000-point re-run costs one sequential index read instead of 1000 file
opens.  JSON floats round-trip exactly (shortest-repr encoding), so
cached summaries are byte-identical to freshly computed ones.

**Observability.**  :func:`run_sweep` reports per-worker progress and
timing through :mod:`repro.simulator.trace`-style counters and sample
statistics on a :class:`~repro.simulator.trace.Tracer`.

A sweep is one :func:`run_sweep` call on a pool it owns: the workers
are started for that call (``fork`` where the platform offers it, else
``spawn``; the registry, runner, and scenario modules pre-imported),
fed with ``imap_unordered`` under an adaptive chunk size that amortises
one IPC round-trip over several points, and gone when it returns.
Workers ship results back as ``(index, pid, seconds, json)`` — one
pre-encoded JSON string per result instead of a pickled dict tree.

Entry points:

- :func:`parallel_replicate` / :func:`parallel_replicate_all` — one
  picklable :class:`MeasureSpec` across a seed list, summarised per
  metric as a :class:`~repro.simulator.trace.StreamingSummary`.
- :func:`run_experiments_parallel` — fan registry experiments
  (``experiments list``) out across processes.
- :func:`run_sweep` — the generic engine over any sequence of points.

CLI: ``python -m repro sweep`` (``--jobs N``, ``--cache-dir``,
``--no-cache``) and ``python -m repro cache`` (``info`` / ``clear``).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import multiprocessing
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from .. import __version__
from ..simulator.rng import derive_seed
from ..simulator.trace import StreamingSummary, Tracer
from ..workloads.scenarios import LinkScenario
from . import runner as _runner_module
from .registry import REGISTRY, ExperimentResult, default_seed, run_experiment

__all__ = [
    "ExperimentPoint",
    "MeasurePoint",
    "MeasureSpec",
    "ResultCache",
    "SweepStop",
    "parallel_replicate",
    "parallel_replicate_all",
    "replication_seeds",
    "resolve_jobs",
    "run_experiments_parallel",
    "run_sweep",
]


def resolve_jobs(jobs: int) -> int:
    """Adapt a requested worker count to the host.

    On a single-core host a worker pool is pure overhead — fork/spawn
    plus IPC with no parallelism to buy — and spawn-method pools have
    been observed to regress badly there, so any request resolves to
    serial execution when ``os.cpu_count() == 1`` (or is unknown).
    Multi-core hosts get the request back unchanged (the caller may
    deliberately oversubscribe).
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    cpus = os.cpu_count()
    if cpus is None or cpus <= 1:
        return 1
    return jobs


class SweepStop(Exception):
    """Raised by a ``progress`` callback to end a sweep early.

    :func:`run_sweep` catches it, stops dispatching further points, and
    returns the partial result list (unexecuted points stay ``None``).
    The chaos soak runner's ``--fail-fast`` uses this to abort on the
    first invariant violation without losing completed episodes.
    """


# ---------------------------------------------------------------------------
# Deterministic seed streams
# ---------------------------------------------------------------------------


def replication_seeds(
    master_seed: int, count: int, name: str = "replication"
) -> list[int]:
    """*count* independent replication seeds under one master seed.

    Derived with :func:`repro.simulator.rng.derive_seed` from the
    stable stream names ``"{name}[i]"``, so the list is identical
    across runs, platforms, and serial/parallel execution — the
    property that makes cached and parallel sweeps comparable.
    """
    if count < 1:
        raise ValueError("at least one replication is required")
    return [derive_seed(master_seed, f"{name}[{i}]") for i in range(count)]


# ---------------------------------------------------------------------------
# Work specifications (picklable, cache-keyable)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasureSpec:
    """A picklable description of one runner measurement.

    Closures do not cross process boundaries, so a measurement names
    its runner function instead of holding it: *runner* is an attribute
    of :mod:`repro.experiments.runner`
    (``"measure_saturated"``, ``"measure_batch_transfer"``, ...),
    called as ``fn(scenario, protocol=protocol, seed=seed, **kwargs)``
    (or without *protocol* for runners that fix it, like
    ``measure_failure_recovery``).
    """

    runner: str
    scenario: LinkScenario
    protocol: Optional[str] = None
    kwargs: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def create(
        cls,
        runner: str,
        scenario: LinkScenario,
        protocol: Optional[str] = None,
        **kwargs: Any,
    ) -> "MeasureSpec":
        """Build a spec; keyword arguments are canonicalised (sorted)."""
        if not hasattr(_runner_module, runner):
            raise ValueError(
                f"unknown runner {runner!r}; not in repro.experiments.runner"
            )
        return cls(runner, scenario, protocol, tuple(sorted(kwargs.items())))

    @property
    def experiment_id(self) -> str:
        """The cache-key identity of this measurement family."""
        if self.protocol is None:
            return self.runner
        return f"{self.runner}:{self.protocol}"

    def run(self, seed: int) -> Mapping[str, Any]:
        """Execute the measurement at *seed* (in any process)."""
        fn = getattr(_runner_module, self.runner)
        kwargs = dict(self.kwargs)
        if self.protocol is not None:
            kwargs["protocol"] = self.protocol
        return fn(self.scenario, seed=seed, **kwargs)


@dataclass(frozen=True)
class MeasurePoint:
    """One cacheable unit of work: a :class:`MeasureSpec` at one seed."""

    spec: MeasureSpec
    seed: int

    @property
    def label(self) -> str:
        return f"{self.spec.experiment_id}@{self.spec.scenario.name} seed={self.seed}"

    def cache_key(self) -> dict[str, Any]:
        return {
            "experiment_id": self.spec.experiment_id,
            "scenario": dataclasses.asdict(self.spec.scenario),
            "kwargs": dict(self.spec.kwargs),
            "seed": self.seed,
        }

    def execute(self) -> Any:
        return _jsonable(self.spec.run(self.seed))


@dataclass(frozen=True)
class ExperimentPoint:
    """One registry experiment as a cacheable work unit."""

    experiment_id: str
    seed: int
    kwargs: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def create(
        cls,
        experiment_id: str,
        seed: Optional[int] = None,
        **kwargs: Any,
    ) -> "ExperimentPoint":
        """Build a point, resolving the experiment's default seed.

        Every registry function accepts an explicit ``seed`` kwarg; when
        *seed* is ``None`` the function's own default is used (memoised
        by :func:`repro.experiments.registry.default_seed`), so the
        cache key is well-defined either way.
        """
        if experiment_id not in REGISTRY:
            raise KeyError(
                f"unknown experiment {experiment_id!r}; known: {sorted(REGISTRY)}"
            )
        if seed is None:
            seed = default_seed(experiment_id)
        return cls(experiment_id, int(seed), tuple(sorted(kwargs.items())))

    @property
    def label(self) -> str:
        return f"{self.experiment_id} seed={self.seed}"

    def cache_key(self) -> dict[str, Any]:
        kwargs = dict(self.kwargs)
        scenario = kwargs.pop("scenario", None)
        return {
            "experiment_id": self.experiment_id,
            "scenario": dataclasses.asdict(scenario) if scenario is not None else None,
            "kwargs": kwargs,
            "seed": self.seed,
        }

    def execute(self) -> Any:
        result = run_experiment(
            self.experiment_id, seed=self.seed, **dict(self.kwargs)
        )
        return {
            "experiment_id": result.experiment_id,
            "title": result.title,
            "rows": _jsonable(result.rows),
            "notes": result.notes,
        }


def _jsonable(value: Any) -> Any:
    """Coerce a result to plain JSON types (numpy scalars included)."""
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item") and not isinstance(value, (bytes, bytearray)):
        # numpy scalar (np.float64, np.int64, np.bool_, ...)
        return _jsonable(value.item())
    return str(value)


# ---------------------------------------------------------------------------
# On-disk result cache (sharded append-only JSON-lines)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _code_identity() -> str:
    """The identity of the code a cached result was computed by.

    ``__version__`` plus a SHA-256 over the package's ``*.py`` sources
    (names and bytes, in sorted order), so an edit anywhere in the
    package turns every stored entry into a miss — the version string
    alone does not move between releases.  A few milliseconds, paid on
    the first cache use of a process and never at import.
    """
    package = Path(__file__).resolve().parents[1]
    sources = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        sources.update(path.relative_to(package).as_posix().encode("utf-8"))
        sources.update(b"\0")
        sources.update(path.read_bytes())
    return f"{__version__}+{sources.hexdigest()[:16]}"


class ResultCache:
    """Sharded result cache keyed by (experiment_id, scenario, seed, code).

    **Keys.**  A point says what it measures (``point.cache_key()``);
    the cache adds who measured it — :func:`_code_identity`, stored as
    the key's ``code_version`` — so results computed by different code
    never answer for one another.

    **Layout.**  Results live in append-only shard files
    (``shard-<pid>-<uniq>.jsonl``), one line per entry::

        <sha256-hex>\\t{"key": {...}, "result": ...}\\n

    Opening a cache reads every shard *sequentially once* and builds an
    in-memory index ``digest -> (shard, offset, length)`` — indexing
    needs only the digest prefix, no JSON parsing — so a fully warm
    1000-point sweep costs one index build plus 1000 seek-reads from a
    handful of open files, instead of 1000 ``open()`` calls.  The full
    key is stored alongside each result, so a (vanishingly unlikely)
    digest collision is detected, not served.

    **Durability.**  Each cache instance appends to its own private
    shard (``O_EXCL``-created), so concurrent writers never interleave.
    Every ``put`` is flushed; ``fsync`` is *batched* (every
    :attr:`FSYNC_INTERVAL` puts, and on :meth:`flush`/:meth:`close`).  A
    crash can therefore lose at most the last unsynced batch — and a
    torn final line is detected and skipped on the next open, never
    served as data.
    """

    #: Number of puts between fsyncs.
    FSYNC_INTERVAL = 64

    _shard_ids = itertools.count()

    def __init__(self, root: str) -> None:
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        #: digest -> (shard path, byte offset, line length)
        self._index: dict[str, tuple[str, int, int]] = {}
        self._readers: dict[str, Any] = {}
        self._writer: Optional[Any] = None
        self._writer_path: Optional[str] = None
        self._writer_offset = 0
        self._unsynced = 0
        self._load_shards()

    # -- maintenance -----------------------------------------------------

    def _shard_paths(self) -> list[str]:
        paths = [
            os.path.join(self.root, name)
            for name in os.listdir(self.root)
            if name.startswith("shard-") and name.endswith(".jsonl")
        ]
        # Later shards win on duplicate digests; mtime then name gives a
        # stable "last writer wins" order.
        def order(path: str) -> tuple[float, str]:
            try:
                return (os.path.getmtime(path), path)
            except OSError:
                return (0.0, path)
        return sorted(paths, key=order)

    def _load_shards(self) -> None:
        """One sequential pass over every shard builds the index.

        Only the 64-hex digest prefix of each line is inspected — the
        JSON payload is parsed lazily at :meth:`get` time.  A final
        line with no newline is a torn write from a killed process and
        is skipped.
        """
        for path in self._shard_paths():
            try:
                with open(path, "rb") as handle:
                    offset = 0
                    for line in handle:
                        if not line.endswith(b"\n"):
                            break  # torn tail: ignore, never served
                        length = len(line)
                        if length > 65 and line[64:65] == b"\t":
                            digest = line[:64].decode("ascii", "replace")
                            self._index[digest] = (path, offset, length)
                        offset += length
            except OSError:
                continue

    # -- keying ----------------------------------------------------------

    def _keyed(self, point: Any) -> tuple[str, str]:
        """``(digest, canonical JSON)`` of *point*'s full cache key."""
        key = {**point.cache_key(), "code_version": _code_identity()}
        canonical = json.dumps(key, sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest(), canonical

    def digest_for(self, point: Any) -> str:
        """The SHA-256 hex digest of *point*'s canonical cache key.

        The cache's key identity: two points share a digest iff they
        share a canonical key under the same code identity.
        """
        return self._keyed(point)[0]

    # -- access ----------------------------------------------------------

    def contains(self, point: Any) -> bool:
        """Whether *point* is (probably) cached — no read, no stats.

        An index membership test, used by the sweep engine to partition
        points before dispatch.  A ``True`` here can still turn into a
        :meth:`get` miss if the entry is torn or its stored key
        mismatches; callers must handle that by recomputing.
        """
        return self.digest_for(point) in self._index

    def _read_entry(self, entry: tuple[str, int, int]) -> Optional[dict]:
        path, offset, length = entry
        reader = self._readers.get(path)
        if reader is None:
            try:
                reader = open(path, "rb")
            except OSError:
                return None
            self._readers[path] = reader
        try:
            reader.seek(offset)
            line = reader.read(length)
        except OSError:
            return None
        tab = line.find(b"\t")
        if tab < 0:
            return None
        try:
            return json.loads(line[tab + 1:])
        except (json.JSONDecodeError, UnicodeDecodeError, ValueError):
            return None

    def get(self, point: Any) -> Optional[Any]:
        """The cached result for *point*, or None on a miss."""
        digest, canonical = self._keyed(point)
        entry = self._index.get(digest)
        if entry is not None:
            stored = self._read_entry(entry)
            if stored is not None and stored.get("key") == json.loads(canonical):
                self.hits += 1
                return stored["result"]
        self.misses += 1
        return None

    def put(self, point: Any, result: Any) -> None:
        """Store *result* for *point* (appended to this cache's shard)."""
        digest, canonical = self._keyed(point)
        line = (
            digest + '\t{"key": ' + canonical
            + ', "result": ' + json.dumps(result) + "}\n"
        ).encode("utf-8")
        writer = self._writer if self._writer is not None else self._open_writer()
        offset = self._writer_offset
        writer.write(line)
        # Flush per put (visible to readers immediately); fsync batched.
        writer.flush()
        self._index[digest] = (self._writer_path, offset, len(line))
        self._writer_offset = offset + len(line)
        self._unsynced += 1
        if self._unsynced >= self.FSYNC_INTERVAL:
            os.fsync(writer.fileno())
            self._unsynced = 0

    def _open_writer(self) -> Any:
        pid = os.getpid()
        while True:
            name = (f"shard-{pid}-{next(self._shard_ids)}-"
                    f"{time.time_ns() & 0xFFFFFF:06x}.jsonl")
            path = os.path.join(self.root, name)
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            except FileExistsError:
                continue
            self._writer = os.fdopen(fd, "wb")
            self._writer_path = path
            self._writer_offset = 0
            return self._writer

    def flush(self) -> None:
        """Force any batched fsync out to disk."""
        if self._writer is not None:
            self._writer.flush()
            if self._unsynced:
                os.fsync(self._writer.fileno())
                self._unsynced = 0

    def close(self) -> None:
        """Flush and release every file handle (the cache stays usable)."""
        self.flush()
        if self._writer is not None:
            self._writer.close()
            self._writer = None
            self._writer_path = None
        for reader in self._readers.values():
            try:
                reader.close()
            except OSError:
                pass
        self._readers.clear()

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- bulk operations -------------------------------------------------

    def __len__(self) -> int:
        return len(self._index)

    def clear(self) -> int:
        """Delete every entry; returns how many distinct keys went."""
        removed = len(self)
        self.close()
        for path in self._shard_paths():
            try:
                os.unlink(path)
            except OSError:
                pass
        self._index.clear()
        return removed

    def info(self) -> dict[str, int]:
        """Shape of the on-disk cache (entries, shards)."""
        return {"entries": len(self), "shards": len(self._shard_paths())}


# ---------------------------------------------------------------------------
# The worker pool
# ---------------------------------------------------------------------------


def _warm_worker() -> None:
    """Pool initializer: pre-import the heavy modules once per worker.

    Under ``fork`` the child inherits the parent's warm interpreter and
    this is nearly free; under ``spawn`` it front-loads the registry /
    runner / scenario (and transitively numpy) imports at pool start-up
    instead of paying them inside the first task.
    """
    from ..workloads import scenarios  # noqa: F401
    from . import registry, runner  # noqa: F401


def _pool_context():
    """The multiprocessing context sweep pools are built from.

    ``fork`` where the platform offers it (cheapest — workers inherit
    the warm interpreter), else ``spawn``.  Never the interpreter
    default, so sweeps behave identically on platforms where the
    default differs.
    """
    available = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in available else "spawn")


# ---------------------------------------------------------------------------
# The sweep engine
# ---------------------------------------------------------------------------


def _execute_point(point: Any) -> tuple[Any, int, float]:
    """Run one point in-process, reporting (result, pid, seconds)."""
    start = time.perf_counter()
    result = point.execute()
    return result, os.getpid(), time.perf_counter() - start


def _execute_task(task: tuple[int, Any]) -> tuple[int, int, float, str]:
    """Worker entry: run one indexed point; ship a compact slots-tuple.

    The result crosses the process boundary as one JSON string (floats
    round-trip exactly under shortest-repr encoding) instead of a
    pickled dict tree — cheaper to serialise.
    """
    index, point = task
    result, worker, elapsed = _execute_point(point)
    return index, worker, elapsed, json.dumps(result)


def _chunk_size(pending: int, jobs: int) -> int:
    """Adaptive chunking: amortise IPC without starving the tail.

    Targets ~4 chunks per worker (capped at 32 points a chunk), so
    dispatch overhead is paid once per chunk while the last worker
    never sits on more than a quarter of its share.
    """
    return max(1, min(32, -(-pending // (jobs * 4))))


def run_sweep(
    points: Sequence[Any],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    stats: Optional[Tracer] = None,
    progress: Optional[Callable[[Any, bool, Any], None]] = None,
) -> list[Any]:
    """Execute *points*, in order, over up to *jobs* worker processes.

    Cached points are answered from *cache* without touching the pool
    (a fully warm sweep executes **zero** simulations); fresh results
    are written back.  When more than one point is left to run and
    *jobs* allows it, the sweep starts a pool for its own duration:
    closed when the sweep completes, terminated on :class:`SweepStop`
    or an error so abandoned chunks stop burning CPU.

    Counters on *stats* (a :class:`~repro.simulator.trace.Tracer`):

    - ``sweep.points`` / ``sweep.executed`` / ``sweep.cache_hits``
    - ``sweep.worker.<pid>.tasks`` — per-worker task counts
    - samples ``sweep.task_seconds`` and ``sweep.worker.<pid>.seconds``

    *progress*, if given, is called as ``progress(point, from_cache,
    result)`` after each point resolves, always in input order,
    whatever order workers complete in; raising :class:`SweepStop` from
    it ends the sweep early with the partial results (unexecuted points
    stay ``None``).
    """
    jobs = resolve_jobs(jobs)
    points = list(points)
    stats = stats if stats is not None else Tracer()
    results: list[Any] = [None] * len(points)

    hit_flags = (
        [cache.contains(point) for point in points]
        if cache is not None
        else [False] * len(points)
    )
    pending = [(i, p) for i, (p, hit) in enumerate(zip(points, hit_flags)) if not hit]

    def _resolve_hit(index: int, point: Any) -> None:
        cached = cache.get(point)
        if cached is None:
            # Torn or key-mismatched entry discovered after the probe:
            # recompute inline so the sweep still completes.
            _resolve_run(index, point, *_execute_point(point))
            return
        stats.count("sweep.cache_hits")
        results[index] = cached
        if progress is not None:
            progress(point, True, cached)

    def _resolve_run(index: int, point: Any, result: Any,
                     worker: int, elapsed: float) -> None:
        stats.count("sweep.executed")
        stats.count(f"sweep.worker.{worker}.tasks")
        stats.sample("sweep.task_seconds", elapsed)
        stats.sample(f"sweep.worker.{worker}.seconds", elapsed)
        if cache is not None:
            cache.put(point, result)
        results[index] = result
        if progress is not None:
            progress(point, False, result)

    try:
        if jobs > 1 and len(pending) > 1:
            workers = min(jobs, len(pending))
            pool = _pool_context().Pool(processes=workers, initializer=_warm_worker)
            try:
                arrivals = pool.imap_unordered(
                    _execute_task, pending, _chunk_size(len(pending), workers)
                )
                # Out-of-order arrivals wait here until their turn; the
                # in-order chunk assignment bounds this buffer to
                # O(jobs * chunk size) under normal skew.
                ready: dict[int, tuple[int, float, str]] = {}
                for index, point in enumerate(points):
                    stats.count("sweep.points")
                    if hit_flags[index]:
                        _resolve_hit(index, point)
                        continue
                    while index not in ready:
                        got_index, worker, elapsed, encoded = next(arrivals)
                        ready[got_index] = (worker, elapsed, encoded)
                    worker, elapsed, encoded = ready.pop(index)
                    _resolve_run(index, point, json.loads(encoded), worker, elapsed)
            except BaseException:
                # SweepStop or an error mid-sweep: abandoned chunks must
                # not keep burning CPU.
                pool.terminate()
                raise
            else:
                pool.close()
            finally:
                pool.join()
        else:
            for index, point in enumerate(points):
                stats.count("sweep.points")
                if hit_flags[index]:
                    _resolve_hit(index, point)
                else:
                    _resolve_run(index, point, *_execute_point(point))
    except SweepStop:
        pass
    if cache is not None:
        cache.flush()
    return results


# ---------------------------------------------------------------------------
# Replication: one spec across a seed list, summarised per metric
# ---------------------------------------------------------------------------


def parallel_replicate(
    spec: MeasureSpec,
    metric: str,
    seeds: Iterable[int],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    stats: Optional[Tracer] = None,
    progress: Optional[Callable[[Any, bool, Any], None]] = None,
) -> StreamingSummary:
    """Summarise one *metric* of *spec* across *seeds*.

    :func:`parallel_replicate_all` for a single metric, with one
    addition: a NaN measurement raises ``ValueError`` naming its seed
    instead of poisoning the summary.
    """
    def guarded(point: MeasurePoint, from_cache: bool, result: Any) -> None:
        if result[metric] != result[metric]:
            raise ValueError(f"measurement returned NaN for seed {point.seed}")
        if progress is not None:
            progress(point, from_cache, result)

    summaries = parallel_replicate_all(
        spec, [metric], seeds, jobs=jobs, cache=cache, stats=stats,
        progress=guarded,
    )
    return summaries[metric]


def parallel_replicate_all(
    spec: MeasureSpec,
    metrics: Sequence[str],
    seeds: Iterable[int],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    stats: Optional[Tracer] = None,
    progress: Optional[Callable[[Any, bool, Any], None]] = None,
) -> dict[str, StreamingSummary]:
    """Summarise several *metrics* of *spec* from one run per seed.

    The per-seed results are folded in seed order, so the summaries are
    bit-identical whatever *jobs* is and whichever results came from
    *cache*.
    """
    points = [MeasurePoint(spec, seed) for seed in seeds]
    if not points:
        raise ValueError("at least one seed is required")
    results = run_sweep(points, jobs=jobs, cache=cache, stats=stats,
                        progress=progress)
    return {
        metric: StreamingSummary.from_samples(
            metric, (float(result[metric]) for result in results)
        )
        for metric in metrics
    }


# ---------------------------------------------------------------------------
# Registry fan-out
# ---------------------------------------------------------------------------


def run_experiments_parallel(
    experiment_ids: Sequence[str],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    stats: Optional[Tracer] = None,
    seed: Optional[int] = None,
    progress: Optional[Callable[[Any, bool, Any], None]] = None,
) -> dict[str, ExperimentResult]:
    """Run registry experiments across a process pool.

    Each experiment is one work unit (the E-series functions are
    internally serial); *seed* overrides every experiment's seed, or
    each keeps its registered default.  Results preserve the requested
    order and reconstruct as :class:`ExperimentResult`.
    """
    points = [ExperimentPoint.create(eid, seed=seed) for eid in experiment_ids]
    payloads = run_sweep(points, jobs=jobs, cache=cache, stats=stats,
                         progress=progress)
    out: dict[str, ExperimentResult] = {}
    for point, payload in zip(points, payloads):
        out[point.experiment_id] = ExperimentResult(
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            rows=payload["rows"],
            notes=payload["notes"],
        )
    return out
