"""Tests for the parallel sweep runner (`repro.experiments.parallel`).

The contract under test: parallel execution is *bit-identical* to
serial, the on-disk cache turns warm re-runs into zero simulations, the
cache key discriminates every input that changes a result (the code
that computed it included), and a sweep leaves no worker behind.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import os

import pytest

from repro.experiments import ExperimentResult, run_experiment
from repro.experiments.parallel import (
    ExperimentPoint,
    MeasurePoint,
    MeasureSpec,
    ResultCache,
    SweepStop,
    _pool_context,
    _chunk_size,
    parallel_replicate,
    parallel_replicate_all,
    replication_seeds,
    resolve_jobs,
    run_experiments_parallel,
    run_sweep,
)
from repro.simulator.trace import StreamingSummary, Tracer
from repro.workloads.scenarios import preset

DURATION = 0.2
METRICS = ["efficiency", "eta", "delivered"]


def _spec(protocol: str = "lams", **kwargs) -> MeasureSpec:
    kwargs.setdefault("duration", DURATION)
    return MeasureSpec.create(
        "measure_saturated", preset("short_hop"), protocol, **kwargs
    )


def _bits(summaries):
    """Every statistic each summary reports, for exact comparison."""
    return {
        name: (s.metric, s.count, s.mean, s.stdev, s.half_width, repr(s))
        for name, s in summaries.items()
    }


def _hand_loop(spec: MeasureSpec, metrics, seeds):
    """The oracle: one in-process run per seed, folded in seed order."""
    runs = [spec.run(seed) for seed in seeds]
    return {
        metric: StreamingSummary.from_samples(
            metric, [float(run[metric]) for run in runs]
        )
        for metric in metrics
    }


# -- seed streams -----------------------------------------------------------


class TestReplicationSeeds:
    def test_deterministic_across_calls(self):
        assert replication_seeds(0, 6) == replication_seeds(0, 6)

    def test_prefix_stable(self):
        # Growing the count extends the list; it never reshuffles it.
        assert replication_seeds(7, 8)[:4] == replication_seeds(7, 4)

    def test_master_seed_changes_stream(self):
        assert replication_seeds(0, 4) != replication_seeds(1, 4)

    def test_name_changes_stream(self):
        assert replication_seeds(0, 4) != replication_seeds(0, 4, name="other")

    def test_distinct_within_stream(self):
        seeds = replication_seeds(3, 16)
        assert len(set(seeds)) == len(seeds)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            replication_seeds(0, 0)


# -- spec construction -------------------------------------------------------


class TestMeasureSpec:
    def test_unknown_runner_rejected(self):
        with pytest.raises(ValueError, match="unknown runner"):
            MeasureSpec.create("no_such_runner", preset("short_hop"))

    def test_kwargs_canonicalised(self):
        a = MeasureSpec.create("measure_saturated", preset("short_hop"),
                               "lams", duration=1.0, start_time=0.0)
        b = MeasureSpec.create("measure_saturated", preset("short_hop"),
                               "lams", start_time=0.0, duration=1.0)
        assert a == b

    def test_measure_matches_serial_runner(self):
        spec = _spec()
        from repro.experiments.runner import measure_saturated

        direct = measure_saturated(preset("short_hop"), "lams", DURATION, seed=5)
        assert spec.run(5) == direct


# -- parallel == serial ------------------------------------------------------


class TestParallelDeterminism:
    def test_replicate_all_bit_identical_to_serial(self):
        spec = _spec()
        seeds = replication_seeds(0, 4)
        serial = parallel_replicate_all(spec, METRICS, seeds, jobs=1)
        parallel = parallel_replicate_all(spec, METRICS, seeds, jobs=2)
        assert _bits(parallel) == _bits(serial)
        assert _bits(parallel) == _bits(_hand_loop(spec, METRICS, seeds))

    def test_replicate_bit_identical_to_serial(self):
        spec = _spec("hdlc")
        seeds = replication_seeds(1, 3)
        serial = parallel_replicate(spec, "efficiency", seeds, jobs=1)
        parallel = parallel_replicate(spec, "efficiency", seeds, jobs=2)
        oracle = _hand_loop(spec, ["efficiency"], seeds)
        assert _bits({"efficiency": parallel}) == _bits({"efficiency": serial})
        assert _bits({"efficiency": parallel}) == _bits(oracle)

    def test_jobs_do_not_change_results(self):
        spec = _spec()
        seeds = replication_seeds(2, 3)
        one = parallel_replicate_all(spec, ["efficiency"], seeds, jobs=1)
        four = parallel_replicate_all(spec, ["efficiency"], seeds, jobs=4)
        assert _bits(one) == _bits(four)

    def test_results_in_seed_order(self):
        spec = _spec()
        seeds = replication_seeds(0, 3)
        points = [MeasurePoint(spec, seed) for seed in seeds]
        results = run_sweep(points, jobs=3)
        for seed, result in zip(seeds, results):
            assert result == MeasurePoint(spec, seed).execute()

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            parallel_replicate_all(_spec(), ["efficiency"], [], jobs=2)


# -- cache ------------------------------------------------------------------


class TestResultCache:
    def test_cold_run_executes_everything(self, tmp_path):
        spec = _spec()
        seeds = replication_seeds(0, 3)
        stats = Tracer()
        cache = ResultCache(str(tmp_path))
        parallel_replicate_all(spec, METRICS, seeds, jobs=2,
                               cache=cache, stats=stats)
        assert stats.counter("sweep.executed").value == len(seeds)
        assert stats.counter("sweep.cache_hits").value == 0
        assert len(cache) == len(seeds)

    def test_warm_run_executes_nothing(self, tmp_path):
        spec = _spec()
        seeds = replication_seeds(0, 3)
        cold = parallel_replicate_all(spec, METRICS, seeds, jobs=2,
                                      cache=ResultCache(str(tmp_path)))
        stats = Tracer()
        warm = parallel_replicate_all(spec, METRICS, seeds, jobs=2,
                                      cache=ResultCache(str(tmp_path)),
                                      stats=stats)
        assert _bits(warm) == _bits(cold)
        assert stats.counter("sweep.executed").value == 0
        assert stats.counter("sweep.cache_hits").value == len(seeds)

    def test_key_discriminates_inputs(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        base = MeasurePoint(_spec(), 0)
        variants = [
            MeasurePoint(_spec(), 1),                       # seed
            MeasurePoint(_spec("hdlc"), 0),                 # protocol
            MeasurePoint(_spec(duration=0.3), 0),           # runner kwargs
            MeasurePoint(                                   # scenario knob
                dataclasses.replace(_spec(), scenario=preset("noisy")), 0
            ),
        ]
        digests = {cache.digest_for(p) for p in [base, *variants]}
        assert len(digests) == len(variants) + 1

    def test_stored_key_version_mismatch_is_a_miss(self, tmp_path):
        import json

        spec = _spec()
        cache = ResultCache(str(tmp_path))
        point = MeasurePoint(spec, 0)
        run_sweep([point], cache=cache)
        cache.close()
        # Rewrite the shard entry with a stale code_version in the
        # stored key: the digest still matches, so the entry indexes,
        # but get() verifies the full key and must refuse to serve it.
        [shard] = [n for n in os.listdir(tmp_path) if n.startswith("shard-")]
        path = os.path.join(tmp_path, shard)
        digest, payload = open(path).read().rstrip("\n").split("\t", 1)
        stored = json.loads(payload)
        stored["key"]["code_version"] = "stale"
        with open(path, "w") as handle:
            handle.write(f"{digest}\t{json.dumps(stored)}\n")
        other = ResultCache(str(tmp_path))
        assert other.get(point) is None
        assert other.misses == 1

    def test_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run_sweep([MeasurePoint(_spec(), s) for s in (0, 1)], cache=cache)
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_corrupt_shard_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        point = MeasurePoint(_spec(), 0)
        run_sweep([point], cache=cache)
        cache.close()
        [shard] = [n for n in os.listdir(tmp_path) if n.startswith("shard-")]
        path = os.path.join(tmp_path, shard)
        length = os.path.getsize(path)
        digest = open(path).read(64)
        with open(path, "w") as handle:  # same digest, garbage payload
            handle.write((digest + "\t{not json").ljust(length - 1) + "\n")
        reopened = ResultCache(str(tmp_path))
        assert reopened.get(point) is None
        assert reopened.misses == 1

    def test_torn_tail_line_skipped(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        a, b = MeasurePoint(_spec(), 0), MeasurePoint(_spec(), 1)
        cache.put(a, {"x": 1})
        cache.put(b, {"x": 2})
        cache.close()
        [shard] = [n for n in os.listdir(tmp_path) if n.startswith("shard-")]
        path = os.path.join(tmp_path, shard)
        # Chop the final line mid-payload: a crash between write and
        # sync.  The reopened cache must keep entry a, drop entry b.
        with open(path, "rb+") as handle:
            data = handle.read()
            handle.truncate(len(data) - 10)
        reopened = ResultCache(str(tmp_path))
        assert reopened.get(a) == {"x": 1}
        assert reopened.get(b) is None
        assert len(reopened) == 1

    def test_writers_never_share_a_shard(self, tmp_path):
        # Two cache instances on the same root (concurrent sweeps, or a
        # parent and a worker) each append to their own O_EXCL shard;
        # a third, fresh open sees both entries.
        first = ResultCache(str(tmp_path))
        second = ResultCache(str(tmp_path))
        a, b = MeasurePoint(_spec(), 0), MeasurePoint(_spec(), 1)
        first.put(a, {"x": 1})
        second.put(b, {"x": 2})
        first.close()
        second.close()
        shards = [n for n in os.listdir(tmp_path) if n.startswith("shard-")]
        assert len(shards) == 2
        merged = ResultCache(str(tmp_path))
        assert merged.get(a) == {"x": 1}
        assert merged.get(b) == {"x": 2}

    def test_open_writer_retries_on_collision(self, tmp_path, monkeypatch):
        import itertools

        from repro.experiments import parallel as parallel_module

        monkeypatch.setattr(parallel_module.time, "time_ns", lambda: 0)
        monkeypatch.setattr(ResultCache, "_shard_ids",
                            itertools.chain([7, 7, 8], itertools.count(9)))
        pid = os.getpid()
        squatter = tmp_path / f"shard-{pid}-7-000000.jsonl"
        squatter.write_text("squatter")
        cache = ResultCache(str(tmp_path))
        point = MeasurePoint(_spec(), 0)
        cache.put(point, {"ok": True})  # first name collides, retries
        cache.close()
        assert squatter.read_text() == "squatter"
        assert ResultCache(str(tmp_path)).get(point) == {"ok": True}

    def test_contains_probe_keeps_stats_clean(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        point = MeasurePoint(_spec(), 0)
        assert not cache.contains(point)
        cache.put(point, {"x": 1})
        assert cache.contains(point)
        assert cache.hits == 0 and cache.misses == 0

    def test_fsync_batching_still_readable(self, tmp_path):
        # One put is far short of FSYNC_INTERVAL: it is flushed
        # (visible) even though fsync hasn't happened yet.
        cache = ResultCache(str(tmp_path))
        point = MeasurePoint(_spec(), 0)
        cache.put(point, {"x": 1})
        fresh = ResultCache(str(tmp_path))
        assert fresh.get(point) == {"x": 1}
        cache.flush()


class TestCacheKeyCanonicalization:
    """digest_for is the cache's key identity; it must be insensitive to
    dict ordering and sensitive to every semantic input — the code that
    computed the result included."""

    class _Point:
        def __init__(self, key):
            self._key = key

        def cache_key(self):
            return dict(self._key)

    def test_path_stable_across_insertion_order(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        forward = self._Point(
            {"experiment_id": "E6", "seed": 1,
             "kwargs": {"duration": 1.0, "alpha": 0.2},
             "code_version": "v"}
        )
        backward = self._Point(
            {"code_version": "v",
             "kwargs": {"alpha": 0.2, "duration": 1.0},
             "seed": 1, "experiment_id": "E6"}
        )
        assert cache.digest_for(forward) == cache.digest_for(backward)

    def test_spec_kwargs_order_irrelevant(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        a = MeasureSpec.create("measure_saturated", preset("short_hop"),
                               "lams", duration=1.0, start_time=0.0)
        b = MeasureSpec.create("measure_saturated", preset("short_hop"),
                               "lams", start_time=0.0, duration=1.0)
        assert cache.digest_for(MeasurePoint(a, 3)) == cache.digest_for(
            MeasurePoint(b, 3)
        )

    def test_distinct_code_version_distinct_key(self, tmp_path, monkeypatch):
        """The stale-cache reproducer: the same point, asked for by
        different code, is a miss — whoever wrote the entry."""
        from repro.experiments import parallel as parallel_module

        point = MeasurePoint(_spec(), 0)
        assert "code_version" not in point.cache_key()  # the cache's job
        cache = ResultCache(str(tmp_path))
        cache.put(point, {"x": 1})
        current = cache.digest_for(point)
        assert cache.get(point) == {"x": 1}
        monkeypatch.setattr(parallel_module, "_code_identity",
                            lambda: "edited-since")
        assert cache.digest_for(point) != current
        assert not cache.contains(point)
        assert cache.get(point) is None  # never served across versions
        assert ResultCache(str(tmp_path)).get(point) is None

    def test_code_identity_follows_the_sources(self, tmp_path, monkeypatch):
        """Any edit, new file or rename under the package moves the
        identity; the version string alone never did."""
        import repro
        from repro.experiments import parallel as parallel_module

        package = tmp_path / "pkg"
        (package / "experiments").mkdir(parents=True)
        (package / "experiments" / "parallel.py").write_text("")
        (package / "core.py").write_text("X = 1\n")
        monkeypatch.setattr(parallel_module, "__file__",
                            str(package / "experiments" / "parallel.py"))
        identity = parallel_module._code_identity.__wrapped__
        seen = [identity()]
        assert seen[0].startswith(repro.__version__ + "+")
        assert identity() == seen[0]
        (package / "core.py").write_text("X = 2\n")
        seen.append(identity())
        (package / "extra.py").write_text("")
        seen.append(identity())
        (package / "core.py").rename(package / "kernel.py")
        seen.append(identity())
        assert len(set(seen)) == len(seen)


# -- sweep engine / stats ---------------------------------------------------


class TestRunSweep:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            run_sweep([], jobs=0)

    def test_progress_callback(self, tmp_path):
        spec = _spec()
        cache = ResultCache(str(tmp_path))
        seen = []
        points = [MeasurePoint(spec, s) for s in (0, 1)]
        run_sweep(points, jobs=2, cache=cache,
                  progress=lambda p, hit, result: seen.append((p.seed, hit)))
        assert seen == [(0, False), (1, False)]
        seen.clear()
        run_sweep(points, jobs=2, cache=ResultCache(str(tmp_path)),
                  progress=lambda p, hit, result: seen.append((p.seed, hit)))
        assert seen == [(0, True), (1, True)]

    def test_worker_stats_recorded(self):
        stats = Tracer()
        run_sweep([MeasurePoint(_spec(), s) for s in (0, 1)],
                  jobs=2, stats=stats)
        assert stats.counter("sweep.points").value == 2
        assert stats.counter("sweep.executed").value == 2
        worker_counters = [n for n in stats.counters
                           if n.startswith("sweep.worker.")]
        assert worker_counters
        assert stats.samples["sweep.task_seconds"].count == 2

    def test_progress_receives_results_in_order(self):
        spec = _spec()
        seen = []
        points = [MeasurePoint(spec, s) for s in (0, 1, 2)]
        run_sweep(points, jobs=2,
                  progress=lambda p, hit, result: seen.append((p.seed, result)))
        assert [seed for seed, _ in seen] == [0, 1, 2]
        for (seed, result), point in zip(seen, points):
            assert result == point.execute()

    def test_worker_error_propagates_and_leaves_no_worker(self):
        # An unknown protocol passes MeasureSpec.create (it checks the
        # runner) and raises inside whichever worker executes it.
        points = [MeasurePoint(_spec(), 0),
                  MeasurePoint(_spec("no-such-protocol"), 1),
                  MeasurePoint(_spec(), 2), MeasurePoint(_spec(), 3)]
        with pytest.raises(ValueError, match="no-such-protocol"):
            run_sweep(points, jobs=2)
        assert multiprocessing.active_children() == []

    def test_sweepstop_returns_partial_results_and_leaves_no_worker(self):
        points = [MeasurePoint(_spec(), s) for s in range(4)]

        def stop_after_first(point, from_cache, result):
            raise SweepStop(point.label)

        results = run_sweep(points, jobs=2, progress=stop_after_first)
        assert results[0] == points[0].execute()
        assert results[1:] == [None, None, None]
        assert multiprocessing.active_children() == []
        # The next sweep starts its own pool; nothing was left to reuse.
        assert run_sweep(points[:2], jobs=2) == [p.execute() for p in points[:2]]


class TestResolveJobs:
    """Regression: ``jobs>1`` on a single-core host must degrade to
    serial execution instead of paying fork/IPC overhead for nothing."""

    def test_single_core_resolves_to_serial(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        assert resolve_jobs(8) == 1
        assert resolve_jobs(1) == 1

    def test_unknown_core_count_resolves_to_serial(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert resolve_jobs(4) == 1

    def test_multi_core_passes_through(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        assert resolve_jobs(4) == 4
        assert resolve_jobs(16) == 16  # deliberate oversubscription allowed

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)

    def test_run_sweep_on_single_core_spawns_no_pool(self, monkeypatch):
        from repro.experiments import parallel as parallel_module

        monkeypatch.setattr("os.cpu_count", lambda: 1)

        def forbid_pool():
            raise AssertionError("single-core sweep must not build a pool")

        monkeypatch.setattr(parallel_module, "_pool_context", forbid_pool)
        spec = _spec()
        points = [MeasurePoint(spec, s) for s in (0, 1)]
        assert run_sweep(points, jobs=4) == [p.execute() for p in points]


class TestChunksize:
    def test_adaptive_targets_four_chunks_per_worker(self):
        assert _chunk_size(64, 4) == 4  # ceil(64 / 16)

    def test_adaptive_caps_at_32(self):
        assert _chunk_size(100_000, 4) == 32

    def test_adaptive_floors_at_1(self):
        assert _chunk_size(6, 2) == 1


class TestStartMethod:
    """The pool's start method is read off the platform, never left to
    the interpreter default (spawn-safety satellite)."""

    def test_resolved_method_is_available(self):
        method = _pool_context().get_start_method()
        assert method in multiprocessing.get_all_start_methods()

    def test_pool_context_matches_resolution(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["fork", "spawn", "forkserver"])
        assert _pool_context().get_start_method() == "fork"
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        assert _pool_context().get_start_method() == "spawn"

    def test_spawn_pool_matches_serial(self, monkeypatch):
        # The expensive end-to-end guarantee: a spawn-started pool (the
        # portable fallback) produces bit-identical results.  No
        # argument selects it, so the platform is made to offer nothing
        # else.
        spec = _spec()
        seeds = replication_seeds(0, 2)
        serial = parallel_replicate_all(spec, ["efficiency"], seeds, jobs=1)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        stats = Tracer()
        parallel = parallel_replicate_all(spec, ["efficiency"], seeds,
                                          jobs=2, stats=stats)
        assert _bits(parallel) == _bits(serial)
        # Run by pool workers, not inline — and none of them left behind.
        assert f"sweep.worker.{os.getpid()}.tasks" not in stats.counters
        assert multiprocessing.active_children() == []


# -- registry fan-out -------------------------------------------------------


class TestRegistryFanout:
    def test_round_trip_matches_direct_run(self, tmp_path):
        out = run_experiments_parallel(["E1", "E3"], jobs=2,
                                       cache=ResultCache(str(tmp_path)))
        assert set(out) == {"E1", "E3"}
        for eid in ("E1", "E3"):
            direct = run_experiment(eid)
            assert isinstance(out[eid], ExperimentResult)
            assert out[eid].title == direct.title
            assert out[eid].notes == direct.notes
            assert len(out[eid].rows) == len(direct.rows)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            ExperimentPoint.create("E999")

    def test_seed_default_resolved_from_signature(self):
        # E4-sim registers seed=3; model-only E1 defaults to 0.
        assert ExperimentPoint.create("E4-sim").seed == 3
        assert ExperimentPoint.create("E1").seed == 0

    def test_model_experiments_accept_seed(self):
        # Satellite of the same PR: every registry entry takes `seed`.
        result = run_experiment("E1", seed=123)
        assert result.rows


class TestNanGuard:
    def test_parallel_replicate_raises_like_serial(self, monkeypatch):
        from repro.experiments import runner

        spec = _spec()
        seeds = replication_seeds(0, 3)
        # Clean metrics never trip the guard.
        clean = parallel_replicate(spec, "sendbuf_avg", seeds[:2], jobs=2)
        assert clean.count == 2 and clean.mean == clean.mean

        def nan_for_second_seed(scenario, protocol, seed, **kwargs):
            return {"x": math.nan if seed == seeds[1] else 1.0}

        monkeypatch.setattr(runner, "measure_saturated", nan_for_second_seed)
        with pytest.raises(ValueError, match=f"NaN for seed {seeds[1]}"):
            parallel_replicate(spec, "x", seeds)
        # Only the single-metric entry point guards; the several-metric
        # one reports what it measured.
        assert math.isnan(parallel_replicate_all(spec, ["x"], seeds)["x"].mean)
