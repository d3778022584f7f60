"""Tests for the sweep engine: cache behavior, determinism, parallelism.

The parallel-equals-serial test uses the real (scaled-down) ``fig09_slowdown``
scenario so it exercises the same code path as ``repro-runner sweep``; the
cache-behavior tests use a counting toy registry to observe exactly which
cells execute.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.runner.backends import SerialBackend, WorkItem, inherited_pythonpath, make_backend
from repro.runner.cache import MANIFEST_NAME, ResultCache
from repro.runner.engine import effective_seed, execute_run, run_spec, run_sweep
from repro.runner.params import ParamSpec, ParamSpace
from repro.runner.registry import ScenarioRegistry
from repro.runner.spec import RunSpec, SweepSpec

#: A tiny fig09 cell: a couple of hundred milliseconds of wall clock.
TINY = {
    "bottleneck_mbps": 12.0,
    "rtt_ms": 20.0,
    "load_fraction": 0.7,
    "duration_s": 3.0,
    "warmup_s": 0.5,
    "num_servers": 4,
    "max_requests": 300,
}


def _counting_registry():
    registry = ScenarioRegistry()
    calls = []

    @registry.register("toy", params=ParamSpace(ParamSpec("x", kind="int", default=1)))
    def _toy(*, seed, x):
        calls.append((seed, x))
        return {"doubled": 2 * x, "seed_seen": seed}

    return registry, calls


class TestExecuteRun:
    def test_effective_seed_is_scoped_and_stable(self):
        a = effective_seed(RunSpec("toy", {}, seed=1))
        assert a == effective_seed(RunSpec("toy", {}, seed=1))
        assert a != effective_seed(RunSpec("toy", {}, seed=2))
        assert a != effective_seed(RunSpec("other", {}, seed=1))

    def test_execute_run_resolves_and_records(self):
        registry, calls = _counting_registry()
        result = execute_run(RunSpec("toy", {"x": 3}, seed=2), registry=registry)
        assert result.metrics["doubled"] == 6
        assert result.params == {"x": 3}
        assert result.seed == 2
        assert result.effective_seed == calls[0][0] != 2
        assert result.key

    def test_non_dict_metrics_rejected(self):
        registry = ScenarioRegistry()
        registry.register("bad", params=ParamSpace())(lambda *, seed: 42)
        with pytest.raises(TypeError):
            execute_run(RunSpec("bad"), registry=registry)


class TestCacheBehavior:
    def test_second_sweep_is_all_hits(self, tmp_path):
        registry, calls = _counting_registry()
        cache = ResultCache(str(tmp_path / "cache"))
        specs = [RunSpec("toy", {"x": x}, seed=s) for x in (1, 2) for s in (1, 2)]

        first = run_sweep(specs, cache=cache, registry=registry)
        assert first.hits == 0 and first.misses == 4
        assert len(calls) == 4

        second = run_sweep(specs, cache=cache, registry=registry)
        assert second.hits == 4 and second.misses == 0
        assert second.hit_rate == 1.0
        assert len(calls) == 4, "cached cells must not re-execute"
        assert [a.canonical() for a in first.results] == [
            b.canonical() for b in second.results
        ]
        assert "100% cache hits" in second.summary()

    def test_partial_hits(self, tmp_path):
        registry, calls = _counting_registry()
        cache = ResultCache(str(tmp_path / "cache"))
        run_sweep([RunSpec("toy", {"x": 1})], cache=cache, registry=registry)
        outcome = run_sweep(
            [RunSpec("toy", {"x": 1}), RunSpec("toy", {"x": 2})],
            cache=cache,
            registry=registry,
        )
        assert outcome.hits == 1 and outcome.misses == 1
        assert len(calls) == 2

    def test_no_cache_forces_execution(self, tmp_path):
        registry, calls = _counting_registry()
        cache = ResultCache(str(tmp_path / "cache"))
        run_sweep([RunSpec("toy")], cache=cache, registry=registry)
        run_sweep([RunSpec("toy")], cache=cache, registry=registry, use_cache=False)
        assert len(calls) == 2

    def test_duplicate_cells_execute_once(self, tmp_path):
        registry, calls = _counting_registry()
        cache = ResultCache(str(tmp_path / "cache"))
        outcome = run_sweep(
            [RunSpec("toy"), RunSpec("toy")], cache=cache, registry=registry
        )
        assert len(calls) == 1
        assert outcome.results[0].canonical() == outcome.results[1].canonical()
        assert outcome.hits == 0 and outcome.misses == 1 and outcome.deduplicated == 1

    def test_custom_registry_with_workers_falls_back_to_serial(self, tmp_path):
        # Pool workers can only reconstruct the built-in registry (they
        # re-import repro.experiments), so a custom registry must run
        # in-process instead of crashing in the pool.
        registry, calls = _counting_registry()
        cache = ResultCache(str(tmp_path / "cache"))
        outcome = run_sweep(
            [RunSpec("toy", {"x": x}) for x in (1, 2, 3)],
            workers=3,
            cache=cache,
            registry=registry,
        )
        assert len(calls) == 3
        assert outcome.workers == 1
        assert [r.metrics["doubled"] for r in outcome.results] == [2, 4, 6]

    def test_fully_cached_sweep_reports_requested_workers(self, tmp_path):
        # A warm sweep executes nothing, but it still ran "with" the
        # requested pool size — reporting "1 worker" misrepresented the
        # caller's configuration (and the summary() line repeated it).
        registry, _ = _counting_registry()
        cache = ResultCache(str(tmp_path / "cache"))
        specs = [RunSpec("toy", {"x": x}) for x in (1, 2, 3)]
        run_sweep(specs, cache=cache, registry=registry)
        warm = run_sweep(specs, workers=4, cache=cache, registry=registry)
        assert warm.hits == 3 and warm.misses == 0
        assert warm.workers == 4
        assert "on 4 workers" in warm.summary()

    def test_default_and_explicit_param_share_key(self, tmp_path):
        registry, calls = _counting_registry()
        cache = ResultCache(str(tmp_path / "cache"))
        run_sweep([RunSpec("toy", {})], cache=cache, registry=registry)
        outcome = run_sweep([RunSpec("toy", {"x": 1})], cache=cache, registry=registry)
        assert outcome.hits == 1
        assert len(calls) == 1


class TestParallelDeterminism:
    def test_parallel_matches_serial_byte_for_byte(self, tmp_path):
        spec = SweepSpec(
            scenario="fig09_slowdown",
            base=TINY,
            grid={"mode": ["status_quo", "bundler_sfq"]},
            seeds=(1, 2),
        )
        parallel = run_spec(spec, workers=2, cache=ResultCache(str(tmp_path / "par")))
        serial = run_spec(spec, workers=1, cache=ResultCache(str(tmp_path / "ser")))
        assert parallel.workers == 2
        assert serial.workers == 1
        assert len(parallel.results) == 4
        assert [r.canonical() for r in parallel.results] == [
            r.canonical() for r in serial.results
        ]

    def test_parallel_sweep_served_from_cache_on_rerun(self, tmp_path):
        spec = SweepSpec(
            scenario="fig09_slowdown", base=TINY, grid={"mode": ["status_quo"]}, seeds=(1, 2)
        )
        cache = ResultCache(str(tmp_path / "cache"))
        first = run_spec(spec, workers=2, cache=cache)
        second = run_spec(spec, workers=2, cache=cache)
        assert first.misses == 2
        assert second.hits == 2 and second.misses == 0
        assert [r.canonical() for r in first.results] == [
            r.canonical() for r in second.results
        ]


class TestSeedInsensitiveScenarios:
    def _registry(self):
        registry = ScenarioRegistry()
        calls = []

        @registry.register(
            "det", params=ParamSpace(ParamSpec("x", kind="int", default=1)), seed_sensitive=False
        )
        def _det(*, seed, x):
            calls.append(seed)
            return {"x": x}

        return registry, calls

    def test_seed_collapses_to_one_cell(self, tmp_path):
        registry, calls = self._registry()
        cache = ResultCache(str(tmp_path / "cache"))
        outcome = run_sweep(
            [RunSpec("det", seed=s) for s in (1, 2, 3)], cache=cache, registry=registry
        )
        assert len(calls) == 1, "a deterministic scenario simulates once per param cell"
        assert len(set(r.key for r in outcome.results)) == 1
        assert all(r.seed == 0 for r in outcome.results)
        # In-sweep reuse is reported as deduplication, not as cache hits —
        # this was a cold run against an empty cache.
        assert outcome.hits == 0
        assert outcome.misses == 1
        assert outcome.deduplicated == 2
        assert "2 deduplicated" in outcome.summary()
        # A second sweep is served from the on-disk cache for every cell.
        warm = run_sweep(
            [RunSpec("det", seed=s) for s in (1, 2, 3)], cache=cache, registry=registry
        )
        assert warm.hits == 3 and warm.misses == 0 and warm.deduplicated == 0

    def test_builtin_deterministic_scenarios_flagged(self):
        from repro.runner.registry import load_builtin_scenarios

        registry = load_builtin_scenarios()
        for name in ("fig02_queue_shift", "fig05_fig06_estimates",
                     "fig12_elastic_cross", "fig16_internet_paths"):
            assert not registry.get(name).seed_sensitive, name
        for name in ("fig09_slowdown", "fig07_multipath", "fig13_competing_bundles"):
            assert registry.get(name).seed_sensitive, name


class TestPartialFailure:
    def _flaky_registry(self):
        registry = ScenarioRegistry()
        calls = []

        @registry.register("flaky", params=ParamSpace(ParamSpec("x", kind="int", default=1)))
        def _flaky(*, seed, x):
            calls.append(x)
            if x == 2:
                raise RuntimeError("cell exploded")
            return {"x": x}

        return registry, calls

    def test_completed_cells_are_cached_before_failure_surfaces(self, tmp_path):
        registry, calls = self._flaky_registry()
        cache = ResultCache(str(tmp_path / "cache"))
        specs = [RunSpec("flaky", {"x": x}) for x in (1, 2, 3)]
        with pytest.raises(RuntimeError, match="1 of 3 sweep cell"):
            run_sweep(specs, cache=cache, registry=registry)
        assert calls == [1, 2, 3], "siblings still execute despite the failure"
        assert len(cache) == 2, "finished cells reach the cache"

        # The rerun resumes: only the broken cell re-executes (and fails again).
        with pytest.raises(RuntimeError, match="1 of 3 sweep cell"):
            run_sweep(specs, cache=cache, registry=registry)
        assert calls == [1, 2, 3, 2]


class _ReportsThenFails(SerialBackend):
    """Reports the first ``k`` outcomes, then dies like a killed scheduler."""

    def __init__(self, k, exc):
        self.k = k
        self.exc = exc

    def execute(self, items, *, registry=None, on_outcome=None):
        super().execute(items[: self.k], registry=registry, on_outcome=on_outcome)
        raise self.exc


class _ForgetsTheLastCell(SerialBackend):
    def execute(self, items, *, registry=None, on_outcome=None):
        return super().execute(items[:-1], registry=registry, on_outcome=on_outcome)


class TestOutcomesReachTheCacheAsTheyFinish:
    def test_cells_reported_before_the_backend_dies_are_cached(self, tmp_path):
        registry, calls = _counting_registry()
        cache = ResultCache(str(tmp_path / "cache"))
        specs = [RunSpec("toy", {"x": x}) for x in (1, 2, 3, 4, 5)]
        with pytest.raises(OSError, match="scheduler host fell over"):
            run_sweep(
                specs,
                cache=cache,
                registry=registry,
                backend=_ReportsThenFails(3, OSError("scheduler host fell over")),
            )
        assert len(cache) == 3, "exactly the reported cells are on disk"
        # ... and indexed: the manifest is flushed however the sweep ends.
        with open(os.path.join(cache.root, MANIFEST_NAME)) as fh:
            assert len(json.load(fh)["records"]) == 3
        resumed = run_sweep(specs, cache=ResultCache(cache.root), registry=registry)
        assert (resumed.hits, resumed.misses) == (3, 2)
        assert [x for _, x in calls] == [1, 2, 3, 4, 5]

    def test_a_backend_that_skips_a_cell_is_a_lost_cells_error(self, tmp_path):
        registry, _ = _counting_registry()
        cache = ResultCache(str(tmp_path / "cache"))
        specs = [RunSpec("toy", {"x": x}) for x in (1, 2, 3)]
        with pytest.raises(RuntimeError, match="lost cells.*without reporting 1 of 3"):
            run_sweep(specs, cache=cache, registry=registry, backend=_ForgetsTheLastCell())
        assert len(cache) == 2

    @pytest.mark.distributed
    @pytest.mark.parametrize("name", ["serial", "process", "distributed"])
    def test_on_outcome_runs_on_the_callers_thread(self, name):
        # The engine's callback writes the cache and appends to plain
        # lists; it takes no lock because no backend calls it from a thread
        # of its own.
        items = [
            WorkItem(index=10 + i, scenario="ablation_pi_gains",
                     params={"alpha": 5.0 + i, "beta": 10.0}, seed=1)
            for i in range(6)
        ]
        seen = []
        backend = make_backend(name, workers=2)
        returned = backend.execute(
            items, on_outcome=lambda o: seen.append((threading.get_ident(), o))
        )
        assert {ident for ident, _ in seen} == {threading.get_ident()}
        assert sorted(o.index for _, o in seen) == [item.index for item in items]
        assert [o.index for o in returned] == [item.index for item in items]
        assert {o.index: o for _, o in seen} == {o.index: o for o in returned}


#: A grid of 10 cells of roughly 0.3-0.6 s each: long enough that a sweep
#: is caught mid-flight, short enough for tier-1.
_KILL_GRID = SweepSpec(
    scenario="fig09_slowdown",
    base=dict(TINY, bottleneck_mbps=24.0, duration_s=6.0, max_requests=2000),
    grid={"mode": ["status_quo", "bundler_sfq"]},
    seeds=(1, 2, 3, 4, 5),
)


def _record_files(root):
    try:
        names = os.listdir(root)
    except FileNotFoundError:
        return []
    return [n for n in names if n.endswith(".json") and n != MANIFEST_NAME]


@pytest.fixture(scope="module")
def serial_reference(tmp_path_factory):
    cache = ResultCache(str(tmp_path_factory.mktemp("kill-serial")))
    return run_spec(_KILL_GRID, cache=cache, backend="serial")


@pytest.mark.distributed
class TestKilledSweepResumes:
    @pytest.mark.parametrize("name", ["serial", "process", "distributed"])
    def test_sigkill_mid_sweep_keeps_finished_cells(self, name, tmp_path, serial_reference):
        cells = len(_KILL_GRID.expand())
        root = str(tmp_path / "cache")
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(_KILL_GRID.to_dict()))
        env = dict(os.environ, PYTHONPATH=inherited_pythonpath())
        sweep = subprocess.Popen(
            [sys.executable, "-m", "repro.runner", "--cache-dir", root, "sweep",
             "--spec", str(spec_file), "--backend", name, "--workers", "2"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,  # one group: pool children and workers die with it
        )
        try:
            deadline = time.monotonic() + 120
            while len(_record_files(root)) < 3:
                assert sweep.poll() is None, "the sweep ended before it could be killed"
                assert time.monotonic() < deadline, "no records appeared"
                time.sleep(0.02)
            # Mid-flight means still executing a while after the third
            # record: a sweep that writes everything in one burst when it
            # ends is done by now.
            time.sleep(0.3)
            assert sweep.poll() is None, "the records came in a burst at the end"
        finally:
            os.killpg(sweep.pid, signal.SIGKILL)
            sweep.wait(timeout=30)
        survived = len(_record_files(root))
        assert 3 <= survived < cells

        cache = ResultCache(root)
        resumed = run_spec(_KILL_GRID, workers=2, cache=cache, backend=name)
        assert resumed.hits >= survived
        assert resumed.hits + resumed.misses == cells
        assert [r.canonical() for r in resumed.results] == [
            r.canonical() for r in serial_reference.results
        ]
        # What the killed sweep left on disk is what a serial sweep writes.
        for result in serial_reference.results:
            assert ResultCache(root).get(result.key).canonical() == result.canonical()
