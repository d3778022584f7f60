"""Tests for the content-addressed result cache, its manifest index, and GC."""

import json
import os

import pytest

from repro.runner.cache import MANIFEST_NAME, ResultCache
from repro.runner.params import ParamSpec, ParamSpace
from repro.runner.registry import ScenarioRegistry
from repro.runner.result import RunResult, run_key


def _result(scenario="toy", seed=1, version=1, **params):
    params = params or {"x": 1}
    return RunResult(
        scenario=scenario,
        params=params,
        seed=seed,
        effective_seed=seed * 100,
        key=run_key(scenario, params, seed, version=version),
        metrics={"value": seed * 1.5},
        scenario_version=version,
    )


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        result = _result()
        assert cache.get(result.key) is None
        assert cache.stats.misses == 1
        cache.put(result, elapsed_s=0.25)
        assert result.key in cache
        returned = cache.get(result.key)
        assert returned == result
        assert returned.canonical() == result.canonical()
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == 0.5

    def test_len_and_iteration(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        assert len(cache) == 0
        results = [_result(seed=s) for s in (1, 2, 3)]
        for r in results:
            cache.put(r)
        assert len(cache) == 3
        assert {r.key for r in cache.iter_results()} == {r.key for r in results}
        assert set(cache.by_scenario()) == {"toy"}

    def test_key_stability_across_dict_ordering(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put(_result(a=1, b=2))
        # Same logical config, different insertion order → same key → hit.
        assert cache.get(run_key("toy", {"b": 2, "a": 1}, 1, version=1)) is not None

    def test_corrupt_record_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        result = _result()
        path = cache.put(result)
        with open(path, "w") as fh:
            fh.write("{not json")
        assert cache.get(result.key) is None
        assert list(cache.iter_results()) == []

    def test_record_named_for_another_cell_is_a_miss_and_is_overwritten(self, tmp_path):
        # A copied / renamed / half-restored cache: <keyA>.json holds cell B.
        cache = ResultCache(str(tmp_path / "cache"))
        cell_a, cell_b = _result(seed=1), _result(seed=2)
        os.replace(cache.put(cell_b), cache._path(cell_a.key))
        assert cache.get(cell_a.key) is None  # the file name is not the identity
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        cache.put(cell_a)  # what the rerun does
        assert cache.get(cell_a.key) == cell_a

    def test_unreadable_records_are_counted_not_silently_dropped(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        paths = [cache.put(_result(seed=s)) for s in (1, 2, 3)]
        with open(paths[1], "r+") as fh:
            fh.truncate(40)
        assert len(list(cache.iter_results())) == 2
        assert cache.stats.unreadable == 1

    def test_put_stores_elapsed_in_envelope_not_result(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        result = _result()
        path = cache.put(result, elapsed_s=1.25)
        with open(path) as fh:
            record = json.load(fh)
        assert record["elapsed_s"] == 1.25
        assert "elapsed_s" not in record["result"]

    def test_no_temp_files_left_behind(self, tmp_path):
        root = tmp_path / "cache"
        cache = ResultCache(str(root))
        cache.put(_result())
        assert all(not name.endswith(".tmp") for name in os.listdir(root))

    def test_manifest_not_counted_as_a_record(self, tmp_path):
        root = tmp_path / "cache"
        cache = ResultCache(str(root))
        cache.put(_result())
        assert (root / MANIFEST_NAME).exists()
        assert len(cache) == 1
        assert len(list(cache.iter_results())) == 1


class TestManifest:
    def test_put_indexes_the_record(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        result = _result(seed=3, x=7)
        cache.put(result, elapsed_s=0.5)
        entry = cache.manifest()[result.key]
        assert entry["scenario"] == "toy"
        assert entry["params"] == {"x": 7}
        assert entry["seed"] == 3
        assert entry["scenario_version"] == 1
        assert entry["elapsed_s"] == 0.5
        assert entry["created_at"] > 0

    def test_manifest_persists_across_instances(self, tmp_path):
        root = str(tmp_path / "cache")
        result = _result()
        ResultCache(root).put(result)
        assert result.key in ResultCache(root).manifest()

    def test_corrupt_manifest_is_rederived_from_records(self, tmp_path):
        root = tmp_path / "cache"
        cache = ResultCache(str(root))
        result = _result()
        cache.put(result)
        (root / MANIFEST_NAME).write_text("{broken")
        fresh = ResultCache(str(root))
        assert result.key in fresh.manifest()

    def test_rebuild_picks_up_foreign_records(self, tmp_path):
        # Records written by another process (a second cache instance here)
        # are invisible to a stale in-memory manifest until a rebuild.
        root = str(tmp_path / "cache")
        first = ResultCache(root)
        first.put(_result(seed=1))
        ResultCache(root).put(_result(seed=2))
        assert len(first.manifest()) == 1
        assert len(first.rebuild_manifest()) == 2

    def test_rebuild_drops_deleted_records(self, tmp_path):
        root = tmp_path / "cache"
        cache = ResultCache(str(root))
        result = _result()
        path = cache.put(result)
        os.unlink(path)
        assert result.key not in cache.rebuild_manifest()

    def test_deferred_manifest_flushes_once_on_exit(self, tmp_path):
        root = tmp_path / "cache"
        cache = ResultCache(str(root))
        results = [_result(seed=s) for s in (1, 2, 3)]
        with cache.deferred_manifest():
            for r in results:
                cache.put(r)
            # Record files land immediately; the manifest write is batched.
            assert len(cache) == 3
            assert not (root / MANIFEST_NAME).exists()
        flushed = ResultCache(str(root)).manifest()
        assert {r.key for r in results} <= set(flushed)
        assert (root / MANIFEST_NAME).exists()

    def test_deferred_manifest_without_puts_writes_nothing(self, tmp_path):
        root = tmp_path / "cache"
        cache = ResultCache(str(root))
        with cache.deferred_manifest():
            pass
        assert not (root / MANIFEST_NAME).exists()

    def test_stale_manifest_is_rescanned_not_persisted(self, tmp_path):
        # A killed sweep (or any second writer) leaves record files the
        # manifest file does not list.  The next writer must not load that
        # file as is and flush an index missing records the cache serves.
        root = str(tmp_path / "cache")
        first = ResultCache(root)
        for seed in (1, 2, 3):
            first.put(_result(seed=seed))
        killed = ResultCache(root)
        sweep = killed.deferred_manifest()
        sweep.__enter__()  # and never exits: killed before its flush
        killed.put(_result(seed=4))
        ResultCache(root).put(_result(seed=5))
        with open(os.path.join(root, MANIFEST_NAME)) as fh:
            on_disk = json.load(fh)["records"]
        assert set(on_disk) == {_result(seed=s).key for s in (1, 2, 3, 4, 5)}

    def test_pre_manifest_records_get_mtime_created_at(self, tmp_path):
        # A record written before the manifest existed (simulated by
        # stripping created_at) still gets an age from the file mtime.
        root = tmp_path / "cache"
        cache = ResultCache(str(root))
        result = _result()
        path = cache.put(result)
        with open(path) as fh:
            record = json.load(fh)
        del record["created_at"]
        with open(path, "w") as fh:
            json.dump(record, fh)
        entry = cache.rebuild_manifest()[result.key]
        assert entry["created_at"] > 0


class TestGc:
    def _registry(self, version=2):
        registry = ScenarioRegistry()
        registry.register(
            "toy", params=ParamSpace(ParamSpec("x", kind="int", default=1)), version=version
        )(
            lambda *, seed, x: {"value": x}
        )
        return registry

    def test_stale_version_evicted(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        old = _result(seed=1, version=1)
        new = _result(seed=1, version=2)
        cache.put(old)
        cache.put(new)
        stats = cache.gc(registry=self._registry(version=2))
        assert stats.examined == 2
        assert stats.evicted_stale_version == 1
        assert stats.evicted_keys == [old.key]
        assert cache.get(old.key) is None
        assert cache.get(new.key) is not None
        assert old.key not in cache.manifest()
        assert new.key in cache.manifest()

    def test_unregistered_scenarios_are_kept(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        other = _result(scenario="not_registered")
        cache.put(other)
        stats = cache.gc(registry=self._registry())
        assert stats.evicted == 0
        assert cache.get(other.key) is not None

    def test_age_eviction(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        result = _result(version=2)
        cache.put(result)
        now = cache.manifest()[result.key]["created_at"]
        keep = cache.gc(max_age_s=3600.0, now=now + 60.0)
        assert keep.evicted == 0
        evict = cache.gc(max_age_s=3600.0, now=now + 7200.0)
        assert evict.evicted_age == 1
        assert len(cache) == 0

    @pytest.mark.parametrize("max_age_s", [-1.0, float("nan")])
    def test_negative_max_age_is_refused_before_any_file_is_touched(self, tmp_path, max_age_s):
        # now - created > max_age_s holds for every record when the age is
        # negative: the call would empty the cache.
        root = tmp_path / "cache"
        cache = ResultCache(str(root))
        result = _result(version=2)
        cache.put(result)
        os.unlink(root / MANIFEST_NAME)  # gc's first act is to rebuild it
        with pytest.raises(ValueError, match="max_age_s must be >= 0"):
            cache.gc(max_age_s=max_age_s)
        assert sorted(os.listdir(root)) == [f"{result.key}.json"]
        assert ResultCache(str(root)).get(result.key) is not None

    def test_dry_run_deletes_nothing(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        result = _result(version=1)
        cache.put(result)
        stats = cache.gc(registry=self._registry(version=2), dry_run=True)
        assert stats.evicted_stale_version == 1
        assert cache.get(result.key) is not None
        assert result.key in cache.manifest()

    def test_summary_wording(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put(_result(version=1))
        cache.put(_result(seed=2, version=2))
        stats = cache.gc(registry=self._registry(version=2))
        assert "2 record(s) examined" in stats.summary()
        assert "1 evicted" in stats.summary()
        assert "1 kept" in stats.summary()

    def test_killed_writers_temp_files_are_collected_after_the_grace(self, tmp_path):
        # A writer killed between mkstemp and os.replace leaves <random>.tmp
        # in the cache root; gc collects it once it is older than the fixed
        # grace (a younger one may have a live writer).  Aged through now=.
        root = tmp_path / "cache"
        cache = ResultCache(str(root))
        result = _result()
        cache.put(result)
        killed = root / "killed.tmp"
        killed.write_text('{"result": {"trunc')
        written = os.path.getmtime(killed)

        young = cache.gc(now=written + 0.5 * ResultCache.TMP_GRACE_S)
        assert young.evicted_stale_tmp == 0 and killed.exists()
        assert "temp file" not in young.summary()
        later = written + 2 * ResultCache.TMP_GRACE_S
        dry = cache.gc(now=later, dry_run=True)
        assert dry.evicted_stale_tmp == 1 and killed.exists()
        stats = cache.gc(now=later)
        assert stats.evicted_stale_tmp == 1
        assert stats.evicted_tmp_files == [str(killed)]
        assert "1 stale temp file(s) evicted" in stats.summary()
        assert not killed.exists()
        assert stats.evicted == 0 and cache.get(result.key) is not None

    def test_traces_dir_left_by_an_older_checkout_is_ignored(self, tmp_path):
        # Older checkouts kept generated traces under <cache>/traces/; gc no
        # longer knows the directory: nothing in it is examined or deleted,
        # however old, and it is not mistaken for a record.
        root = tmp_path / "cache"
        cache = ResultCache(str(root))
        cache.put(_result())
        leftover = root / "traces" / ("ab" * 32 + ".jsonl.gz")
        leftover.parent.mkdir()
        leftover.write_bytes(b"")
        stats = cache.gc(now=os.path.getmtime(leftover) + 30 * 86_400.0)
        assert stats.examined == 1 and stats.evicted == 0
        assert leftover.exists()
        assert "trace" not in stats.summary()
        assert len(cache) == 1
