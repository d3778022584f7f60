"""Trace specs in the runner: digest-addressed keys, backend parity, gc.

The acceptance gates of the trace subsystem's runner plumbing:

* identical trace **content** yields identical cache keys, however the
  trace is named (two file paths, file vs store digest);
* serial, process-pool, and distributed replay sweeps are byte-for-byte
  cache-compatible (the same contract every other scenario enjoys);
* ``gc`` evicts orphaned generated traces but keeps referenced ones.
"""

import os
import shutil

import pytest

from repro.runner.backends import ProcessPoolBackend, SerialBackend
from repro.runner.cache import ResultCache
from repro.runner.engine import resolve_cell, run_sweep
from repro.runner.params import ParamSpace, ParamSpec, ParamValidationError
from repro.runner.registry import load_builtin_scenarios
from repro.runner.spec import RunSpec
from repro.traffic.format import store_trace_path, write_trace
from repro.traffic.generators import generate_trace

SPEC = {"generator": "poisson", "params": {"rate_per_s": 60.0, "horizon_s": 1.0}}

#: Cheap overrides shared by the sweep-parity tests: a short, small cell.
FAST = {
    "trace": {"generator": "poisson", "params": {"rate_per_s": 40.0, "horizon_s": 1.5}},
    "duration_s": 2.0,
    "bottleneck_mbps": 8.0,
    "num_servers": 2,
}


class TestTraceParamKind:
    def test_generator_spec_coerces_with_defaults(self):
        space = ParamSpace(ParamSpec("trace", kind="trace", default=SPEC))
        resolved = space.resolve({})
        assert resolved["trace"]["params"]["sizes"] == {"dist": "internet_core"}

    def test_bad_specs_raise_param_validation_errors(self):
        space = ParamSpace(ParamSpec("trace", kind="trace", default=SPEC))
        with pytest.raises(ParamValidationError, match="unknown trace generator"):
            space.resolve({"trace": {"generator": "nope"}})
        with pytest.raises(ParamValidationError, match="trace spec"):
            space.resolve({"trace": 42})

    def test_file_spec_same_content_same_key(self, tmp_path):
        a = tmp_path / "a" / "trace.jsonl"
        b = tmp_path / "b" / "copy.jsonl.gz"
        write_trace(str(a), generate_trace(SPEC, 5))
        write_trace(str(b), generate_trace(SPEC, 5))
        key_a = resolve_cell(
            RunSpec("trace_diurnal_load", params={"trace": {"file": str(a)}})
        )[2]
        key_b = resolve_cell(
            RunSpec("trace_diurnal_load", params={"trace": str(b)})
        )[2]
        assert key_a == key_b

    def test_file_spec_changed_content_changes_key(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(str(path), generate_trace(SPEC, 5))
        before = resolve_cell(
            RunSpec("trace_diurnal_load", params={"trace": str(path)})
        )[2]
        write_trace(str(path), generate_trace(SPEC, 6))
        os.utime(path, ns=(2, 2))
        after = resolve_cell(
            RunSpec("trace_diurnal_load", params={"trace": str(path)})
        )[2]
        assert before != after

    def test_file_and_digest_spec_share_a_key(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        digest = write_trace(str(path), generate_trace(SPEC, 5))
        key_file = resolve_cell(
            RunSpec("trace_diurnal_load", params={"trace": str(path)})
        )[2]
        key_digest = resolve_cell(
            RunSpec("trace_diurnal_load", params={"trace": digest.id})
        )[2]
        assert key_file == key_digest

    def test_generator_spec_spelling_cannot_mint_second_key(self):
        spelled = {"generator": "poisson", "params": {"rate_per_s": 60, "horizon_s": 1}}
        key_a = resolve_cell(RunSpec("trace_diurnal_load", params={"trace": SPEC}))[2]
        key_b = resolve_cell(RunSpec("trace_diurnal_load", params={"trace": spelled}))[2]
        assert key_a == key_b

    def test_declared_digest_survives_a_missing_file(self):
        # A distributed worker re-coerces the scheduler-shipped spec on a
        # host where the path does not exist: the declared digest is the
        # content identity and must pass through (open_trace then falls
        # back to the worker's local store) instead of failing the stat.
        from repro.traffic.spec import coerce_trace_spec
        from repro.traffic.generators import TraceSpecError

        digest_id = "sha256:" + "ab" * 32
        spec = {"file": "/not/on/this/host.jsonl", "digest": digest_id}
        assert coerce_trace_spec(spec) == {
            "digest": digest_id, "file": "/not/on/this/host.jsonl",
        }
        # Without a declared digest the stat failure is still an error.
        with pytest.raises(TraceSpecError, match="cannot stat"):
            coerce_trace_spec({"file": "/not/on/this/host.jsonl"})

    def test_cli_points_store_at_cache_dir(self, tmp_path, monkeypatch, capsys):
        # `--cache-dir X trace generate --store` then `--cache-dir X run
        # -p trace=sha256:...` must resolve through X/traces.
        import repro.runner.cli as cli

        monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
        monkeypatch.setattr(cli, "_trace_store_exported", None)
        cache_dir = str(tmp_path / "cache")
        assert cli.main(["--cache-dir", cache_dir, "trace", "generate",
                         "--generator", "poisson", "-p", "horizon_s=1.0",
                         "--store"]) == 0
        stored = os.listdir(os.path.join(cache_dir, "traces"))
        digest_id = "sha256:" + stored[0].split(".")[0]
        code = cli.main(["--cache-dir", cache_dir, "run", "trace_diurnal_load",
                         "-p", f"trace={digest_id}",
                         "-p", "duration_s=2.0", "-p", "num_servers=2"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "flows_replayed" in captured.out
        monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)

    def test_cache_view_keeps_result_params_intact(self, tmp_path):
        # The *key* drops the path, but the resolved params (what the
        # scenario executes with, and what the RunResult records) keep it.
        path = tmp_path / "trace.jsonl"
        write_trace(str(path), generate_trace(SPEC, 5))
        _, params, _ = resolve_cell(
            RunSpec("trace_diurnal_load", params={"trace": str(path)})
        )
        assert params["trace"]["file"] == str(path)
        assert params["trace"]["digest"].startswith("sha256:")


@pytest.mark.distributed
class TestTraceSweepParity:
    """Serial vs process vs distributed replay sweeps share cache records."""

    def _specs(self):
        return [RunSpec("trace_diurnal_load", params=dict(FAST), seed=seed)
                for seed in (1, 2)]

    def test_serial_then_process_is_all_hits(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cold = run_sweep(self._specs(), cache=cache, backend=SerialBackend())
        assert cold.misses == 2
        warm = run_sweep(
            self._specs(), cache=cache, backend=ProcessPoolBackend(2), workers=2
        )
        assert warm.hits == 2 and warm.misses == 0
        for a, b in zip(cold.results, warm.results, strict=True):
            assert a.canonical() == b.canonical()

    def test_distributed_then_serial_is_all_hits(self, tmp_path):
        from repro.runner.distributed import DistributedBackend, LocalSubprocessTransport

        cache = ResultCache(str(tmp_path / "cache"))
        backend = DistributedBackend("localhost:2", LocalSubprocessTransport())
        cold = run_sweep(self._specs(), cache=cache, backend=backend)
        assert cold.misses == 2
        warm = run_sweep(self._specs(), cache=cache, backend=SerialBackend())
        assert warm.hits == 2 and warm.misses == 0
        for a, b in zip(cold.results, warm.results, strict=True):
            assert a.canonical() == b.canonical()

    def test_file_backed_trace_sweep_serves_from_cache(self, tmp_path, monkeypatch):
        # A file-backed cell re-resolved from a *different* path to the
        # same content must be a cache hit (the key is the digest).
        cache = ResultCache(str(tmp_path / "cache"))
        original = tmp_path / "traces" / "original.jsonl"
        write_trace(str(original), generate_trace(SPEC, 9))
        params = dict(FAST, trace=str(original))
        cold = run_sweep([RunSpec("trace_diurnal_load", params=params)],
                         cache=cache, backend=SerialBackend())
        assert cold.misses == 1
        moved = tmp_path / "traces" / "renamed.jsonl"
        shutil.copy(str(original), str(moved))
        params_moved = dict(FAST, trace=str(moved))
        warm = run_sweep([RunSpec("trace_diurnal_load", params=params_moved)],
                         cache=cache, backend=SerialBackend())
        assert warm.hits == 1


class TestGcOrphanTraces:
    def _store_trace(self, cache_dir, seed, *, age_s=0):
        events = list(generate_trace(SPEC, seed))
        from repro.traffic.format import events_digest
        digest = events_digest(iter(events))
        path = store_trace_path(digest.id, cache_dir)
        write_trace(path, iter(events))
        if age_s:
            import time
            old = time.time() - age_s
            os.utime(path, (old, old))
        return digest, path

    def test_orphans_evicted_referenced_kept(self, tmp_path, monkeypatch):
        cache_dir = str(tmp_path / "cache")
        cache = ResultCache(cache_dir)
        referenced, ref_path = self._store_trace(cache_dir, 1, age_s=7 * 86400)
        orphan, orphan_path = self._store_trace(cache_dir, 2, age_s=7 * 86400)
        # A run that references the first trace by digest.  The scenario
        # resolves digest-only specs through the store, which defaults to
        # .repro-cache/traces — point it at this cache via the env override.
        monkeypatch.setenv("REPRO_TRACE_STORE", os.path.join(cache_dir, "traces"))
        params = dict(FAST, trace=referenced.id)
        run_sweep([RunSpec("trace_diurnal_load", params=params)],
                  cache=cache, backend=SerialBackend())
        stats = cache.gc(registry=load_builtin_scenarios())
        assert stats.trace_files_examined == 2
        assert stats.evicted_orphan_traces == 1
        assert os.path.exists(ref_path)
        assert not os.path.exists(orphan_path)

    def test_fresh_orphans_survive_the_grace_period(self, tmp_path):
        # A trace stored moments ago (e.g. `trace generate --store` before
        # the sweep that will reference it) must not be collected.
        cache_dir = str(tmp_path / "cache")
        cache = ResultCache(cache_dir)
        _, fresh_path = self._store_trace(cache_dir, 4)
        stats = cache.gc()
        assert stats.trace_files_examined == 1
        assert stats.evicted_orphan_traces == 0
        assert os.path.exists(fresh_path)
        # An explicit zero grace evicts it.
        stats = cache.gc(trace_grace_s=0)
        assert stats.evicted_orphan_traces == 1
        assert not os.path.exists(fresh_path)

    def test_dry_run_reports_without_deleting(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cache = ResultCache(cache_dir)
        _, orphan_path = self._store_trace(cache_dir, 3, age_s=7 * 86400)
        stats = cache.gc(dry_run=True)
        assert stats.evicted_orphan_traces == 1
        assert os.path.exists(orphan_path)
        assert "1 orphan(s)" in stats.summary()
        stats = cache.gc()
        assert not os.path.exists(orphan_path)

    def test_no_store_dir_is_silent(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        stats = cache.gc()
        assert stats.trace_files_examined == 0
        assert "stored trace" not in stats.summary()
