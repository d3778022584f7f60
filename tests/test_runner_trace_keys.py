"""Trace specs in the runner: digest-addressed keys, backend parity.

The acceptance gates of the trace subsystem's runner plumbing:

* identical trace **content** yields identical cache keys, whatever path
  the file lives at;
* a trace is named by generator spec or by file, never by digest alone —
  and a worker that lacks the file still derives the scheduler's key, so
  the failure is the typed missing-file error, not a key mismatch;
* serial, process-pool, and distributed replay sweeps are byte-for-byte
  cache-compatible (the same contract every other scenario enjoys).
"""

import os
import shutil

import pytest

from repro.runner.backends import ProcessPoolBackend, SerialBackend, WorkItem, execute_item
from repro.runner.cache import ResultCache
from repro.runner.engine import resolve_cell, run_sweep
from repro.runner.params import ParamSpace, ParamSpec, ParamValidationError
from repro.runner.spec import RunSpec
from repro.traffic.format import write_trace
from repro.traffic.generators import TraceSpecError, generate_trace
from repro.traffic.spec import coerce_trace_spec, open_trace

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

    @pytest.mark.parametrize("shape", ["object", "string"])
    def test_digest_alone_is_refused_naming_the_file_shape(self, tmp_path, shape):
        # Nothing resolves a trace from its digest: both spellings of the
        # old store spec are spec errors that say what to pass instead.
        path = tmp_path / "trace.jsonl"
        digest = write_trace(str(path), generate_trace(SPEC, 5))
        spec = {"digest": digest.id} if shape == "object" else digest.id
        with pytest.raises(TraceSpecError, match=r'by digest alone.*\{"file": PATH\}'):
            coerce_trace_spec(spec)
        with pytest.raises(ParamValidationError, match="by digest alone"):
            resolve_cell(RunSpec("trace_diurnal_load", params={"trace": spec}))

    def test_generator_spec_spelling_cannot_mint_second_key(self):
        spelled = {"generator": "poisson", "params": {"rate_per_s": 60, "horizon_s": 1}}
        key_a = resolve_cell(RunSpec("trace_diurnal_load", params={"trace": SPEC}))[2]
        key_b = resolve_cell(RunSpec("trace_diurnal_load", params={"trace": spelled}))[2]
        assert key_a == key_b

    def test_declared_digest_survives_a_missing_file(self, tmp_path):
        # A distributed worker re-coerces the scheduler-shipped spec on a
        # host where the path does not exist: the declared digest is the
        # content identity and must pass through instead of failing the
        # stat, so the worker derives the scheduler's key ...
        path = tmp_path / "trace.jsonl"
        write_trace(str(path), generate_trace(SPEC, 5))
        _, shipped, scheduler_key = resolve_cell(
            RunSpec("trace_diurnal_load", params={"trace": str(path)})
        )
        os.unlink(path)
        assert coerce_trace_spec(shipped["trace"]) == shipped["trace"]
        _, _, worker_key = resolve_cell(RunSpec("trace_diurnal_load", params=shipped))
        assert worker_key == scheduler_key
        # ... and the cell fails with the typed error that names the file
        # and its digest, not with a ResultKeyMismatch.
        with pytest.raises(TraceSpecError, match="not found on this host") as excinfo:
            open_trace(shipped["trace"])
        assert str(path) in str(excinfo.value)
        assert shipped["trace"]["digest"] in str(excinfo.value)
        outcome = execute_item(WorkItem(0, "trace_diurnal_load", shipped, seed=0))
        assert "TraceSpecError" in outcome.error and "KeyMismatch" not in outcome.error
        # Without a declared digest the stat failure is still an error.
        with pytest.raises(TraceSpecError, match="cannot stat"):
            coerce_trace_spec({"file": str(path)})

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
