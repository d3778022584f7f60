"""Telemetry is about the run, never part of it — the parity proofs.

Three invariants, each load-bearing for the cache and backend contracts:

* **on/off byte parity** — a run with the observability layer enabled
  produces byte-for-byte the same canonical result (and the same cache
  key) as the identical run with ``REPRO_OBS=0``;
* **envelope-only persistence** — the cache stores telemetry beside the
  ``result`` payload, never inside it, and re-attaches it on read;
* **backend parity** — serial, process-pool, and distributed execution
  of the same cell produce identical result bytes *and* identical
  deterministic telemetry counters (wall-clock fields excepted), because
  event counts depend only on ``(scenario, params, seed)``.
"""

import json
import re

import pytest

from repro.obs import OBS_ENV
from repro.runner.backends import SerialBackend, execute_item, make_backend
from repro.runner.cache import ResultCache
from repro.runner.engine import execute_run, run_sweep
from repro.runner.registry import load_builtin_scenarios
from repro.runner.spec import RunSpec

#: A sub-second real cell: real links, qdiscs, sendbox, TCP machinery.
CHEAP = RunSpec("fig13_competing_bundles", {"duration_s": 1}, seed=1)


def _deterministic_counters(telemetry):
    """The counter snapshot minus its wall-clock (host-dependent) fields."""
    counters = dict(telemetry["counters"])
    counters.pop("run_wall_s", None)
    return counters


class TestOnOffParity:
    def test_result_bytes_and_key_identical_with_layer_off(self, monkeypatch):
        registry = load_builtin_scenarios()
        on = execute_run(CHEAP, registry=registry)
        monkeypatch.setenv(OBS_ENV, "0")
        off = execute_run(CHEAP, registry=registry)
        assert on.telemetry and not off.telemetry
        assert on.key == off.key
        assert on.canonical() == off.canonical()
        assert on == off  # telemetry is compare=False

    def test_payload_never_contains_telemetry(self):
        result = execute_run(CHEAP, registry=load_builtin_scenarios())
        assert result.telemetry
        assert "telemetry" not in result.to_payload()


class TestCacheEnvelope:
    def test_record_carries_telemetry_beside_result_not_inside(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = execute_run(CHEAP, registry=load_builtin_scenarios())
        cache.put(result, elapsed_s=0.5)
        raw = json.loads((tmp_path / f"{result.key}.json").read_text())
        assert "telemetry" in raw
        assert "telemetry" not in raw["result"]
        assert raw["telemetry"]["events_processed"] == result.telemetry["events_processed"]

    def test_get_reattaches_envelope_telemetry(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = execute_run(CHEAP, registry=load_builtin_scenarios())
        cache.put(result, elapsed_s=0.5)
        loaded = cache.get(result.key)
        assert loaded == result
        assert loaded.telemetry == result.telemetry

    def test_iter_results_reattaches_envelope_telemetry(self, tmp_path):
        # ``report --telemetry`` reads runs through iter_results/by_scenario,
        # not get(): both load paths must restore the envelope.
        cache = ResultCache(tmp_path)
        result = execute_run(CHEAP, registry=load_builtin_scenarios())
        cache.put(result, elapsed_s=0.5)
        [loaded] = list(cache.iter_results())
        assert loaded.telemetry == result.telemetry
        grouped = cache.by_scenario()
        assert grouped[CHEAP.scenario][0].telemetry == result.telemetry

    def test_disabled_run_writes_no_envelope_field(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OBS_ENV, "0")
        cache = ResultCache(tmp_path)
        result = execute_run(CHEAP, registry=load_builtin_scenarios())
        cache.put(result, elapsed_s=0.5)
        raw = json.loads((tmp_path / f"{result.key}.json").read_text())
        assert "telemetry" not in raw
        assert cache.get(result.key).telemetry == {}

    def test_manifest_surfaces_headline_numbers(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = execute_run(CHEAP, registry=load_builtin_scenarios())
        cache.put(result, elapsed_s=0.5)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        entry = manifest["records"][result.key]
        assert entry["events_processed"] == result.telemetry["events_processed"]
        assert entry["events_per_sec"] == result.telemetry["events_per_sec"]


class TestBackendParity:
    def _sweep(self, tmp_path, name, backend, specs):
        return run_sweep(
            specs,
            cache=ResultCache(tmp_path / name),
            backend=backend,
            workers=2,
        )

    def test_serial_equals_process_including_telemetry(self, tmp_path):
        specs = [
            RunSpec("fig13_competing_bundles", {"duration_s": 1}, seed=s)
            for s in (1, 2)
        ]
        serial = self._sweep(tmp_path, "serial", "serial", specs)
        process = self._sweep(tmp_path, "process", "process", specs)
        for ours, theirs in zip(serial.results, process.results, strict=True):
            assert ours.canonical() == theirs.canonical()
            assert ours.telemetry["events_processed"] == theirs.telemetry["events_processed"]
            assert _deterministic_counters(ours.telemetry) == _deterministic_counters(
                theirs.telemetry
            )

    @pytest.mark.distributed
    def test_distributed_ships_telemetry_home(self, tmp_path):
        serial = self._sweep(tmp_path, "serial", "serial", [CHEAP])
        distributed = self._sweep(
            tmp_path, "dist", make_backend("distributed", workers=2), [CHEAP]
        )
        ours, theirs = serial.results[0], distributed.results[0]
        assert ours.canonical() == theirs.canonical()
        assert theirs.telemetry, "worker telemetry did not cross the wire"
        assert ours.telemetry["events_processed"] == theirs.telemetry["events_processed"]
        assert _deterministic_counters(ours.telemetry) == _deterministic_counters(
            theirs.telemetry
        )

    def test_work_outcome_carries_telemetry_beside_payload(self):
        from repro.runner.backends import WorkItem

        outcome = execute_item(
            WorkItem(index=0, scenario=CHEAP.scenario, params=CHEAP.params, seed=1),
            load_builtin_scenarios(),
        )
        assert outcome.error is None
        assert outcome.telemetry
        assert "telemetry" not in outcome.payload


class _StatsBackend:
    """Serial execution plus a ``telemetry()`` hook the engine must read
    even when every cell was served from cache (regression: the engine
    used to skip it on fully-warm sweeps)."""

    name = "stats"
    workers = 1
    needs_builtin_registry = False

    def __init__(self):
        self.telemetry_calls = 0

    def telemetry(self):
        self.telemetry_calls += 1
        return {"probes": self.telemetry_calls}

    def execute(self, items, *, registry=None, on_outcome=None):
        return SerialBackend().execute(items, registry=registry, on_outcome=on_outcome)


class TestSweepTelemetry:
    def test_fully_warm_sweep_still_reports_worker_stats(self, tmp_path):
        backend = _StatsBackend()
        cache = ResultCache(tmp_path)
        registry = load_builtin_scenarios()
        cold = run_sweep([CHEAP], cache=cache, backend=backend, registry=registry)
        assert cold.worker_stats == {"probes": 1}
        warm = run_sweep([CHEAP], cache=cache, backend=backend, registry=registry)
        assert warm.hits == 1 and warm.misses == 0
        assert warm.worker_stats == {"probes": 2}

    def test_summary_appends_throughput_context(self, tmp_path):
        outcome = run_sweep(
            [CHEAP], cache=ResultCache(tmp_path), registry=load_builtin_scenarios()
        )
        summary = outcome.summary()
        assert "cells/s" in summary
        assert "events/s" in summary
        assert outcome.events_processed > 0
        assert outcome.events_per_sec > 0
        # The CI smoke job greps these patterns out of the summary line —
        # the throughput suffix must not break them.
        assert re.search(r"[0-9]+% cache hits", summary)
        assert re.search(r"[0-9]+ executed", summary)

    def test_cached_cells_do_not_count_as_executed_events(self, tmp_path):
        cache = ResultCache(tmp_path)
        registry = load_builtin_scenarios()
        run_sweep([CHEAP], cache=cache, registry=registry)
        warm = run_sweep([CHEAP], cache=cache, registry=registry)
        assert warm.events_processed == 0
        assert "events/s" not in warm.summary()
