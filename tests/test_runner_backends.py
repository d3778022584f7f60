"""Backend parity tests: every backend produces byte-identical results.

The ``ExecutionBackend`` protocol promises that a work item's payload
depends only on ``(scenario, params, seed)``.  These tests sweep the same
grid through the serial and process-pool backends and compare the canonical
serializations byte for byte — the acceptance gate for plugging in any
future backend (e.g. a cross-host dispatcher).

The swept scenario is ``ablation_pi_gains``: a built-in (so pool workers
can re-import it), fully deterministic fluid-model scenario that runs in
microseconds — parity is exercised without simulating traffic.
"""

import pytest

from repro.runner.backends import (
    BACKEND_CHOICES,
    ProcessPoolBackend,
    SerialBackend,
    WorkItem,
    execute_item,
    make_backend,
)
from repro.runner.cache import ResultCache
from repro.runner.engine import ResultKeyMismatch, run_sweep
from repro.runner.params import ParamSpec, ParamSpace
from repro.runner.registry import ScenarioRegistry, load_builtin_scenarios
from repro.runner.spec import RunSpec, SweepSpec


def _grid_specs():
    sweep = SweepSpec(
        scenario="ablation_pi_gains",
        grid={"alpha": [5.0, 10.0], "beta": [5.0, 10.0]},
        seeds=(1,),
    )
    return sweep.expand()


class TestMakeBackend:
    def test_names(self):
        assert make_backend("serial").name == "serial"
        assert make_backend("process", workers=3).name == "process"
        assert make_backend("process", workers=3).workers == 3
        assert make_backend("auto", workers=1).name == "serial"
        assert make_backend("auto", workers=4).name == "process"
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("carrier-pigeon")
        assert set(BACKEND_CHOICES) == {"auto", "serial", "process", "distributed"}

    def test_distributed_name(self):
        backend = make_backend("distributed", hosts="localhost:2")
        assert backend.name == "distributed"
        assert backend.workers == 2
        # Without a host spec, all slots land on this machine.
        assert make_backend("distributed", workers=3).workers == 3
        with pytest.raises(ValueError, match="only applies to the distributed"):
            make_backend("process", hosts="localhost:2")


class TestExecuteItem:
    def test_success_payload(self):
        load_builtin_scenarios()
        outcome = execute_item(
            WorkItem(index=7, scenario="ablation_pi_gains", params={}, seed=0)
        )
        assert outcome.index == 7
        assert outcome.error is None
        assert outcome.payload["scenario"] == "ablation_pi_gains"
        assert "settle_time_s" in outcome.payload["metrics"]

    def test_failure_travels_as_data(self):
        registry = ScenarioRegistry()

        @registry.register("boom", params=ParamSpace())
        def _boom(*, seed):
            raise RuntimeError("kaboom")

        outcome = execute_item(
            WorkItem(index=0, scenario="boom", params={}, seed=1), registry
        )
        assert outcome.payload is None
        assert "kaboom" in outcome.error


class TestBackendParity:
    def test_serial_and_process_byte_identical(self, tmp_path):
        specs = _grid_specs()
        serial = run_sweep(
            specs, cache=ResultCache(str(tmp_path / "ser")), backend="serial"
        )
        parallel = run_sweep(
            specs,
            workers=2,
            cache=ResultCache(str(tmp_path / "par")),
            backend="process",
        )
        assert serial.backend == "serial"
        assert parallel.backend == "process"
        assert len(serial.results) == len(parallel.results) == 4
        assert [r.canonical() for r in serial.results] == [
            r.canonical() for r in parallel.results
        ]

    def test_backend_instance_accepted(self, tmp_path):
        specs = _grid_specs()
        outcome = run_sweep(
            specs, cache=ResultCache(str(tmp_path / "c")), backend=SerialBackend()
        )
        assert outcome.backend == "serial"
        assert outcome.workers == 1

    def test_explicit_serial_reports_one_worker(self, tmp_path):
        outcome = run_sweep(
            _grid_specs(),
            workers=8,
            cache=ResultCache(str(tmp_path / "c")),
            backend="serial",
        )
        assert outcome.workers == 1

    def test_process_backend_small_batch_degrades_in_process(self, tmp_path):
        # One pending cell: the pool must not spawn for it, and the result
        # is still correct.
        outcome = run_sweep(
            [RunSpec("ablation_pi_gains", seed=1)],
            workers=4,
            cache=ResultCache(str(tmp_path / "c")),
            backend=ProcessPoolBackend(4),
        )
        assert outcome.misses == 1
        assert outcome.results[0].metrics["settled"] is True

    def test_custom_registry_forces_serial_fallback(self, tmp_path):
        registry = ScenarioRegistry()
        calls = []

        @registry.register("toy", params=ParamSpace(ParamSpec("x", kind="int", default=1)))
        def _toy(*, seed, x):
            calls.append(x)
            return {"x": x}

        outcome = run_sweep(
            [RunSpec("toy", {"x": x}) for x in (1, 2, 3)],
            workers=3,
            cache=ResultCache(str(tmp_path / "c")),
            registry=registry,
            backend="process",
        )
        assert calls == [1, 2, 3]
        assert outcome.backend == "serial"
        assert outcome.workers == 1

    def test_auto_matches_legacy_worker_heuristic(self, tmp_path):
        specs = _grid_specs()
        auto = run_sweep(
            specs, workers=2, cache=ResultCache(str(tmp_path / "a")), backend="auto"
        )
        assert auto.backend == "process"
        default = run_sweep(specs, workers=2, cache=ResultCache(str(tmp_path / "b")))
        assert default.backend == "process"
        assert [r.canonical() for r in auto.results] == [
            r.canonical() for r in default.results
        ]


class _SkewedBackend(SerialBackend):
    """Executes every item as if an older revision of the scenario ran it."""

    def execute(self, items, *, registry=None, on_outcome=None):
        def skew_last(outcome):
            if outcome.index == items[-1].index:
                outcome.payload.update(key="0" * 64, scenario_version=0)
            on_outcome(outcome)

        return super().execute(items, registry=registry, on_outcome=skew_last)


class TestForeignResults:
    def test_result_keyed_for_another_cell_is_refused_not_cached(self, tmp_path):
        # A version-skewed worker computes under its own registry, so its
        # payload carries its own run key: the engine must refuse it (typed,
        # naming both keys) instead of filing it as this sweep's result.
        specs = _grid_specs()
        cache = ResultCache(str(tmp_path / "c"))
        with pytest.raises(ResultKeyMismatch, match=f"expected [0-9a-f]{{64}}, got {'0' * 64}"):
            run_sweep(specs, cache=cache, backend=_SkewedBackend())
        assert cache.get("0" * 64) is None
        # The cells that came back right were cached; only the skewed one reruns.
        rerun = run_sweep(specs, cache=cache, backend="serial")
        assert (rerun.hits, rerun.misses) == (len(specs) - 1, 1)


class TestFallbackReporting:
    def test_fallback_reporting_depends_on_whether_cells_executed(self, tmp_path):
        # The serial fallback must only be *reported* when it actually
        # executed cells; a fully cache-served sweep still "ran with" the
        # requested backend and concurrency.
        registry = ScenarioRegistry()

        @registry.register("toy", params=ParamSpace(ParamSpec("x", kind="int", default=1)))
        def _toy(*, seed, x):
            return {"x": x}

        cache = ResultCache(str(tmp_path / "c"))
        specs = [RunSpec("toy", {"x": x}) for x in (1, 2)]
        cold = run_sweep(
            specs, cache=cache, registry=registry, backend=ProcessPoolBackend(4)
        )
        assert cold.misses == 2
        assert cold.workers == 1 and cold.backend == "serial"  # fallback executed
        warm = run_sweep(
            specs, cache=cache, registry=registry, backend=ProcessPoolBackend(4)
        )
        assert warm.hits == 2 and warm.misses == 0
        assert warm.workers == 4
        assert warm.backend == "process"
