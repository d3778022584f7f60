"""Tests for cross-seed aggregation of run results."""

import math

import pytest

from repro.runner.aggregate import (
    MetricAggregate,
    aggregate_outcome,
    aggregate_results,
    find_cell,
    find_cells,
    t95,
)
from repro.runner.cache import ResultCache
from repro.runner.engine import run_sweep
from repro.runner.params import ParamSpec, ParamSpace
from repro.runner.registry import ScenarioRegistry
from repro.runner.result import RunResult, run_key
from repro.runner.spec import RunSpec


def _result(scenario="toy", seed=1, params=None, metrics=None):
    params = params if params is not None else {"x": 1}
    return RunResult(
        scenario=scenario,
        params=params,
        seed=seed,
        effective_seed=seed * 100,
        key=run_key(scenario, params, seed, version=1),
        metrics=metrics if metrics is not None else {"value": float(seed)},
    )


class TestMetricAggregate:
    def test_single_sample_has_no_spread(self):
        agg = MetricAggregate.from_samples([3.0])
        assert agg.n == 1
        assert agg.mean == 3.0
        assert agg.stdev is None and agg.ci95 is None
        assert agg.describe() == "3"

    def test_mean_stdev_ci(self):
        # Samples 1..5: mean 3, sample stdev sqrt(2.5).
        agg = MetricAggregate.from_samples([1.0, 2.0, 3.0, 4.0, 5.0])
        assert agg.n == 5
        assert agg.mean == pytest.approx(3.0)
        assert agg.stdev == pytest.approx(math.sqrt(2.5))
        # CI half-width: t(4 df) * stdev / sqrt(5).
        assert agg.ci95 == pytest.approx(2.776 * math.sqrt(2.5) / math.sqrt(5))
        assert "±" in agg.describe()

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            MetricAggregate.from_samples([])

    def test_t_table(self):
        assert t95(1) == pytest.approx(12.706)
        assert t95(4) == pytest.approx(2.776)
        # Between and beyond the rows: the largest tabulated df <= the
        # requested one, i.e. never a narrower interval than the true value
        # (t(22) = 2.074, t(31) = 2.040).
        assert t95(22) == pytest.approx(2.086)
        assert t95(29) == pytest.approx(2.060)
        assert t95(31) == pytest.approx(2.042)
        assert t95(1000) == pytest.approx(2.042)
        with pytest.raises(ValueError):
            t95(0)


class TestAggregateResults:
    def test_groups_by_params_minus_seed(self):
        results = [
            _result(seed=s, params={"x": x}, metrics={"value": float(s * x)})
            for x in (1, 2)
            for s in (1, 2, 3)
        ]
        cells = aggregate_results(results)
        assert len(cells) == 2
        by_x = {c.params["x"]: c for c in cells}
        assert by_x[1].seeds == (1, 2, 3)
        assert by_x[1].n == 3
        assert by_x[1].mean("value") == pytest.approx(2.0)
        assert by_x[2].mean("value") == pytest.approx(4.0)
        assert by_x[2].metric("value").ci95 is not None

    def test_scenarios_do_not_mix(self):
        cells = aggregate_results([_result("a"), _result("b")])
        assert [c.scenario for c in cells] == ["a", "b"]

    def test_duplicate_records_collapse(self):
        # The same (scenario, params, seed) read twice must count once.
        results = [_result(seed=1), _result(seed=1), _result(seed=2)]
        [cell] = aggregate_results(results)
        assert cell.seeds == (1, 2)
        assert cell.metric("value").n == 2

    def test_none_metrics_excluded_per_metric(self):
        results = [
            _result(seed=1, metrics={"a": 1.0, "b": None}),
            _result(seed=2, metrics={"a": 3.0, "b": 5.0}),
        ]
        [cell] = aggregate_results(results)
        assert cell.metric("a").n == 2
        assert cell.metric("b").n == 1
        assert cell.mean("b") == 5.0

    def test_non_numeric_metrics_skipped_bools_counted(self):
        results = [
            _result(seed=1, metrics={"flag": True, "mode": "competitive"}),
            _result(seed=2, metrics={"flag": False, "mode": "delay"}),
        ]
        [cell] = aggregate_results(results)
        assert cell.mean("flag") == pytest.approx(0.5)
        assert "mode" not in cell.metrics
        assert cell.get("mode") is None

    def test_metric_lookup_errors_name_the_cell(self):
        [cell] = aggregate_results([_result()])
        with pytest.raises(KeyError, match="no aggregated metric"):
            cell.metric("missing")


class TestFindCells:
    def _cells(self):
        return aggregate_results(
            [_result(params={"x": x, "y": "a"}, seed=s) for x in (1, 2) for s in (1, 2)]
        )

    def test_find_by_params(self):
        cells = self._cells()
        assert len(find_cells(cells, y="a")) == 2
        assert find_cell(cells, x=1).params["x"] == 1

    def test_find_cell_requires_unique_match(self):
        cells = self._cells()
        with pytest.raises(LookupError, match="found 2"):
            find_cell(cells, y="a")
        with pytest.raises(LookupError, match="found 0"):
            find_cell(cells, x=99)

    def test_find_by_scenario(self):
        cells = aggregate_results([_result("a"), _result("b")])
        assert find_cell(cells, scenario="a").scenario == "a"


class TestSweepIntegration:
    def _registry(self, seed_sensitive=True):
        registry = ScenarioRegistry()

        @registry.register(
            "toy",
            params=ParamSpace(ParamSpec("x", kind="int", default=1)),
            seed_sensitive=seed_sensitive,
        )
        def _toy(*, seed, x):
            return {"value": float(x * 10 + (seed % 7))}

        return registry

    def test_aggregate_outcome_across_seeds(self, tmp_path):
        registry = self._registry()
        outcome = run_sweep(
            [RunSpec("toy", {"x": x}, seed=s) for x in (1, 2) for s in (1, 2, 3)],
            cache=ResultCache(str(tmp_path / "cache")),
            registry=registry,
        )
        cells = aggregate_outcome(outcome)
        assert len(cells) == 2
        assert all(c.n == 3 for c in cells)

    def test_seed_insensitive_scenario_collapses_to_n1(self, tmp_path):
        # The engine normalizes all seeds of a deterministic scenario to 0,
        # so the aggregate sees one run and reports no spread.
        registry = self._registry(seed_sensitive=False)
        outcome = run_sweep(
            [RunSpec("toy", seed=s) for s in (1, 2, 3)],
            cache=ResultCache(str(tmp_path / "cache")),
            registry=registry,
        )
        [cell] = aggregate_outcome(outcome)
        assert cell.seeds == (0,)
        assert cell.n == 1
        assert cell.metric("value").ci95 is None
