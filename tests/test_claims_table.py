"""The claims table and its evaluator, without simulating anything.

``benchmarks/test_claims.py`` pins what the table *measures*; this file pins
how a measurement is judged (hand-built ``RunResult`` records in, verdicts
out) and that the table is well-formed against the live scenario registry.
"""

import random
from dataclasses import replace
from math import inf

import pytest

from repro.experiments import claims
from repro.experiments.claims import CLAIMS, Claim, evaluate, validate
from repro.runner.engine import resolve_cell
from repro.runner.result import RunResult
from repro.runner.spec import RunSpec


def _run(figure, pick, seed, **metrics):
    """A record of the cell ``pick`` selects in ``figure``, as the engine keys it."""
    scenario, overrides = claims.pick_cell(figure, pick)
    spec, params, key = resolve_cell(RunSpec(scenario, overrides, seed))
    return RunResult(
        scenario=scenario, params=params, seed=spec.seed, effective_seed=0, key=key,
        metrics=metrics,
    )


SFQ = {"mode": "bundler_sfq"}
STATUS_QUO = {"mode": "status_quo"}


def _value(expect, claim_id="t.value"):
    return Claim(claim_id, "fig09", "a sentence", ("median_slowdown", SFQ), expect)


def _ratio(expect=(-inf, 1)):
    return Claim("t.ratio", "fig09", "a sentence", ("median_slowdown", SFQ), expect,
                 over=("median_slowdown", STATUS_QUO))


def _judged(claim, results):
    [row] = evaluate(results, [claim])
    return row


class TestEvaluate:
    def test_ratio_is_paired_by_seed_and_unpaired_seeds_are_dropped(self):
        results = [_run("fig09", SFQ, seed, median_slowdown=float(seed)) for seed in (1, 2, 3)]
        results += [_run("fig09", STATUS_QUO, seed, median_slowdown=10.0 * seed) for seed in (2, 3, 4)]
        row = _judged(_ratio(), results)
        # Seeds 2 and 3 exist on both sides: 2/20 and 3/30, not 1/20 or a pooled mean.
        assert row.aggregate.n == 2
        assert row.aggregate.mean == pytest.approx(0.1)
        assert row.aggregate.stdev == pytest.approx(0.0)

    def test_one_sample_has_no_interval_and_is_never_weak(self):
        inside = _judged(_value((1.0, 2.0)), [_run("fig09", SFQ, 1, median_slowdown=1.5)])
        outside = _judged(_value((1.0, 2.0)), [_run("fig09", SFQ, 1, median_slowdown=2.5)])
        assert inside.aggregate.ci95 is None and inside.verdict == "reproduces"
        assert outside.verdict == "contradicts"
        assert inside.measured == "1.5 (n=1)"

    @pytest.mark.parametrize("edge", [1.0, 2.0])
    def test_band_edges_are_inclusive(self, edge):
        one = [_run("fig09", SFQ, 1, median_slowdown=edge)]
        three = [_run("fig09", SFQ, seed, median_slowdown=edge) for seed in (1, 2, 3)]
        assert _judged(_value((1.0, 2.0)), one).verdict == "reproduces"
        assert _judged(_value((1.0, 2.0)), three).verdict == "reproduces"

    def test_mean_inside_interval_outside_is_weak(self):
        # Mean 1.5 with a 95% half-width of 4.303 * 0.5 / sqrt(3) = 1.24.
        results = [_run("fig09", SFQ, s, median_slowdown=v) for s, v in ((1, 1.0), (2, 1.5), (3, 2.0))]
        assert _judged(_value((1.0, 2.0)), results).verdict == "weak"
        assert _judged(_value((0.0, 3.0)), results).verdict == "reproduces"
        assert _judged(_value((1.6, 3.0)), results).verdict == "contradicts"

    def test_none_metrics_and_zero_denominators_are_excluded(self):
        numerators = [None, 2.0, 3.0, 4.0]
        denominators = [1.0, 0.0, 6.0, None]
        results = [_run("fig09", SFQ, s, median_slowdown=v) for s, v in enumerate(numerators, 1)]
        results += [_run("fig09", STATUS_QUO, s, median_slowdown=v) for s, v in enumerate(denominators, 1)]
        row = _judged(_ratio(), results)
        assert (row.aggregate.n, row.aggregate.mean) == (1, 0.5)
        assert _judged(_value((0, 10)), results).aggregate.n == 3

    @pytest.mark.parametrize("results", [
        [],
        [_run("fig09", SFQ, 1, median_slowdown=None)],
        [_run("fig09", STATUS_QUO, 1, median_slowdown=1.0)],
    ], ids=["no-results", "metric-none", "other-cell-only"])
    def test_a_row_without_samples_is_an_error_naming_the_row(self, results):
        with pytest.raises(ValueError, match=r"claim 't\.value': no seed yields a sample"):
            evaluate(results, [_value((-inf, inf))])

    def test_zero_denominator_everywhere_is_an_error_not_a_pass(self):
        results = [_run("fig09", SFQ, 1, median_slowdown=1.0),
                   _run("fig09", STATUS_QUO, 1, median_slowdown=0.0)]
        with pytest.raises(ValueError, match=r"claim 't\.ratio'"):
            evaluate(results, [_ratio()])

    def test_a_tuple_of_metrics_is_summed_and_none_in_either_excludes_the_seed(self):
        cell = {"mode": "bundler", "competing_flows": 5}
        claim = Claim("t.sum", "fig12", "a sentence",
                      (("bundle_throughput_mbps", "cross_throughput_mbps"), cell), (16.8, inf))
        row = _judged(claim, [_run("fig12", cell, 1, bundle_throughput_mbps=8.0,
                                   cross_throughput_mbps=9.0)])
        assert (row.aggregate.mean, row.verdict) == (17.0, "reproduces")
        assert "`bundle_throughput_mbps` + `cross_throughput_mbps`" in row.claim.statistic
        with pytest.raises(ValueError, match=r"claim 't\.sum'"):
            evaluate([_run("fig12", cell, 1, bundle_throughput_mbps=8.0,
                           cross_throughput_mbps=None)], [claim])

    def test_boolean_metrics_count_as_zero_or_one(self):
        claim = Claim("t.flag", "fig07", "a sentence", ("detector_triggered", {"num_paths": 2}), (1, 1))
        fired = [_run("fig07", {"num_paths": 2}, seed, detector_triggered=True) for seed in (1, 2, 3)]
        assert _judged(claim, fired).verdict == "reproduces"
        fired[0] = _run("fig07", {"num_paths": 2}, 1, detector_triggered=False)
        assert _judged(claim, fired).verdict == "contradicts"

    def test_rendering_is_deterministic_and_ignores_result_order(self):
        table = [_ratio((0.8, 1.25)), _value((-inf, 1.2))]
        results = [_run("fig09", mode, seed, median_slowdown=base + seed / 10)
                   for mode, base in ((SFQ, 1.4), (STATUS_QUO, 1.9)) for seed in (1, 2, 3)]
        page = claims.render_markdown(evaluate(results, table))
        random.Random(7).shuffle(results)
        assert claims.render_markdown(evaluate(results, table)) == page
        assert "| `t.ratio` | a sentence | `median_slowdown` [mode=bundler_sfq] / " \
               "`median_slowdown` [mode=status_quo] | [0.8, 1.25] | " in page
        assert "| ≤ 1.2 | 1.6 ± 0.25 (n=3) | **contradicts** |" in page


class TestTheLiveTable:
    def test_the_committed_table_is_valid(self):
        validate()

    def test_ids_are_unique(self):
        with pytest.raises(ValueError, match=r"claim 'fig09\.sfq_median': duplicate id"):
            validate(CLAIMS + (next(c for c in CLAIMS if c.id == "fig09.sfq_median"),))

    @pytest.mark.parametrize("grid, complaint", [
        ({"scenario": "fig99_nothing"}, "no scenario named 'fig99_nothing'"),
        ({"scenario": "fig09_slowdown", "base": {"mdoe": "proxy"}}, "unknown parameter"),
        ({"scenario": "fig09_slowdown", "grid": {"mode": ["bundler_sqf"]}}, "is not one of"),
    ], ids=["scenario", "key", "value"])
    def test_every_cell_resolves_through_its_scenario(self, monkeypatch, grid, complaint):
        monkeypatch.setitem(claims.GRIDS, "broken", (grid,))
        claim = Claim("t.broken", "broken", "a sentence", ("median_slowdown", {}), (0, 1))
        with pytest.raises(ValueError, match=rf"claim 't\.broken': .*{complaint}"):
            validate(CLAIMS + (claim,))

    @pytest.mark.parametrize("pick, found", [
        ({"mode": "proxy"}, 0), ({"sendbox_cc": "copa"}, 0), ({}, 4),
    ])
    def test_every_pick_selects_exactly_one_cell(self, pick, found):
        claim = replace(_value((0, 1)), value=("median_slowdown", pick))
        with pytest.raises(ValueError, match=rf"claim 't\.value': pick .* matches {found} cells"):
            validate(CLAIMS + (claim,))

    def test_every_figure_is_in_the_grids(self):
        with pytest.raises(ValueError, match=r"claim 't\.value': .* matches 0 cells of figure 'fig99'"):
            validate(CLAIMS + (replace(_value((0, 1)), figure="fig99"),))

    def test_every_metric_is_declared_by_its_scenario(self):
        claim = replace(_value((0, 1)), value=("median_slodown", SFQ))
        with pytest.raises(ValueError, match=r"claim 't\.value': .*no metric 'median_slodown'"):
            validate(CLAIMS + (claim,))
        summed = replace(_value((0, 1)), value=(("median_slowdown", "nope"), SFQ))
        with pytest.raises(ValueError, match=r"no metric 'nope'"):
            validate(CLAIMS + (summed,))

    def test_every_band_is_ordered(self):
        with pytest.raises(ValueError, match=r"claim 't\.value': empty band"):
            validate(CLAIMS + (_value((2.0, 1.0)),))

    def test_every_paper_scenario_is_judged_by_some_row(self):
        without = tuple(c for c in CLAIMS if c.id != "sec72.priority_favors_high_class")
        with pytest.raises(ValueError, match=r"no claim judges scenario\(s\) \['sec72_priority'\]"):
            validate(without)

    def test_the_sweep_is_each_distinct_run_once(self):
        specs = claims.sweep_specs()
        keys = [resolve_cell(spec)[2] for spec in specs]
        assert len(set(keys)) == len(keys)
        # Seed-insensitive scenarios contribute one run per cell, not one per seed.
        assert sum(1 for spec in specs if spec.scenario == "fig12_elastic_cross") == 4
        assert {spec.seed for spec in specs if spec.scenario == "fig09_slowdown"} == {1, 2, 3}
        with pytest.raises(ValueError):
            claims.sweep_specs(0)
