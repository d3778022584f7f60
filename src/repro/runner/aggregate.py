"""Cross-seed aggregation of cached run results.

The paper's figures are statistics over many seeded runs of the same
configuration; this module turns a pile of :class:`~repro.runner.result.
RunResult` records into per-configuration statistics.  Results are grouped
by ``(scenario, params)`` — the seed is a separate field of the record, so
"params minus seed" is exactly the record's ``params`` — and every numeric
metric gets a mean, a sample standard deviation, and a 95% confidence
interval across the seeds of the group.

Seed-insensitive scenarios need no special casing: the engine normalizes
their seeds to 0 before caching, so all their runs of one parameter cell
share a single record and the group has ``n == 1`` (with no spread to
report).

The layer is exposed three ways: as a library API (:func:`aggregate_results`
/ :func:`aggregate_outcome`), through ``repro-runner report --aggregate``,
and via :func:`repro.metrics.reporting.format_aggregate_cells` for
rendering.  :mod:`repro.experiments.claims` judges the paper's claims with
the same :class:`MetricAggregate` statistics over per-seed ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.runner.result import RunResult
from repro.util.canonical import canonical_json

#: Two-sided 95% critical values of Student's t distribution by degrees of
#: freedom.  Sample counts here are tiny (a handful of seeds), where the
#: normal approximation badly understates the interval.
_T95: Dict[int, float] = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
    16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    25: 2.060, 30: 2.042,
}


def t95(df: int) -> float:
    """Two-sided 95% t critical value for ``df`` degrees of freedom.

    Between and beyond the tabulated rows this is the value of the largest
    tabulated df not above ``df`` — t shrinks as df grows, so the interval
    errs wide, never narrow (claim verdicts rest on "interval inside band").
    """
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if df in _T95:
        return _T95[df]
    return _T95[max(bound for bound in _T95 if bound < df)]


@dataclass(frozen=True)
class MetricAggregate:
    """Mean / spread of one metric across the seeds of one parameter cell.

    ``n`` counts the runs that reported a numeric value for the metric
    (``None`` values — e.g. an empty size bucket — are excluded).  ``stdev``
    and ``ci95`` (the half-width of the 95% confidence interval of the mean)
    are ``None`` when fewer than two samples exist: a single run has no
    measurable spread.
    """

    n: int
    mean: float
    stdev: Optional[float]
    ci95: Optional[float]

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "MetricAggregate":
        values = [float(v) for v in samples]
        if not values:
            raise ValueError("cannot aggregate zero samples")
        n = len(values)
        mean = sum(values) / n
        if n < 2:
            return cls(n=n, mean=mean, stdev=None, ci95=None)
        variance = sum((v - mean) ** 2 for v in values) / (n - 1)
        stdev = math.sqrt(variance)
        ci95 = t95(n - 1) * stdev / math.sqrt(n)
        return cls(n=n, mean=mean, stdev=stdev, ci95=ci95)

    def describe(self) -> str:
        if self.ci95 is None:
            return f"{self.mean:.4g}"
        return f"{self.mean:.4g} ± {self.ci95:.2g}"


@dataclass
class AggregateCell:
    """All seeds of one ``(scenario, params)`` configuration, aggregated."""

    scenario: str
    params: Mapping[str, Any]
    seeds: Tuple[int, ...]
    metrics: Dict[str, MetricAggregate]

    @property
    def n(self) -> int:
        """Number of runs (seeds) aggregated into this cell."""
        return len(self.seeds)

    def metric(self, name: str) -> MetricAggregate:
        try:
            return self.metrics[name]
        except KeyError:
            raise KeyError(
                f"cell {self.scenario}{dict(self.params)} has no aggregated metric "
                f"{name!r}; available: {sorted(self.metrics)}"
            ) from None

    def mean(self, name: str) -> float:
        return self.metric(name).mean

    def get(self, name: str) -> Optional[float]:
        """Mean of ``name``, or ``None`` if no run reported a numeric value."""
        agg = self.metrics.get(name)
        return agg.mean if agg is not None else None

    def matches(self, **params: Any) -> bool:
        """True when every given key/value equals this cell's parameter."""
        return all(self.params.get(k) == v for k, v in params.items())


def numeric(value: Any) -> Optional[float]:
    """Coerce a metric value for aggregation: numbers (bools count as 0/1)
    pass through; ``None`` and non-numeric values (strings, lists) do not."""
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)) and not (
        isinstance(value, float) and math.isnan(value)
    ):
        return float(value)
    return None


def aggregate_results(results: Iterable[RunResult]) -> List[AggregateCell]:
    """Group results by (scenario, params) and aggregate metrics across seeds.

    Duplicate ``(scenario, params, seed)`` records (e.g. the same cell read
    twice) collapse to one sample so repeats cannot skew the mean.  Cells are
    returned sorted by scenario name, then by canonical parameter JSON.
    """
    groups: Dict[Tuple[str, str], Dict[int, RunResult]] = {}
    params_of: Dict[Tuple[str, str], Mapping[str, Any]] = {}
    for result in results:
        key = (result.scenario, canonical_json(result.params))
        groups.setdefault(key, {})[result.seed] = result
        params_of[key] = result.params

    cells: List[AggregateCell] = []
    for key in sorted(groups):
        scenario, _ = key
        by_seed = groups[key]
        seeds = tuple(sorted(by_seed))
        samples: Dict[str, List[float]] = {}
        for seed in seeds:
            for name, value in by_seed[seed].metrics.items():
                sample = numeric(value)
                if sample is not None:
                    samples.setdefault(name, []).append(sample)
        metrics = {
            name: MetricAggregate.from_samples(values)
            for name, values in samples.items()
        }
        cells.append(
            AggregateCell(
                scenario=scenario, params=params_of[key], seeds=seeds, metrics=metrics
            )
        )
    return cells


def aggregate_outcome(outcome) -> List[AggregateCell]:
    """Aggregate a :class:`~repro.runner.engine.SweepOutcome`'s results."""
    return aggregate_results(outcome.results)


def find_cells(
    cells: Iterable[AggregateCell], scenario: Optional[str] = None, **params: Any
) -> List[AggregateCell]:
    """Cells matching a scenario name and/or parameter values."""
    return [
        c
        for c in cells
        if (scenario is None or c.scenario == scenario) and c.matches(**params)
    ]


def find_cell(
    cells: Iterable[AggregateCell], scenario: Optional[str] = None, **params: Any
) -> AggregateCell:
    """The single cell matching the filter; raises if zero or several match."""
    matched = find_cells(cells, scenario=scenario, **params)
    if len(matched) != 1:
        criteria = {**({"scenario": scenario} if scenario else {}), **params}
        raise LookupError(f"expected exactly one cell matching {criteria}, found {len(matched)}")
    return matched[0]
