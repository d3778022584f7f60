"""Schema-driven exports: CSV / JSONL / plot-ready long-format tables.

The aggregation layer produces in-memory cells; this module turns runs and
cells into *long-format* tables — one row per (configuration, metric) —
the shape pandas/seaborn consume directly (``hue="mode"``,
``col="metric"``) with no hand-editing.  Each row carries the metric's
``unit`` and ``direction`` from the scenario's :class:`MetricSchema`, so a
column of numbers is never separated from what it measures.

Row layout (fixed columns first, then one column per parameter):

* runs — ``scenario, seed, <params...>, metric, unit, direction, value``
* aggregates — ``scenario, <params...>, n, metric, unit, direction,
  mean, stdev, ci95``

Parameter columns are the sorted union across all exported rows; scenarios
that lack a parameter leave the cell empty (CSV) / ``null`` (JSONL).  List
values are embedded as canonical JSON strings so a CSV cell stays one cell.

Everything is exposed through :class:`LongTable` (``to_csv`` / ``to_jsonl``)
and wired into ``repro-runner report --format {csv,jsonl}``.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.util.canonical import canonical_json

#: Leading columns of a per-run long row, before the parameter columns.
RUN_HEAD = ("scenario", "seed")
#: Trailing columns of a per-run long row.
RUN_TAIL = ("metric", "unit", "direction", "value")

#: Leading / trailing columns of an aggregate long row.
AGGREGATE_HEAD = ("scenario",)
AGGREGATE_TAIL = ("n", "metric", "unit", "direction", "mean", "stdev", "ci95")

#: Formats accepted by ``repro-runner report --format``.
EXPORT_FORMATS = ("table", "csv", "jsonl")

#: Leading / trailing columns of a probe time-series long row
#: (``report --timeseries``).
TIMESERIES_HEAD = ("scenario", "seed")
TIMESERIES_TAIL = ("sim", "series", "unit", "kind", "t", "value")

#: Headline telemetry fields exported per run by ``--telemetry``: row
#: metric name → (telemetry dict key, unit).  Execution accounting, so
#: every row carries ``direction: "info"`` — these are measurements *about*
#: the run (see :mod:`repro.obs`), never paper metrics.
TELEMETRY_EXPORT_FIELDS = (
    ("telemetry_events", "events_processed", "events"),
    ("telemetry_events_per_sec", "events_per_sec", "events/s"),
    ("telemetry_wall_s", "wall_s", "s"),
    ("telemetry_sim_time_s", "sim_time_s", "s"),
    ("telemetry_speedup", "speedup", "x"),
)


def _cell_text(value: Any) -> str:
    """CSV rendering of one cell: containers as canonical JSON, None empty."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple, dict)):
        return canonical_json(value)
    return str(value)


@dataclass
class LongTable:
    """An ordered long-format table with CSV and JSONL serializations."""

    columns: List[str]
    rows: List[Dict[str, Any]]

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_cell_text(row.get(column)) for column in self.columns])
        return buffer.getvalue()

    def to_jsonl(self) -> str:
        lines = []
        for row in self.rows:
            ordered = {column: row.get(column) for column in self.columns}
            lines.append(json.dumps(ordered, sort_keys=False, allow_nan=False))
        return "\n".join(lines) + ("\n" if lines else "")

    def __len__(self) -> int:
        return len(self.rows)


def _schema_for(scenario: str, registry) -> Optional[Any]:
    """The scenario's metric schema, if the registry knows the scenario."""
    if registry is None or scenario not in registry:
        return None
    return registry.get(scenario).metrics


def _metric_annotations(schema, name: str) -> Dict[str, str]:
    spec = schema.spec_for(name) if schema is not None else None
    if spec is None:
        return {"unit": "", "direction": "info"}
    return {"unit": spec.unit, "direction": spec.direction}


def _metric_order(schema, metrics) -> List[str]:
    if schema is not None:
        return schema.column_order(metrics)
    return sorted(metrics)


def _assemble(
    head: Sequence[str], param_names: Iterable[str], tail: Sequence[str]
) -> List[str]:
    params = sorted(set(param_names))
    collisions = [p for p in params if p in head or p in tail]
    if collisions:
        raise ValueError(
            f"parameter name(s) {collisions} collide with fixed export columns"
        )
    return [*head, *params, *tail]


def runs_long_table(
    results, *, registry: Optional[Any] = None, telemetry: bool = False
) -> LongTable:
    """One row per (run, metric) across ``results``.

    ``registry`` (e.g. :func:`repro.runner.registry.load_builtin_scenarios`)
    supplies metric schemas for unit/direction annotations and column
    ordering; unknown scenarios export with empty units.  ``telemetry``
    additionally emits the run's headline execution accounting
    (:data:`TELEMETRY_EXPORT_FIELDS`) as ``direction: "info"`` rows —
    runs without a recorded snapshot (``REPRO_OBS=0``, pre-layer cache
    records) simply contribute none.
    """
    results = list(results)
    columns = _assemble(RUN_HEAD, (k for r in results for k in r.params), RUN_TAIL)
    rows: List[Dict[str, Any]] = []
    for result in results:
        schema = _schema_for(result.scenario, registry)
        base = {"scenario": result.scenario, "seed": result.seed, **dict(result.params)}
        for name in _metric_order(schema, result.metrics):
            rows.append(
                {
                    **base,
                    "metric": name,
                    **_metric_annotations(schema, name),
                    "value": result.metrics[name],
                }
            )
        if telemetry and result.telemetry:
            for metric_name, key, unit in TELEMETRY_EXPORT_FIELDS:
                rows.append(
                    {
                        **base,
                        "metric": metric_name,
                        "unit": unit,
                        "direction": "info",
                        "value": result.telemetry.get(key),
                    }
                )
    return LongTable(columns=columns, rows=rows)


def timeseries_long_table(results) -> LongTable:
    """One row per retained probe sample across ``results``.

    Reads the probe payload from each run's telemetry envelope (see
    :mod:`repro.obs.probe`); runs recorded without probes (the default —
    series are kept only under ``REPRO_PROBES=1``) contribute no rows.
    Series samples carry their declared ``unit`` and ``kind``
    (gauge/counter); instant streams (drops, epoch boundaries) export as
    ``kind: "event"`` rows with ``value: 1`` at each instant.
    """
    results = list(results)
    columns = _assemble(
        TIMESERIES_HEAD, (k for r in results for k in r.params), TIMESERIES_TAIL
    )
    rows: List[Dict[str, Any]] = []
    for result in results:
        probes = (result.telemetry or {}).get("probes")
        if not probes:
            continue
        base = {"scenario": result.scenario, "seed": result.seed, **dict(result.params)}
        for sim_snapshot in probes.get("simulators", []):
            sim = sim_snapshot.get("sim", 0)
            for series in sim_snapshot.get("series", []):
                annotations = {
                    "sim": sim,
                    "series": series["name"],
                    "unit": series.get("unit", ""),
                    "kind": series.get("kind", "gauge"),
                }
                for t, v in zip(series.get("t", []), series.get("v", [])):
                    rows.append({**base, **annotations, "t": t, "value": v})
            for stream in sim_snapshot.get("events", []):
                annotations = {
                    "sim": sim,
                    "series": stream["name"],
                    "unit": "",
                    "kind": "event",
                }
                for t in stream.get("t", []):
                    rows.append({**base, **annotations, "t": t, "value": 1})
    return LongTable(columns=columns, rows=rows)


def aggregates_long_table(cells, *, registry: Optional[Any] = None) -> LongTable:
    """One row per (aggregate cell, metric) across ``cells``.

    Each row carries the cross-seed sample count ``n`` and the mean /
    stdev / ci95 of the metric (spread columns empty below two samples).
    """
    cells = list(cells)
    columns = _assemble(
        AGGREGATE_HEAD, (k for c in cells for k in c.params), AGGREGATE_TAIL
    )
    rows: List[Dict[str, Any]] = []
    for cell in cells:
        schema = _schema_for(cell.scenario, registry)
        for name in _metric_order(schema, cell.metrics):
            aggregate = cell.metrics[name]
            rows.append(
                {
                    "scenario": cell.scenario,
                    **dict(cell.params),
                    "n": aggregate.n,
                    "metric": name,
                    **_metric_annotations(schema, name),
                    "mean": aggregate.mean,
                    "stdev": aggregate.stdev,
                    "ci95": aggregate.ci95,
                }
            )
    return LongTable(columns=columns, rows=rows)


def export_runs(
    results, fmt: str, *, registry: Optional[Any] = None, telemetry: bool = False
) -> str:
    """Serialize runs in ``fmt`` (``csv`` or ``jsonl``)."""
    table = runs_long_table(results, registry=registry, telemetry=telemetry)
    return _serialize(table, fmt)


def export_aggregates(
    cells, fmt: str, *, registry: Optional[Any] = None
) -> str:
    """Serialize aggregate cells in ``fmt`` (``csv`` or ``jsonl``)."""
    table = aggregates_long_table(cells, registry=registry)
    return _serialize(table, fmt)


def export_timeseries(results, fmt: str) -> str:
    """Serialize probe time series in ``fmt`` (``csv`` or ``jsonl``)."""
    return _serialize(timeseries_long_table(results), fmt)


def _serialize(table: LongTable, fmt: str) -> str:
    if fmt == "csv":
        return table.to_csv()
    if fmt == "jsonl":
        return table.to_jsonl()
    raise ValueError(f"unknown export format {fmt!r}; expected 'csv' or 'jsonl'")
