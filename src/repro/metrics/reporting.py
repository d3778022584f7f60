"""Plain-text reporting.

:class:`Table` is a tiny fixed-width table formatter with no external
dependencies — what the CLI prints; :func:`markdown_table` is its Markdown
sibling, behind the generated ``docs/scenarios.md`` and ``docs/fidelity.md``.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence


def markdown_escape(text: Any) -> str:
    """``text`` made safe inside a Markdown table cell (``|``, newlines)."""
    return str(text).replace("|", "\\|").replace("\n", " ")


def markdown_row(cells: Sequence[Any]) -> str:
    """One Markdown table line."""
    return "| " + " | ".join(markdown_escape(cell) for cell in cells) + " |"


def markdown_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> List[str]:
    """A Markdown table as lines — the generated ``docs/*.md`` pages use it."""
    return [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
        *(markdown_row(row) for row in rows),
    ]


class Table:
    """Fixed-width text table."""

    def __init__(self, columns: Sequence[str], title: str = "") -> None:
        if not columns:
            raise ValueError("need at least one column")
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values but table has {len(self.columns)} columns"
            )
        self.rows.append([_format_cell(v) for v in values])

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines: List[str] = []
        if self.title:
            lines.append(self.title)
        header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(self.columns))
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _format_cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.1f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def _metric_header(name: str, schema) -> str:
    """Column header for a metric: unit-annotated when the schema knows it."""
    spec = schema.spec_for(name) if schema is not None else None
    if spec is not None and spec.unit:
        return f"{name} [{spec.unit}]"
    return name


def format_run_results(
    results,
    *,
    title: str = "",
    metrics: Optional[Sequence[str]] = None,
    schema=None,
) -> str:
    """Render :class:`repro.runner.result.RunResult` records as a table.

    Only the parameters that actually *vary* across the given results become
    columns (constant parameters would add noise), followed by the seed and
    the selected metrics (default: every metric of the first result — in the
    scenario's :class:`~repro.runner.schema.MetricSchema` order when a
    ``schema`` is given, else sorted; headers are unit-annotated from the
    schema).  Duck-typed on ``.params`` / ``.seed`` / ``.metrics`` so this
    module stays free of runner imports.
    """
    results = list(results)
    if not results:
        return f"{title}\n(no results)" if title else "(no results)"
    param_keys: List[str] = sorted({k for r in results for k in r.params})
    varying = [
        k for k in param_keys
        if len({repr(r.params.get(k)) for r in results}) > 1
    ]
    if metrics is not None:
        metric_keys = list(metrics)
    elif schema is not None:
        metric_keys = schema.column_order(results[0].metrics)
    else:
        metric_keys = sorted(results[0].metrics)
    headers = [_metric_header(m, schema) for m in metric_keys]
    table = Table([*varying, "seed", *headers], title=title)
    for r in results:
        table.add_row(
            *[r.params.get(k) for k in varying],
            r.seed,
            *[r.metrics.get(m, float("nan")) for m in metric_keys],
        )
    return table.render()


def format_aggregate_cells(
    cells,
    *,
    title: str = "",
    metrics: Optional[Sequence[str]] = None,
    schema=None,
) -> str:
    """Render :class:`repro.runner.aggregate.AggregateCell` rows as a table.

    One row per (scenario-implicit) parameter cell; metric columns show
    ``mean ± 95% CI`` across the cell's seeds (bare mean when only one seed
    contributed) and are ordered / unit-annotated by ``schema`` when one is
    given.  Duck-typed on ``.params`` / ``.seeds`` / ``.metrics`` so this
    module stays free of runner imports, mirroring
    :func:`format_run_results`.
    """
    cells = list(cells)
    if not cells:
        return f"{title}\n(no results)" if title else "(no results)"
    param_keys: List[str] = sorted({k for c in cells for k in c.params})
    varying = [
        k for k in param_keys
        if len({repr(c.params.get(k)) for c in cells}) > 1
    ]
    observed = {m: None for c in cells for m in c.metrics}
    if metrics is not None:
        metric_keys = list(metrics)
    elif schema is not None:
        metric_keys = schema.column_order(observed)
    else:
        metric_keys = sorted(observed)
    headers = [_metric_header(m, schema) for m in metric_keys]
    table = Table([*varying, "seeds", *headers], title=title)
    for c in cells:
        table.add_row(
            *[c.params.get(k) for k in varying],
            len(c.seeds),
            *[
                c.metrics[m].describe() if m in c.metrics else "-"
                for m in metric_keys
            ],
        )
    return table.render()
