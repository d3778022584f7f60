"""``repro.api`` — the stable, typed public surface of the sweep runner.

Import from here, not from ``repro.runner.*`` internals: this facade is the
compatibility contract.  Internal modules may move or split between PRs;
every name below keeps working (or goes through a documented deprecation
cycle, like the untyped ``register_scenario(defaults={...})`` shim, which
was deprecated in the v2 redesign and has now been removed — see the
migration notes in ``docs/api.md``).

The surface, by layer:

* **Declaring scenarios** — :func:`register_scenario` with a
  :class:`ParamSpace` of :class:`ParamSpec` knobs (type, default, unit,
  choices, bounds) and a :class:`MetricSchema` of :class:`MetricSpec`
  outputs (unit, direction).  ``resolve_params`` coerces every override
  through the space, so differently-spelled values can never mint distinct
  cache keys.
* **Describing sweeps** — :class:`SweepSpec` (base / grid / zip / seeds)
  expanding into :class:`RunSpec` cells; :func:`expand_grid` /
  :func:`expand_zip` for ad-hoc expansion.
* **Executing** — :func:`run_sweep` / :func:`run_spec` over a pluggable
  :class:`ExecutionBackend` (:class:`SerialBackend`,
  :class:`ProcessPoolBackend`, :class:`DistributedBackend`, or
  ``backend="serial"|"process"|"distributed"|"auto"``), returning a
  :class:`SweepOutcome` of :class:`CellOutcome` records, each holding a
  pure :class:`RunResult` cached by content key under :class:`ResultCache`
  as soon as its cell finishes, so an interrupted sweep resumes on rerun.
* **Distributing** — :class:`DistributedBackend` fans cache-missing cells
  out to worker processes over a :class:`WorkerTransport`
  (:class:`LocalSubprocessTransport` for same-host isolation,
  :class:`SSHTransport` for remote hosts parsed from
  :func:`parse_hosts` / :class:`HostSpec` specs), with heartbeat-based
  hang detection, worker quarantine, and re-dispatch of lost cells; the pool
  is elastic (``listen=`` admits ``workers join`` processes mid-sweep; a
  worker whose connection drops redials and joins again) and batches
  frames (``batch_size=``);
  ``run_sweep(on_progress=...)`` observes scheduling as
  :class:`ProgressEvent` records and ``SweepOutcome.worker_stats`` carries
  the per-worker accounting.  Deterministic fault schedules for testing
  all of this: :class:`FaultPlan` / :class:`FaultRule`
  (:mod:`repro.testing.chaos`).  See ``docs/distributed.md``.
* **Aggregating** — :func:`aggregate_results` / :func:`aggregate_outcome`
  grouping by (scenario, params) with mean / stdev / 95% CI per metric
  (:class:`AggregateCell`, :class:`MetricAggregate`), plus
  :func:`find_cell` / :func:`find_cells` lookups.
* **Exporting** — :func:`runs_long_table` / :func:`aggregates_long_table`
  (:class:`LongTable`; ``to_csv`` / ``to_jsonl``) and the
  :func:`export_runs` / :func:`export_aggregates` one-shots: long-format,
  schema-annotated tables ready for pandas.
* **Traffic traces** — the trace-driven workload subsystem
  (``docs/workloads.md``): canonical :class:`TraceEvent` records with
  streaming I/O (:func:`write_trace` / :func:`read_trace` /
  :func:`trace_digest` → :class:`TraceDigest`), deterministic generators
  (:data:`GENERATORS`, :func:`generate_trace`), trace specs
  (:func:`open_trace`), and :class:`TraceReplayWorkload`.  Scenario
  parameters of kind ``"trace"`` accept any trace spec and are
  digest-addressed in cache keys.

Quick start::

    from repro import api

    outcome = api.run_sweep(
        [api.RunSpec("fig09_slowdown", params={"mode": m}, seed=1)
         for m in ("status_quo", "bundler_sfq")],
        workers=2,
        backend="process",
    )
    cells = api.aggregate_outcome(outcome)
    print(api.export_aggregates(cells, "csv",
                                registry=api.load_builtin_scenarios()))
"""

from __future__ import annotations

from repro.runner.aggregate import (
    AggregateCell,
    MetricAggregate,
    aggregate_outcome,
    aggregate_results,
    find_cell,
    find_cells,
)
from repro.runner.backends import (
    BACKEND_CHOICES,
    ExecutionBackend,
    ProcessPoolBackend,
    ProgressEvent,
    SerialBackend,
    WorkItem,
    WorkOutcome,
    make_backend,
)
from repro.runner.distributed import (
    DistributedBackend,
    HostSpec,
    LocalSubprocessTransport,
    SSHTransport,
    WorkerTransport,
    parse_hosts,
)
from repro.testing.chaos import (
    FaultPlan,
    FaultRule,
)
from repro.runner.cache import (
    DEFAULT_CACHE_DIR,
    MANIFEST_NAME,
    CacheStats,
    GcStats,
    ResultCache,
)
from repro.runner.engine import (
    CellOutcome,
    ResultKeyMismatch,
    SweepOutcome,
    effective_seed,
    execute_run,
    resolve_cell,
    run_spec,
    run_sweep,
)
from repro.runner.export import (
    EXPORT_FORMATS,
    LongTable,
    aggregates_long_table,
    export_aggregates,
    export_runs,
    runs_long_table,
)
from repro.runner.params import (
    PARAM_KINDS,
    ParamSpace,
    ParamSpec,
    ParamValidationError,
)
from repro.runner.registry import (
    REGISTRY,
    Scenario,
    ScenarioRegistry,
    load_builtin_scenarios,
    register_scenario,
)
from repro.runner.result import RunResult, run_key
from repro.runner.schema import (
    METRIC_DIRECTIONS,
    METRIC_KINDS,
    MetricSchema,
    MetricSpec,
    MetricValidationError,
)
from repro.runner.spec import RunSpec, SweepSpec, expand_grid, expand_zip
from repro.traffic import (
    GENERATORS,
    TraceDigest,
    TraceEvent,
    TraceReplayWorkload,
    generate_trace,
    open_trace,
    read_trace,
    trace_digest,
    write_trace,
)

__all__ = [
    # params
    "PARAM_KINDS",
    "ParamSpace",
    "ParamSpec",
    "ParamValidationError",
    # metric schemas
    "METRIC_DIRECTIONS",
    "METRIC_KINDS",
    "MetricSchema",
    "MetricSpec",
    "MetricValidationError",
    # registry
    "REGISTRY",
    "Scenario",
    "ScenarioRegistry",
    "load_builtin_scenarios",
    "register_scenario",
    # specs
    "RunSpec",
    "SweepSpec",
    "expand_grid",
    "expand_zip",
    # engine + backends
    "BACKEND_CHOICES",
    "CellOutcome",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "ProgressEvent",
    "ResultKeyMismatch",
    "SerialBackend",
    "SweepOutcome",
    "WorkItem",
    "WorkOutcome",
    "effective_seed",
    "execute_run",
    "make_backend",
    "resolve_cell",
    "run_spec",
    "run_sweep",
    # distributed dispatch
    "DistributedBackend",
    "HostSpec",
    "LocalSubprocessTransport",
    "SSHTransport",
    "WorkerTransport",
    "parse_hosts",
    # deterministic fault injection (repro.testing.chaos)
    "FaultPlan",
    "FaultRule",
    # results + cache
    "DEFAULT_CACHE_DIR",
    "MANIFEST_NAME",
    "CacheStats",
    "GcStats",
    "ResultCache",
    "RunResult",
    "run_key",
    # aggregation
    "AggregateCell",
    "MetricAggregate",
    "aggregate_outcome",
    "aggregate_results",
    "find_cell",
    "find_cells",
    # exports
    "EXPORT_FORMATS",
    "LongTable",
    "aggregates_long_table",
    "export_aggregates",
    "export_runs",
    "runs_long_table",
    # traffic traces
    "GENERATORS",
    "TraceDigest",
    "TraceEvent",
    "TraceReplayWorkload",
    "generate_trace",
    "open_trace",
    "read_trace",
    "trace_digest",
    "write_trace",
]
