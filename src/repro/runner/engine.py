"""The sweep execution engine.

Given a list of :class:`~repro.runner.spec.RunSpec` cells, the engine

1. resolves each cell's parameters against the scenario registry (typed
   coercion through the scenario's ``ParamSpace``) and computes its
   content-addressed cache key;
2. serves every cell already present in the result cache from disk;
3. hands the remaining cells to an
   :class:`~repro.runner.backends.ExecutionBackend` — serial in-process, a
   :mod:`multiprocessing` pool, the cross-host
   :class:`~repro.runner.distributed.DistributedBackend`, or any drop-in
   implementation of the protocol — each cell with a deterministic seed
   derived via :func:`repro.util.rng.derive_seed`;
4. stores each fresh result in the cache the moment its backend reports
   it (``execute(on_outcome=...)``) — a sweep that fails, is interrupted
   or is killed resumes from the cells that had finished — and returns
   everything in spec order.  Fresh metrics were validated against the
   scenario's ``MetricSchema`` where the cell executed.

Determinism contract: a run's :class:`RunResult` depends only on
``(scenario, params, seed)`` — never on the backend, worker count,
scheduling order, or whether the result came from the cache.
``tests/test_runner_engine.py`` and ``tests/test_runner_backends.py`` pin
this down by comparing canonical serializations byte for byte.

Observability: ``run_sweep(on_progress=...)`` forwards the callback to
backends that expose an ``on_progress`` attribute (the distributed
scheduler emits :class:`~repro.runner.backends.ProgressEvent` records as
cells complete, re-route, or workers are quarantined), and a backend's
``telemetry()`` dict — per-worker dispatch/completion/heartbeat-age
accounting for remote workers — is captured into
:attr:`SweepOutcome.worker_stats`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.runner.backends import (
    ExecutionBackend,
    ProgressEvent,
    SerialBackend,
    WorkItem,
    WorkOutcome,
    make_backend,
)
from repro.runner.cache import ResultCache
from repro.runner.registry import REGISTRY, ScenarioRegistry, load_builtin_scenarios
from repro.runner.result import RunResult, run_key
from repro.runner.spec import RunSpec, SweepSpec
from repro.util.rng import derive_seed


class ResultKeyMismatch(RuntimeError):
    """A backend returned a result keyed for another cell or code revision."""


@dataclass
class CellOutcome:
    """One executed (or cache-served) sweep cell."""

    spec: RunSpec
    result: RunResult
    cached: bool
    #: True when this cell duplicated another cell of the same sweep and
    #: reused its freshly-computed result (not a disk cache hit).
    deduped: bool = False
    elapsed_s: float = 0.0


@dataclass
class SweepOutcome:
    """Everything a sweep produced, in spec order."""

    outcomes: List[CellOutcome] = field(default_factory=list)
    #: Worker count the sweep ran with — the caller's request, capped to 1
    #: only when a custom registry forced cells down the serial path.  A
    #: fully cache-served sweep still reports the requested count (no cell
    #: needed a worker, but that is visible in ``misses``, not here).
    workers: int = 1
    #: Name of the execution backend the sweep's fresh cells ran on.
    backend: str = "serial"
    elapsed_s: float = 0.0
    #: Backend-reported execution accounting (``backend.telemetry()``),
    #: e.g. the distributed scheduler's per-worker dispatch/completion
    #: counts, heartbeat ages, and quarantine reasons.  Empty for backends
    #: without telemetry (serial, process pool) and for sweeps where no
    #: cell executed.
    worker_stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def results(self) -> List[RunResult]:
        return [o.result for o in self.outcomes]

    @property
    def hits(self) -> int:
        """Cells served from the on-disk cache."""
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def deduplicated(self) -> int:
        """Cells that reused another cell's fresh result within this sweep."""
        return sum(1 for o in self.outcomes if o.deduped)

    @property
    def misses(self) -> int:
        """Cells that actually simulated."""
        return sum(1 for o in self.outcomes if not o.cached and not o.deduped)

    @property
    def hit_rate(self) -> float:
        if not self.outcomes:
            return 0.0
        return self.hits / len(self.outcomes)

    @property
    def events_processed(self) -> int:
        """Simulator events fired across the sweep's *executed* cells.

        Summed from per-run telemetry (see :mod:`repro.obs`); cache-served
        cells carry their recorded telemetry but did no work in this sweep,
        so only fresh cells count here.
        """
        return sum(
            o.result.telemetry.get("events_processed", 0)
            for o in self.outcomes
            if not o.cached and not o.deduped
        )

    @property
    def events_per_sec(self) -> float:
        """Aggregate simulator events/sec over the executed cells' sim wall time."""
        wall = sum(
            o.result.telemetry.get("sim_wall_s", 0.0)
            for o in self.outcomes
            if not o.cached and not o.deduped
        )
        if wall <= 0.0:
            return 0.0
        return self.events_processed / wall

    @property
    def cells_per_sec(self) -> float:
        """Sweep cells resolved per wall second (hits, dedups, and runs)."""
        if self.elapsed_s <= 0.0:
            return 0.0
        return len(self.outcomes) / self.elapsed_s

    def summary(self) -> str:
        """One-line, human-readable account of the sweep."""
        total = len(self.outcomes)
        dedup = f", {self.deduplicated} deduplicated" if self.deduplicated else ""
        throughput = f" ({self.cells_per_sec:.1f} cells/s"
        if self.events_processed:
            throughput += (
                f", {self.events_processed:,} events at "
                f"{self.events_per_sec:,.0f} events/s"
            )
        throughput += ")"
        return (
            f"{total} run{'s' if total != 1 else ''}: "
            f"{self.misses} executed, {self.hits} served from cache{dedup} "
            f"({self.hit_rate * 100.0:.0f}% cache hits) "
            f"in {self.elapsed_s:.1f}s on {self.workers} worker"
            f"{'s' if self.workers != 1 else ''}{throughput}"
        )


def effective_seed(spec: RunSpec) -> int:
    """Deterministic per-run seed: the user seed scoped by scenario name.

    Two scenarios swept at the same base seed get unrelated RNG streams, and
    the derivation is stable across processes (FNV-1a, no ``hash()``).
    """
    return derive_seed(spec.seed, f"runner:{spec.scenario}")


def _normalize_spec(spec: RunSpec, scenario) -> RunSpec:
    """Collapse the seed of seed-insensitive scenarios to 0.

    Deterministic scenarios ignore their seed, so every requested seed names
    the same run; normalizing before hashing makes a ``--seeds 1,2,3`` sweep
    of such a scenario simulate (and cache) exactly one cell.
    """
    if scenario.seed_sensitive or spec.seed == 0:
        return spec
    return RunSpec(scenario=spec.scenario, params=spec.params, seed=0)


def resolve_cell(
    spec: RunSpec, *, registry: Optional[ScenarioRegistry] = None
) -> Tuple[RunSpec, Dict[str, Any], str]:
    """Normalize a cell and compute its resolved params and cache key."""
    registry = registry if registry is not None else load_builtin_scenarios()
    scenario = registry.get(spec.scenario)
    spec = _normalize_spec(spec, scenario)
    params = scenario.resolve_params(spec.params)
    # The key hashes the params' *cache view*: identity for ordinary kinds,
    # digest-only for trace specs (a file-backed trace is keyed by content,
    # so two paths to identical bytes share one cell and an edited file
    # mints a new one).
    key = run_key(
        spec.scenario, scenario.params.cache_view(params), spec.seed,
        version=scenario.version,
    )
    return spec, params, key


def execute_run(spec: RunSpec, *, registry: Optional[ScenarioRegistry] = None) -> RunResult:
    """Execute one cell in-process (no cache involvement).

    Fresh metrics are validated against the scenario's declared
    :class:`~repro.runner.schema.MetricSchema` (when it has one), so a
    scenario that drifts from its schema fails at the point of production.
    """
    # Imported here: only a cell that executes is observed, and a sweep
    # served from the cache executes none.
    from repro import obs

    registry = registry if registry is not None else load_builtin_scenarios()
    scenario = registry.get(spec.scenario)
    spec, params, key = resolve_cell(spec, registry=registry)
    seed = effective_seed(spec)
    # The collector gathers every Simulator the scenario builds plus the
    # phase timeline; it yields None when REPRO_OBS=0.  Nothing inside it
    # can influence the metrics or the key — the snapshot is attached
    # outside the canonical payload.
    with obs.collect() as collector:
        with obs.span("scenario-body"):
            metrics = scenario.fn(seed=seed, **params)
        if not isinstance(metrics, dict):
            raise TypeError(
                f"scenario {spec.scenario!r} returned {type(metrics).__name__}, "
                "expected a metrics dict"
            )
        with obs.span("metrics-finalize"):
            scenario.validate_metrics(metrics)
    telemetry = collector.snapshot() if collector is not None else {}
    return RunResult(
        scenario=spec.scenario,
        params=params,
        seed=spec.seed,
        effective_seed=seed,
        key=key,
        metrics=metrics,
        scenario_version=scenario.version,
        telemetry=telemetry,
    )


def _resolve_backend(
    backend: Union[None, str, ExecutionBackend],
    *,
    workers: int,
    custom_registry: bool,
) -> Tuple[ExecutionBackend, str, int, bool]:
    """Pick the execution backend for a sweep.

    Returns ``(backend, requested_name, requested_workers,
    serial_fallback)``: the requested name/concurrency are what the
    outcome reports unless the fallback actually executed cells;
    ``serial_fallback`` records that a custom registry forced serial
    execution (pool workers resolve scenario names by re-importing the
    built-in catalogue, which can only reconstruct the built-in registry).
    """
    if isinstance(backend, str):
        backend = make_backend(backend, workers=workers)
        requested_workers = backend.workers
    elif backend is None:
        backend = make_backend("auto", workers=workers)
        requested_workers = workers
    else:
        requested_workers = backend.workers
    if custom_registry and backend.needs_builtin_registry:
        return SerialBackend(), backend.name, requested_workers, True
    return backend, backend.name, requested_workers, False


def run_sweep(
    specs: Sequence[RunSpec],
    *,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
    registry: Optional[ScenarioRegistry] = None,
    backend: Union[None, str, ExecutionBackend] = None,
    on_progress: Optional[Callable[[ProgressEvent], None]] = None,
) -> SweepOutcome:
    """Execute ``specs``, serving repeats from ``cache`` and running the rest.

    ``backend`` selects where cache-missing cells execute: a backend name
    (``"serial"``, ``"process"``, ``"auto"``, ``"distributed"``), an
    :class:`~repro.runner.backends.ExecutionBackend` instance, or ``None``
    for the historical default (a process pool when ``workers > 1``, else
    serial).  Pass ``use_cache=False`` to force every *unique* cell to
    execute (results are still written back to the cache; duplicate cells
    within one sweep always simulate once).  ``on_progress`` receives
    :class:`~repro.runner.backends.ProgressEvent` records from backends
    that emit them (currently the distributed scheduler).

    A custom ``registry`` runs serially regardless of the backend request:
    backends that leave the process resolve scenario names by re-importing
    the built-in catalogue, which can only reconstruct the built-in
    registry.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    custom_registry = registry is not None and registry is not REGISTRY
    registry = registry if registry is not None else load_builtin_scenarios()
    cache = cache if cache is not None else ResultCache()
    backend, requested_name, requested_workers, serial_fallback = _resolve_backend(
        backend, workers=workers, custom_registry=custom_registry
    )
    started = time.perf_counter()

    # Resolve every cell up front so cache keys exist before any execution.
    resolved: List[Tuple[RunSpec, Dict[str, Any], str]] = [
        resolve_cell(spec, registry=registry) for spec in specs
    ]

    outcomes: List[Optional[CellOutcome]] = [None] * len(resolved)
    pending: List[WorkItem] = []
    seen_keys: Dict[str, int] = {}
    duplicates: List[Tuple[int, int]] = []
    for index, (spec, params, key) in enumerate(resolved):
        cached = cache.get(key) if use_cache else None
        if cached is not None:
            outcomes[index] = CellOutcome(spec=spec, result=cached, cached=True)
            continue
        if key in seen_keys:
            # The same cell appears twice in one sweep — simulate it once.
            duplicates.append((index, seen_keys[key]))
            continue
        seen_keys[key] = index
        pending.append(
            WorkItem(index=index, scenario=spec.scenario, params=params, seed=spec.seed)
        )

    # Optional backend extras, discovered by duck typing so the
    # ExecutionBackend protocol stays minimal: a settable ``on_progress``
    # hook and an execution-accounting ``telemetry()`` dict.  Assigned
    # unconditionally (including None) so a reused backend instance never
    # keeps firing a previous sweep's callback.
    if hasattr(backend, "on_progress"):
        backend.on_progress = on_progress

    failures: List[Tuple[RunSpec, str]] = []
    foreign: List[str] = []

    def store(work: WorkOutcome) -> None:
        """Cache one finished cell the moment its backend reports it, so a
        sweep that fails or is killed later resumes from it on rerun."""
        spec, _, key = resolved[work.index]
        if work.error is not None:
            failures.append((spec, work.error))
            return
        if work.payload.get("key") != key:
            # A version-skewed worker ran another revision of the scenario:
            # caching this would serve that revision's numbers as ours.
            foreign.append(f"{spec.describe()}: expected {key}, got {work.payload.get('key')}")
            return
        result = RunResult.from_payload(work.payload, telemetry=work.telemetry)
        cache.put(result, elapsed_s=work.elapsed_s)
        outcomes[work.index] = CellOutcome(
            spec=spec, result=result, cached=False, elapsed_s=work.elapsed_s
        )

    # Record files are written as cells finish; the manifest is flushed
    # once when the block exits, however it exits.
    with cache.deferred_manifest():
        if pending:
            backend.execute(pending, registry=registry, on_outcome=store)
    # Collected unconditionally (not only when cells executed): a backend
    # like the distributed scheduler probes its workers even when a sweep
    # turns out fully cache-warm, and dropping that accounting made
    # 100%-hit sweeps report empty worker_stats.
    telemetry = getattr(backend, "telemetry", None)
    worker_stats = telemetry() if callable(telemetry) else {}
    if pending:
        # Re-read after execution: an elastic distributed pool may have
        # admitted workers beyond the count provisioned at resolve time.
        requested_workers = max(requested_workers, getattr(backend, "workers", 0))

    if foreign:
        raise ResultKeyMismatch(
            f"{len(foreign)} result(s) came back keyed for a different cell — is a worker "
            "running another code revision?\n" + "\n".join(foreign)
        )
    if failures:
        cached_count = sum(1 for o in outcomes if o is not None)
        details = "\n\n".join(f"{spec.describe()}:\n{error}" for spec, error in failures)
        raise RuntimeError(
            f"{len(failures)} of {len(resolved)} sweep cell(s) failed "
            f"({cached_count} completed cells were cached and will be reused on rerun):\n"
            f"{details}"
        )
    lost = sum(1 for item in pending if outcomes[item.index] is None)
    if lost:
        raise RuntimeError(
            f"sweep lost cells — the {backend.name} backend returned without reporting "
            f"{lost} of {len(pending)} pending cell(s) through on_outcome"
        )

    # Duplicates only arise on cache misses (hits are served per-cell above),
    # so they are fresh-result reuses, not cache hits.
    for dup_index, source_index in duplicates:
        source = outcomes[source_index]
        assert source is not None
        outcomes[dup_index] = CellOutcome(
            spec=resolved[dup_index][0], result=source.result, cached=False, deduped=True
        )

    # Report the caller's requested worker count, not the transient pool
    # size — a fully cache-served sweep spawns no pool but still ran "with"
    # the requested concurrency.  The only real cap is the custom-registry
    # serial fallback, and only when cells actually executed under it.
    fallback_executed = serial_fallback and bool(pending)
    return SweepOutcome(
        outcomes=outcomes,
        workers=1 if fallback_executed else requested_workers,
        backend=backend.name if fallback_executed or not serial_fallback else requested_name,
        elapsed_s=time.perf_counter() - started,
        worker_stats=worker_stats,
    )


def run_spec(
    sweep: SweepSpec,
    *,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
    backend: Union[None, str, ExecutionBackend] = None,
    on_progress: Optional[Callable[[ProgressEvent], None]] = None,
) -> SweepOutcome:
    """Expand a :class:`SweepSpec` and execute it."""
    return run_sweep(
        sweep.expand(),
        workers=workers,
        cache=cache,
        use_cache=use_cache,
        backend=backend,
        on_progress=on_progress,
    )
