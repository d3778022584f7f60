"""Pluggable execution backends for the sweep engine.

The engine's job is *what* to run (resolve cells, serve cache hits, write
results back); a backend's job is *where and how* the cache-missing cells
execute.  The :class:`ExecutionBackend` protocol is deliberately narrow and
transport-friendly: work crosses the boundary as plain picklable
:class:`WorkItem` records (scenario name + resolved params + seed) and comes
back as :class:`WorkOutcome` records carrying JSON payloads — exactly the
shape a cross-host dispatcher needs, so a remote backend is a drop-in later
addition (the cache keys are already host-independent).

Built-in backends:

* :class:`SerialBackend` — in-process, one cell at a time.  The only
  backend that can execute against a custom (non-built-in) registry.
* :class:`ProcessPoolBackend` — the :mod:`multiprocessing` pool.  Workers
  re-import the built-in catalogue to rebuild the registry, so it only
  handles built-in scenarios; the engine falls back to serial otherwise.
* :class:`~repro.runner.distributed.DistributedBackend` — cross-host
  dispatch over a :class:`~repro.runner.distributed.WorkerTransport`
  (local subprocesses or SSH); lives in :mod:`repro.runner.distributed`,
  which this module imports lazily because the dependency otherwise runs
  both ways (distributed builds on the :class:`WorkItem` /
  :class:`WorkOutcome` types defined here).

``make_backend`` resolves CLI-style names (``serial``, ``process``,
``auto``, ``distributed``); the determinism contract (results depend only
on ``(scenario, params, seed)``) holds across all backends —
``tests/test_runner_backends.py`` and ``tests/test_runner_distributed.py``
compare their canonical serializations byte for byte.

Every backend reports each outcome through ``execute(on_outcome=...)`` as
soon as it exists, on the thread that called ``execute``: the engine
stores the result in the cache right there, so a sweep that is killed
half-way resumes from the cells that had finished.

Backends may optionally expose two extras the engine discovers with
``getattr``: a ``telemetry()`` method whose dict lands in
``SweepOutcome.worker_stats``, and an ``on_progress`` attribute the engine
points at the caller's ``run_sweep(on_progress=...)`` callback, fed with
:class:`ProgressEvent` records as cells complete or are re-routed.
"""

from __future__ import annotations

import os
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Protocol, Sequence


@dataclass(frozen=True)
class WorkItem:
    """One cache-missing cell handed to a backend.

    ``params`` are already resolved (defaults filled, coerced, validated)
    so backends never need the registry to interpret them; ``index`` is the
    cell's position in the sweep, echoed back for reassembly.
    """

    index: int
    scenario: str
    params: Mapping[str, Any]
    seed: int


@dataclass(frozen=True)
class WorkOutcome:
    """What a backend returns per work item.

    Exactly one of ``payload`` (a :meth:`RunResult.to_payload` dict) and
    ``error`` (a formatted traceback) is set.  Failures travel as data, not
    exceptions, so one bad cell cannot poison a batch.

    ``telemetry`` is the run's observability snapshot (see
    :mod:`repro.obs`), carried *next to* the payload — never inside it —
    so distributed workers ship execution accounting home without touching
    the result bytes the cache keys are computed over.
    """

    index: int
    payload: Optional[Dict[str, Any]]
    elapsed_s: float
    error: Optional[str]
    telemetry: Optional[Dict[str, Any]] = None


@dataclass(frozen=True)
class ProgressEvent:
    """One observable scheduling event during a backend's ``execute``.

    ``kind`` is ``"completed"`` (a cell finished; ``done``/``total`` count
    the batch), ``"requeued"`` (a cell re-routed off a failed worker),
    ``"quarantined"`` (a worker removed for the rest of the sweep), or
    ``"gave-up"`` (a cell converted to an error outcome after exhausting
    its dispatch attempts).  Only backends with internal scheduling emit
    these; :class:`SerialBackend` / :class:`ProcessPoolBackend` stay
    silent.
    """

    kind: str
    done: int
    total: int
    index: Optional[int] = None
    scenario: Optional[str] = None
    worker: Optional[str] = None
    detail: str = ""

    def describe(self) -> str:
        """One log-line rendering (used by ``sweep --progress``)."""
        parts = [f"[{self.done}/{self.total}] {self.kind}"]
        if self.scenario is not None:
            parts.append(f"{self.scenario}#{self.index}")
        if self.worker is not None:
            parts.append(f"on {self.worker}")
        if self.detail:
            parts.append(f"({self.detail})")
        return " ".join(parts)


#: What ``execute(on_outcome=...)`` is called with (see
#: :meth:`ExecutionBackend.execute`).
OutcomeCallback = Callable[[WorkOutcome], None]


class ExecutionBackend(Protocol):
    """Where the engine's cache-missing cells execute.

    Implementations must preserve the determinism contract: the payload of
    a work item depends only on ``(scenario, params, seed)``, never on
    scheduling, concurrency, or host.  ``name`` identifies the backend in
    CLI flags and telemetry; ``workers`` is its concurrency (1 for serial);
    ``needs_builtin_registry`` tells the engine whether the backend can only
    resolve scenario names by re-importing the built-in catalogue,
    :mod:`repro.experiments.catalog` (true for anything that leaves the
    calling process).
    """

    name: str
    workers: int
    needs_builtin_registry: bool

    def execute(
        self,
        items: Sequence[WorkItem],
        *,
        registry: Optional[Any] = None,
        on_outcome: Optional[OutcomeCallback] = None,
    ) -> List[WorkOutcome]:
        """Run every item and return outcomes in the same order.

        ``on_outcome``, when given, is called exactly once per item, on
        the thread that called ``execute``, as soon as that item's outcome
        exists and before ``execute`` returns.  An exception it raises
        ends the call.
        """
        ...


def execute_item(item: WorkItem, registry: Optional[Any] = None) -> WorkOutcome:
    """Execute one work item in-process, capturing failures as data.

    Module-level (and lazily importing the engine) so it both pickles into
    pool workers and avoids a circular import with the engine, which
    imports this module for the backend types.
    """
    from repro.runner.engine import execute_run
    from repro.runner.registry import REGISTRY
    from repro.runner.spec import RunSpec

    started = time.perf_counter()
    try:
        result = execute_run(
            RunSpec(scenario=item.scenario, params=item.params, seed=item.seed),
            registry=registry if registry is not None else REGISTRY,
        )
    except Exception:
        return WorkOutcome(
            index=item.index,
            payload=None,
            elapsed_s=time.perf_counter() - started,
            error=traceback.format_exc(),
        )
    return WorkOutcome(
        index=item.index,
        payload=result.to_payload(),
        elapsed_s=time.perf_counter() - started,
        error=None,
        telemetry=result.telemetry or None,
    )


class SerialBackend:
    """Run every cell in the calling process, one at a time."""

    name = "serial"
    workers = 1
    needs_builtin_registry = False

    def execute(
        self,
        items: Sequence[WorkItem],
        *,
        registry: Optional[Any] = None,
        on_outcome: Optional[OutcomeCallback] = None,
    ) -> List[WorkOutcome]:
        outcomes = []
        for item in items:
            outcome = execute_item(item, registry)
            if on_outcome is not None:
                on_outcome(outcome)
            outcomes.append(outcome)
        return outcomes

    def __repr__(self) -> str:
        return "SerialBackend()"


def inherited_pythonpath() -> str:
    """This process's ``sys.path`` as a ``PYTHONPATH`` value for children.

    Prepends every current import-path entry to any existing
    ``PYTHONPATH``, so spawned workers (pool children, distributed worker
    subprocesses) can import the package from an uninstalled source
    checkout exactly like the parent.
    """
    existing = os.environ.get("PYTHONPATH")
    return os.pathsep.join(
        [p for p in sys.path if p] + ([existing] if existing else [])
    )


def _pool_init(extra_sys_path: List[str]) -> None:
    """Pool-worker initializer: restore the import path, rebuild the registry."""
    from repro.runner.registry import load_builtin_scenarios

    # Ctrl-C is the parent's to handle (it terminates the pool); a child
    # that also raised KeyboardInterrupt would only add a traceback.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for path in reversed(extra_sys_path):
        if path not in sys.path:
            sys.path.insert(0, path)
    load_builtin_scenarios()


def _pool_run(item: WorkItem) -> WorkOutcome:
    """Pool-worker entry point: execute against the rebuilt built-in registry."""
    return execute_item(item, None)


class ProcessPoolBackend:
    """Run cells on a :mod:`multiprocessing` worker pool.

    The pool ships :class:`WorkItem` records across the process boundary;
    each worker re-imports the built-in catalogue (via :func:`_pool_init`)
    to resolve scenario names, so only built-in scenarios are reachable.
    Batches of zero or one pending cell skip the pool entirely — spawning
    costs more than the work.
    """

    name = "process"
    needs_builtin_registry = True

    def __init__(self, workers: int = 2) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers

    def execute(
        self,
        items: Sequence[WorkItem],
        *,
        registry: Optional[Any] = None,
        on_outcome: Optional[OutcomeCallback] = None,
    ) -> List[WorkOutcome]:
        pool_size = min(self.workers, len(items))
        if pool_size <= 1:
            return SerialBackend().execute(items, registry=registry, on_outcome=on_outcome)
        # Imported where the pool starts: every sweep imports this module
        # for the backend types, and one served from the cache starts none.
        import multiprocessing

        ctx = multiprocessing.get_context()
        # Spawn-start children must be able to import this module *before*
        # the initializer runs (the initializer itself is unpickled), so the
        # import path has to travel via the environment; initargs alone only
        # covers fork-start children.
        prior_pythonpath = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = inherited_pythonpath()
        try:
            with ctx.Pool(
                processes=pool_size, initializer=_pool_init, initargs=(list(sys.path),)
            ) as pool:
                # pool.map's own chunking: the default of 1 would make a
                # grid of near-empty cells one IPC round trip per cell.
                chunksize = -(-len(items) // (4 * pool_size))
                by_index: Dict[int, WorkOutcome] = {}
                for outcome in pool.imap_unordered(_pool_run, items, chunksize):
                    if on_outcome is not None:
                        on_outcome(outcome)
                    by_index[outcome.index] = outcome
                return [by_index[item.index] for item in items]
        finally:
            if prior_pythonpath is None:
                os.environ.pop("PYTHONPATH", None)
            else:
                os.environ["PYTHONPATH"] = prior_pythonpath

    def __repr__(self) -> str:
        return f"ProcessPoolBackend(workers={self.workers})"


#: Names accepted by ``repro-runner sweep --backend`` (``auto`` picks
#: ``process`` when more than one worker is requested, else ``serial``).
BACKEND_CHOICES = ("auto", "distributed", "process", "serial")


def make_backend(
    name: str,
    *,
    workers: int = 1,
    hosts: Optional[str] = None,
    batch_size: Optional[int] = None,
    listen: Optional[str] = None,
    chaos: Optional[Dict[str, Any]] = None,
) -> ExecutionBackend:
    """Build a backend from a CLI-style name.

    ``auto`` preserves the engine's historical behavior: a process pool
    when ``workers > 1``, otherwise serial.  ``hosts`` is the
    ``--hosts``-style spec (``"localhost:2,nodeA:4"``) consumed only by
    the ``distributed`` backend; it defaults to ``localhost:<workers>``
    unless ``listen`` makes the pool join-fed.  ``batch_size``, ``listen``
    and ``chaos`` (a fault-plan dict) are likewise distributed-only knobs.
    """
    if name == "distributed":
        # Imported here, not at module level: repro.runner.distributed
        # imports this module for the work-item types.
        from repro.runner.distributed import DistributedBackend

        if hosts is None and listen is None:
            # No --hosts spec: all slots on this machine, mirroring what the
            # process backend would do with the same worker count.
            hosts = f"localhost:{max(workers, 1)}"
        return DistributedBackend(
            hosts or (),
            batch_size=1 if batch_size is None else batch_size,
            listen=listen,
            chaos=chaos,
        )
    for flag, value in (
        ("--hosts", hosts),
        ("--batch-size", batch_size),
        ("--listen", listen),
        ("--chaos-plan", chaos),
    ):
        if value is not None:
            raise ValueError(
                f"{flag} only applies to the distributed backend, not {name!r}"
            )
    if name == "serial":
        return SerialBackend()
    if name == "process":
        return ProcessPoolBackend(max(workers, 1))
    if name == "auto":
        return ProcessPoolBackend(workers) if workers > 1 else SerialBackend()
    raise ValueError(f"unknown backend {name!r}; expected one of {BACKEND_CHOICES}")
