"""Run-scoped telemetry collection.

The engine opens a :class:`TelemetryCollector` around each scenario
execution; every :class:`~repro.net.simulator.Simulator` built while it is
active registers itself (one thread-local lookup at construction — the only
cost the layer adds outside the event loop's integer counters).  When the
run finishes, :meth:`TelemetryCollector.snapshot` folds the simulators'
counters and the phase :class:`~repro.obs.timeline.Timeline` into the plain
dict that becomes :attr:`RunResult.telemetry`.

The collector is deliberately *about* the run, never *of* it: nothing here
feeds back into simulation behavior, and the engine attaches the snapshot
outside the result's canonical payload, so cache keys and result bytes are
byte-identical whether the layer is on or off (``tests/test_obs_parity.py``
pins this).  Set ``REPRO_OBS=0`` to disable collection entirely — runs then
produce an empty telemetry dict.
"""

from __future__ import annotations

import contextlib
import threading
from time import perf_counter
from typing import Any, ContextManager, Dict, Iterator, List, Optional

from repro.obs.probe import PROBE_FORMAT, ProbeSet, probes_enabled
from repro.obs.stats import merge_counters, simulator_counters
from repro.obs.timeline import Timeline
from repro.util.env import env_flag

#: Environment kill-switch: set to ``0`` / ``false`` / ``off`` to disable
#: telemetry collection (counters still tick — they are part of the
#: simulator — but nothing is snapshotted or attached to results).
OBS_ENV = "REPRO_OBS"

#: Version of the telemetry dict layout attached to results.
TELEMETRY_FORMAT = 1

_active = threading.local()


def obs_enabled() -> bool:
    """Whether telemetry collection is enabled (default: yes)."""
    return env_flag(OBS_ENV, True)


def current_collector() -> Optional["TelemetryCollector"]:
    """The collector active on this thread, or ``None``."""
    return getattr(_active, "collector", None)


class TelemetryCollector:
    """Gathers one run's simulators and phase spans.

    Context-manager protocol: entering installs the collector as the
    thread's active one (stacking — a nested run restores the outer
    collector on exit) and starts the run wall clock.
    """

    def __init__(
        self,
        sanitizer: Optional[Any] = None,
        probes: Optional[bool] = None,
    ) -> None:
        self.timeline = Timeline()
        self.simulators: List[Any] = []
        self.wall_s = 0.0
        self.sanitizer = sanitizer
        self.probes = probes_enabled() if probes is None else probes
        self._started: Optional[float] = None
        self._previous: Optional["TelemetryCollector"] = None

    def register_simulator(self, sim) -> None:
        self.simulators.append(sim)
        if self.probes and getattr(sim, "probe", None) is None:
            # In-simulation time-series probes (repro.obs.probe): pure
            # readers on the every() tick grid, so attaching them never
            # changes result bytes or cache keys.
            sim.probe = ProbeSet(sim)
        if self.sanitizer is not None:
            self.sanitizer.attach(sim)

    def __enter__(self) -> "TelemetryCollector":
        self._previous = current_collector()
        _active.collector = self
        self._started = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self._started is not None:
            self.wall_s = perf_counter() - self._started
        _active.collector = self._previous
        self._previous = None

    def snapshot(self) -> Dict[str, Any]:
        """The run's telemetry dict (see ``docs/observability.md``)."""
        counters = merge_counters(
            [simulator_counters(sim) for sim in self.simulators]
        )
        events = counters.get("events_processed", 0)
        sim_wall = counters.get("run_wall_s", 0.0)
        sim_time = counters.get("sim_time_s", 0.0)
        snapshot = {
            "format": TELEMETRY_FORMAT,
            "wall_s": round(self.wall_s, 6),
            "simulators": len(self.simulators),
            "events_processed": events,
            "sim_time_s": sim_time,
            "sim_wall_s": sim_wall,
            "events_per_sec": round(events / sim_wall, 1) if sim_wall > 0 else 0.0,
            "speedup": round(sim_time / sim_wall, 3) if sim_wall > 0 else 0.0,
            "counters": counters,
            "spans": self.timeline.snapshot(),
        }
        probe_sets = [
            sim.probe
            for sim in self.simulators
            if getattr(sim, "probe", None) is not None
        ]
        if probe_sets:
            # Envelope-only like everything else here: probe series never
            # enter the canonical result payload (REPRO_PROBES parity is
            # pinned by tests/test_probes.py).
            snapshot["probes"] = {
                "format": PROBE_FORMAT,
                "interval_s": probe_sets[0].interval_s,
                "simulators": [
                    probe.snapshot(index) for index, probe in enumerate(probe_sets)
                ],
            }
        if self.sanitizer is not None:
            # Envelope-only, like everything else in the telemetry dict:
            # proof the sanitizer engaged, never part of the result payload.
            snapshot["sanitizer"] = self.sanitizer.summary()
        return snapshot


@contextlib.contextmanager
def collect() -> Iterator[Optional[TelemetryCollector]]:
    """Open a collector for the enclosed run; yields ``None`` when disabled.

    With ``REPRO_SANITIZE=1`` a runtime :class:`~repro.analysis.sanitizer.
    Sanitizer` rides along on the collector: every simulator that registers
    is instrumented, and end-of-run conservation is checked on clean exit
    (a run that already raised reports its own error, not a conservation
    echo of it).  The sanitizer works even with ``REPRO_OBS=0`` — a
    collector is still opened to carry it, but the caller sees ``None`` so
    no telemetry is attached.
    """
    from repro.analysis.sanitizer import maybe_sanitizer

    sanitizer = maybe_sanitizer()
    if not obs_enabled():
        if sanitizer is None:
            yield None
            return
        with TelemetryCollector(sanitizer=sanitizer):
            yield None
        sanitizer.finalize()
        return
    with TelemetryCollector(sanitizer=sanitizer) as collector:
        yield collector
    if sanitizer is not None:
        sanitizer.finalize()


_NO_SPAN = contextlib.nullcontext()


def span(name: str) -> ContextManager[None]:
    """Time the enclosed ``with`` block into the active collector's timeline.

    A no-op (beyond one thread-local lookup) when no collector is active,
    so library code can annotate phases unconditionally.
    """
    collector = current_collector()
    if collector is None:
        return _NO_SPAN
    return collector.timeline.span(name)


def timed_iter(name: str, iterator):
    """Meter time spent pulling from ``iterator`` into span ``name``.

    Returns the iterator unchanged when no collector is active, so lazily
    consumed workload streams cost nothing un-instrumented.
    """
    collector = current_collector()
    if collector is None:
        return iterator
    return collector.timeline.wrap_iter(name, iterator)
