"""repro.obs — always-on, near-zero-overhead observability.

Four layers (see ``docs/observability.md`` for the full catalogue):

* **hot-path counters** — :class:`~repro.obs.stats.SimStats`, the
  ``__slots__`` struct every simulator owns, fed inline by the event loop;
  links, qdiscs, transports, and sendboxes are registered with their
  simulator and their existing counters are folded in at snapshot time
  (zero added work per packet);
* **phase timing** — :class:`~repro.obs.timeline.Timeline` spans collected
  per run by :class:`~repro.obs.collect.TelemetryCollector` and attached to
  ``RunResult.telemetry``, which flows through the cache envelope, the
  manifest, sweep summaries, exports, and distributed workers'
  ``WorkOutcome`` frames;
* **in-simulation probes**, on request (``REPRO_PROBES=1``, or
  ``trace-export`` for one cell) — :class:`~repro.obs.probe.ProbeSet` samples
  per-link backlog/utilization, per-qdisc backlog, per-flow cwnd/rate and
  sendbox epoch state on the simulator's deterministic tick grid into
  bounded rings (with mergeable :mod:`~repro.obs.sketch` quantile
  sketches), exported as Chrome/Perfetto traces by
  :mod:`repro.obs.export_trace` (``repro-runner trace-export``) and as
  long-format CSV/JSONL by ``report --timeseries``;
* **profiling** — :mod:`repro.obs.profiling` wraps cProfile for
  ``repro-runner profile``.

The counters are also the repo's **deterministic ledger**:
``tests/test_result_golden.py`` pins every count of one cell per scenario
in ``tests/golden/run_counters.json`` at zero tolerance.  How *fast* the
simulator runs is measured in one place only,
``benchmarks/perfbench/bench.py``.

Telemetry is metrics-*about*-the-run, never metrics-*of*-the-run: cache
keys and result bytes are identical with the layer on or off
(``REPRO_OBS=0`` disables collection; ``tests/test_obs_parity.py``
enforces the parity).
"""

from repro.obs.collect import (
    OBS_ENV,
    TELEMETRY_FORMAT,
    TelemetryCollector,
    collect,
    current_collector,
    obs_enabled,
    span,
    timed_iter,
)
from repro.obs.probe import (
    PROBE_FORMAT,
    PROBES_ENV,
    EventRing,
    ProbeSet,
    SeriesRing,
    probes_enabled,
)
from repro.obs.sketch import QuantileSketch
from repro.obs.stats import SimStats, merge_counters, simulator_counters
from repro.obs.timeline import Timeline

__all__ = [
    "OBS_ENV",
    "PROBES_ENV",
    "PROBE_FORMAT",
    "TELEMETRY_FORMAT",
    "EventRing",
    "ProbeSet",
    "QuantileSketch",
    "SeriesRing",
    "SimStats",
    "TelemetryCollector",
    "Timeline",
    "collect",
    "current_collector",
    "merge_counters",
    "obs_enabled",
    "probes_enabled",
    "simulator_counters",
    "span",
    "timed_iter",
]
