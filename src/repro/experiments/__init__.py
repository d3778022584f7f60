"""Experiment scenarios reproducing the paper's evaluation.

:mod:`repro.experiments.scenarios` defines :class:`ScenarioConfig` /
:func:`run_scenario`, the workhorse used by most figures: the §7.1
site-to-site setup with a heavy-tailed request workload and a configurable
"mode" (Status Quo, Bundler with various schedulers and inner congestion
controllers, In-Network fair queueing, idealized proxy).

The remaining modules build the more specialised scenarios:

* :mod:`repro.experiments.cross_traffic` — Figures 10, 11 and 12.
* :mod:`repro.experiments.competing_bundles` — Figure 13.
* :mod:`repro.experiments.estimate_accuracy` — Figures 5 and 6.
* :mod:`repro.experiments.multipath_sweep` — Figure 7 and §7.6.
* :mod:`repro.experiments.internet_paths` — Figure 16 / §8.
* :mod:`repro.experiments.queue_shift` — Figure 2.
* :mod:`repro.experiments.ablations` — design-choice ablations (no figure).
* :mod:`repro.experiments.trace_replay` — trace-driven workload scenarios
  (diurnal load, flash crowds, bursty cross traffic) replayed from
  :mod:`repro.traffic` specs; beyond the paper's evaluation.
"""

from repro.experiments.scenarios import (
    ScenarioConfig,
    ScenarioResult,
    policy_metrics,
    run_scenario,
    scenario_metrics,
)
from repro.experiments.ablations import pi_settle_time
from repro.experiments.queue_shift import QueueShiftResult, run_queue_shift
from repro.experiments.estimate_accuracy import EstimateTrace, run_estimate_trace
from repro.experiments.cross_traffic import (
    PhasedConfig,
    run_elastic_cross_point,
    run_phased_cross_traffic,
    run_short_cross_point,
)
from repro.experiments.competing_bundles import run_competing_bundles
from repro.experiments.multipath_sweep import run_multipath_point
from repro.experiments.trace_replay import run_trace_replay
from repro.experiments.internet_paths import (
    DEFAULT_REGIONS,
    median_latency_reduction,
    run_internet_paths_study,
    run_region,
)

__all__ = [
    "ScenarioConfig",
    "ScenarioResult",
    "run_scenario",
    "scenario_metrics",
    "policy_metrics",
    "pi_settle_time",
    "QueueShiftResult",
    "run_queue_shift",
    "EstimateTrace",
    "run_estimate_trace",
    "PhasedConfig",
    "run_phased_cross_traffic",
    "run_short_cross_point",
    "run_elastic_cross_point",
    "run_competing_bundles",
    "run_multipath_point",
    "run_trace_replay",
    "DEFAULT_REGIONS",
    "run_region",
    "run_internet_paths_study",
    "median_latency_reduction",
]
