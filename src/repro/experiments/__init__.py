"""Experiment scenarios reproducing the paper's evaluation.

:mod:`repro.experiments.catalog` declares every built-in runner scenario
(name, figure, version, knobs, metric schema) as data and names the run
function by import path; it is all the registry loads.  The modules below
are the *models* those entries point at — importing one imports the
simulator, so this package imports none of them until a name is asked for:
the attributes in ``__all__`` resolve on first access (PEP 562).

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

from importlib import import_module

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "ScenarioConfig": "scenarios",
    "ScenarioResult": "scenarios",
    "run_scenario": "scenarios",
    "scenario_metrics": "scenarios",
    "policy_metrics": "scenarios",
    "pi_settle_time": "ablations",
    "QueueShiftResult": "queue_shift",
    "run_queue_shift": "queue_shift",
    "EstimateTrace": "estimate_accuracy",
    "run_estimate_trace": "estimate_accuracy",
    "PhasedConfig": "cross_traffic",
    "run_phased_cross_traffic": "cross_traffic",
    "run_short_cross_point": "cross_traffic",
    "run_elastic_cross_point": "cross_traffic",
    "run_competing_bundles": "competing_bundles",
    "run_multipath_point": "multipath_sweep",
    "run_trace_replay": "trace_replay",
    "DEFAULT_REGIONS": "internet_paths",
    "run_region": "internet_paths",
    "run_internet_paths_study": "internet_paths",
    "median_latency_reduction": "internet_paths",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value
