"""Metrics and reporting.

* :mod:`repro.metrics.fct` — flow-completion-time and slowdown analysis
  (the primary metric of §7.2).
* :mod:`repro.metrics.stats` — distribution summaries and comparisons.
* :mod:`repro.metrics.reporting` — plain-text tables used by the benchmark
  harness to print paper-style rows.

``fct`` and ``stats`` import the simulator; ``reporting`` is what the CLI
renders every table with and imports nothing.  So the package imports no
submodule itself: the names in ``__all__`` resolve on first access (PEP 562).
"""

from importlib import import_module

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "FctAnalysis": "fct",
    "ideal_fct": "fct",
    "slowdown": "fct",
    "DistributionSummary": "stats",
    "summarize": "stats",
    "improvement": "stats",
    "Table": "reporting",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value
