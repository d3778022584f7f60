"""Metrics and reporting.

* :mod:`repro.metrics.fct` — flow-completion-time and slowdown analysis
  (the primary metric of §7.2).
* :mod:`repro.metrics.stats` — distribution summaries and comparisons.
* :mod:`repro.metrics.reporting` — plain-text tables used by the benchmark
  harness to print paper-style rows.
"""

from repro.metrics.fct import FctAnalysis, ideal_fct, slowdown
from repro.metrics.stats import DistributionSummary, improvement, summarize
from repro.metrics.reporting import Table

__all__ = [
    "FctAnalysis",
    "ideal_fct",
    "slowdown",
    "DistributionSummary",
    "summarize",
    "improvement",
    "Table",
]
