"""Distribution summaries and comparisons between configurations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.net.trace import percentile


@dataclass
class DistributionSummary:
    """Five-number-style summary of a sample distribution."""

    count: int
    mean: float
    p10: float
    p25: float
    median: float
    p75: float
    p90: float
    p99: float
    minimum: float
    maximum: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p10": self.p10,
            "p25": self.p25,
            "median": self.median,
            "p75": self.p75,
            "p90": self.p90,
            "p99": self.p99,
            "min": self.minimum,
            "max": self.maximum,
        }


def summarize(samples: Iterable[float]) -> DistributionSummary:
    """Summarize a non-empty sample set."""
    data: List[float] = list(samples)
    if not data:
        raise ValueError("cannot summarize an empty sample set")
    return DistributionSummary(
        count=len(data),
        mean=sum(data) / len(data),
        p10=percentile(data, 10.0),
        p25=percentile(data, 25.0),
        median=percentile(data, 50.0),
        p75=percentile(data, 75.0),
        p90=percentile(data, 90.0),
        p99=percentile(data, 99.0),
        minimum=min(data),
        maximum=max(data),
    )


def improvement(baseline: float, treatment: float) -> float:
    """Relative improvement of ``treatment`` over ``baseline``.

    Positive values mean the treatment is lower/better (e.g. ``0.28`` means a
    28% reduction, as in "Bundler achieves 28% lower median slowdown").
    """
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    return (baseline - treatment) / baseline
