"""Arrival processes.

Requests arrive according to a Poisson process whose rate is chosen to hit a
target *offered load*: ``load_bps = arrival_rate * mean_flow_size_bytes * 8``.
The §7.1 workload offers 84 Mbit/s against a 96 Mbit/s bottleneck (87.5%
load); cross-traffic experiments sweep the offered load (Figure 11).
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional


def arrival_rate_for_load(offered_load_bps: float, mean_flow_size_bytes: float) -> float:
    """Arrivals per second needed to offer ``offered_load_bps`` of traffic."""
    if offered_load_bps <= 0:
        raise ValueError("offered load must be positive")
    if mean_flow_size_bytes <= 0:
        raise ValueError("mean flow size must be positive")
    return offered_load_bps / (mean_flow_size_bytes * 8.0)


class PoissonArrivals:
    """Poisson (exponential inter-arrival) process."""

    def __init__(self, rate_per_s: float, rng: random.Random) -> None:
        if rate_per_s <= 0:
            raise ValueError("rate must be positive")
        self.rate_per_s = rate_per_s
        self.rng = rng

    def next_interarrival(self) -> float:
        """Draw the time until the next arrival (seconds)."""
        return self.rng.expovariate(self.rate_per_s)

    def arrival_times(
        self,
        *,
        count: Optional[int] = None,
        horizon_s: Optional[float] = None,
        start: float = 0.0,
    ) -> List[float]:
        """Generate arrival times, bounded by a count and/or a time horizon."""
        if count is None and horizon_s is None:
            raise ValueError("must bound by count or horizon")
        times: List[float] = []
        t = start
        while True:
            t += self.next_interarrival()
            if horizon_s is not None and t > start + horizon_s:
                break
            times.append(t)
            if count is not None and len(times) >= count:
                break
        return times

    def stream(self, start: float = 0.0) -> Iterator[float]:
        """Infinite iterator of arrival times."""
        t = start
        while True:
            t += self.next_interarrival()
            yield t
