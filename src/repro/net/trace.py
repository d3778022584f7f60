"""Measurement and tracing helpers.

The evaluation needs three kinds of ground truth from the network:

* per-queue delay over time (Figure 2, Figure 7, Figure 10);
* per-link throughput over time (Figure 10, Figure 12);
* distributions of scalar samples (estimate-vs-actual differences in
  Figures 5 and 6, RTT distributions in Figure 16).

:class:`TimeSeries` is a plain container of (time, value) samples with
summary helpers; :class:`QueueMonitor` and :class:`RateMonitor` attach to a
:class:`~repro.net.link.Link` and populate time series as packets move.
"""

from __future__ import annotations

import bisect
from typing import Iterable, List, Optional, Sequence, Tuple


class TimeSeries:
    """Append-only series of (time, value) samples."""

    __slots__ = ("times", "values")

    def __init__(self) -> None:
        self.times: List[float] = []
        self.values: List[float] = []

    def add(self, time: float, value: float) -> None:
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        return iter(zip(self.times, self.values, strict=True))

    def between(self, start: float, end: float) -> "TimeSeries":
        """Samples with ``start <= time < end`` (times are assumed sorted)."""
        out = TimeSeries()
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        out.times = self.times[lo:hi]
        out.values = self.values[lo:hi]
        return out

    def mean(self) -> Optional[float]:
        if not self.values:
            return None
        return sum(self.values) / len(self.values)

    def max(self) -> Optional[float]:
        return max(self.values) if self.values else None

    def min(self) -> Optional[float]:
        return min(self.values) if self.values else None

    def last(self) -> Optional[float]:
        return self.values[-1] if self.values else None

    def value_at(self, time: float) -> Optional[float]:
        """Most recent value at or before ``time`` (step interpolation)."""
        idx = bisect.bisect_right(self.times, time) - 1
        if idx < 0:
            return None
        return self.values[idx]

    def resample(self, interval: float, start: float = 0.0, end: Optional[float] = None) -> "TimeSeries":
        """Step-resample onto a regular grid (useful for comparing series)."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        out = TimeSeries()
        if not self.times:
            return out
        stop = end if end is not None else self.times[-1]
        t = start
        while t <= stop + 1e-12:
            v = self.value_at(t)
            if v is not None:
                out.add(t, v)
            t += interval
        return out


class QueueMonitor:
    """Records queueing delay at a link's queue.

    The queueing delay of a packet is measured when it begins transmission:
    ``dequeue_time - enqueue_time``.  Packet and drop counts live on the
    :class:`~repro.net.link.Link` itself (``packets_sent``,
    ``packets_dropped``); backlog over time is a probe series.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.delay = TimeSeries()

    def on_dequeue(self, now: float, wait: float) -> None:
        if self.enabled:
            self.delay.add(now, wait)

    def mean_delay(self) -> Optional[float]:
        return self.delay.mean()

    def max_delay(self) -> Optional[float]:
        return self.delay.max()


class RateMonitor:
    """Bins delivered bytes into fixed intervals to produce a throughput series."""

    def __init__(self, bin_width: float = 0.1) -> None:
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self.bin_width = bin_width
        self._bins: List[float] = []
        self.total_bytes = 0
        self.total_packets = 0

    def on_delivery(self, now: float, size_bytes: int) -> None:
        idx = int(now / self.bin_width)
        while len(self._bins) <= idx:
            self._bins.append(0.0)
        self._bins[idx] += size_bytes
        self.total_bytes += size_bytes
        self.total_packets += 1

    def series_bps(self) -> TimeSeries:
        """Throughput (bits/second) per bin, timestamped at the bin start."""
        out = TimeSeries()
        for i, byte_count in enumerate(self._bins):
            out.add(i * self.bin_width, byte_count * 8.0 / self.bin_width)
        return out

    def mean_bps(self, start: float = 0.0, end: Optional[float] = None) -> float:
        """Mean throughput between ``start`` and ``end`` (bin-aligned)."""
        series = self.series_bps()
        if end is None:
            end = (len(self._bins)) * self.bin_width
        window = series.between(start, end)
        return window.mean() or 0.0


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank style percentile with linear interpolation.

    ``pct`` is in [0, 100].  Raises ``ValueError`` on an empty sequence so
    that silent NaNs never enter experiment results.
    """
    if not samples:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= pct <= 100.0:
        raise ValueError("pct must be within [0, 100]")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def cdf(samples: Iterable[float]) -> List[Tuple[float, float]]:
    """Empirical CDF points as (value, cumulative_probability)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return []
    return [(value, (i + 1) / n) for i, value in enumerate(ordered)]
