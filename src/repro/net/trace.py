"""Results-side taps and the series they fill.

A :class:`~repro.net.link.Link` measures nothing on its own.  The code that
reads a series attaches the tap that fills it, before the run:

* :class:`QueueMonitor` — per-packet queueing delay at one link (Figure 2,
  the Figures 5-6 ground truth, Figure 10, Figure 13);
* :class:`RateMonitor` — delivered bytes binned into a throughput series
  (the Figures 5-6 receive-rate ground truth).

Both are exact and unbounded, and what they record feeds metrics and
therefore result bytes — unlike the bounded, decimated probe series of
:mod:`repro.obs.probe`, which only ever ride the telemetry envelope.
:class:`TimeSeries` is the plain (time, value) container they fill;
:func:`percentile` summarizes scalar samples.
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, List, Optional, Sequence

if TYPE_CHECKING:
    from repro.net.link import Link
    from repro.net.packet import Packet


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

    def value_at(self, time: float) -> Optional[float]:
        """Most recent value at or before ``time`` (step interpolation)."""
        idx = bisect.bisect_right(self.times, time) - 1
        if idx < 0:
            return None
        return self.values[idx]


class QueueMonitor:
    """Tap recording each packet's queueing delay at ``link``.

    The delay is measured when the packet begins transmission
    (``dequeue_time - enqueue_time``), so time held back by a shaping qdisc
    counts.  Packet and drop counts live on the link itself
    (``packets_sent``, ``packets_dropped``); backlog over time is a probe
    series.
    """

    def __init__(self, link: Link) -> None:
        self.delay = TimeSeries()
        link.add_transmit_hook(self._on_transmit)

    def _on_transmit(self, packet: Packet, now: float) -> None:
        self.delay.add(now, now - packet.enqueued_at)

    def mean_delay(self) -> Optional[float]:
        return self.delay.mean()


class RateMonitor:
    """Tap binning the bytes ``link`` delivers into a throughput series.

    A packet is counted at the instant its serialization *finishes*: a
    packet straddling a bin boundary belongs to the later bin.
    """

    def __init__(self, link: Link, bin_width: float = 0.1) -> None:
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self.bin_width = bin_width
        self._bins: List[float] = []
        link.finish_tap = self._on_finish

    def _on_finish(self, now: float, size_bytes: int) -> None:
        idx = int(now / self.bin_width)
        while len(self._bins) <= idx:
            self._bins.append(0.0)
        self._bins[idx] += size_bytes

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
