"""Sliding-window and exponentially-weighted statistics.

Bundler's measurement module (§4.5) averages congestion signals over a
sliding window of epochs spanning roughly one RTT, and its congestion
controllers (Copa, BasicDelay, Nimbus, BBR) rely on windowed min/max filters
of the RTT and delivery rate.  These small data structures implement those
primitives; they are deliberately independent of the simulator so they can be
unit- and property-tested in isolation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, Optional, Tuple


class EWMA:
    """Exponentially weighted moving average.

    ``alpha`` is the weight of the newest sample: ``value = alpha * sample +
    (1 - alpha) * value``.  Before the first sample arrives :attr:`value`
    is ``None``.
    """

    def __init__(self, alpha: float) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._value: Optional[float] = None

    @property
    def value(self) -> Optional[float]:
        """Current smoothed value, or ``None`` if no samples have been added."""
        return self._value

    def update(self, sample: float) -> float:
        """Fold ``sample`` into the average and return the new value."""
        if self._value is None:
            self._value = float(sample)
        else:
            self._value = self.alpha * sample + (1.0 - self.alpha) * self._value
        return self._value

    def reset(self) -> None:
        """Forget all prior samples."""
        self._value = None


@dataclass
class _TimedSample:
    time: float
    value: float


class _TimeWindowFilter:
    """Shared machinery for windowed min/max filters over (time, value) samples."""

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._samples: Deque[_TimedSample] = deque()

    def _evict(self, now: float) -> None:
        cutoff = now - self.window
        while self._samples and self._samples[0].time < cutoff:
            self._samples.popleft()

    def __len__(self) -> int:
        return len(self._samples)


class MinFilter(_TimeWindowFilter):
    """Windowed minimum (monotonic deque).

    Used, for example, for the ``minRTT`` estimate that sets the epoch size
    (§4.5) and for BBR's min-RTT filter.
    """

    def update(self, now: float, value: float) -> float:
        self._evict(now)
        while self._samples and self._samples[-1].value >= value:
            self._samples.pop()
        self._samples.append(_TimedSample(now, value))
        return self._samples[0].value

    def current(self, now: Optional[float] = None) -> Optional[float]:
        """Current windowed minimum (optionally evicting samples older than ``now``)."""
        if now is not None:
            self._evict(now)
        if not self._samples:
            return None
        return self._samples[0].value


class MaxFilter(_TimeWindowFilter):
    """Windowed maximum (monotonic deque), e.g. BBR's bottleneck-bandwidth filter."""

    def update(self, now: float, value: float) -> float:
        self._evict(now)
        while self._samples and self._samples[-1].value <= value:
            self._samples.pop()
        self._samples.append(_TimedSample(now, value))
        return self._samples[0].value

    def current(self, now: Optional[float] = None) -> Optional[float]:
        """Current windowed maximum (optionally evicting samples older than ``now``)."""
        if now is not None:
            self._evict(now)
        if not self._samples:
            return None
        return self._samples[0].value


class SlidingWindow:
    """Fixed-duration sliding window of (time, value) samples.

    Bundler computes the congestion signals handed to the sendbox congestion
    controller over a sliding window of epochs corresponding to one RTT
    (§4.5); this class provides the mean/min/max/sum over that window.
    """

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._samples: Deque[_TimedSample] = deque()

    def add(self, now: float, value: float) -> None:
        """Add a sample observed at time ``now``."""
        self._samples.append(_TimedSample(now, value))
        self._evict(now)

    def set_window(self, window: float) -> None:
        """Change the window duration (e.g. when the RTT estimate changes)."""
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window

    def _evict(self, now: float) -> None:
        cutoff = now - self.window
        while self._samples and self._samples[0].time < cutoff:
            self._samples.popleft()

    def evict(self, now: float) -> None:
        """Drop samples older than the window relative to ``now``.

        Callers that read the window without adding a sample (e.g. a control
        loop that polls every 10 ms even when no feedback arrived) should
        evict first so stale samples do not linger indefinitely.
        """
        self._evict(now)

    def values(self) -> Tuple[float, ...]:
        return tuple(s.value for s in self._samples)

    def mean(self) -> Optional[float]:
        if not self._samples:
            return None
        return sum(s.value for s in self._samples) / len(self._samples)

    def min(self) -> Optional[float]:
        if not self._samples:
            return None
        return min(s.value for s in self._samples)

    def max(self) -> Optional[float]:
        if not self._samples:
            return None
        return max(s.value for s in self._samples)

    def sum(self) -> float:
        return sum(s.value for s in self._samples)

    def __len__(self) -> int:
        return len(self._samples)


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean of a non-empty iterable."""
    values = list(values)
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)
