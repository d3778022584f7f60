"""Flow completion time (FCT) and slowdown analysis.

§7.2 uses *median slowdown* as the headline metric: the slowdown of a
request is its completion time divided by what its completion time would
have been on an unloaded network.  The unloaded ("ideal") completion time of
a transfer of ``S`` bytes on a path with round-trip time ``rtt`` and
bottleneck rate ``C`` is modelled as one RTT (request + first response
packet) plus the serialization time of the transfer: ``rtt + 8 S / C``.

Figure 9 buckets requests into three size classes — at most 10 KB, 10 KB to
1 MB, and over 1 MB — and reports the slowdown distribution per class; the
same bucketing is provided here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.net.trace import percentile
from repro.transport.flow import FlowRecord

#: Figure 9's request-size buckets: (label, lower bound exclusive, upper bound inclusive).
SIZE_BUCKETS: Tuple[Tuple[str, float, float], ...] = (
    ("<=10KB", 0.0, 10_000.0),
    ("10KB-1MB", 10_000.0, 1_000_000.0),
    (">1MB", 1_000_000.0, float("inf")),
)


def ideal_fct(
    size_bytes: float,
    rtt_s: float,
    bottleneck_bps: float,
    *,
    mss: int = 1500,
    initial_window_segments: int = 10,
) -> float:
    """Completion time of a transfer on an unloaded network.

    The model matches how the simulated transfers behave when nothing else is
    on the path: the first byte arrives half an RTT after the flow starts,
    slow start doubles the window every RTT from ``initial_window_segments``
    segments, and once the window covers the bandwidth-delay product (or the
    remaining data) the rest streams at the bottleneck rate.  Dividing a
    measured FCT by this value yields the paper's "slowdown" (1.0 = as fast
    as an unloaded network).
    """
    if size_bytes <= 0:
        raise ValueError("size must be positive")
    if rtt_s <= 0 or bottleneck_bps <= 0:
        raise ValueError("rtt and bottleneck rate must be positive")
    bdp_bytes = bottleneck_bps * rtt_s / 8.0
    window = float(initial_window_segments * mss)
    sent = 0.0
    t = 0.5 * rtt_s
    while True:
        if window >= bdp_bytes or sent + window >= size_bytes:
            t += (size_bytes - sent) * 8.0 / bottleneck_bps
            return t
        sent += window
        t += rtt_s
        window *= 2.0


def slowdown(fct_s: float, size_bytes: float, rtt_s: float, bottleneck_bps: float) -> float:
    """Slowdown of one flow: measured FCT over unloaded FCT (1.0 is optimal)."""
    if fct_s <= 0:
        raise ValueError("fct must be positive")
    return fct_s / ideal_fct(size_bytes, rtt_s, bottleneck_bps)


@dataclass
class FctAnalysis:
    """Slowdown statistics for a set of completed flows."""

    rtt_s: float
    bottleneck_bps: float
    slowdowns: List[float]
    sizes: List[float]
    fcts: List[float]

    @classmethod
    def from_records(
        cls,
        records: Iterable[FlowRecord],
        *,
        rtt_s: float,
        bottleneck_bps: float,
        warmup_s: float = 0.0,
    ) -> "FctAnalysis":
        """Build an analysis from flow records, skipping incomplete and warm-up flows."""
        slowdowns: List[float] = []
        sizes: List[float] = []
        fcts: List[float] = []
        for record in records:
            if not record.completed or record.fct is None:
                continue
            if record.start_time < warmup_s:
                continue
            slowdowns.append(slowdown(record.fct, record.size_bytes, rtt_s, bottleneck_bps))
            sizes.append(float(record.size_bytes))
            fcts.append(record.fct)
        return cls(
            rtt_s=rtt_s,
            bottleneck_bps=bottleneck_bps,
            slowdowns=slowdowns,
            sizes=sizes,
            fcts=fcts,
        )

    def __len__(self) -> int:
        return len(self.slowdowns)

    def median_slowdown(self) -> float:
        return percentile(self.slowdowns, 50.0)

    def percentile_slowdown(self, pct: float) -> float:
        return percentile(self.slowdowns, pct)

    def median_fct(self) -> float:
        return percentile(self.fcts, 50.0)

    def percentile_fct(self, pct: float) -> float:
        return percentile(self.fcts, pct)

    def mean_slowdown(self) -> float:
        if not self.slowdowns:
            raise ValueError("no completed flows")
        return sum(self.slowdowns) / len(self.slowdowns)

    def by_size_bucket(self) -> Dict[str, "FctAnalysis"]:
        """Split the analysis into Figure 9's size buckets."""
        buckets: Dict[str, FctAnalysis] = {}
        for label, lo, hi in SIZE_BUCKETS:
            idx = [i for i, s in enumerate(self.sizes) if lo < s <= hi]
            buckets[label] = FctAnalysis(
                rtt_s=self.rtt_s,
                bottleneck_bps=self.bottleneck_bps,
                slowdowns=[self.slowdowns[i] for i in idx],
                sizes=[self.sizes[i] for i in idx],
                fcts=[self.fcts[i] for i in idx],
            )
        return buckets

    def short_flow_analysis(self, max_size_bytes: float = 10_000.0) -> "FctAnalysis":
        """Restrict the analysis to flows at or below ``max_size_bytes``."""
        idx = [i for i, s in enumerate(self.sizes) if s <= max_size_bytes]
        return FctAnalysis(
            rtt_s=self.rtt_s,
            bottleneck_bps=self.bottleneck_bps,
            slowdowns=[self.slowdowns[i] for i in idx],
            sizes=[self.sizes[i] for i in idx],
            fcts=[self.fcts[i] for i in idx],
        )


def filter_by_time(
    records: Sequence[FlowRecord], start: float, end: float
) -> List[FlowRecord]:
    """Flows that started within [start, end) — used for Figure 10's phases."""
    return [r for r in records if start <= r.start_time < end]
