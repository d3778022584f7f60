"""Figures 5 and 6: accuracy of Bundler's RTT and receive-rate estimates.

The paper validates the epoch-based measurement machinery by comparing, at
each point in time, the sendbox's estimates of the RTT and receive rate with
ground truth observed at the bottleneck router, across 90 traces covering
link delays of {20, 50, 100} ms and bottleneck rates of {24, 48, 96} Mbit/s.
It reports that 80% of RTT estimates fall within 1.2 ms of the actual value
and 80% of the receive-rate estimates within 4 Mbit/s.

Here the ground truth comes from the simulator directly: the true RTT is the
base RTT plus the measured queueing delay at the bottleneck, and the true
receive rate is the bottleneck link's delivered throughput, both sampled on
the same time grid as Bundler's estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core import BundlerConfig, install_bundler
from repro.cc import make_window_cc
from repro.net.simulator import Simulator
from repro.net.topology import build_site_to_site
from repro.net.trace import QueueMonitor, RateMonitor, TimeSeries, percentile
from repro.transport.flow import TcpFlow
from repro.util.units import ms_to_s


@dataclass
class EstimateTrace:
    """Estimated-vs-actual series for one (rate, delay) configuration."""

    bottleneck_mbps: float
    rtt_ms: float
    estimated_rtt: TimeSeries
    actual_rtt: TimeSeries
    estimated_recv_rate: TimeSeries
    actual_recv_rate: TimeSeries

    def rtt_errors_ms(self) -> List[float]:
        """Estimate-minus-actual RTT differences (milliseconds) on the estimate grid."""
        errors = []
        for t, est in self.estimated_rtt:
            actual = self.actual_rtt.value_at(t)
            if actual is not None:
                errors.append((est - actual) * 1e3)
        return errors

    def rate_errors_mbps(self) -> List[float]:
        """Estimate-minus-actual receive-rate differences (Mbit/s)."""
        errors = []
        for t, est in self.estimated_recv_rate:
            actual = self.actual_recv_rate.value_at(t)
            if actual is not None:
                errors.append((est - actual) / 1e6)
        return errors


def run_estimate_trace(
    *,
    bottleneck_mbps: float = 24.0,
    rtt_ms: float = 50.0,
    duration_s: float = 20.0,
    num_flows: int = 4,
    sample_interval_s: float = 0.1,
    sendbox_cc: str = "copa",
) -> EstimateTrace:
    """Run one measurement-accuracy trace."""
    sim = Simulator()
    topo = build_site_to_site(
        sim,
        bottleneck_mbps=bottleneck_mbps,
        rtt_ms=rtt_ms,
        num_servers=max(num_flows, 1),
        num_clients=1,
    )
    bottleneck_queue = QueueMonitor(topo.bottleneck_link)
    bottleneck_rate = RateMonitor(topo.bottleneck_link)
    pair = install_bundler(
        topo,
        BundlerConfig(sendbox_cc=sendbox_cc, scheduler="fifo", enable_nimbus=False),
    )
    flows = [
        TcpFlow(
            sim,
            topo.packet_factory,
            topo.servers[i % len(topo.servers)],
            topo.clients[0],
            size_bytes=None,
            cc=make_window_cc("cubic"),
        ).start()
        for i in range(num_flows)
    ]

    estimated_rtt = TimeSeries()
    estimated_rate = TimeSeries()
    actual_rtt = TimeSeries()
    base_rtt = ms_to_s(rtt_ms)

    def sample() -> None:
        now = sim.now
        state = pair.sendbox.bundles.get(0)
        if state is None:
            return
        measurement = state.measurement.current_measurement(now)
        if measurement is None:
            return
        estimated_rtt.add(now, measurement.rtt)
        estimated_rate.add(now, measurement.recv_rate)
        # Ground truth: base propagation RTT plus the bottleneck's current
        # queueing delay (most recent dequeue's wait).
        queue_delay = bottleneck_queue.delay.value_at(now) or 0.0
        actual_rtt.add(now, base_rtt + queue_delay)

    sim.every(sample_interval_s, sample)
    sim.run(until=duration_s)
    for flow in flows:
        flow.stop()

    actual_rate = bottleneck_rate.series_bps()
    return EstimateTrace(
        bottleneck_mbps=bottleneck_mbps,
        rtt_ms=rtt_ms,
        estimated_rtt=estimated_rtt,
        actual_rtt=actual_rtt,
        estimated_recv_rate=estimated_rate,
        actual_recv_rate=actual_rate,
    )


def _estimates_scenario(*, seed: int, **params):
    # Long-lived flows only — deterministic, so the seed is unused.
    trace = run_estimate_trace(**params)
    rtt_errors = [abs(e) for e in trace.rtt_errors_ms()]
    rate_errors = [abs(e) for e in trace.rate_errors_mbps()]
    return {
        "rtt_error_p80_ms": percentile(rtt_errors, 80.0) if rtt_errors else None,
        "rtt_error_median_ms": percentile(rtt_errors, 50.0) if rtt_errors else None,
        "rate_error_p80_mbps": percentile(rate_errors, 80.0) if rate_errors else None,
        "rate_error_median_mbps": percentile(rate_errors, 50.0) if rate_errors else None,
        "rtt_samples": len(rtt_errors),
        "rate_samples": len(rate_errors),
    }
