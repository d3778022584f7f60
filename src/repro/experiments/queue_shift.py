"""Figure 2: Bundler shifts the queue from the bottleneck to the sendbox.

The illustrative experiment of Figure 2 runs a single long-lived flow over
an emulated path and plots the queueing delay at the in-network bottleneck
and at the site edge over time, with and without Bundler.  Without Bundler
the bottleneck queue holds tens of milliseconds of delay and the edge queue
is empty; with Bundler the picture inverts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core import BundlerConfig, install_bundler
from repro.cc import make_window_cc
from repro.net.simulator import Simulator
from repro.net.topology import build_site_to_site
from repro.net.trace import QueueMonitor, TimeSeries
from repro.transport.flow import TcpFlow


@dataclass
class QueueShiftResult:
    """Per-queue delay time series for one run of the Figure 2 experiment."""

    with_bundler: bool
    bottleneck_delay: TimeSeries
    sendbox_delay: TimeSeries
    bottleneck_drops: int

    def mean_bottleneck_delay(self, start: float = 5.0, end: Optional[float] = None) -> float:
        end = end if end is not None else float("inf")
        return self.bottleneck_delay.between(start, end).mean() or 0.0

    def mean_sendbox_delay(self, start: float = 5.0, end: Optional[float] = None) -> float:
        end = end if end is not None else float("inf")
        return self.sendbox_delay.between(start, end).mean() or 0.0


def run_queue_shift(
    *,
    with_bundler: bool,
    bottleneck_mbps: float = 24.0,
    rtt_ms: float = 50.0,
    duration_s: float = 30.0,
    num_flows: int = 2,
    endhost_cc: str = "cubic",
    sendbox_cc: str = "copa",
) -> QueueShiftResult:
    """Run the single-bundle long-flow experiment with or without Bundler."""
    sim = Simulator()
    topo = build_site_to_site(
        sim,
        bottleneck_mbps=bottleneck_mbps,
        rtt_ms=rtt_ms,
        num_servers=max(num_flows, 1),
        num_clients=1,
    )
    bottleneck_queue = QueueMonitor(topo.bottleneck_link)
    sendbox_queue = QueueMonitor(topo.sendbox_link)
    if with_bundler:
        install_bundler(
            topo,
            BundlerConfig(
                sendbox_cc=sendbox_cc,
                scheduler="fifo",
                enable_nimbus=False,
                initial_rate_bps=bottleneck_mbps * 1e6 / 2.0,
            ),
        )
    flows = [
        TcpFlow(
            sim,
            topo.packet_factory,
            topo.servers[i % len(topo.servers)],
            topo.clients[0],
            size_bytes=None,
            cc=make_window_cc(endhost_cc),
        ).start()
        for i in range(num_flows)
    ]
    sim.run(until=duration_s)
    for flow in flows:
        flow.stop()
    return QueueShiftResult(
        with_bundler=with_bundler,
        bottleneck_delay=bottleneck_queue.delay,
        sendbox_delay=sendbox_queue.delay,
        bottleneck_drops=topo.bottleneck_link.packets_dropped,
    )


def _queue_shift_scenario(*, seed: int, **params):
    # The experiment is fully deterministic (long-lived flows, no request
    # arrivals), so the derived seed is accepted but unused.
    result = run_queue_shift(**params)
    return {
        "mean_bottleneck_delay_ms": result.mean_bottleneck_delay() * 1e3,
        "mean_sendbox_delay_ms": result.mean_sendbox_delay() * 1e3,
        "bottleneck_drops": result.bottleneck_drops,
    }
