"""Build a site-to-site deployment by hand and watch the queue move.

This example uses the lower-level API directly (topology builder, Bundler
installer, transports) instead of the pre-packaged scenarios: it sets up two
sites, installs a Bundler pair, runs a couple of bulk transfers alongside a
latency-sensitive probe, and reports where the queueing delay lives — the
Figure 2 experiment, plus the latency benefit SFQ gives the probe.

Run with::

    python examples/fair_queueing_site.py
"""

from repro.core import BundlerConfig, install_bundler
from repro.net import Simulator
from repro.net.topology import build_site_to_site
from repro.net.trace import QueueMonitor, RateMonitor, percentile
from repro.transport.flow import TcpFlow
from repro.traffic.sources import ClosedLoopProbes


def run(with_bundler: bool) -> dict:
    sim = Simulator()
    topo = build_site_to_site(sim, bottleneck_mbps=24.0, rtt_ms=50.0, num_servers=3, num_clients=1)
    # Links measure nothing on their own: attach a tap to each series we read.
    bottleneck_queue = QueueMonitor(topo.bottleneck_link)
    sendbox_queue = QueueMonitor(topo.sendbox_link)
    bottleneck_rate = RateMonitor(topo.bottleneck_link)
    if with_bundler:
        install_bundler(topo, BundlerConfig(sendbox_cc="copa", scheduler="sfq",
                                            initial_rate_bps=12e6))
    # Two bulk transfers (the traffic an operator wants to deprioritize) ...
    bulk = [
        TcpFlow(sim, topo.packet_factory, topo.servers[i], topo.clients[0], size_bytes=None).start()
        for i in range(2)
    ]
    # ... and a latency-sensitive request/response session.
    probes = ClosedLoopProbes(sim, topo.packet_factory, topo.servers[2], topo.clients[0], count=2).start()
    sim.run(until=20.0)
    for flow in bulk:
        flow.stop()
    probe_rtts = [r * 1e3 for r in probes.all_rtts()]
    return {
        "bottleneck_queue_ms": (bottleneck_queue.delay.between(5, 20).mean() or 0) * 1e3,
        "sendbox_queue_ms": (sendbox_queue.delay.between(5, 20).mean() or 0) * 1e3,
        "probe_median_rtt_ms": percentile(probe_rtts, 50) if probe_rtts else float("nan"),
        "bulk_throughput_mbps": bottleneck_rate.mean_bps(5, 20) / 1e6,
    }


def main() -> None:
    for label, with_bundler in (("status quo", False), ("bundler+sfq", True)):
        stats = run(with_bundler)
        print(
            f"{label:12s}: bottleneck queue={stats['bottleneck_queue_ms']:6.1f} ms  "
            f"sendbox queue={stats['sendbox_queue_ms']:6.1f} ms  "
            f"probe median RTT={stats['probe_median_rtt_ms']:6.1f} ms  "
            f"bulk throughput={stats['bulk_throughput_mbps']:5.1f} Mbit/s"
        )
    print("\nWith Bundler the standing queue sits at the sendbox, where SFQ keeps the "
          "probe's packets from waiting behind the bulk transfers.")


if __name__ == "__main__":
    main()
