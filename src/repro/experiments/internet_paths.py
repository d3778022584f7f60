"""Figure 16 / §8: the real-Internet-paths study, emulated.

The paper deploys a sendbox in a GCP region and receiveboxes in five other
regions, routes traffic over the public Internet, and runs two workloads per
bundle: ten parallel closed-loop 40-byte request/response probes (to measure
application-level RTTs) plus twenty backlogged bulk flows (to create load).
It finds that Status Quo RTTs are far above the unloaded ("Base") RTTs —
queueing is happening somewhere outside either site — and that Bundler
restores probe RTTs to near the base values (57% lower than Status Quo at
the median) without hurting bulk throughput.

Real WAN paths are not available here, so each region is emulated as a
rate-limited path (standing in for the suspected cloud egress rate limiter)
with a region-specific base RTT.  The three configurations reproduce the
figure's three bars per region: Base (probes alone), Status Quo (probes +
bulk, no Bundler) and Bundler (probes + bulk, Bundler with SFQ).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core import BundlerConfig, install_bundler
from repro.net.simulator import Simulator
from repro.net.topology import build_site_to_site
from repro.net.trace import percentile
from repro.runner.spec import expand_grid
from repro.traffic.sources import BackloggedFlows, ClosedLoopProbes
from repro.util.units import mbps_to_bps

#: The five receiving regions of the paper's deployment and the base RTTs we
#: emulate for them (Iowa to: Belgium, Frankfurt, Oregon, South Carolina, Tokyo).
DEFAULT_REGIONS: Dict[str, float] = {
    "belgium": 100.0,
    "frankfurt": 110.0,
    "oregon": 40.0,
    "south_carolina": 30.0,
    "tokyo": 150.0,
}


@dataclass
class RegionResult:
    """Probe RTTs and bulk throughput for one region under one configuration."""

    region: str
    configuration: str
    base_rtt_ms: float
    probe_rtts_ms: List[float]
    per_probe_rtts_ms: List[List[float]]
    bulk_throughput_mbps: float

    def median_probe_rtt_ms(self) -> float:
        return percentile(self.probe_rtts_ms, 50.0)

    def p99_probe_rtt_ms(self) -> float:
        return percentile(self.probe_rtts_ms, 99.0)


def run_region(
    *,
    region: str,
    base_rtt_ms: float,
    configuration: str,
    egress_limit_mbps: float = 24.0,
    duration_s: float = 20.0,
    num_probes: int = 10,
    num_bulk_flows: int = 5,
    sendbox_cc: str = "copa",
) -> RegionResult:
    """Run one (region, configuration) cell of the Figure 16 matrix.

    ``configuration`` is ``"base"`` (probes only), ``"status_quo"`` (probes +
    bulk flows, no Bundler) or ``"bundler"`` (probes + bulk flows + Bundler
    with SFQ at the sendbox).
    """
    if configuration not in ("base", "status_quo", "bundler"):
        raise ValueError("configuration must be base, status_quo or bundler")
    sim = Simulator()
    topo = build_site_to_site(
        sim,
        bottleneck_mbps=egress_limit_mbps,
        rtt_ms=base_rtt_ms,
        num_servers=max(num_bulk_flows, 1) + 1,
        num_clients=1,
    )
    if configuration == "bundler":
        install_bundler(
            topo,
            BundlerConfig(
                sendbox_cc=sendbox_cc,
                scheduler="sfq",
                enable_nimbus=True,
                initial_rate_bps=mbps_to_bps(egress_limit_mbps) / 2.0,
            ),
        )
    probes = ClosedLoopProbes(
        sim,
        topo.packet_factory,
        topo.servers[0],
        topo.clients[0],
        count=num_probes,
    ).start()
    bulk = None
    if configuration != "base":
        bulk = BackloggedFlows(
            sim,
            topo.packet_factory,
            [(topo.servers[1 + i % (len(topo.servers) - 1)], topo.clients[0]) for i in range(num_bulk_flows)],
            endhost_cc="cubic",
        ).start(at=0.5)
    sim.run(until=duration_s)

    bulk_mbps = bulk.mean_throughput_bps(duration_s) / 1e6 if bulk is not None else 0.0
    rtts_ms = [r * 1e3 for r in probes.all_rtts()]
    per_probe = [[r * 1e3 for r in rtts] for rtts in probes.per_probe_rtts()]
    return RegionResult(
        region=region,
        configuration=configuration,
        base_rtt_ms=base_rtt_ms,
        probe_rtts_ms=rtts_ms,
        per_probe_rtts_ms=per_probe,
        bulk_throughput_mbps=bulk_mbps,
    )


def run_internet_paths_study(
    regions: Optional[Dict[str, float]] = None,
    configurations: Sequence[str] = ("base", "status_quo", "bundler"),
    **kwargs,
) -> List[RegionResult]:
    """Run the full (regions × configurations) study."""
    regions = regions if regions is not None else DEFAULT_REGIONS
    cells = expand_grid({"region": list(regions), "configuration": configurations})
    return [
        run_region(
            region=cell["region"],
            base_rtt_ms=regions[cell["region"]],
            configuration=cell["configuration"],
            **kwargs,
        )
        for cell in cells
    ]


def _internet_paths_scenario(*, seed: int, region: str, base_rtt_ms, **params):
    # Probes and backlogged bulk flows are deterministic; seed unused.
    if base_rtt_ms is None:
        if region not in DEFAULT_REGIONS:
            raise KeyError(
                f"unknown region {region!r}: pass base_rtt_ms explicitly or use one of "
                f"{sorted(DEFAULT_REGIONS)}"
            )
        base_rtt_ms = DEFAULT_REGIONS[region]
    result = run_region(region=region, base_rtt_ms=base_rtt_ms, **params)
    return {
        "median_probe_rtt_ms": result.median_probe_rtt_ms(),
        "p99_probe_rtt_ms": result.p99_probe_rtt_ms(),
        "bulk_throughput_mbps": result.bulk_throughput_mbps,
        "probe_count": len(result.probe_rtts_ms),
    }


def median_latency_reduction(results: Sequence[RegionResult]) -> float:
    """Overall median probe-RTT reduction of Bundler versus Status Quo.

    The paper reports 57% lower request/response latencies at the median.
    """
    status_quo = [r for r in results if r.configuration == "status_quo"]
    bundler = [r for r in results if r.configuration == "bundler"]
    if not status_quo or not bundler:
        raise ValueError("need both status_quo and bundler results")
    sq_all = [rtt for r in status_quo for rtt in r.probe_rtts_ms]
    bu_all = [rtt for r in bundler for rtt in r.probe_rtts_ms]
    sq_median = percentile(sq_all, 50.0)
    bu_median = percentile(bu_all, 50.0)
    return (sq_median - bu_median) / sq_median
