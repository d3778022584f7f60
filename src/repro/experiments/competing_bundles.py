"""Figure 13: multiple bundles competing at the same bottleneck.

Two bundles (each a separate site-A network with its own sendbox) share one
in-network bottleneck.  With a 1:1 or 2:1 offered-load split, both bundles
keep their in-network queues small, schedule their own traffic at their own
sendboxes, and improve their median FCT relative to the Status Quo run of
the same workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core import BundlerConfig, install_bundler
from repro.metrics.fct import FctAnalysis
from repro.net.simulator import Simulator
from repro.net.topology import build_competing_bundles
from repro.net.trace import QueueMonitor
from repro.traffic.replay import TraceReplayWorkload
from repro.util.rng import derive_seed, make_rng
from repro.util.units import mbps_to_bps, ms_to_s


@dataclass
class CompetingBundlesResult:
    """Per-bundle FCT analyses plus shared-bottleneck statistics."""

    load_split: Sequence[float]
    with_bundler: bool
    per_bundle_fct: List[FctAnalysis]
    bottleneck_mean_queue_delay_s: float
    bottleneck_drops: int

    def median_slowdowns(self) -> List[float]:
        return [fct.median_slowdown() for fct in self.per_bundle_fct]


def run_competing_bundles(
    *,
    load_split: Sequence[float] = (0.5, 0.5),
    total_load_fraction: float = 0.875,
    bottleneck_mbps: float = 24.0,
    rtt_ms: float = 50.0,
    duration_s: float = 15.0,
    with_bundler: bool = True,
    sendbox_cc: str = "copa",
    seed: int = 1,
) -> CompetingBundlesResult:
    """Run the Figure 13 scenario.

    ``load_split`` gives each bundle's share of the total offered load; the
    paper evaluates (0.5, 0.5) ("1:1") and (2/3, 1/3) ("2:1").
    """
    if abs(sum(load_split) - 1.0) > 1e-6:
        raise ValueError("load_split must sum to 1")
    sim = Simulator()
    topo = build_competing_bundles(
        sim,
        bottleneck_mbps=bottleneck_mbps,
        rtt_ms=rtt_ms,
        servers_per_bundle=[6] * len(load_split),
    )
    bottleneck_queue = QueueMonitor(topo.shared_bottleneck)
    config = BundlerConfig(
        sendbox_cc=sendbox_cc,
        scheduler="sfq",
        enable_nimbus=True,
        initial_rate_bps=mbps_to_bps(bottleneck_mbps) / (2.0 * len(load_split)),
    )
    workloads: List[TraceReplayWorkload] = []
    for idx, bundle_topo in enumerate(topo.bundles):
        if with_bundler:
            install_bundler(bundle_topo, config)
        rng = make_rng(derive_seed(seed, f"fig13-bundle{idx}"))
        workloads.append(
            TraceReplayWorkload.poisson_requests(
                sim,
                topo.packet_factory,
                bundle_topo.servers,
                bundle_topo.clients,
                offered_load_bps=load_split[idx] * total_load_fraction * mbps_to_bps(bottleneck_mbps),
                rng=rng,
                duration_s=duration_s,
            ).start()
        )
    sim.run(until=duration_s + 3.0)

    analyses = [
        FctAnalysis.from_records(
            w.records(),
            rtt_s=ms_to_s(rtt_ms),
            bottleneck_bps=mbps_to_bps(bottleneck_mbps),
            warmup_s=1.0,
        )
        for w in workloads
    ]
    return CompetingBundlesResult(
        load_split=load_split,
        with_bundler=with_bundler,
        per_bundle_fct=analyses,
        bottleneck_mean_queue_delay_s=bottleneck_queue.mean_delay() or 0.0,
        bottleneck_drops=topo.shared_bottleneck.packets_dropped,
    )


def _competing_bundles_scenario(*, seed: int, **params):
    result = run_competing_bundles(seed=seed, **params)
    metrics: Dict[str, object] = {
        "bottleneck_mean_queue_delay_ms": result.bottleneck_mean_queue_delay_s * 1e3,
        "bottleneck_drops": result.bottleneck_drops,
    }
    for idx, fct in enumerate(result.per_bundle_fct):
        metrics[f"bundle{idx}_median_slowdown"] = fct.median_slowdown() if len(fct) else None
        metrics[f"bundle{idx}_completed"] = len(fct)
    return metrics
