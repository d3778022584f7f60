"""Figure 7 and §7.6: multipath imbalance and its detection.

When the WAN load-balances a bundle's flows across paths with different
delays, Bundler's epoch measurements interleave samples from different paths
(Figure 7) and a large fraction of congestion ACKs arrive out of order.
§7.6 sweeps bottleneck bandwidth, RTT and path count and finds at most 0.4%
out-of-order measurements on single paths versus at least 20% with 2–32
imbalanced paths — an order-of-magnitude separation that makes the 5%
threshold robust.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core import BundlerConfig, install_bundler
from repro.core.controller import BundlerMode
from repro.net.simulator import Simulator
from repro.net.topology import build_site_to_site
from repro.traffic.replay import TraceReplayWorkload
from repro.util.rng import derive_seed, make_rng
from repro.util.units import mbps_to_bps


@dataclass
class MultipathPoint:
    """One configuration of the §7.6 sweep."""

    num_paths: int
    bottleneck_mbps: float
    rtt_ms: float
    out_of_order_fraction: float
    detector_triggered: bool
    final_mode: str


def run_multipath_point(
    *,
    num_paths: int,
    bottleneck_mbps: float = 24.0,
    rtt_ms: float = 50.0,
    duration_s: float = 15.0,
    load_fraction: float = 0.7,
    path_split_mode: str = "packet",
    delay_spread: float = 2.0,
    seed: int = 1,
    enable_multipath_detection: bool = True,
) -> MultipathPoint:
    """Run one multipath (or single-path) configuration and report the heuristic."""
    sim = Simulator()
    if num_paths == 1:
        path_delays: Optional[Sequence[float]] = None
    else:
        # Imbalanced delays: path i has delay (1 + i * spread / paths) * base.
        base = rtt_ms / 2.0
        path_delays = [base * (1.0 + delay_spread * i / num_paths) for i in range(num_paths)]
    topo = build_site_to_site(
        sim,
        bottleneck_mbps=bottleneck_mbps,
        rtt_ms=rtt_ms,
        num_servers=8,
        num_clients=1,
        num_paths=num_paths,
        path_delay_ms=path_delays,
        path_split_mode=path_split_mode,
    )
    pair = install_bundler(
        topo,
        BundlerConfig(
            sendbox_cc="copa",
            scheduler="sfq",
            enable_nimbus=False,
            enable_multipath_detection=enable_multipath_detection,
            initial_rate_bps=mbps_to_bps(bottleneck_mbps) / 2.0,
        ),
    )
    rng = make_rng(derive_seed(seed, f"multipath-{num_paths}"))
    TraceReplayWorkload.poisson_requests(
        sim,
        topo.packet_factory,
        topo.servers,
        topo.clients,
        offered_load_bps=load_fraction * mbps_to_bps(bottleneck_mbps),
        rng=rng,
        duration_s=duration_s,
    ).start()
    sim.run(until=duration_s)

    state = pair.sendbox.bundles.get(0)
    fraction = state.measurement.out_of_order_fraction() if state else 0.0
    controller = state.controller if state else None
    triggered = bool(
        controller and controller.multipath is not None and controller.multipath.lifetime_fraction() > controller.multipath.threshold
    )
    mode = controller.mode.value if controller else BundlerMode.DELAY_CONTROL.value
    return MultipathPoint(
        num_paths=num_paths,
        bottleneck_mbps=bottleneck_mbps,
        rtt_ms=rtt_ms,
        out_of_order_fraction=fraction,
        detector_triggered=triggered,
        final_mode=mode,
    )


def _multipath_scenario(*, seed: int, **params):
    point = run_multipath_point(seed=seed, **params)
    return {
        "out_of_order_fraction": point.out_of_order_fraction,
        "detector_triggered": point.detector_triggered,
        "final_mode": point.final_mode,
    }
