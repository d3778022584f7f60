"""Cross-traffic experiments (§7.3): Figures 10, 11 and 12.

* :func:`run_phased_cross_traffic` (Figure 10): three consecutive phases —
  no cross traffic, buffer-filling (backlogged Cubic) cross traffic, then
  non-buffer-filling (heavy-tailed request) cross traffic — while the bundle
  carries the standard workload.  The result records per-phase in-network
  queueing delay, short-flow slowdowns, and the time Bundler spent in
  pass-through mode (the grey shading in the paper's figure).
* :func:`run_short_cross_point` (Figure 11): the bundle offers a fixed load
  against finite, mostly-short cross traffic at one offered load, with or
  without Bundler; the figure's sweep is a ``SweepSpec`` over the
  registered scenario.
* :func:`run_elastic_cross_point` (Figure 12): the bundle carries a fixed
  number of backlogged flows against a given number of competing
  buffer-filling flows; reports the bundle's throughput share (the paper
  measures a 12–22% throughput reduction versus its fair share).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.controller import BundlerMode
from repro.experiments.scenarios import build_site
from repro.metrics.fct import FctAnalysis, filter_by_time
from repro.net.trace import QueueMonitor, TimeSeries
from repro.traffic.replay import TraceReplayWorkload
from repro.traffic.sources import BackloggedFlows
from repro.transport.flow import FlowRecord
from repro.util.rng import derive_seed, make_rng
from repro.util.units import mbps_to_bps, ms_to_s


@dataclass
class PhasedCrossTrafficResult:
    """Outcome of the Figure 10 experiment."""

    phase_boundaries: Sequence[float]
    records: List[FlowRecord]
    bottleneck_queue_delay: TimeSeries
    pass_through_seconds: float
    config: "PhasedConfig"

    def phase_records(self, phase: int) -> List[FlowRecord]:
        start = self.phase_boundaries[phase]
        end = self.phase_boundaries[phase + 1]
        return filter_by_time(self.records, start, end)

    def phase_fct(self, phase: int) -> FctAnalysis:
        return FctAnalysis.from_records(
            self.phase_records(phase),
            rtt_s=ms_to_s(self.config.rtt_ms),
            bottleneck_bps=mbps_to_bps(self.config.bottleneck_mbps),
        )

    def phase_queue_delay_mean(self, phase: int) -> float:
        start = self.phase_boundaries[phase]
        end = self.phase_boundaries[phase + 1]
        return self.bottleneck_queue_delay.between(start, end).mean() or 0.0


@dataclass
class PhasedConfig:
    """Parameters of the phased cross-traffic experiment."""

    bottleneck_mbps: float = 24.0
    rtt_ms: float = 50.0
    phase_duration_s: float = 20.0
    bundle_load_fraction: float = 0.6
    cross_bulk_flows: int = 1
    cross_load_fraction: float = 0.3
    with_bundler: bool = True
    sendbox_cc: str = "copa"
    seed: int = 1
    num_servers: int = 6


def run_phased_cross_traffic(config: Optional[PhasedConfig] = None) -> PhasedCrossTrafficResult:
    """Run the three-phase cross-traffic scenario of Figure 10."""
    config = config or PhasedConfig()
    topo, pair = build_site(
        mode="bundler_sfq" if config.with_bundler else "status_quo",
        bottleneck_mbps=config.bottleneck_mbps,
        rtt_ms=config.rtt_ms,
        num_servers=config.num_servers,
        num_clients=1,
        num_cross_pairs=max(config.cross_bulk_flows, 2),
        sendbox_cc=config.sendbox_cc,
        enable_nimbus=True,
    )
    sim = topo.sim
    bottleneck_queue = QueueMonitor(topo.bottleneck_link)

    rng = make_rng(derive_seed(config.seed, "fig10"))
    total = 3 * config.phase_duration_s
    workload = TraceReplayWorkload.poisson_requests(
        sim,
        topo.packet_factory,
        topo.servers,
        topo.clients,
        offered_load_bps=config.bundle_load_fraction * mbps_to_bps(config.bottleneck_mbps),
        rng=rng,
        duration_s=total,
    ).start()

    # Phase 2: buffer-filling (backlogged Cubic) cross traffic.
    bulk_pairs = list(zip(topo.cross_senders[: config.cross_bulk_flows],
                          topo.cross_receivers[: config.cross_bulk_flows],
                          strict=True))
    bulk = BackloggedFlows(sim, topo.packet_factory, bulk_pairs, endhost_cc="cubic")
    sim.at(config.phase_duration_s, lambda: bulk.start())
    sim.at(2 * config.phase_duration_s, bulk.stop)

    # Phase 3: non-buffer-filling cross traffic (request workload from the
    # cross hosts, same heavy-tailed distribution).
    cross_rng = make_rng(derive_seed(config.seed, "fig10-cross"))
    cross_requests = TraceReplayWorkload.poisson_requests(
        sim,
        topo.packet_factory,
        topo.cross_senders,
        topo.cross_receivers,
        offered_load_bps=config.cross_load_fraction * mbps_to_bps(config.bottleneck_mbps),
        rng=cross_rng,
        duration_s=config.phase_duration_s,
    )
    sim.at(2 * config.phase_duration_s, lambda: cross_requests.start(at=sim.now))

    sim.run(until=total + 3.0)

    pass_seconds = 0.0
    if pair is not None:
        state = pair.sendbox.bundles.get(0)
        if state is not None:
            pass_seconds = state.controller.time_in_mode(BundlerMode.PASS_THROUGH, total)

    return PhasedCrossTrafficResult(
        phase_boundaries=(0.0, config.phase_duration_s, 2 * config.phase_duration_s, total),
        records=workload.records(include_incomplete=True),
        bottleneck_queue_delay=bottleneck_queue.delay,
        pass_through_seconds=pass_seconds,
        config=config,
    )


@dataclass
class CrossSweepPoint:
    """One point of the Figure 11 sweep.

    Slowdown fields are ``None`` when no flows completed after warm-up
    (possible at extreme parameter corners).
    """

    cross_load_mbps: float
    mode: str
    median_slowdown: Optional[float]
    p99_slowdown: Optional[float]
    completed: int


def run_short_cross_point(
    *,
    mode: str,
    cross_load_fraction: float,
    bottleneck_mbps: float = 24.0,
    rtt_ms: float = 50.0,
    bundle_load_fraction: float = 0.5,
    duration_s: float = 15.0,
    seed: int = 1,
    sendbox_cc: str = "copa",
) -> CrossSweepPoint:
    """One (mode, cross-load) cell of the Figure 11 sweep."""
    topo, _ = build_site(
        mode="bundler_sfq" if mode == "bundler" else "status_quo",
        bottleneck_mbps=bottleneck_mbps,
        rtt_ms=rtt_ms,
        num_servers=6,
        num_clients=1,
        num_cross_pairs=4,
        sendbox_cc=sendbox_cc,
        enable_nimbus=True,
    )
    sim = topo.sim
    rng = make_rng(derive_seed(seed, f"fig11-{mode}-{cross_load_fraction}"))
    workload = TraceReplayWorkload.poisson_requests(
        sim,
        topo.packet_factory,
        topo.servers,
        topo.clients,
        offered_load_bps=bundle_load_fraction * mbps_to_bps(bottleneck_mbps),
        rng=rng,
        duration_s=duration_s,
    ).start()
    cross_rng = make_rng(derive_seed(seed, f"fig11-cross-{mode}-{cross_load_fraction}"))
    TraceReplayWorkload.poisson_requests(
        sim,
        topo.packet_factory,
        topo.cross_senders,
        topo.cross_receivers,
        offered_load_bps=cross_load_fraction * mbps_to_bps(bottleneck_mbps),
        rng=cross_rng,
        duration_s=duration_s,
    ).start()
    sim.run(until=duration_s + 3.0)
    analysis = FctAnalysis.from_records(
        workload.records(),
        rtt_s=ms_to_s(rtt_ms),
        bottleneck_bps=mbps_to_bps(bottleneck_mbps),
        warmup_s=1.0,
    )
    return CrossSweepPoint(
        cross_load_mbps=cross_load_fraction * bottleneck_mbps,
        mode=mode,
        median_slowdown=analysis.median_slowdown() if len(analysis) else None,
        p99_slowdown=analysis.percentile_slowdown(99) if len(analysis) else None,
        completed=len(analysis),
    )


@dataclass
class ElasticSweepPoint:
    """One point of the Figure 12 sweep."""

    competing_flows: int
    mode: str
    bundle_throughput_mbps: float
    cross_throughput_mbps: float
    fair_share_mbps: float

    @property
    def throughput_vs_fair_share(self) -> float:
        """Bundle throughput relative to its fair share (1.0 = exactly fair)."""
        if self.fair_share_mbps <= 0:
            return 0.0
        return self.bundle_throughput_mbps / self.fair_share_mbps


def run_elastic_cross_point(
    *,
    mode: str,
    competing_flows: int,
    bottleneck_mbps: float = 24.0,
    rtt_ms: float = 50.0,
    bundle_flows: int = 5,
    duration_s: float = 30.0,
    warmup_s: float = 0.0,
    sendbox_cc: str = "copa",
) -> ElasticSweepPoint:
    """One (mode, competing-flow-count) cell of the Figure 12 sweep.

    ``warmup_s`` excludes the start-up transient from the throughput means:
    Nimbus needs several seconds of epoch measurements before it classifies
    the cross traffic as elastic and switches the bundle to competitive
    mode, and the paper's steady-state comparison should not average over
    that detection window.
    """
    topo, _ = build_site(
        mode="bundler_sfq" if mode == "bundler" else "status_quo",
        bottleneck_mbps=bottleneck_mbps,
        rtt_ms=rtt_ms,
        num_servers=bundle_flows,
        num_clients=1,
        num_cross_pairs=competing_flows,
        sendbox_cc=sendbox_cc,
        enable_nimbus=True,
    )
    sim = topo.sim
    bundle = BackloggedFlows(
        sim,
        topo.packet_factory,
        [(s, topo.clients[0]) for s in topo.servers],
        endhost_cc="cubic",
    ).start()
    cross = BackloggedFlows(
        sim,
        topo.packet_factory,
        list(zip(topo.cross_senders, topo.cross_receivers, strict=True)),
        endhost_cc="cubic",
    ).start(at=0.5)
    if not 0.0 <= warmup_s < duration_s:
        raise ValueError("warmup must fall within the run")
    at_warmup = {"bundle": 0, "cross": 0}
    sim.at(
        warmup_s,
        lambda: at_warmup.update(
            bundle=bundle.total_bytes_delivered(), cross=cross.total_bytes_delivered()
        ),
    )
    sim.run(until=duration_s)
    span = duration_s - warmup_s
    bundle_mbps = (bundle.total_bytes_delivered() - at_warmup["bundle"]) * 8.0 / span / 1e6
    cross_mbps = (cross.total_bytes_delivered() - at_warmup["cross"]) * 8.0 / span / 1e6
    fair = bottleneck_mbps * bundle_flows / (bundle_flows + competing_flows)
    return ElasticSweepPoint(
        competing_flows=competing_flows,
        mode=mode,
        bundle_throughput_mbps=bundle_mbps,
        cross_throughput_mbps=cross_mbps,
        fair_share_mbps=fair,
    )


# ---------------------------------------------------------------------------
# Runner scenario bodies (declared in repro.experiments.catalog).

def _phased_scenario(*, seed: int, **params):
    result = run_phased_cross_traffic(PhasedConfig(seed=seed, **params))
    metrics = {"pass_through_seconds": result.pass_through_seconds}
    for phase in range(3):
        fct = result.phase_fct(phase)
        metrics[f"phase{phase}_median_slowdown"] = fct.median_slowdown() if len(fct) else None
        metrics[f"phase{phase}_queue_delay_ms"] = result.phase_queue_delay_mean(phase) * 1e3
    return metrics


def _short_cross_scenario(*, seed: int, **params):
    point = run_short_cross_point(seed=seed, **params)
    return {
        "cross_load_mbps": point.cross_load_mbps,
        "median_slowdown": point.median_slowdown,
        "p99_slowdown": point.p99_slowdown,
        "completed": point.completed,
    }


def _elastic_cross_scenario(*, seed: int, **params):
    # Backlogged-flow duel: no request arrivals, so the seed is unused.
    point = run_elastic_cross_point(**params)
    return {
        "bundle_throughput_mbps": point.bundle_throughput_mbps,
        "cross_throughput_mbps": point.cross_throughput_mbps,
        "fair_share_mbps": point.fair_share_mbps,
        "throughput_vs_fair_share": point.throughput_vs_fair_share,
    }
