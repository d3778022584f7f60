"""The workhorse evaluation scenario (§7.1) and its configuration.

A scenario is: the site-to-site topology at a given bottleneck rate and RTT,
a heavy-tailed request workload offered at a fraction of the bottleneck
rate, and one of several *modes* describing who controls queueing and how:

``status_quo``
    No Bundler; the bottleneck is a drop-tail FIFO (what the paper calls
    "Status Quo").
``bundler_sfq`` / ``bundler_fifo`` / ``bundler_fq_codel`` / ``bundler_prio``
    Bundler installed at the site edges with the given scheduling policy at
    the sendbox (SFQ is the paper's default).
``in_network_sfq``
    No Bundler, but the bottleneck router itself runs fair queueing — the
    undeployable "In-Network" upper bound of Figure 9.
``proxy``
    The §7.5 idealized TCP-terminating proxy emulation: Bundler with SFQ
    plus constant-window endhosts and a deep sendbox buffer.

The default dimensions are scaled down from the paper's (which used
1,000,000 requests per run at 96 Mbit/s) so that a full figure's worth of
configurations runs in seconds on a laptop; the scale knobs are all explicit
fields of :class:`ScenarioConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import BundlerConfig, BundlerPair, install_bundler
from repro.cc import make_window_cc
from repro.experiments.catalog import ALL_MODES, BUNDLER_MODES
from repro.metrics.fct import FctAnalysis
from repro.net.simulator import Simulator
from repro.net.topology import SiteToSite, build_site_to_site
from repro.qdisc.sfq import SfqQdisc
from repro.traffic.replay import TraceReplayWorkload
from repro.transport.flow import FlowRecord
from repro.transport.proxy import idealized_proxy_window, proxy_buffer_packets
from repro.util.rng import derive_seed, make_rng
from repro.util.units import mbps_to_bps, ms_to_s
from repro.workload.flowsize import EmpiricalSizeDistribution


@dataclass
class ScenarioConfig:
    """Configuration of one evaluation run."""

    mode: str = "bundler_sfq"
    bottleneck_mbps: float = 24.0
    rtt_ms: float = 50.0
    load_fraction: float = 0.875
    duration_s: float = 30.0
    warmup_s: float = 2.0
    num_servers: int = 8
    num_clients: int = 1
    max_requests: Optional[int] = None
    seed: int = 1
    endhost_cc: str = "cubic"
    sendbox_cc: str = "copa"
    enable_nimbus: bool = True
    size_distribution: Optional[EmpiricalSizeDistribution] = None
    bundler_overrides: Dict[str, object] = field(default_factory=dict)
    #: Classifier for strict-priority runs: maps flow size (bytes) to a class.
    priority_class_for_size: Optional[Callable[[int], int]] = None

    def __post_init__(self) -> None:
        if self.mode not in ALL_MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {ALL_MODES}")
        if not 0.0 < self.load_fraction < 1.5:
            raise ValueError("load_fraction should be a sensible fraction of the bottleneck")
        if self.duration_s <= self.warmup_s:
            raise ValueError("duration must exceed warmup")

    @property
    def offered_load_bps(self) -> float:
        return self.load_fraction * mbps_to_bps(self.bottleneck_mbps)

@dataclass
class ScenarioResult:
    """Everything an experiment needs from one scenario run."""

    config: ScenarioConfig
    records: List[FlowRecord]
    requests_issued: int
    bottleneck_drops: int
    sendbox_drops: int
    bundler_min_rtt: Optional[float] = None
    out_of_order_fraction: Optional[float] = None

    def fct_analysis(self, warmup_s: Optional[float] = None) -> FctAnalysis:
        """Slowdown analysis over the completed, post-warm-up flows."""
        warmup = self.config.warmup_s if warmup_s is None else warmup_s
        return FctAnalysis.from_records(
            self.records,
            rtt_s=ms_to_s(self.config.rtt_ms),
            bottleneck_bps=mbps_to_bps(self.config.bottleneck_mbps),
            warmup_s=warmup,
        )

    def median_slowdown(self) -> float:
        return self.fct_analysis().median_slowdown()

    def completion_fraction(self) -> float:
        """Fraction of issued requests that completed within the run."""
        if self.requests_issued == 0:
            return 0.0
        return len([r for r in self.records if r.completed]) / self.requests_issued


def _default_priority_classifier(size_bytes: int) -> int:
    """Small requests are high priority (class 0), bulk requests are class 1."""
    return 0 if size_bytes <= 100_000 else 1


def build_site(
    *,
    mode: str,
    bottleneck_mbps: float,
    rtt_ms: float,
    num_servers: int,
    num_clients: int,
    sendbox_cc: str,
    enable_nimbus: bool,
    num_cross_pairs: int = 0,
    bundler_overrides: Optional[Dict[str, object]] = None,
) -> Tuple[SiteToSite, Optional[BundlerPair]]:
    """The §7.1 site on a fresh simulator, with the Bundler pair ``mode`` calls for.

    ``in_network_sfq`` puts SFQ at the bottleneck instead; the pair is
    ``None`` for the modes that install no Bundler.
    """
    topo = build_site_to_site(
        Simulator(),
        bottleneck_mbps=bottleneck_mbps,
        rtt_ms=rtt_ms,
        num_servers=num_servers,
        num_clients=num_clients,
        num_cross_pairs=num_cross_pairs,
        bottleneck_qdisc_factory=SfqQdisc if mode == "in_network_sfq" else None,
    )
    if mode not in BUNDLER_MODES:
        return topo, None
    kwargs = dict(
        sendbox_cc=sendbox_cc,
        scheduler=BUNDLER_MODES[mode],
        enable_nimbus=enable_nimbus,
        initial_rate_bps=mbps_to_bps(bottleneck_mbps) / 2.0,
    )
    if mode == "proxy":
        kwargs["sendbox_queue_packets"] = proxy_buffer_packets(
            mbps_to_bps(bottleneck_mbps), ms_to_s(rtt_ms), num_servers
        )
    kwargs.update(bundler_overrides or {})
    return topo, install_bundler(topo, BundlerConfig(**kwargs))


def endhost_cc_factory(
    *, mode: str, bottleneck_mbps: float, rtt_ms: float, endhost_cc: str
) -> Callable[[], object]:
    """Per-flow endhost controller factory (``proxy`` pins the idealized window)."""
    if mode == "proxy":
        return lambda: idealized_proxy_window(mbps_to_bps(bottleneck_mbps), ms_to_s(rtt_ms))
    return lambda: make_window_cc(endhost_cc)


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Build the topology and workload for ``config``, run it, and collect results."""
    site = dict(mode=config.mode, bottleneck_mbps=config.bottleneck_mbps, rtt_ms=config.rtt_ms)
    topo, bundler_pair = build_site(
        **site,
        num_servers=config.num_servers,
        num_clients=config.num_clients,
        sendbox_cc=config.sendbox_cc,
        enable_nimbus=config.enable_nimbus,
        bundler_overrides=config.bundler_overrides,
    )
    sim = topo.sim

    rng = make_rng(derive_seed(config.seed, "workload"))
    classify = None
    if config.mode == "bundler_prio":
        # Each request's traffic class reflects its size, from the first
        # packet on (pre-trace versions patched the class in after the
        # flow had started, letting the initial window out as class 0).
        classify = config.priority_class_for_size or _default_priority_classifier
    workload = TraceReplayWorkload.poisson_requests(
        sim,
        topo.packet_factory,
        topo.servers,
        topo.clients,
        offered_load_bps=config.offered_load_bps,
        rng=rng,
        size_distribution=config.size_distribution,
        endhost_cc_factory=endhost_cc_factory(**site, endhost_cc=config.endhost_cc),
        max_requests=config.max_requests,
        duration_s=config.duration_s,
        classify=classify,
    )
    workload.start()
    # Let flows that started near the end drain: run a little past the
    # workload duration so their completions are recorded.
    sim.run(until=config.duration_s + 5.0)

    min_rtt = None
    ooo_fraction = None
    if bundler_pair is not None:
        state = bundler_pair.sendbox.bundles.get(0)
        if state is not None:
            min_rtt = state.measurement.min_rtt
            ooo_fraction = state.measurement.out_of_order_fraction()

    return ScenarioResult(
        config=config,
        records=workload.records(include_incomplete=True),
        requests_issued=workload.flows_issued,
        bottleneck_drops=sum(l.packets_dropped for l in topo.bottleneck_links),
        sendbox_drops=topo.sendbox_link.packets_dropped,
        bundler_min_rtt=min_rtt,
        out_of_order_fraction=ooo_fraction,
    )


# ---------------------------------------------------------------------------
# Runner scenario bodies (declared in repro.experiments.catalog).

def slowdown_columns(analysis: FctAnalysis) -> Dict[str, Optional[float]]:
    """Median/p99 slowdown overall and per Figure 9 size bucket.

    A column is ``None`` (not NaN — the cache stores JSON) when its bucket
    has no completed flows.
    """
    buckets = analysis.by_size_bucket()

    def stat(bucket: FctAnalysis, pct: float) -> Optional[float]:
        return bucket.percentile_slowdown(pct) if len(bucket) else None

    return {
        "median_slowdown": stat(analysis, 50.0),
        "p99_slowdown": stat(analysis, 99.0),
        "small_median_slowdown": stat(buckets["<=10KB"], 50.0),
        "mid_median_slowdown": stat(buckets["10KB-1MB"], 50.0),
        "large_median_slowdown": stat(buckets[">1MB"], 50.0),
        "small_p99_slowdown": stat(buckets["<=10KB"], 99.0),
    }


def scenario_metrics(result: ScenarioResult) -> Dict[str, object]:
    """Flatten a :class:`ScenarioResult` into the runner's metrics dict."""
    analysis = result.fct_analysis()
    return {
        "requests_issued": result.requests_issued,
        "completed": len(analysis),
        "completion_fraction": result.completion_fraction(),
        **slowdown_columns(analysis),
        "bottleneck_drops": result.bottleneck_drops,
        "sendbox_drops": result.sendbox_drops,
        "out_of_order_fraction": result.out_of_order_fraction,
    }


def _run_registered_scenario(*, seed: int, **params) -> Dict[str, object]:
    config = ScenarioConfig(seed=seed, **params)
    return scenario_metrics(run_scenario(config))


def policy_metrics(result: ScenarioResult) -> Dict[str, object]:
    """Metrics for the §7.2 scheduling-policy scenarios.

    Adds what :func:`scenario_metrics` lacks for the policy claims: the
    short-flow (latency-sensitive) median, and the per-priority-class
    medians, split by the same classifier the run's strict-priority qdisc
    used (the scenario's override, or the default <=100 KB boundary).
    """
    from repro.net.trace import percentile

    classifier = result.config.priority_class_for_size or _default_priority_classifier
    analysis = result.fct_analysis()
    short = analysis.short_flow_analysis()
    high = [s for s, size in zip(analysis.slowdowns, analysis.sizes, strict=True) if classifier(size) == 0]
    low = [s for s, size in zip(analysis.slowdowns, analysis.sizes, strict=True) if classifier(size) != 0]
    return {
        "completed": len(analysis),
        "median_slowdown": analysis.median_slowdown() if len(analysis) else None,
        "short_median_slowdown": short.median_slowdown() if len(short) else None,
        "high_class_median_slowdown": percentile(high, 50.0) if high else None,
        "low_class_median_slowdown": percentile(low, 50.0) if low else None,
    }


def _run_policy_scenario(*, seed: int, **params) -> Dict[str, object]:
    config = ScenarioConfig(seed=seed, **params)
    return policy_metrics(run_scenario(config))
