"""Trace-replay scenarios: arbitrary traffic shapes through the §7.1 site.

The paper's evaluation replays one traffic shape — Poisson arrivals of
heavy-tailed requests.  This family replays *any* trace (see
:mod:`repro.traffic`) through the same site-to-site topology and Bundler
modes, which is what exposes control-loop behavior under arrival patterns
the original workload never produces: diurnal load swings, flash crowds,
adversarial bursty cross traffic.

The ``trace`` parameter is a trace *spec* — a generator spec (synthetic,
regenerated deterministically from ``(spec, seed)`` wherever the cell
executes) or a trace file.  Cache keys are
digest-addressed: identical trace content yields identical keys regardless
of where the trace lives (see ``docs/workloads.md``).

Registered scenarios:

``trace_diurnal_load``
    Markov-modulated arrivals cycling a compressed diurnal profile.
``trace_flash_crowd``
    A non-homogeneous Poisson ramp to several times the baseline rate.
``trace_bursty_cross``
    The §7.1 request workload plus adversarial on/off paced cross-traffic
    bursts injected beyond the sendbox.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

from repro.experiments.scenarios import (
    BOTTLENECK_MBPS,
    DURATION_S,
    ENDHOST_CC,
    NUM_SERVERS,
    RTT_MS,
    SCENARIO_METRICS,
    SCENARIO_PARAMS,
    SENDBOX_CC,
    WARMUP_S,
    build_site,
    endhost_cc_factory,
    slowdown_columns,
)
from repro.metrics.fct import FctAnalysis
from repro.runner.params import ParamSpec, ParamSpace
from repro.runner.registry import register_scenario
from repro.runner.schema import MetricSchema, MetricSpec
from repro.traffic.replay import TraceReplayWorkload
from repro.traffic.spec import open_trace
from repro.util.rng import derive_seed
from repro.util.units import mbps_to_bps, ms_to_s


def run_trace_replay(
    *,
    seed: int,
    trace,
    mode: str = "bundler_sfq",
    bottleneck_mbps: float = 12.0,
    rtt_ms: float = 40.0,
    duration_s: float = 8.0,
    warmup_s: float = 1.0,
    num_servers: int = 4,
    num_clients: int = 1,
    num_cross_pairs: int = 0,
    endhost_cc: str = "cubic",
    sendbox_cc: str = "copa",
    enable_nimbus: bool = True,
) -> Dict[str, object]:
    """Replay ``trace`` through the site-to-site topology; return metrics.

    ``trace`` is a coerced trace spec (the scenario's ``ParamSpace`` has
    already canonicalized it).  Synthetic traces are regenerated under
    ``derive_seed(seed, "traffic")``, so a seed sweep varies the sampled
    trace exactly like it varies the §7.1 request load's RNG.
    """
    site = dict(mode=mode, bottleneck_mbps=bottleneck_mbps, rtt_ms=rtt_ms)
    topo, _ = build_site(
        **site,
        num_servers=num_servers,
        num_clients=num_clients,
        num_cross_pairs=num_cross_pairs,
        sendbox_cc=sendbox_cc,
        enable_nimbus=enable_nimbus,
    )
    sim = topo.sim

    events = open_trace(trace, seed=derive_seed(seed, "traffic"))
    workload = TraceReplayWorkload(
        sim,
        topo.packet_factory,
        topo.servers,
        topo.clients,
        events=events,
        endhost_cc_factory=endhost_cc_factory(**site, endhost_cc=endhost_cc),
        cross_senders=topo.cross_senders,
        cross_receivers=topo.cross_receivers,
    )
    workload.start()
    # Run past the replay horizon so flows started near the end can drain.
    sim.run(until=duration_s + 5.0)

    bundle_records = [
        flow.record()
        for flow in workload.flows
        if flow.sender.host in topo.servers
    ]
    analysis = FctAnalysis.from_records(
        bundle_records,
        rtt_s=ms_to_s(rtt_ms),
        bottleneck_bps=mbps_to_bps(bottleneck_mbps),
        warmup_s=warmup_s,
    )
    completed = len([r for r in bundle_records if r.completed])
    return {
        "flows_replayed": workload.flows_issued,
        "streams_replayed": workload.streams_started,
        "completed": len(analysis),
        # Bundle flows only, numerator and denominator alike: a trace that
        # also carries cross-group *flow* events must still read 1.0 when
        # every measured (bundle) flow completes.
        "completion_fraction": (
            completed / len(bundle_records) if bundle_records else 0.0
        ),
        # Of the shared slowdown columns, the ones this family's schema declares.
        **{
            name: value
            for name, value in slowdown_columns(analysis).items()
            if name in TRACE_REPLAY_METRICS
        },
        "bottleneck_drops": sum(l.packets_dropped for l in topo.bottleneck_links),
        "sendbox_drops": topo.sendbox_link.packets_dropped,
    }


#: Shared knob set of the trace-replay family.  Each registration swaps the
#: ``trace`` default (and topology knobs) via :meth:`ParamSpace.with_defaults`.
TRACE_REPLAY_PARAMS = ParamSpace(
    ParamSpec("trace", kind="trace",
              default={"generator": "diurnal"},
              description="trace spec: generator or file path "
                          "(files are digest-addressed in cache keys)"),
    SCENARIO_PARAMS.get("mode"),
    replace(BOTTLENECK_MBPS, default=12.0),
    replace(RTT_MS, default=40.0),
    replace(DURATION_S, default=8.0,
            description="replay horizon fed to the FCT analysis and drain"),
    replace(WARMUP_S, default=1.0),
    replace(NUM_SERVERS, default=4, description="bundled endhosts behind the sendbox"),
    ParamSpec("num_clients", kind="int", default=1, unit="count", minimum=1,
              description="receiving endhosts behind the receivebox"),
    ParamSpec("num_cross_pairs", kind="int", default=0, unit="count", minimum=0,
              description="cross-traffic host pairs beyond the sendbox "
                          "(required by traces with 'cross' events)"),
    ENDHOST_CC,
    SENDBOX_CC,
    SCENARIO_PARAMS.get("enable_nimbus"),
)

#: What every trace-replay scenario reports (bundle flows only — cross
#: traffic is load, not the measured workload).
TRACE_REPLAY_METRICS = MetricSchema(
    MetricSpec("flows_replayed", unit="count", direction="info",
               description="flow events issued from the trace"),
    MetricSpec("streams_replayed", unit="count", direction="info",
               description="paced-stream events issued from the trace"),
    MetricSpec("completed", unit="count", direction="higher",
               description="post-warm-up bundle flows that completed"),
    MetricSpec("completion_fraction", unit="fraction", direction="higher",
               description="completed bundle flows / issued bundle flows"),
    MetricSpec("median_slowdown", unit="ratio", direction="lower", nullable=True,
               description="median FCT slowdown of bundle flows"),
    # Same columns, same meaning as the §7.1 family's.
    *(SCENARIO_METRICS.spec_for(name) for name in (
        "p99_slowdown", "small_median_slowdown", "large_median_slowdown",
        "bottleneck_drops", "sendbox_drops",
    )),
)


register_scenario(
    "trace_diurnal_load",
    figure="beyond the paper (workload family)",
    # v2: every() timers compute drift-free tick times (origin + k*interval),
    # shifting control-epoch instants by accumulated float error.
    version=2,
    description="Diurnal (Markov-modulated) request load replayed through the site",
    params=TRACE_REPLAY_PARAMS.with_defaults(
        trace={"generator": "diurnal", "params": {
            # ~7.5 Mbit/s mean offered load against the 12 Mbit/s default
            # bottleneck; the 1.7x peak phase briefly exceeds capacity.
            "base_rate_per_s": 300.0,
            "period_s": 4.0,
            "profile": [0.4, 1.0, 1.7, 1.0],
            "horizon_s": 8.0,
            "num_src": 4,
        }},
    ),
    metrics=TRACE_REPLAY_METRICS,
)(run_trace_replay)

register_scenario(
    "trace_flash_crowd",
    figure="beyond the paper (workload family)",
    # v2: every() timers compute drift-free tick times (origin + k*interval),
    # shifting control-epoch instants by accumulated float error.
    version=2,
    description="Flash-crowd arrival ramp: baseline to a multiple of the baseline and back",
    params=TRACE_REPLAY_PARAMS.with_defaults(
        trace={"generator": "flash_crowd", "params": {
            # ~3.7 Mbit/s baseline; the 4x crowd peaks at ~125% of the
            # 12 Mbit/s default bottleneck for the hold interval.
            "base_rate_per_s": 150.0,
            "peak_multiplier": 4.0,
            "start_s": 2.0,
            "ramp_s": 1.0,
            "hold_s": 2.0,
            "decay_s": 1.0,
            "horizon_s": 8.0,
            "num_src": 4,
        }},
    ),
    metrics=TRACE_REPLAY_METRICS,
)(run_trace_replay)

register_scenario(
    "trace_bursty_cross",
    figure="beyond the paper (workload family)",
    # v2: every() timers compute drift-free tick times (origin + k*interval),
    # shifting control-epoch instants by accumulated float error.
    version=2,
    description="Request workload with adversarial on/off paced cross-traffic bursts",
    params=TRACE_REPLAY_PARAMS.with_defaults(
        trace={"generator": "mix", "params": {"components": [
            {"generator": "requests", "params": {
                "offered_load_bps": 7_000_000.0,
                "horizon_s": 8.0,
                "num_src": 4,
            }},
            {"generator": "onoff", "params": {
                "rate_bps": 5_000_000.0,
                "mean_on_s": 0.4,
                "mean_off_s": 0.6,
                "horizon_s": 8.0,
                "group": "cross",
            }},
        ]}},
        num_cross_pairs=1,
    ),
    metrics=TRACE_REPLAY_METRICS,
)(run_trace_replay)
