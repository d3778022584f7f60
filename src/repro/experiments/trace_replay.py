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

from typing import Dict

from repro.experiments.catalog import TRACE_REPLAY_METRICS
from repro.experiments.scenarios import build_site, endhost_cc_factory, slowdown_columns
from repro.metrics.fct import FctAnalysis
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

    bundle_records = workload.records(include_incomplete=True, group="bundle")
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
