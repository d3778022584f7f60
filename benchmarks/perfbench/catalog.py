"""The benchmark's contract: workloads, metrics, units, directions, bounds.

Single source of truth.  ``BENCHMARK.json`` at the repo root is generated
from this module (``bench.py manifest``) and ``test_bench_contract.py``
fails when the two disagree, so a metric can never be emitted under a name
the manifest does not list, or listed without the prediction below.

Every per-layer metric declares, *before anything is measured*, which
end-to-end metric it should move on which workload (``moves``) and on
which workloads the prediction is "no change" (``flat``) — the
layer → end-to-end interaction table of the README is rendered from it.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

SIM = ("request_sfq", "backlogged_tbf")
SWEEP = ("sweep_cold", "sweep_warm")
ALL = SIM + SWEEP

#: name -> one-sentence reason the workload exists (what it stresses, and
#: what the unit of work — the "op" of ``*_us_per_op`` — is).
WORKLOADS: Dict[str, str] = {
    "request_sfq": (
        "Paper headline (fig09 status_quo + bundler_sfq, 3 sub-seeds): thousands of short TCP "
        "flows stress flow set-up, trace replay, SFQ and the event loop; op = link packet."
    ),
    "backlogged_tbf": (
        "fig02 with and without Bundler: 2 long-lived Cubic flows, no churn, steady per-packet "
        "ACK/SACK, TBF and monitored-link work; bare forwarding baseline; op = link packet."
    ),
    "sweep_cold": (
        "Seeded grid of near-empty ablation_pi_gains cells run cold through the serial, process "
        "and distributed backends: the runner's write side; op = cell through one backend."
    ),
    "sweep_warm": (
        "Same grid served warm by a fresh-process CLI sweep plus report --aggregate: import, "
        "resolve, cache get, aggregate, render - the runner's read side; op = cached cell."
    ),
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's value by which a later change may worsen it.
    bound: float


# Host time; every timing is a lower quartile at reference speed (README).
END_TO_END: Tuple[EndToEnd, ...] = (
    # wall time of the program's part of a repetition / ops in it
    EndToEnd("wall_us_per_op", "us", "lower", 0.25),
    # the same for user+sys CPU incl. waited-for children, so parallelism
    # cannot hide dispatch cost
    EndToEnd("cpu_us_per_op", "us", "lower", 0.25),
    # max ru_maxrss of the workload processes and their children
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10),
    # fresh interpreter -> repro.api imported, registry loaded, inputs built
    EndToEnd("setup_s", "s", "lower", 0.25),
)


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: "trace" (share/count of the traced repetition of the workload being
    #: run) or "drive" (fixed-input timing of one layer's public calls,
    #: identical whichever workload is being traced).
    source: str
    #: "<end-to-end metric>@<workload>" pairs this metric should move.
    moves: Tuple[str, ...]
    #: workloads on which the prediction is no change.
    flat: Tuple[str, ...]


def _wall(*workloads: str) -> Tuple[str, ...]:
    return tuple(f"wall_us_per_op@{w}" for w in workloads)


def _layer(prefix: str, entries, moves, flat) -> List[PerLayer]:
    return [PerLayer(f"{prefix}.{n}", u, b, s, moves, flat) for n, u, b, s in entries]


_NS = ("ns", "lower", "drive")
_US = ("us", "lower", "drive")
_SHARE = ("share", "lower", "trace")

PER_LAYER: Tuple[PerLayer, ...] = tuple(
    _layer("net", [
        ("self_share", *_SHARE),
        ("link.self_share", *_SHARE),
        ("simulator.self_share", *_SHARE),
        ("node.self_share", *_SHARE),
        ("trace.self_share", *_SHARE),
        ("events_per_packet", "ratio", "lower", "trace"),
        ("scheduled_per_packet", "ratio", "lower", "trace"),
        ("cancelled_event_share", "share", "lower", "trace"),
        ("events_per_s", "1/s", "higher", "trace"),
        ("sim.event_ns", *_NS),
        ("sim.cancel_ns", *_NS),
        ("sim.tick_ns", *_NS),
        ("link.busy_packet_ns", *_NS),
        ("link.idle_packet_ns", *_NS),
        ("packet.make_ns", *_NS),
    ], _wall(*SIM), SWEEP)
    + _layer("qdisc", [
        ("self_share", *_SHARE),
        ("drop_share", "share", "lower", "trace"),
        ("fifo.op_ns", *_NS),
        ("tbf.op_ns", *_NS),
    ], _wall(*SIM), SWEEP)
    + _layer("qdisc", [("sfq.op_ns", *_NS)], _wall("request_sfq"), ("backlogged_tbf",) + SWEEP)
    # Guard rails for the other scenarios' schedulers: neither benchmark
    # workload runs them, so the prediction is "no change" everywhere.
    + _layer("qdisc", [
        ("drr.op_ns", *_NS),
        ("prio.op_ns", *_NS),
        ("codel.op_ns", *_NS),
        ("fq_codel.op_ns", *_NS),
    ], (), ALL)
    + _layer("transport", [
        ("self_share", *_SHARE),
        ("retransmit_share", "share", "lower", "trace"),
    ], _wall(*SIM), SWEEP)
    + _layer("transport", [("tcp.bulk_packet_ns", *_NS)],
             _wall("backlogged_tbf"), ("request_sfq",) + SWEEP)
    + _layer("transport", [("tcp.short_flow_us", *_US)],
             _wall("request_sfq"), ("backlogged_tbf",) + SWEEP)
    + _layer("transport", [("udp.packet_ns", *_NS)], (), ALL)
    + _layer("cc", [
        ("self_share", *_SHARE),
        ("cubic.on_ack_ns", *_NS),
    ], _wall("backlogged_tbf"), ("request_sfq",) + SWEEP)
    + _layer("cc", [
        ("reno.on_ack_ns", *_NS),
        ("bbr.on_ack_ns", *_NS),
    ], (), ALL)
    + _layer("cc", [
        ("copa.on_measurement_ns", *_NS),
        ("nimbus.on_measurement_ns", *_NS),
    ], _wall("backlogged_tbf"), ("request_sfq",) + SWEEP)
    + _layer("core", [
        ("self_share", *_SHARE),
        ("epoch_updates_per_sim_s", "1/s", "lower", "trace"),
        ("measurement.epoch_ns", *_NS),
        ("controller.tick_ns", *_NS),
        ("bundler_overhead_ratio", "ratio", "lower", "drive"),
    ], _wall(*SIM), SWEEP)
    + _layer("workload", [
        ("self_share", *_SHARE),
        ("generate_share", "share", "lower", "trace"),
        ("flowsize.sample_ns", *_NS),
    ], _wall("request_sfq"), ("backlogged_tbf",) + SWEEP)
    + _layer("traffic", [
        ("self_share", *_SHARE),
        ("replay_share", "share", "lower", "trace"),
    ], _wall("request_sfq"), ("backlogged_tbf",) + SWEEP)
    + _layer("traffic", [
        ("generate.flows_per_s", "1/s", "higher", "drive"),
        ("write.events_per_s", "1/s", "higher", "drive"),
        ("read.events_per_s", "1/s", "higher", "drive"),
        ("digest.events_per_s", "1/s", "higher", "drive"),
    ], (), ALL)
    + _layer("metrics", [
        ("self_share", *_SHARE),
        ("fct.flow_ns", *_NS),
    ], _wall("request_sfq"), ("backlogged_tbf",) + SWEEP)
    + _layer("obs", [
        ("self_share", *_SHARE),
        ("sketch.add_ns", *_NS),
        ("sketch.merge_us", *_US),
        ("probes_overhead_ratio", "ratio", "lower", "drive"),
    ], _wall("request_sfq"), ("backlogged_tbf",) + SWEEP)
    + _layer("util", [
        ("self_share", *_SHARE),
        ("canonical.digest_us", *_US),
    ], _wall("request_sfq", "sweep_cold"), ("backlogged_tbf",))
    + _layer("experiments", [
        ("self_share", *_SHARE),
        ("status_quo_wall_s", "s", "lower", "drive"),
        ("bundler_wall_s", "s", "lower", "drive"),
    ], _wall(*SIM), SWEEP)
    # Simulated (not host-time) outputs of fixed drive cells: exactly
    # repeatable, so any drift means simulated behaviour changed.
    + _layer("experiments", [
        ("sfq_median_gain", "ratio", "higher", "drive"),
        ("sfq_p99_gain", "ratio", "higher", "drive"),
        ("queue_shift_gain", "ratio", "higher", "drive"),
    ], (), ALL)
    + _layer("runner", [
        ("self_share", *_SHARE),
        ("resolve.cell_us", *_US),
        ("cache.put_us", *_US),
        ("wire.frame_us", *_US),
        ("serial.cell_ms", "ms", "lower", "drive"),
        ("serial.cell_p99_ms", "ms", "lower", "drive"),
        ("process.cell_ms", "ms", "lower", "drive"),
        ("process.cell_p99_ms", "ms", "lower", "drive"),
        ("process.dispatch_ms", "ms", "lower", "drive"),
        ("distributed.cell_ms", "ms", "lower", "drive"),
        ("distributed.cell_p99_ms", "ms", "lower", "drive"),
        ("distributed.dispatch_ms", "ms", "lower", "drive"),
        ("distributed.spawn_s", "s", "lower", "drive"),
        ("writeback_s", "s", "lower", "drive"),
        ("populate_s", "s", "lower", "drive"),
    ], _wall("sweep_cold") + ("cpu_us_per_op@sweep_cold",), SIM)
    + _layer("runner", [
        ("cache.get_us", *_US),
        ("aggregate.cell_us", *_US),
        ("export.row_us", *_US),
        ("cli.warm_sweep_s", "s", "lower", "drive"),
        ("cli.report_s", "s", "lower", "drive"),
    ], _wall("sweep_warm") + ("cpu_us_per_op@sweep_warm",), SIM)
    + _layer("runner", [("cli.import_s", "s", "lower", "drive")],
             tuple(f"setup_s@{w}" for w in ALL) + _wall("sweep_warm"), ())
    + [
        # Neither belongs to a layer of the program: the remainder of the
        # attribution, and the profiler's own cost.
        PerLayer("other.self_share", "share", "lower", "trace", (), ALL),
        PerLayer("trace.overhead_ratio", "ratio", "lower", "trace", (), ALL),
    ]
)

#: Packages under ``src/repro/`` whose self time gets its own share.
SHARE_PACKAGES = tuple(
    m.name[: -len(".self_share")]
    for m in PER_LAYER
    if m.name.endswith(".self_share") and m.name.count(".") == 1 and m.name != "other.self_share"
)
#: ``package.module`` pairs reported in addition to their package's share.
SHARE_MODULES = tuple(
    m.name[: -len(".self_share")]
    for m in PER_LAYER
    if m.name.endswith(".self_share") and m.name.count(".") == 2
)

RUN_SECONDS = 20


def manifest() -> dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/perfbench/bench.py"],
        "paths": ["benchmarks/perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
