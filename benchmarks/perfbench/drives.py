"""Layer drives: fixed-input timings of each layer's public calls.

A drive builds its inputs, then times a fixed count of calls into one
layer's public functions with tracing off and returns ``(seconds, ops)``.
Inputs never depend on the workload being benchmarked, so a drive reads
the same whichever workload's traced run it rides along with; a drive
that moves while the workload shares do not points at that layer alone.

Everything is called from outside ``src/``: no hook, switch or environment
variable is added to the program under test.
"""

from __future__ import annotations

import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

from repro import api
from repro.cc import (
    BbrWindowCC, BundleMeasurement, CopaRateControl, CubicCC, NimbusDetector, RenoCC,
)
from repro.core.config import BundlerConfig
from repro.core.controller import BundleController
from repro.core.measurement import BundleMeasurementEngine
from repro.metrics.fct import FctAnalysis
from repro.net.link import Link
from repro.net.node import Host
from repro.net.packet import PacketFactory
from repro.net.simulator import Simulator
from repro.obs.sketch import QuantileSketch
from repro.qdisc import FifoQdisc, TokenBucketQdisc, make_qdisc
from repro.runner.wire import encode_message, read_message
from repro.transport import FlowRecord, PacedUdpStream, TcpFlow
from repro.util.canonical import stable_digest
from repro.workload.flowsize import internet_core_cdf

from reference import lower_quartile

clock = time.perf_counter


def _noop() -> None:
    pass


# -- net ---------------------------------------------------------------------


def sim_event(n: int) -> Tuple[float, int]:
    sim = Simulator()
    t0 = clock()
    for i in range(n):
        sim.schedule_call(i * 1e-6, _noop)
    sim.run()
    return clock() - t0, n


def sim_cancel(n: int) -> Tuple[float, int]:
    sim = Simulator()
    t0 = clock()
    tokens = [sim.schedule(i * 1e-6, _noop) for i in range(n)]
    for token in tokens:
        token.cancel()
    sim.run()
    return clock() - t0, n


def sim_tick(n: int) -> Tuple[float, int]:
    sim = Simulator()
    t0 = clock()
    sim.every(1e-3, _noop)
    sim.run(until=n * 1e-3)
    return clock() - t0, n


def _packets(factory: PacketFactory, n: int, flows: int = 64) -> list:
    return [
        factory.make(flow_id=i % flows, src=1, dst=2, src_port=20_000 + i % flows,
                     dst_port=80, seq=i, size=1500)
        for i in range(n)
    ]


def _sink_link(sim: Simulator, n: int) -> Link:
    link = Link(sim, "drive", rate_bps=1e9, delay=1e-3, qdisc=FifoQdisc(limit_packets=n + 1))
    return link.connect(Host(sim, "sink"))


def link_busy(n: int) -> Tuple[float, int]:
    """Backlogged link: every departure after the first is a batched drain."""
    sim = Simulator()
    link = _sink_link(sim, n)
    packets = _packets(PacketFactory(), n)
    t0 = clock()
    for packet in packets:
        link.send(packet)
    sim.run()
    return clock() - t0, n


def link_idle(n: int) -> Tuple[float, int]:
    """One packet at a time: send -> _try_transmit -> _finish_transmit."""
    sim = Simulator()
    link = _sink_link(sim, n)
    packets = _packets(PacketFactory(), n)
    t0 = clock()
    for i, packet in enumerate(packets):
        sim.schedule_call(i * 1e-3, link.send, packet)
    sim.run()
    return clock() - t0, n


def packet_make(n: int) -> Tuple[float, int]:
    factory = PacketFactory(pool_size=64)
    make, recycle = factory.make, factory.recycle
    t0 = clock()
    for i in range(n):
        recycle(make(flow_id=1, src=1, dst=2, src_port=20_000, dst_port=80, seq=i))
    return clock() - t0, n


# -- qdisc -------------------------------------------------------------------


def qdisc_op(kind: str) -> Callable[[int], Tuple[float, int]]:
    """Enqueue+dequeue pairs over 64 flows, queue depth cycling 0..64."""

    def drive(n: int) -> Tuple[float, int]:
        if kind == "tbf":
            qdisc = TokenBucketQdisc(rate_bps=1e12, inner=make_qdisc("fifo"))
        else:
            qdisc = make_qdisc(kind)
        batch = _packets(PacketFactory(), 64)
        rounds = max(n // 64, 1)
        now = 0.0
        t0 = clock()
        for _ in range(rounds):
            for packet in batch:
                qdisc.enqueue(packet, now)
            now += 1e-4
            for _ in batch:
                qdisc.dequeue(now)
        return clock() - t0, rounds * 64

    return drive


# -- transport ---------------------------------------------------------------


def _two_hosts():
    """24 Mbit/s x 50 ms RTT with a one-BDP buffer, the paper's path shape."""
    sim = Simulator()
    a, b = Host(sim, "a"), Host(sim, "b")
    a.attach_egress(Link(sim, "ab", 24e6, 25e-3, FifoQdisc(limit_packets=100)).connect(b))
    b.attach_egress(Link(sim, "ba", 24e6, 25e-3, FifoQdisc(limit_packets=100)).connect(a))
    return sim, PacketFactory(), a, b


def tcp_bulk(n: int) -> Tuple[float, int]:
    """One long flow of ``n`` MSS-sized segments on a two-host path."""
    sim, factory, a, b = _two_hosts()
    flow = TcpFlow(sim, factory, a, b, size_bytes=n * 1500)
    t0 = clock()
    flow.start()
    sim.run(until=600.0)
    elapsed = clock() - t0
    if not flow.completed:
        raise RuntimeError("bulk drive flow did not complete")
    return elapsed, n


def tcp_short(n: int) -> Tuple[float, int]:
    """``n`` sequential 10 KB flows: set-up, slow start, teardown."""
    sim, factory, a, b = _two_hosts()
    done = [0]

    def start_next(_flow=None) -> None:
        if done[0] < n:
            done[0] += 1
            TcpFlow(sim, factory, a, b, size_bytes=10_000, on_complete=start_next).start()

    t0 = clock()
    start_next()
    sim.run(until=3600.0)
    return clock() - t0, n


def udp_packet(n: int) -> Tuple[float, int]:
    sim, factory, a, b = _two_hosts()
    stream = PacedUdpStream(sim, factory, a, b, rate_bps=9.6e6, packet_size=1200)
    t0 = clock()
    stream.start(duration=n * stream.interval)
    sim.run()
    return clock() - t0, stream.packets_sent


# -- cc ----------------------------------------------------------------------


def window_cc(cls) -> Callable[[int], Tuple[float, int]]:
    def drive(n: int) -> Tuple[float, int]:
        cc = cls()
        on_ack = cc.on_ack
        t0 = clock()
        for i in range(n):
            on_ack(i * 1e-4, 1500, 0.05)
        return clock() - t0, n

    return drive


def _measurements(n: int) -> List[BundleMeasurement]:
    rng = random.Random(7)
    return [
        BundleMeasurement(
            now=i * 0.01, rtt=0.05 + rng.random() * 0.01, min_rtt=0.05,
            send_rate=20e6 + rng.random() * 4e6, recv_rate=20e6 + rng.random() * 4e6,
            acked_bytes=30_000.0,
        )
        for i in range(n)
    ]


def copa_measurement(n: int) -> Tuple[float, int]:
    cc = CopaRateControl()
    samples = _measurements(n)
    t0 = clock()
    for m in samples:
        cc.on_measurement(m)
    return clock() - t0, n


def nimbus_measurement(n: int) -> Tuple[float, int]:
    """``NimbusDetector.record_sample`` per control interval (FFT every 0.5 s)."""
    nimbus = NimbusDetector()
    samples = _measurements(n)
    t0 = clock()
    for m in samples:
        nimbus.record_sample(m.now, m.send_rate, m.recv_rate, queue_delay_s=m.queue_delay)
    return clock() - t0, n


# -- core --------------------------------------------------------------------


def measurement_epoch(n: int) -> Tuple[float, int]:
    """``on_boundary_sent`` + ``on_congestion_ack`` with 4 epochs in flight."""
    engine = BundleMeasurementEngine()
    t0 = clock()
    for i in range(n):
        now = i * 0.0125
        engine.on_boundary_sent(now, i, i * 30_000)
        if i >= 4:
            engine.on_congestion_ack(now, i - 4, (i - 4) * 30_000)
    return clock() - t0, n


def controller_tick(n: int) -> Tuple[float, int]:
    controller = BundleController(BundlerConfig(), max_rate_bps=240e6)
    samples = _measurements(n)
    t0 = clock()
    for m in samples:
        controller.tick(m.now, m, 0.01)
    return clock() - t0, n


# -- workload + traffic ------------------------------------------------------


def flowsize_sample(n: int) -> Tuple[float, int]:
    dist, rng = internet_core_cdf(), random.Random(7)
    sample = dist.sample
    t0 = clock()
    for _ in range(n):
        sample(rng)
    return clock() - t0, n


def _flash_crowd(n: int) -> Dict[str, Any]:
    # ~n flows: the default flash-crowd shape averages ~2.6x its base rate.
    return {"generator": "flash_crowd",
            "params": {"base_rate_per_s": n / 8.0 / 2.6, "horizon_s": 8.0}}


def traffic_generate(n: int) -> Tuple[float, int]:
    t0 = clock()
    count = sum(1 for _ in api.generate_trace(_flash_crowd(n), seed=7))
    return clock() - t0, count


def traffic_io(tmp: str):
    """write / read / digest drives sharing one trace file under ``tmp``."""
    path = os.path.join(tmp, "drive-trace.jsonl")

    def write(n: int) -> Tuple[float, int]:
        events = list(api.generate_trace(_flash_crowd(n), seed=7))
        t0 = clock()
        api.write_trace(path, events)
        return clock() - t0, len(events)

    def read(n: int) -> Tuple[float, int]:
        write(n)
        t0 = clock()
        count = sum(1 for _ in api.read_trace(path))
        return clock() - t0, count

    def digest(n: int) -> Tuple[float, int]:
        write(n)
        t0 = clock()
        count = api.trace_digest(path).events
        return clock() - t0, count

    return write, read, digest


# -- metrics, obs, util ------------------------------------------------------


def fct_flow(n: int) -> Tuple[float, int]:
    rng = random.Random(7)
    records = [
        FlowRecord(flow_id=i, size_bytes=rng.randint(200, 200_000), start_time=i * 1e-3,
                   completion_time=i * 1e-3 + 0.05 + rng.random())
        for i in range(n)
    ]
    t0 = clock()
    analysis = FctAnalysis.from_records(records, rtt_s=0.05, bottleneck_bps=24e6)
    analysis.median_slowdown()
    analysis.percentile_slowdown(99.0)
    return clock() - t0, n


def sketch_add(n: int) -> Tuple[float, int]:
    rng = random.Random(7)
    values = [rng.lognormvariate(0.0, 2.0) for _ in range(n)]
    sketch = QuantileSketch()
    add = sketch.add
    t0 = clock()
    for value in values:
        add(value)
    return clock() - t0, n


def sketch_merge(n: int) -> Tuple[float, int]:
    rng = random.Random(7)
    parts = []
    for _ in range(8):
        part = QuantileSketch()
        for _ in range(2000):
            part.add(rng.lognormvariate(0.0, 2.0))
        parts.append(part)
    t0 = clock()
    for i in range(n):
        QuantileSketch().merge(parts[i % 8])
    return clock() - t0, n


def canonical_digest(n: int) -> Tuple[float, int]:
    value = {
        "scenario": "fig09_slowdown", "version": 3, "seed": 1,
        "params": {"bottleneck_mbps": 24.0, "duration_s": 10, "mode": "bundler_sfq",
                   "load_fraction": 0.875, "num_servers": 4, "rtt_ms": 50.0, "warmup_s": 2,
                   "endhost_cc": "cubic", "sendbox_cc": "copa", "enable_nimbus": True},
    }
    t0 = clock()
    for i in range(n):
        value["seed"] = i
        stable_digest(value)
    return clock() - t0, n


# -- runner: single calls ----------------------------------------------------


def _pi_specs(n: int) -> List[api.RunSpec]:
    return [
        api.RunSpec("ablation_pi_gains", {"alpha": 1.0 + i * 0.01, "beta": 2.0, "horizon_s": 10})
        for i in range(n)
    ]


def resolve_cell(n: int) -> Tuple[float, int]:
    registry = api.load_builtin_scenarios()
    specs = _pi_specs(n)
    t0 = clock()
    for spec in specs:
        api.resolve_cell(spec, registry=registry)
    return clock() - t0, n


def _results(n: int) -> List[api.RunResult]:
    base = api.execute_run(_pi_specs(1)[0])
    return [
        api.RunResult(
            scenario=base.scenario, params={**base.params, "alpha": 1.0 + i * 0.01},
            seed=1, effective_seed=base.effective_seed, key=f"{i:064x}",
            metrics=base.metrics, scenario_version=base.scenario_version,
            telemetry=base.telemetry,
        )
        for i in range(n)
    ]


def cache_io(tmp: str):
    def fill(n: int) -> Tuple[float, api.ResultCache, List[api.RunResult]]:
        cache = api.ResultCache(os.path.join(tmp, f"drive-cache-{time.monotonic_ns()}"))
        results = _results(n)
        t0 = clock()
        with cache.deferred_manifest():
            for result in results:
                cache.put(result, elapsed_s=0.001)
        return clock() - t0, cache, results

    def put(n: int) -> Tuple[float, int]:
        return fill(n)[0], n

    def get(n: int) -> Tuple[float, int]:
        _, cache, results = fill(n)
        t0 = clock()
        for result in results:
            if cache.get(result.key) is None:
                raise RuntimeError("cache drive: record just written is missing")
        return clock() - t0, n

    return put, get


def wire_frame(n: int) -> Tuple[float, int]:
    """Round trip of one work frame and one outcome frame."""
    result = _results(1)[0]
    work = {"type": "work", "item": {"index": 0, "scenario": result.scenario,
                                     "params": dict(result.params), "seed": 1}}
    outcome = {"type": "outcome", "outcome": {"index": 0, "payload": result.to_payload(),
                                              "elapsed_s": 0.001, "error": None,
                                              "telemetry": result.telemetry}}
    t0 = clock()
    for _ in range(n):
        read_message(io.BytesIO(encode_message(work)))
        read_message(io.BytesIO(encode_message(outcome)))
    return clock() - t0, n


def aggregate_cell(n: int) -> Tuple[float, int]:
    results = _results(n)
    t0 = clock()
    cells = api.aggregate_results(results)
    return clock() - t0, len(cells)


def export_row(n: int) -> Tuple[float, int]:
    registry = api.load_builtin_scenarios()
    cells = api.aggregate_results(_results(n))
    rows = len(api.aggregates_long_table(cells, registry=registry))
    t0 = clock()
    api.export_aggregates(cells, "csv", registry=registry)
    return clock() - t0, rows


class Drive(NamedTuple):
    name: str
    fn: Callable[[int], Tuple[float, int]]
    #: Call count giving roughly 0.1 s on the reference sandbox.
    n: int
    #: How ``(seconds, ops)`` becomes the metric: ns / us per op, or ops per s.
    kind: str


def micro_drives(tmp: str) -> List[Drive]:
    trace_write, trace_read, trace_digest = traffic_io(tmp)
    cache_put, cache_get = cache_io(tmp)
    return [
        Drive("net.sim.event_ns", sim_event, 120_000, "ns"),
        Drive("net.sim.cancel_ns", sim_cancel, 100_000, "ns"),
        Drive("net.sim.tick_ns", sim_tick, 150_000, "ns"),
        Drive("net.link.busy_packet_ns", link_busy, 40_000, "ns"),
        Drive("net.link.idle_packet_ns", link_idle, 25_000, "ns"),
        Drive("net.packet.make_ns", packet_make, 100_000, "ns"),
        *(Drive(f"qdisc.{k}.op_ns", qdisc_op(k), 64_000, "ns")
          for k in ("fifo", "sfq", "drr", "prio", "codel", "fq_codel", "tbf")),
        Drive("transport.tcp.bulk_packet_ns", tcp_bulk, 4_000, "ns"),
        Drive("transport.tcp.short_flow_us", tcp_short, 400, "us"),
        Drive("transport.udp.packet_ns", udp_packet, 15_000, "ns"),
        Drive("cc.cubic.on_ack_ns", window_cc(CubicCC), 200_000, "ns"),
        Drive("cc.reno.on_ack_ns", window_cc(RenoCC), 400_000, "ns"),
        Drive("cc.bbr.on_ack_ns", window_cc(BbrWindowCC), 60_000, "ns"),
        Drive("cc.copa.on_measurement_ns", copa_measurement, 60_000, "ns"),
        Drive("cc.nimbus.on_measurement_ns", nimbus_measurement, 40_000, "ns"),
        Drive("core.measurement.epoch_ns", measurement_epoch, 30_000, "ns"),
        Drive("core.controller.tick_ns", controller_tick, 20_000, "ns"),
        Drive("workload.flowsize.sample_ns", flowsize_sample, 100_000, "ns"),
        Drive("traffic.generate.flows_per_s", traffic_generate, 20_000, "per_s"),
        Drive("traffic.write.events_per_s", trace_write, 20_000, "per_s"),
        Drive("traffic.read.events_per_s", trace_read, 10_000, "per_s"),
        Drive("traffic.digest.events_per_s", trace_digest, 10_000, "per_s"),
        Drive("metrics.fct.flow_ns", fct_flow, 100_000, "ns"),
        Drive("obs.sketch.add_ns", sketch_add, 100_000, "ns"),
        Drive("obs.sketch.merge_us", sketch_merge, 1_000, "us"),
        Drive("util.canonical.digest_us", canonical_digest, 8_000, "us"),
        Drive("runner.resolve.cell_us", resolve_cell, 3_000, "us"),
        Drive("runner.cache.put_us", cache_put, 600, "us"),
        Drive("runner.cache.get_us", cache_get, 1_500, "us"),
        Drive("runner.wire.frame_us", wire_frame, 3_000, "us"),
        Drive("runner.aggregate.cell_us", aggregate_cell, 8_000, "us"),
        Drive("runner.export.row_us", export_row, 4_000, "us"),
    ]


_SCALE = {"ns": 1e9, "us": 1e6}


def run_micro(tmp: str, *, size: float, reps: int) -> Dict[str, float]:
    """Every micro drive, ``reps`` calls each at ``size`` x its n."""
    out: Dict[str, float] = {}
    for drive in micro_drives(tmp):
        n = max(int(drive.n * size), 64)
        costs = []
        for _ in range(reps):
            seconds, ops = drive.fn(n)
            costs.append(seconds / ops)
        cost = lower_quartile(costs)
        out[drive.name] = 1.0 / cost if drive.kind == "per_s" else cost * _SCALE[drive.kind]
    return out


# -- runner: the sweep pipeline, phase by phase ------------------------------


def _percentile(values: List[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[min(int(len(ordered) * pct / 100.0), len(ordered) - 1)]


def _backend_pass(name: str, resolved, cache) -> Dict[str, float]:
    """One cold pass of pre-resolved cells through ``name`` (2 workers).

    ``dispatch_ms`` is what the backend adds per cell on top of the work
    itself: execute() wall minus the workers' own summed ``elapsed_s``
    spread over the 2 workers.
    """
    items = [
        api.WorkItem(index=i, scenario=spec.scenario, params=params, seed=spec.seed)
        for i, (spec, params, _key) in enumerate(resolved)
    ]
    backend = api.make_backend(name, workers=2)
    t0 = clock()
    outcomes = backend.execute(items)
    execute_s = clock() - t0
    t1 = clock()
    with cache.deferred_manifest():
        for work in outcomes:
            if work.error is not None:
                raise RuntimeError(f"{name} pass: cell {work.index} failed:\n{work.error}")
            result = api.RunResult.from_payload(work.payload, telemetry=work.telemetry)
            cache.put(result, elapsed_s=work.elapsed_s)
    writeback_s = clock() - t1
    elapsed = [work.elapsed_s for work in outcomes]
    n = len(items)
    return {
        "cell_ms": (execute_s + writeback_s) / n * 1e3,
        "cell_p99_ms": _percentile(elapsed, 99.0) * 1e3,
        "dispatch_ms": max(execute_s - sum(elapsed) / 2.0, 0.0) / n * 1e3,
        "writeback_s": writeback_s,
    }


def _cli(args: List[str], cache_dir: str) -> float:
    """Wall time of one fresh-process ``python -m repro.runner`` call."""
    t0 = clock()
    subprocess.run(
        [sys.executable, "-m", "repro.runner", "--cache-dir", cache_dir, *args],
        check=True, stdout=subprocess.DEVNULL,
    )
    return clock() - t0


def run_pipeline(tmp: str, sweep: api.SweepSpec) -> Dict[str, float]:
    """Re-run ``sweep`` phase by phase through the runner's public pieces."""
    registry = api.load_builtin_scenarios()
    specs = sweep.expand()
    spec_path = os.path.join(tmp, "pipe-spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(sweep.to_dict(), fh)
    out: Dict[str, float] = {}

    # Serial, cell by cell, so per-cell latency (n = cells) has a real p99.
    cache = api.ResultCache(os.path.join(tmp, "pipe-serial"))
    serial = api.make_backend("serial")
    latencies = []
    resolved = []
    t0 = clock()
    with cache.deferred_manifest():
        for index, spec in enumerate(specs):
            c0 = clock()
            cell = api.resolve_cell(spec, registry=registry)
            resolved.append(cell)
            if cache.get(cell[2]) is not None:
                raise RuntimeError("pipeline drive: cold cache served a hit")
            item = api.WorkItem(index=index, scenario=cell[0].scenario, params=cell[1],
                                seed=cell[0].seed)
            (work,) = serial.execute([item], registry=registry)
            result = api.RunResult.from_payload(work.payload, telemetry=work.telemetry)
            cache.put(result, elapsed_s=work.elapsed_s)
            latencies.append(clock() - c0)
    out["runner.populate_s"] = clock() - t0
    out["runner.serial.cell_ms"] = statistics.median(latencies) * 1e3
    out["runner.serial.cell_p99_ms"] = _percentile(latencies, 99.0) * 1e3

    for name in ("process", "distributed"):
        stats = _backend_pass(name, resolved, api.ResultCache(os.path.join(tmp, f"pipe-{name}")))
        for key in ("cell_ms", "cell_p99_ms", "dispatch_ms"):
            out[f"runner.{name}.{key}"] = stats[key]
        if name == "process":
            out["runner.writeback_s"] = stats["writeback_s"]

    # Worker start-up: a 1-cell distributed sweep is all spawn and handshake.
    t0 = clock()
    api.run_sweep(specs[:1], cache=api.ResultCache(os.path.join(tmp, "pipe-spawn")),
                  backend=api.make_backend("distributed", workers=2))
    out["runner.distributed.spawn_s"] = clock() - t0

    # Read side, as a user pays it: fresh processes against the warm cache.
    out["runner.cli.import_s"] = _cli(["list"], cache.root)
    out["runner.cli.warm_sweep_s"] = _cli(["sweep", "--spec", spec_path, "--backend", "serial"],
                                          cache.root)
    out["runner.cli.report_s"] = _cli(["report", "--aggregate"], cache.root)
    return out


# -- experiments: fixed simulation cells -------------------------------------


def _timed_cell(scenario: str, params: Dict[str, Any]) -> Tuple[float, api.RunResult]:
    t0 = clock()
    result = api.execute_run(api.RunSpec(scenario, params, seed=1))
    return clock() - t0, result


def run_experiments(*, fig09_s: float, fig02_s: float) -> Dict[str, float]:
    """Fixed fig09 / fig02 pairs: Bundler's host-time cost and simulated gains."""
    fig09 = {"duration_s": fig09_s, "warmup_s": 1, "num_servers": 4}
    quo_s, quo = _timed_cell("fig09_slowdown", {**fig09, "mode": "status_quo"})
    sfq_s, sfq = _timed_cell("fig09_slowdown", {**fig09, "mode": "bundler_sfq"})
    os.environ["REPRO_PROBES"] = "1"
    try:
        probed_s = sum(
            _timed_cell("fig09_slowdown", {**fig09, "mode": mode})[0]
            for mode in ("status_quo", "bundler_sfq")
        )
    finally:
        os.environ["REPRO_PROBES"] = "0"
    _, with_bundler = _timed_cell("fig02_queue_shift", {"duration_s": fig02_s})
    _, without = _timed_cell("fig02_queue_shift", {"duration_s": fig02_s, "with_bundler": False})

    def gain(metric: str, bundler: api.RunResult, baseline: api.RunResult) -> float:
        base = baseline.metric(metric)
        # A smoke-sized baseline may not have built a queue yet.
        return 1.0 - bundler.metric(metric) / base if base else 0.0

    return {
        "experiments.status_quo_wall_s": quo_s,
        "experiments.bundler_wall_s": sfq_s,
        "core.bundler_overhead_ratio": sfq_s / quo_s,
        "obs.probes_overhead_ratio": probed_s / (quo_s + sfq_s),
        "experiments.sfq_median_gain": gain("median_slowdown", sfq, quo),
        "experiments.sfq_p99_gain": gain("p99_slowdown", sfq, quo),
        "experiments.queue_shift_gain": gain("mean_bottleneck_delay_ms", with_bundler, without),
    }
