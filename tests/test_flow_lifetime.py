"""Flow lifetime: a finished TCP flow is a record, not a live transport stack.

When a sender has its last byte acknowledged the flow *closes*: the sender
releases its port and leaves the simulator's flow registry (counters folded
into the registry's totals), the flow takes its one final ``FlowRecord``,
and a ``TraceReplayWorkload`` swaps the flow for that record.  Two things
have to hold and are checked here:

* **nothing observable moves** — closing is compared, over seeded lossy and
  reordering paths, with the retention it replaced (``_NeverClose``: the
  same classes with the close hook disabled, so a completed sender keeps its
  port and its registry entry).  Every link's packet counts, every flow's
  record and the ``(time, packet)`` sequence of every host delivery are
  identical, and the fuzz is shown to reach the cases the argument is about
  (a duplicate segment at a completed receiver, an ACK at a closed port);
* **memory follows the flows in flight** — senders, flows and controllers
  of finished flows are freed by reference counting alone, the sending
  hosts' agent tables hold the open flows only, and what a finished flow
  leaves behind stays under a byte budget.

Run under ``REPRO_SANITIZE=1`` the fuzz simulators are instrumented (CI
does), so the sanitizer's tombstone check sees those schedules too.
"""

from __future__ import annotations

import gc
import json
import os
import random
import subprocess
import sys
import tracemalloc
import weakref
from functools import lru_cache

import pytest

from repro.analysis.sanitizer import Sanitizer, SanitizerViolation, maybe_sanitizer
from repro.cc.cubic import CubicCC
from repro.net.link import Link
from repro.net.node import Host, Router
from repro.net.packet import PacketFactory
from repro.net.simulator import Simulator
from repro.net.topology import build_site_to_site
from repro.obs.stats import simulator_counters
from repro.qdisc.fifo import FifoQdisc
from repro.traffic.events import TraceEvent
from repro.traffic.replay import TraceReplayWorkload
from repro.transport.flow import FlowRecord, TcpFlow
from repro.transport.tcp import TcpReceiver, TcpSender, _SegmentState
from repro.transport.udp import PacedUdpStream

MSS = 1500


# -- the reference: the retention that closing replaced ------------------------


class _NeverCloseSimulator(Simulator):
    """Keeps every sender in the flow registry, as the parent commit did."""

    def close_flow(self, sender):
        pass


class _NeverCloseHost(Host):
    """Keeps every port registered, as the parent commit did."""

    def deregister_agent(self, port):
        pass


class _LossyFifo(FifoQdisc):
    """Drop-tail FIFO that also loses arrivals at random (seeded)."""

    def __init__(self, rng, loss, limit_packets):
        super().__init__(limit_packets=limit_packets)
        self._rng = rng
        self._loss = loss

    def enqueue(self, packet, now):
        if self._rng.random() < self._loss:
            self.dropped_packets += 1
            return False
        return super().enqueue(packet, now)


@lru_cache(maxsize=None)
def _fuzz_run(seed: int, closing: bool):
    """Thirty flows a -> b over a lossy, reordering path; what was observable.

    Forward: a shallow drop-tail access queue, then two parallel links of
    unequal delay under packet-mode ECMP (reordering, hence spurious
    retransmissions and duplicate deliveries).  Reverse: the same shape,
    plus random ACK loss (timeouts, and retransmissions of data the
    receiver already holds).
    """
    rng = random.Random(seed)
    sim = Simulator() if closing else _NeverCloseSimulator()
    sanitizer = maybe_sanitizer()
    if sanitizer is not None:
        sanitizer.attach(sim)
    host_cls = Host if closing else _NeverCloseHost
    factory = PacketFactory()
    a, b = host_cls(sim, "a"), host_cls(sim, "b")
    r1, r2 = Router(sim, "r1"), Router(sim, "r2")
    depth = rng.choice((3, 5, 8))
    ack_loss = rng.choice((0.0, 0.05, 0.15))
    rate = 12e6
    links = []

    def link(name, dst, *, delay, qdisc):
        made = Link(sim, name, rate_bps=rate, delay=delay, qdisc=qdisc).connect(dst)
        links.append(made)
        return made

    a.attach_egress(link("a-r1", r1, delay=0.001, qdisc=FifoQdisc(limit_packets=depth)))
    forward = [
        link("r1-r2/0", r2, delay=0.004, qdisc=FifoQdisc(limit_packets=depth)),
        link("r1-r2/1", r2, delay=rng.choice((0.004, 0.009, 0.02)),
             qdisc=FifoQdisc(limit_packets=depth)),
    ]
    r1.add_ecmp_route(b.address, forward, mode="packet")
    r2.add_route(b.address, link("r2-b", b, delay=0.001, qdisc=FifoQdisc()))
    b.attach_egress(link("b-r2", r2, delay=0.001, qdisc=FifoQdisc()))
    backward = [
        link("r2-r1/0", r1, delay=0.004,
             qdisc=_LossyFifo(random.Random(seed + 1), ack_loss, 50)),
        link("r2-r1/1", r1, delay=rng.choice((0.004, 0.012)),
             qdisc=_LossyFifo(random.Random(seed + 2), ack_loss, 50)),
    ]
    r2.add_ecmp_route(a.address, backward, mode="packet")
    r1.add_route(a.address, link("r1-a", a, delay=0.001, qdisc=FifoQdisc()))

    flows = {}
    deliveries = []
    late = {"duplicate_at_completed_receiver": 0, "ack_at_closed_sender": 0}

    def tap(packet, now):
        deliveries.append((now, packet.flow_id, packet.is_ack, packet.seq, packet.size))
        flow = flows[packet.flow_id]
        if packet.is_ack:
            late["ack_at_closed_sender"] += flow.closed
        else:
            late["duplicate_at_completed_receiver"] += flow.receiver.completed

    a.add_tap(tap)
    b.add_tap(tap)
    for _ in range(30):
        size = rng.choice((400, MSS, 2 * MSS, 7 * MSS, 30 * MSS, 120 * MSS))
        flow = TcpFlow(sim, factory, a, b, size_bytes=size)
        flows[flow.flow_id] = flow
        flow.start(delay=rng.uniform(0.0, 1.5))
    sim.run(until=400.0)
    if sanitizer is not None:
        sanitizer.finalize()
    records = [flow.record() for flow in flows.values()]
    assert all(flow.closed for flow in flows.values()), "a fuzz flow never finished"
    return {
        "links": [(l.name, l.packets_sent, l.packets_dropped, l.bytes_sent) for l in links],
        "records": records,
        "deliveries": deliveries,
        "events": (sim.stats.events_processed, sim.stats.events_scheduled,
                   sim.stats.events_cancelled),
        "transports": simulator_counters(sim)["transports"],
        "sender_ports": len(a._agents),
        "open_flows": len(sim.open_flows),
        "late": late,
    }


FUZZ_SEEDS = range(12)


class TestClosingMovesNothing:
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_closing_matches_never_closing(self, seed):
        closing, kept = _fuzz_run(seed, True), _fuzz_run(seed, False)
        assert closing["links"] == kept["links"]
        assert closing["records"] == kept["records"]
        assert closing["deliveries"] == kept["deliveries"]
        assert closing["events"] == kept["events"]
        assert closing["transports"] == kept["transports"]
        # ... and the two really differ in what they retain.
        assert (closing["sender_ports"], closing["open_flows"]) == (0, 0)
        assert (kept["sender_ports"], kept["open_flows"]) == (30, 30)

    def test_fuzz_reaches_the_late_packet_cases(self):
        # The equality above says something only if packets do arrive after
        # the end of a flow: data at a receiver that already has it all
        # (which it must still ACK) and ACKs at a port whose sender closed.
        totals = {"duplicate_at_completed_receiver": 0, "ack_at_closed_sender": 0}
        retransmits = timeouts = 0
        for seed in FUZZ_SEEDS:
            run = _fuzz_run(seed, True)
            for name, count in run["late"].items():
                totals[name] += count
            retransmits += run["transports"]["retransmits"]
            timeouts += run["transports"]["timeouts"]
        assert totals["duplicate_at_completed_receiver"] > 20
        assert totals["ack_at_closed_sender"] > 20
        assert retransmits > 100 and timeouts > 5

    def test_one_record_per_flow(self):
        # The record is taken once, when the flow closes; the workload's two
        # views serve that object, so they cannot disagree (they used to: a
        # snapshot at receiver completion missed a later retransmission).
        sim = Simulator()
        topo = build_site_to_site(sim, bottleneck_mbps=24, rtt_ms=20, num_servers=2)
        events = [
            TraceEvent(time_s=0.01 * i, kind="flow", size_bytes=40_000, src=i, dst=0)
            for i in range(40)
        ]
        workload = TraceReplayWorkload(
            sim, topo.packet_factory, topo.servers, topo.clients, events=events
        ).start()
        sim.run(until=0.25)  # mid-run: some closed, some open, some not issued
        assert 0 < len(workload.flows) < workload.flows_issued < 40
        sim.run(until=30.0)
        by_issue = workload.records(include_incomplete=True)
        by_completion = workload.records()
        assert len(by_issue) == len(by_completion) == 40
        assert [r.flow_id for r in by_issue] == sorted(r.flow_id for r in by_issue)
        finished = [r.completion_time for r in by_completion]
        assert finished == sorted(finished)
        assert {id(r) for r in by_issue} == {id(r) for r in by_completion}
        assert workload.records(include_incomplete=True)[0] is by_issue[0]
        assert sum(r.retransmissions for r in by_issue) == (
            simulator_counters(sim)["transports"]["retransmits"]
        )

    def test_group_records(self):
        sim = Simulator()
        topo = build_site_to_site(
            sim, bottleneck_mbps=24, rtt_ms=20, num_servers=2, num_cross_pairs=1
        )
        events = [
            TraceEvent(time_s=0.1, kind="flow", size_bytes=3_000),
            TraceEvent(time_s=0.2, kind="flow", size_bytes=4_000, group="cross"),
            TraceEvent(time_s=0.3, kind="flow", size_bytes=5_000),
        ]
        workload = TraceReplayWorkload(
            sim, topo.packet_factory, topo.servers, topo.clients, events=events,
            cross_senders=topo.cross_senders, cross_receivers=topo.cross_receivers,
        ).start()
        sim.run(until=3.0)

        def sizes(**which):
            return [r.size_bytes for r in workload.records(**which)]

        assert sizes(include_incomplete=True) == [3_000, 4_000, 5_000]
        assert sizes(include_incomplete=True, group="bundle") == [3_000, 5_000]
        assert sizes(group="cross") == [4_000]
        with pytest.raises(ValueError, match="group"):
            workload.records(group="bundles")


# -- memory ---------------------------------------------------------------------


def _two_hosts(sim):
    a, b = Host(sim, "a"), Host(sim, "b")
    a.attach_egress(Link(sim, "ab", 24e6, 5e-3, FifoQdisc(limit_packets=100)).connect(b))
    b.attach_egress(Link(sim, "ba", 24e6, 5e-3, FifoQdisc(limit_packets=100)).connect(a))
    return PacketFactory(), a, b


def _constant_flows(count, size_bytes=10_000, spacing_s=0.004):
    """A lazy trace (O(1) memory, like the replay that pulls it)."""
    for i in range(count):
        yield TraceEvent(time_s=spacing_s * i, kind="flow", size_bytes=size_bytes)


class TestMemoryFollowsFlowsInFlight:
    FLOWS = 300

    def test_finished_flows_are_freed_by_reference_counting(self):
        # Sequential short flows, each started when the previous one closes.
        # No gc.collect(): a cycle through a callback would keep the whole
        # transport stack of every finished flow until the next collection.
        sim = Simulator()
        factory, a, b = _two_hosts(sim)
        senders, flows, controllers = [], [], []
        ports_seen = []
        alive_at_last_close = {}

        def alive(refs):
            return sum(ref() is not None for ref in refs)

        def start_next(_flow=None):
            ports_seen.append(len(a._agents))
            if len(flows) < self.FLOWS:
                flow = TcpFlow(sim, factory, a, b, size_bytes=10_000, on_close=start_next)
                flows.append(weakref.ref(flow))
                senders.append(weakref.ref(flow.sender))
                controllers.append(weakref.ref(flow.sender.cc))
                flow.start()
            else:
                del _flow  # the caller's frame still holds the closing flow
                alive_at_last_close.update(
                    flows=alive(flows), senders=alive(senders),
                    controllers=alive(controllers),
                    early_senders=alive(senders[: self.FLOWS - 100]),
                    early_controllers=alive(controllers[: self.FLOWS - 100]),
                )

        gc.disable()
        try:
            start_next()
            sim.run()  # also pops every cancelled timer
            assert len(flows) == self.FLOWS
            # A closed flow's port is released before its successor opens.
            assert ports_seen == [0] * (self.FLOWS + 1)
            assert len(b._agents) == self.FLOWS  # receivers stay, by design
            # At the instant the last flow closed: every earlier flow was
            # already dead (the closing one is still on its caller's stack).
            # A sender and its controller can outlive their flow by one
            # retransmission timeout — the heap still holds the sender's
            # last, cancelled, RTO event — which at ~12 ms a flow is the
            # most recent few dozen of them, never the early ones.
            assert alive_at_last_close["flows"] <= 1
            assert 1 <= alive_at_last_close["senders"] <= 100
            assert 1 <= alive_at_last_close["controllers"] <= 100
            assert alive_at_last_close["early_senders"] == 0
            assert alive_at_last_close["early_controllers"] == 0
            # With the heap drained nothing is left.
            assert alive(flows) == alive(senders) == alive(controllers) == 0
        finally:
            gc.enable()
        assert simulator_counters(sim)["transports"]["tcp_senders"] == self.FLOWS
        assert len(sim.open_flows) == 0

    def test_sending_hosts_hold_the_open_flows_only(self):
        sim = Simulator()
        topo = build_site_to_site(sim, bottleneck_mbps=24, rtt_ms=20, num_servers=2)
        workload = TraceReplayWorkload.poisson_requests(
            sim, topo.packet_factory, topo.servers, topo.clients,
            offered_load_bps=18e6, rng=random.Random(3), duration_s=4.0,
        ).start()
        samples = []

        def sample():
            registered = sum(len(server._agents) for server in topo.servers)
            samples.append((registered, len(workload.flows), len(sim.open_flows)))

        sim.every(0.05, sample, end=4.0)
        sim.run(until=10.0)
        assert workload.flows_issued > 1000
        assert all(ports == flows == open_ for ports, flows, open_ in samples)
        assert 0 < max(ports for ports, _, _ in samples) < workload.flows_issued / 10
        assert workload.flows == [] and len(sim.open_flows) == 0
        assert sum(len(server._agents) for server in topo.servers) == 0
        assert sum(len(c._agents) for c in topo.clients) == workload.flows_issued

    #: What one finished flow may leave behind, in bytes: its receiver
    #: (still registered), its record, and its slots in the workload's two
    #: lists and the receiving host's agent table.  Measured 0.43 KB; the
    #: parent commit kept 3.7 KB (sender and its dict, scoreboard
    #: containers, controller, flow, two records).
    RETAINED_BYTES_PER_FLOW = 700

    def test_bytes_retained_per_finished_flow(self):
        def retained_after(count):
            sim = Simulator()
            topo = build_site_to_site(sim, bottleneck_mbps=24, rtt_ms=20, num_servers=2)
            workload = TraceReplayWorkload(
                sim, topo.packet_factory, topo.servers, topo.clients,
                events=_constant_flows(count),
            ).start()
            sim.run()  # drained: no flow in flight, no timer pinning a sender
            assert workload.flows_issued == count and workload.flows == []
            gc.collect()
            return tracemalloc.get_traced_memory()[0], (sim, topo, workload)

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            few, keep_few = retained_after(500)
            few -= base
            base = tracemalloc.get_traced_memory()[0]
            many, keep_many = retained_after(2500)
            many -= base
        finally:
            tracemalloc.stop()
        del keep_few, keep_many
        per_flow = (many - few) / 2000
        assert per_flow < self.RETAINED_BYTES_PER_FLOW, f"{per_flow:.0f} B per finished flow"

    def test_slotted_classes_have_no_instance_dict(self):
        sim = Simulator()
        factory, a, b = _two_hosts(sim)
        flow = TcpFlow(sim, factory, a, b, size_bytes=60_000).start()
        sim.run(until=0.02)  # in flight: the scoreboard holds segments
        segment = next(iter(flow.sender._segments.values()))
        instances = [flow, flow.sender, flow.receiver, flow.sender.cc, flow.record(), segment]
        assert [type(x) for x in instances] == [
            TcpFlow, TcpSender, TcpReceiver, CubicCC, FlowRecord, _SegmentState,
        ]
        for instance in instances:
            assert not hasattr(instance, "__dict__"), type(instance).__name__
        # Allocate-on-first-use containers of a flow that lost nothing.
        sim.run(until=5.0)
        assert flow.closed and flow.sender.retransmissions == 0
        assert flow.sender._retx_seqs is None and flow.sender._retx_order is None
        assert flow.receiver._ranges is None

    def test_a_closed_sender_stays_readable(self):
        # The probe layer holds the first senders it is shown and samples
        # them for the rest of the run.
        sim = Simulator()
        factory, a, b = _two_hosts(sim)
        flow = TcpFlow(sim, factory, a, b, size_bytes=30_000).start(delay=0.25)
        sender = flow.sender
        sim.run(until=5.0)
        assert flow.closed and sender.completed
        assert sender.snd_una == 30_000 and sender.cwnd_bytes >= 10 * MSS
        assert sender.start_time == 0.25 and sender.complete_time > flow.completion_time
        assert flow.record() is flow.record()
        assert flow.record().completion_time == flow.completion_time


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc (VmHWM)")
def test_request_cell_peak_rss_is_bounded():
    # 20 000 requests at the paper's 96 Mbit/s in a fresh interpreter: the
    # parent commit peaked at 99 MB here (3.7 KB per finished flow on top
    # of ~30 MB of interpreter and imports); closing flows reads 36 MB.
    # VmHWM, not ru_maxrss: exec folds the forking parent's peak into the
    # child's ru_maxrss, so under a large pytest process that reads pytest.
    script = """
import json, re
from repro.runner.engine import execute_run
from repro.runner.spec import RunSpec
result = execute_run(RunSpec(
    "fig09_slowdown",
    params=dict(bottleneck_mbps=96.0, duration_s=8.0, max_requests=20000),
    seed=1,
))
with open("/proc/self/status") as status:
    peak_kb = int(re.search(r"VmHWM:\\s+(\\d+) kB", status.read()).group(1))
print(json.dumps({
    "requests": result.metrics["requests_issued"],
    "peak_mb": peak_kb / 1024.0,
}))
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = src
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report["requests"] == 20000
    assert report["peak_mb"] < 60.0, f"request cell peaked at {report['peak_mb']:.0f} MB RSS"


# -- counters ---------------------------------------------------------------------


def test_transport_counters_total_closed_and_open_flows():
    # Closed flows (folded totals), open flows (one backlogged, one cut off
    # mid-transfer by the run bound) and a UDP stream in one simulator.
    sim = Simulator()
    factory, a, b = _two_hosts(sim)
    a.egress.qdisc = FifoQdisc(limit_packets=8)  # shallow: real retransmissions
    short = [TcpFlow(sim, factory, a, b, size_bytes=90_000).start(delay=0.1 * i)
             for i in range(6)]
    backlogged = TcpFlow(sim, factory, a, b, size_bytes=None).start(delay=0.05)
    late = TcpFlow(sim, factory, a, b, size_bytes=5_000_000).start(delay=1.9)
    stream = PacedUdpStream(sim, factory, a, b, rate_bps=1e6, packet_size=1000)
    stream.start(duration=1.0)
    senders = [flow.sender for flow in short + [backlogged, late]]
    sim.run(until=2.0)
    assert all(flow.closed for flow in short)
    assert not backlogged.closed and not late.closed
    assert list(sim.open_flows) == [backlogged.sender, late.sender, stream]
    assert sim.closed_flows.senders == 6
    transports = simulator_counters(sim)["transports"]
    assert transports == {
        "tcp_senders": 8,
        "tcp_packets_sent": sum(s.packets_sent for s in senders),
        "retransmits": sum(s.retransmissions for s in senders),
        "timeouts": sum(s.timeouts for s in senders),
        "udp_streams": 1,
        "udp_packets_sent": stream.packets_sent,
    }
    assert transports["retransmits"] > 0 and transports["udp_packets_sent"] > 100
    assert sim.closed_flows.packets_sent == sum(f.sender.packets_sent for f in short)
    # Stopping the backlogged flow with nothing outstanding closes it too.
    sim.run(until=2.0)
    backlogged.stop()
    assert backlogged.closed == (backlogged.sender.inflight_bytes == 0)


# -- the sanitizer's half -------------------------------------------------------------


class TestSanitizerChecksTheEndOfLife:
    def _closed_flow(self):
        sim = Simulator()
        sanitizer = Sanitizer()
        sanitizer.attach(sim)
        factory, a, b = _two_hosts(sim)
        flow = TcpFlow(sim, factory, a, b, size_bytes=3_000).start()
        sim.run(until=1.0)
        assert flow.closed
        return sim, sanitizer, factory, a, b, flow

    def _ack(self, factory, a, b, flow, ack, **fields):
        fields = {"flow_id": flow.flow_id, "is_ack": True, **fields}
        return factory.make(
            src=b.address, dst=a.address, src_port=flow.port, dst_port=flow.port,
            size=40, payload={"ack": ack, "sack": []}, **fields)

    def test_inert_late_ack_is_counted_not_reported(self):
        sim, sanitizer, factory, a, b, flow = self._closed_flow()
        assert sanitizer.summary()["flows_closed"] == 1
        assert sanitizer.summary()["late_packets"] == 0
        b.send(self._ack(factory, a, b, flow, ack=1_500))
        sim.run(until=2.0)
        assert sanitizer.summary()["late_packets"] == 1

    @pytest.mark.parametrize("fields, ack, problem", [
        ({}, 4_500, "beyond snd_una=3000"),
        ({"flow_id": 999}, 1_500, "an ACK of flow 999"),
        ({"is_ack": False}, 1_500, "a data packet"),
    ])
    def test_a_packet_the_live_sender_would_act_on_is_a_violation(self, fields, ack, problem):
        sim, sanitizer, factory, a, b, flow = self._closed_flow()
        b.send(self._ack(factory, a, b, flow, ack=ack, **fields))
        with pytest.raises(SanitizerViolation, match=problem) as info:
            sim.run(until=2.0)
        assert f"flow {flow.flow_id} " in str(info.value) and "on a" in str(info.value)

    def test_closing_with_unfinished_business_is_a_violation(self):
        sim = Simulator()
        Sanitizer().attach(sim)
        factory, a, b = _two_hosts(sim)
        flow = TcpFlow(sim, factory, a, b, size_bytes=60_000).start()
        sim.run(until=0.008)  # first window out, nothing acknowledged yet
        sender = flow.sender
        assert sender._segments and sender._rto_timer is not None
        with pytest.raises(SanitizerViolation) as info:
            sim.close_flow(sender)
        message = str(info.value)
        assert f"flow {flow.flow_id} " in message
        assert "on the scoreboard" in message and "timer armed" in message
        assert "snd_una=0 short of size_bytes=60000" in message

    def test_engagement_rides_the_telemetry(self, monkeypatch):
        from repro.runner.engine import execute_run
        from repro.runner.spec import RunSpec

        monkeypatch.setenv("REPRO_SANITIZE", "1")
        result = execute_run(RunSpec("fig09_slowdown", params={"duration_s": 3.0}, seed=1))
        summary = result.telemetry["sanitizer"]
        assert summary["flows_closed"] > 1000
        assert summary["flows_closed"] <= result.telemetry["counters"]["transports"]["tcp_senders"]
        assert summary["late_packets"] >= 0
