"""Tests for links, hosts, routers and ECMP routing."""

import pytest

from repro.net.link import Link
from repro.net.node import EcmpGroup, Host, Router
from repro.net.packet import PacketFactory
from repro.net.simulator import Simulator
from repro.qdisc.fifo import FifoQdisc


class _Sink:
    def __init__(self):
        self.packets = []

    def on_packet(self, packet, now):
        self.packets.append((packet, now))


def _simple_pair(sim, rate_bps=12e6, delay=0.01):
    factory = PacketFactory()
    a = Host(sim, "a")
    b = Host(sim, "b")
    link = Link(sim, "a->b", rate_bps=rate_bps, delay=delay, qdisc=FifoQdisc()).connect(b)
    a.attach_egress(link)
    return factory, a, b, link


def test_link_delivers_after_serialization_and_propagation():
    sim = Simulator()
    factory, a, b, link = _simple_pair(sim, rate_bps=12e6, delay=0.01)
    sink = _Sink()
    b.register_agent(20, sink)
    pkt = factory.make(flow_id=1, src=a.address, dst=b.address, src_port=10, dst_port=20, size=1500)
    a.send(pkt)
    sim.run()
    assert len(sink.packets) == 1
    # 1500 bytes at 12 Mbit/s = 1 ms serialization + 10 ms propagation.
    _, arrival = sink.packets[0]
    assert arrival == pytest.approx(0.011, abs=1e-6)


def test_link_serializes_back_to_back_packets():
    sim = Simulator()
    factory, a, b, link = _simple_pair(sim, rate_bps=12e6, delay=0.0)
    sink = _Sink()
    b.register_agent(20, sink)
    for _ in range(3):
        a.send(factory.make(flow_id=1, src=a.address, dst=b.address, src_port=10, dst_port=20, size=1500))
    sim.run()
    arrivals = [t for _, t in sink.packets]
    assert arrivals == pytest.approx([0.001, 0.002, 0.003], abs=1e-9)


def test_link_drops_when_queue_full():
    sim = Simulator()
    factory = PacketFactory()
    a = Host(sim, "a")
    b = Host(sim, "b")
    link = Link(sim, "a->b", rate_bps=1e6, delay=0.0, qdisc=FifoQdisc(limit_packets=2)).connect(b)
    a.attach_egress(link)
    accepted = [
        a.send(factory.make(flow_id=1, src=a.address, dst=b.address, src_port=1, dst_port=2, size=1500))
        for _ in range(5)
    ]
    # One packet is immediately in transmission; two fit in the queue.
    assert accepted.count(True) == 3
    assert link.packets_dropped == 2


def test_link_utilization_and_counters():
    sim = Simulator()
    factory, a, b, link = _simple_pair(sim, rate_bps=12e6, delay=0.0)
    for _ in range(10):
        a.send(factory.make(flow_id=1, src=a.address, dst=b.address, src_port=1, dst_port=2, size=1500))
    sim.run()
    assert link.packets_sent == 10
    assert link.bytes_sent == 15_000
    assert link.utilization(0.01) == pytest.approx(1.0)


def test_router_forwards_by_destination():
    sim = Simulator()
    factory = PacketFactory()
    router = Router(sim, "r")
    dst1, dst2 = Host(sim, "d1"), Host(sim, "d2")
    sink1, sink2 = _Sink(), _Sink()
    dst1.register_agent(5, sink1)
    dst2.register_agent(5, sink2)
    l1 = Link(sim, "r->d1", rate_bps=1e9, delay=0.0, qdisc=FifoQdisc()).connect(dst1)
    l2 = Link(sim, "r->d2", rate_bps=1e9, delay=0.0, qdisc=FifoQdisc()).connect(dst2)
    router.add_route(dst1.address, l1)
    router.add_route(dst2.address, l2)
    router.inject(factory.make(flow_id=1, src=99, dst=dst2.address, src_port=1, dst_port=5))
    sim.run()
    assert len(sink1.packets) == 0
    assert len(sink2.packets) == 1
    assert router.packets_forwarded == 1


def test_router_delivers_locally_addressed_packets():
    sim = Simulator()
    factory = PacketFactory()
    router = Router(sim, "r")
    sink = _Sink()
    router.register_agent(7, sink)
    router.inject(factory.make(flow_id=1, src=1, dst=router.address, src_port=1, dst_port=7))
    sim.run()
    assert len(sink.packets) == 1


def test_router_tap_sees_all_packets():
    sim = Simulator()
    factory = PacketFactory()
    router = Router(sim, "r")
    seen = []
    router.add_tap(lambda pkt, now: seen.append(pkt.pkt_id))
    dst = Host(sim, "d")
    link = Link(sim, "r->d", rate_bps=1e9, delay=0.0, qdisc=FifoQdisc()).connect(dst)
    router.add_route(dst.address, link)
    for _ in range(3):
        router.inject(factory.make(flow_id=1, src=1, dst=dst.address, src_port=1, dst_port=2))
    assert len(seen) == 3


def test_ecmp_flow_mode_is_sticky_per_flow():
    sim = Simulator()
    factory = PacketFactory()
    links = [Link(sim, f"l{i}", rate_bps=1e9, delay=0.0, qdisc=FifoQdisc()) for i in range(2)]
    group = EcmpGroup(links, mode="flow")
    flow_a = [factory.make(flow_id=1, src=1, dst=2, src_port=1000, dst_port=80) for _ in range(5)]
    picks = {group.pick(p).name for p in flow_a}
    assert len(picks) == 1


def test_ecmp_packet_mode_round_robins():
    sim = Simulator()
    factory = PacketFactory()
    links = [Link(sim, f"l{i}", rate_bps=1e9, delay=0.0, qdisc=FifoQdisc()) for i in range(2)]
    group = EcmpGroup(links, mode="packet")
    picks = [group.pick(factory.make(flow_id=1, src=1, dst=2, src_port=1, dst_port=2)).name for _ in range(4)]
    assert picks == ["l0", "l1", "l0", "l1"]


def test_ecmp_rejects_bad_configuration():
    sim = Simulator()
    link = Link(sim, "l", rate_bps=1e9, delay=0.0, qdisc=FifoQdisc())
    with pytest.raises(ValueError):
        EcmpGroup([], mode="flow")
    with pytest.raises(ValueError):
        EcmpGroup([link], mode="bogus")
    with pytest.raises(ValueError):
        EcmpGroup([link], weights=[1.0, 2.0])
    # A zero total used to be a bare ZeroDivisionError; a negative weight was
    # accepted and silently starved its link.
    with pytest.raises(ValueError, match=r"\[0, 0\]"):
        EcmpGroup([link, link], weights=[0, 0])
    with pytest.raises(ValueError, match=r"\[-1, 2\]"):
        EcmpGroup([link, link], weights=[-1, 2])
    assert EcmpGroup([link, link], weights=[0, 2]).weights == [0, 2]


def test_duplicate_agent_port_rejected():
    sim = Simulator()
    host = Host(sim, "h")
    host.register_agent(5, _Sink())
    with pytest.raises(ValueError):
        host.register_agent(5, _Sink())


def test_kick_wakes_waiting_shaper_link():
    from repro.qdisc.tbf import TokenBucketQdisc

    sim = Simulator()
    factory = PacketFactory()
    a, b = Host(sim, "a"), Host(sim, "b")
    sink = _Sink()
    b.register_agent(2, sink)
    tbf = TokenBucketQdisc(rate_bps=1e3)  # absurdly slow
    link = Link(sim, "a->b", rate_bps=1e9, delay=0.0, qdisc=tbf).connect(b)
    a.attach_egress(link)
    for _ in range(4):
        a.send(factory.make(flow_id=1, src=a.address, dst=b.address, src_port=1, dst_port=2, size=1500))
    sim.run(until=0.1)
    delivered_slow = len(sink.packets)
    tbf.set_rate(1e9, sim.now)
    link.kick()
    sim.run(until=0.2)
    assert len(sink.packets) == 4
    assert len(sink.packets) > delivered_slow
