"""Tests for queueing disciplines."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.packet import PacketFactory
from repro.qdisc import make_qdisc
from repro.qdisc.codel import CoDelQdisc
from repro.qdisc.drr import DrrQdisc
from repro.qdisc.fifo import FifoQdisc
from repro.qdisc.fq_codel import FqCoDelQdisc
from repro.qdisc.prio import PrioQdisc
from repro.qdisc.sfq import SfqQdisc
from repro.qdisc.tbf import TokenBucketQdisc



def _flow_packet(factory, flow, seq=0, size=1500, traffic_class=0):
    return factory.make(
        flow_id=flow, src=flow, dst=100, src_port=1000 + flow, dst_port=80,
        seq=seq, size=size, traffic_class=traffic_class,
    )


class TestFifo:
    def test_fifo_order(self):
        q = FifoQdisc()
        factory = PacketFactory()
        pkts = [_flow_packet(factory, 1, seq=i) for i in range(5)]
        for p in pkts:
            assert q.enqueue(p, 0.0)
        out = [q.dequeue(0.0) for _ in range(5)]
        assert [p.seq for p in out] == [0, 1, 2, 3, 4]

    def test_fifo_drop_tail(self):
        q = FifoQdisc(limit_packets=2)
        factory = PacketFactory()
        results = [q.enqueue(_flow_packet(factory, 1, seq=i), 0.0) for i in range(4)]
        assert results == [True, True, False, False]
        assert q.dropped_packets == 2

    def test_empty_dequeue_returns_none(self):
        assert FifoQdisc().dequeue(0.0) is None

    def test_byte_limit(self):
        q = FifoQdisc(limit_bytes=3000)
        factory = PacketFactory()
        assert q.enqueue(_flow_packet(factory, 1), 0.0)
        assert q.enqueue(_flow_packet(factory, 1), 0.0)
        assert not q.enqueue(_flow_packet(factory, 1), 0.0)


class TestSfq:
    def test_round_robin_between_flows(self):
        q = SfqQdisc()
        factory = PacketFactory()
        # Flow 1 has 5 packets queued, flow 2 has 1: flow 2's packet should not
        # wait behind all of flow 1's.
        for i in range(5):
            q.enqueue(_flow_packet(factory, 1, seq=i), 0.0)
        q.enqueue(_flow_packet(factory, 2, seq=0), 0.0)
        order = [q.dequeue(0.0).flow_id for _ in range(6)]
        assert 2 in order[:2]

    def test_overflow_drops_from_longest_flow(self):
        q = SfqQdisc(limit_packets=4)
        factory = PacketFactory()
        for i in range(4):
            q.enqueue(_flow_packet(factory, 1, seq=i), 0.0)
        # Heavy flow is at the limit; a packet from a light flow still gets in.
        assert q.enqueue(_flow_packet(factory, 2, seq=0), 0.0)
        assert q.dropped_packets == 1
        flows = set()
        while True:
            p = q.dequeue(0.0)
            if p is None:
                break
            flows.add(p.flow_id)
        assert 2 in flows

    def test_active_flows(self):
        q = SfqQdisc()
        factory = PacketFactory()
        q.enqueue(_flow_packet(factory, 1), 0.0)
        q.enqueue(_flow_packet(factory, 2), 0.0)
        assert q.active_flows() == 2

    def test_byte_limit_never_exceeded_by_large_arrival(self):
        # Regression: one victim drop used to be followed by unconditional
        # acceptance, so a large arrival could push the backlog over
        # limit_bytes.  Eviction must repeat until the arrival fits.
        q = SfqQdisc(limit_bytes=4000)
        factory = PacketFactory()
        for i in range(8):
            assert q.enqueue(_flow_packet(factory, 1, seq=i, size=500), 0.0)
        assert q.backlog_bytes == 4000
        assert q.enqueue(_flow_packet(factory, 2, seq=0, size=2000), 0.0)
        assert q.backlog_bytes <= 4000
        # Exactly enough victims were evicted: 4 x 500 B made room for 2000 B.
        assert q.dropped_packets == 4
        assert q.backlog_bytes == 4000

    def test_arrival_larger_than_byte_limit_is_dropped_without_eviction(self):
        q = SfqQdisc(limit_bytes=3000)
        factory = PacketFactory()
        for i in range(2):
            assert q.enqueue(_flow_packet(factory, 1, seq=i, size=1500), 0.0)
        # A packet that could never fit must not drain the queue trying.
        assert not q.enqueue(_flow_packet(factory, 2, seq=0, size=5000), 0.0)
        assert q.backlog_packets == 2
        assert q.backlog_bytes == 3000
        assert q.dropped_packets == 1

    def test_packet_limit_overflow_still_single_victim(self):
        # With a packet limit each eviction frees exactly one slot, so the
        # bounded loop degenerates to the historical single-victim behavior.
        q = SfqQdisc(limit_packets=4)
        factory = PacketFactory()
        for i in range(4):
            q.enqueue(_flow_packet(factory, 1, seq=i), 0.0)
        assert q.enqueue(_flow_packet(factory, 2, seq=0), 0.0)
        assert q.backlog_packets == 4
        assert q.dropped_packets == 1


class TestCoDel:
    def test_no_drops_below_target(self):
        q = CoDelQdisc(target=0.005, interval=0.1)
        factory = PacketFactory()
        for i in range(10):
            q.enqueue(_flow_packet(factory, 1, seq=i), float(i) * 0.001)
        out = 0
        t = 0.011
        while q.dequeue(t) is not None:
            out += 1
            t += 0.001
        assert out == 10

    def test_drops_when_sojourn_persistently_high(self):
        q = CoDelQdisc(target=0.005, interval=0.05)
        factory = PacketFactory()
        for i in range(200):
            q.enqueue(_flow_packet(factory, 1, seq=i), 0.0)
        # Dequeue slowly: every packet has waited far above target.
        drops_before = q.dropped_packets
        t = 1.0
        for _ in range(100):
            q.dequeue(t)
            t += 0.01
        assert q.dropped_packets > drops_before


class TestFqCoDel:
    def test_new_flow_gets_priority(self):
        q = FqCoDelQdisc()
        factory = PacketFactory()
        for i in range(20):
            q.enqueue(_flow_packet(factory, 1, seq=i), 0.0)
        # Drain a couple so flow 1 becomes an "old" flow.
        q.dequeue(0.0)
        q.dequeue(0.0)
        q.enqueue(_flow_packet(factory, 2, seq=0), 0.0)
        assert q.dequeue(0.0).flow_id == 2

    def test_conservation(self):
        q = FqCoDelQdisc()
        factory = PacketFactory()
        for flow in range(4):
            for i in range(5):
                q.enqueue(_flow_packet(factory, flow + 1, seq=i), 0.0)
        count = 0
        while q.dequeue(0.0) is not None:
            count += 1
        assert count + q.dropped_packets == 20


class TestDrr:
    def test_byte_fairness_with_weights(self):
        q = DrrQdisc(quantum=1500, classifier=lambda p: p.flow_id, weights={1: 1.0, 2: 2.0})
        factory = PacketFactory()
        for i in range(30):
            q.enqueue(_flow_packet(factory, 1, seq=i), 0.0)
            q.enqueue(_flow_packet(factory, 2, seq=i), 0.0)
        first = [q.dequeue(0.0).flow_id for _ in range(30)]
        # Flow 2 has twice the weight, so it should get roughly twice the service.
        assert first.count(2) > first.count(1)

    def test_work_conserving(self):
        q = DrrQdisc(quantum=100)  # quantum smaller than a packet
        factory = PacketFactory()
        q.enqueue(_flow_packet(factory, 1), 0.0)
        assert q.dequeue(0.0) is not None


class TestPrio:
    def test_strict_priority(self):
        q = PrioQdisc(bands=2)
        factory = PacketFactory()
        q.enqueue(_flow_packet(factory, 1, traffic_class=1), 0.0)
        q.enqueue(_flow_packet(factory, 2, traffic_class=0), 0.0)
        assert q.dequeue(0.0).traffic_class == 0
        assert q.dequeue(0.0).traffic_class == 1

    def test_overload_protects_high_priority(self):
        q = PrioQdisc(bands=2, limit_packets=2)
        factory = PacketFactory()
        q.enqueue(_flow_packet(factory, 1, traffic_class=1), 0.0)
        q.enqueue(_flow_packet(factory, 2, traffic_class=1), 0.0)
        assert q.enqueue(_flow_packet(factory, 3, traffic_class=0), 0.0)
        assert q.band_backlog(0) == 1


class TestTbf:
    def test_respects_rate(self):
        tbf = TokenBucketQdisc(rate_bps=12e6)  # 1500 bytes per ms
        factory = PacketFactory()
        for i in range(10):
            tbf.enqueue(_flow_packet(factory, 1, seq=i), 0.0)
        # At t=0 the bucket holds a 2-packet burst.
        assert tbf.dequeue(0.0) is not None
        assert tbf.dequeue(0.0) is not None
        assert tbf.dequeue(0.0) is None
        ready = tbf.next_ready_time(0.0)
        assert ready is not None and ready > 0.0
        assert tbf.dequeue(0.002) is not None

    def test_backlog_tracks_inner_drops(self):
        inner = SfqQdisc(limit_packets=3)
        tbf = TokenBucketQdisc(rate_bps=1e6, inner=inner)
        factory = PacketFactory()
        for i in range(10):
            tbf.enqueue(_flow_packet(factory, 1, seq=i), 0.0)
        # Inner SFQ dropped on overflow; the TBF backlog must match reality.
        drained = 0
        t = 0.0
        while tbf.backlog_packets > 0 and t < 10.0:
            if tbf.dequeue(t) is not None:
                drained += 1
            t += 0.05
        assert tbf.backlog_packets == 0
        assert drained == inner.dequeued_packets

    def test_set_rate_does_not_refill_burst(self):
        tbf = TokenBucketQdisc(rate_bps=1e6)
        factory = PacketFactory()
        for i in range(5):
            tbf.enqueue(_flow_packet(factory, 1, seq=i), 0.0)
        tbf.dequeue(0.0)
        tbf.dequeue(0.0)
        tokens_before = tbf.tokens
        tbf.set_rate(100e6, 0.0)
        assert tbf.tokens == pytest.approx(tokens_before)

    def test_queue_delay_estimate(self):
        tbf = TokenBucketQdisc(rate_bps=12e6)
        factory = PacketFactory()
        for i in range(10):
            tbf.enqueue(_flow_packet(factory, 1, seq=i), 0.0)
        # 15000 bytes at 12 Mbit/s = 10 ms.
        assert tbf.queue_delay_estimate(0.0) == pytest.approx(0.01)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            TokenBucketQdisc(rate_bps=0)


def test_make_qdisc_registry():
    assert isinstance(make_qdisc("fifo"), FifoQdisc)
    assert isinstance(make_qdisc("sfq"), SfqQdisc)
    with pytest.raises(ValueError):
        make_qdisc("nope")


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=5), st.integers(min_value=40, max_value=1500)),
        min_size=1,
        max_size=60,
    ),
    st.sampled_from(["fifo", "sfq", "fq_codel", "drr", "prio"]),
)
def test_qdisc_conservation_property(ops, name):
    """Every enqueued packet is eventually dequeued or counted as dropped."""
    q = make_qdisc(name, limit_packets=16)
    factory = PacketFactory()
    accepted = 0
    for flow, size in ops:
        pkt = factory.make(flow_id=flow, src=flow, dst=9, src_port=flow, dst_port=80,
                           size=size, traffic_class=flow % 3)
        if q.enqueue(pkt, 0.0):
            accepted += 1
    dequeued = 0
    while True:
        p = q.dequeue(1.0)
        if p is None:
            break
        dequeued += 1
    # dropped_packets counts both rejected arrivals and queued victims evicted
    # on overflow, so every offered packet is accounted for exactly once.
    assert dequeued + q.dropped_packets == len(ops)
    assert q.backlog_packets == 0
    assert q.backlog_bytes == 0
