"""Tests for the TCP-like transport, UDP streams, probes and flows."""

import pytest

from repro.cc.constant import ConstantWindowCC
from repro.net.link import Link
from repro.net.node import Host
from repro.net.packet import PacketFactory
from repro.net.simulator import Simulator
from repro.net.topology import build_site_to_site
from repro.qdisc.fifo import FifoQdisc
from repro.transport.flow import TcpFlow
from repro.transport.proxy import idealized_proxy_window, proxy_buffer_packets
from repro.transport.udp import ClosedLoopPinger, PacedUdpStream, UdpEchoServer
from repro.traffic.sources import BackloggedFlows, ClosedLoopProbes


def _two_host_topo(sim, rate_bps=12e6, delay=0.01, queue_packets=100):
    """Two hosts connected by a bottleneck in each direction."""
    factory = PacketFactory()
    a, b = Host(sim, "a"), Host(sim, "b")
    ab = Link(sim, "a->b", rate_bps=rate_bps, delay=delay,
              qdisc=FifoQdisc(limit_packets=queue_packets)).connect(b)
    ba = Link(sim, "b->a", rate_bps=rate_bps, delay=delay,
              qdisc=FifoQdisc(limit_packets=queue_packets)).connect(a)
    a.attach_egress(ab)
    b.attach_egress(ba)
    return factory, a, b, ab


class TestTcpFlow:
    def test_small_transfer_completes_in_one_rtt_plus_serialization(self):
        sim = Simulator()
        factory, a, b, _ = _two_host_topo(sim)
        flow = TcpFlow(sim, factory, a, b, size_bytes=3000).start()
        sim.run(until=2.0)
        assert flow.completed
        # One-way delay 10 ms + 2 packets of serialization (1 ms each).
        assert flow.fct == pytest.approx(0.012, abs=0.005)

    def test_large_transfer_throughput_near_link_rate(self):
        sim = Simulator()
        factory, a, b, _ = _two_host_topo(sim, rate_bps=12e6)
        flow = TcpFlow(sim, factory, a, b, size_bytes=3_000_000).start()
        sim.run(until=20.0)
        assert flow.completed
        assert flow.throughput_bps > 0.5 * 12e6

    def test_transfer_completes_despite_heavy_loss(self):
        sim = Simulator()
        factory, a, b, _ = _two_host_topo(sim, queue_packets=10)
        flow = TcpFlow(sim, factory, a, b, size_bytes=600_000).start()
        sim.run(until=30.0)
        assert flow.completed
        assert flow.sender.retransmissions > 0

    def test_scoreboard_counters_match_recomputation_under_loss(self):
        # The sender maintains pipe_bytes, the highest-SACKed watermark and
        # the outstanding-retransmit count incrementally; a lossy transfer
        # must keep them equal to a from-scratch scan of the scoreboard at
        # every ACK.
        sim = Simulator()
        factory, a, b, _ = _two_host_topo(sim, queue_packets=10)
        flow = TcpFlow(sim, factory, a, b, size_bytes=600_000).start()
        sender = flow.sender
        checked = 0
        original = sender.on_packet

        def checking_on_packet(packet, now):
            nonlocal checked
            original(packet, now)
            segs = sender._segments.values()
            assert sender.pipe_bytes == sum(
                s.size for s in segs if not s.sacked and not s.lost
            )
            assert sender._hs == max(
                (s.seq + s.size for s in segs if s.sacked), default=None
            )
            assert sender._retx_seqs == {s.seq for s in segs if s.retransmitted}
            assert list(sender._segments) == sorted(sender._segments)
            # Below the exemption floor every segment is in a state the
            # SACK loss rule skips, forever.
            assert all(
                s.sacked or s.lost or s.retransmitted
                for s in segs
                if s.seq < sender._sack_floor
            )
            # The sender's SACK coverage map is exactly the sacked segments.
            ranges = sender._sacked_ranges
            assert all(lo < hi for lo, hi in ranges)
            assert all(a[1] < b[0] for a, b in zip(ranges, ranges[1:], strict=False))
            for s in segs:
                covered = any(lo <= s.seq and s.seq + s.size <= hi for lo, hi in ranges)
                assert covered == s.sacked
            checked += 1

        sender.on_packet = checking_on_packet
        sim.run(until=30.0)
        assert flow.completed and sender.retransmissions > 0
        assert checked > 100  # the invariants were exercised under real loss

    def test_receiver_data_is_contiguous(self):
        sim = Simulator()
        factory, a, b, _ = _two_host_topo(sim, queue_packets=15)
        flow = TcpFlow(sim, factory, a, b, size_bytes=300_000).start()
        sim.run(until=20.0)
        assert flow.receiver.rcv_nxt >= 300_000

    def test_backlogged_flow_and_stop(self):
        sim = Simulator()
        factory, a, b, link = _two_host_topo(sim)
        flow = TcpFlow(sim, factory, a, b, size_bytes=None).start()
        sim.run(until=3.0)
        delivered = flow.receiver.rcv_nxt
        assert delivered > 0
        flow.stop()

    def test_flow_record_contents(self):
        sim = Simulator()
        factory, a, b, _ = _two_host_topo(sim)
        flow = TcpFlow(sim, factory, a, b, size_bytes=4500, traffic_class=1).start(delay=0.5)
        sim.run(until=3.0)
        record = flow.record()
        assert record.completed
        assert record.size_bytes == 4500
        assert record.traffic_class == 1
        assert record.start_time == pytest.approx(0.5, abs=1e-6)
        assert record.fct is not None and record.fct > 0

    def test_on_complete_callback(self):
        sim = Simulator()
        factory, a, b, _ = _two_host_topo(sim)
        done = []
        TcpFlow(sim, factory, a, b, size_bytes=1500, on_complete=lambda f: done.append(f)).start()
        sim.run(until=1.0)
        assert len(done) == 1

    def test_rtt_estimate_close_to_path_rtt(self):
        sim = Simulator()
        factory, a, b, _ = _two_host_topo(sim, delay=0.025)
        flow = TcpFlow(sim, factory, a, b, size_bytes=150_000).start()
        sim.run(until=10.0)
        assert flow.sender.srtt == pytest.approx(0.05, rel=0.6)

    def test_constant_window_cc_flow(self):
        sim = Simulator()
        factory, a, b, _ = _two_host_topo(sim, queue_packets=500)
        flow = TcpFlow(sim, factory, a, b, size_bytes=450_000,
                       cc=ConstantWindowCC(window_segments=100)).start()
        sim.run(until=10.0)
        assert flow.completed


class TestUdp:
    def test_paced_stream_rate(self):
        sim = Simulator()
        factory, a, b, link = _two_host_topo(sim, rate_bps=50e6)
        stream = PacedUdpStream(sim, factory, a, b, rate_bps=4e6, packet_size=1000).start()
        sim.run(until=2.0)
        assert stream.bytes_sent * 8 / 2.0 == pytest.approx(4e6, rel=0.05)
        stream.stop()

    def test_paced_stream_duration_bound(self):
        sim = Simulator()
        factory, a, b, _ = _two_host_topo(sim)
        stream = PacedUdpStream(sim, factory, a, b, rate_bps=1e6, packet_size=500).start(duration=1.0)
        sim.run(until=3.0)
        assert stream.bytes_sent * 8 <= 1.1e6

    def test_echo_server_replies(self):
        sim = Simulator()
        factory, a, b, _ = _two_host_topo(sim)
        UdpEchoServer(sim, b, factory, port=5001)
        received = []

        class Client:
            def on_packet(self, pkt, now):
                received.append(pkt)

        a.register_agent(6001, Client())
        a.send(factory.make(flow_id=9, src=a.address, dst=b.address, src_port=6001,
                            dst_port=5001, size=40))
        sim.run(until=1.0)
        assert len(received) == 1
        assert received[0].size == 40

    def test_closed_loop_pinger_measures_rtt(self):
        sim = Simulator()
        factory, a, b, _ = _two_host_topo(sim, delay=0.02)
        pinger = ClosedLoopPinger(sim, factory, a, b).start()
        sim.run(until=2.0)
        pinger.stop()
        assert len(pinger.rtts) > 10
        assert min(pinger.rtts) == pytest.approx(0.04, rel=0.1)

    def test_pinger_recovers_from_probe_loss(self):
        sim = Simulator()
        factory, a, b, _ = _two_host_topo(sim, queue_packets=5)
        pinger = ClosedLoopPinger(sim, factory, a, b, timeout_s=0.2).start()
        # Saturate the path so some probes are dropped.
        BackloggedFlows(sim, factory, [(a, b)]).start()
        sim.run(until=8.0)
        assert len(pinger.rtts) > 5
        assert pinger.losses >= 0  # did not deadlock

    def test_probe_group(self):
        sim = Simulator()
        topo = build_site_to_site(sim, bottleneck_mbps=24, rtt_ms=20, num_servers=1)
        probes = ClosedLoopProbes(sim, topo.packet_factory, topo.servers[0],
                                  topo.clients[0], count=3).start()
        sim.run(until=2.0)
        per_probe = probes.per_probe_rtts()
        assert len(per_probe) == 3
        assert all(len(r) > 0 for r in per_probe)


class TestProxyHelpers:
    def test_idealized_window_scales_with_bdp(self):
        small = idealized_proxy_window(12e6, 0.05)
        large = idealized_proxy_window(96e6, 0.05)
        assert large.cwnd_bytes > small.cwnd_bytes

    def test_proxy_buffer_accounts_for_flows(self):
        assert proxy_buffer_packets(24e6, 0.05, 10) > proxy_buffer_packets(24e6, 0.05, 1) / 2
