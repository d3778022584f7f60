"""Tests for the TCP-like transport, UDP streams, probes and flows."""

import random
from types import SimpleNamespace

import pytest

from repro.cc.constant import ConstantWindowCC
from repro.net.link import Link
from repro.net.node import Host
from repro.net.packet import PacketFactory
from repro.net.simulator import Simulator
from repro.net.topology import build_site_to_site
from repro.qdisc.fifo import FifoQdisc
from repro.transport.flow import TcpFlow
from repro.transport.tcp import (
    INITIAL_RTO,
    MAX_SACK_BLOCKS,
    REORDER_BYTES,
    TcpReceiver,
    TcpSender,
)
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
            assert (sender._retx_seqs or set()) == {
                s.seq for s in segs if s.retransmitted
            }
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

        # The sender is slotted, so the check wraps it where the host looks
        # it up; closing the flow releases the port, wrapper and all.
        a._agents[flow.port] = SimpleNamespace(on_packet=checking_on_packet)
        sim.run(until=30.0)
        assert flow.port not in a._agents
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


MSS = 1500


class _BruteScoreboard:
    """Reference sender scoreboard: every rule applied to every segment.

    Attached to a real :class:`TcpSender`, it hears of each transmission and
    sees the same ACK stream, keeps its own per-segment flags by brute force
    (every SACK block tested against every segment, the time rule and the
    SACK rule run over the whole scoreboard, no watermark, floor or memo), and
    compares itself with the sender after every ACK and every timeout.

    The sender is slotted, so the oracle listens by moving the instance to
    a subclass of :class:`TcpSender` (same layout, no slots of its own)
    whose overrides call it and then the real method.
    """

    def __init__(self, sender, drop_acks=0.0, seed=0):
        self.sender = sender
        self.segs = {}
        self.checked = 0
        self.acks_dropped = 0
        rng = random.Random(seed)
        oracle = self
        pending = {}

        class Observed(TcpSender):
            __slots__ = ()

            def _transmit_new(self, seq, size):
                oracle.segs[seq] = SimpleNamespace(
                    size=size, sent_time=sender.sim.now,
                    retransmitted=False, sacked=False, lost=False)
                super()._transmit_new(seq, size)

            def _retransmit_segment(self, state):
                seg = oracle.segs[state.seq]
                assert seg.lost and not seg.sacked
                seg.lost = False
                seg.retransmitted = True
                seg.sent_time = sender.sim.now
                super()._retransmit_segment(state)

            def _on_rto(self):
                if not sender.completed and sender.inflight_bytes > 0:
                    for seg in oracle.segs.values():
                        seg.sacked = seg.retransmitted = False
                        seg.lost = True
                super()._on_rto()
                oracle.check()

            def _detect_losses(self):
                # The sender has taken the cumulative ACK and its RTT sample
                # and not yet transmitted anything: the point at which the
                # reference processes the same ACK.
                expected = oracle.on_ack(pending["ack"], pending["sack"],
                                         sender.sim.now, sender.srtt)
                found = super()._detect_losses()
                assert found == expected
                return found

            def on_packet(self, packet, now):
                if rng.random() < drop_acks:
                    oracle.acks_dropped += 1  # lost on the reverse path
                    return
                pending.update(packet.payload)
                super().on_packet(packet, now)
                oracle.check()

        sender.__class__ = Observed

    def on_ack(self, ack, blocks, now, srtt):
        segs = self.segs
        for seq in [seq for seq in segs if seq < ack]:
            del segs[seq]
        for start, end in blocks:
            for seq, seg in segs.items():
                if start <= seq and seq + seg.size <= end:
                    seg.sacked = True
        found = False
        window = 1.5 * (srtt if srtt is not None else INITIAL_RTO)
        for seg in segs.values():
            if (seg.retransmitted and not seg.sacked and not seg.lost
                    and now - seg.sent_time > window):
                seg.lost = found = True
        highest = max((q + g.size for q, g in segs.items() if g.sacked), default=None)
        if highest is not None:
            for seq, seg in segs.items():
                if seq <= highest - REORDER_BYTES and not (
                        seg.sacked or seg.lost or seg.retransmitted):
                    seg.lost = found = True
        return found

    def check(self):
        sender, segs = self.sender, self.segs
        assert list(sender._segments) == list(segs)
        for seq, state in sender._segments.items():
            seg = segs[seq]
            assert (state.sacked, state.lost, state.retransmitted) == (
                seg.sacked, seg.lost, seg.retransmitted), seq
        assert sender.pipe_bytes == sum(
            g.size for g in segs.values() if not g.sacked and not g.lost)
        assert sender._hs == max(
            (q + g.size for q, g in segs.items() if g.sacked), default=None)
        next_lost = sender._next_lost_segment()
        assert (next_lost.seq if next_lost else None) == min(
            (q for q, g in segs.items() if g.lost and not g.sacked), default=None)
        self.checked += 1


def _lone_sender(sim, window_segments):
    """A started sender whose data goes nowhere: ACKs are fed by the test."""
    factory, a, b, _ = _two_host_topo(sim, queue_packets=10_000)
    sender = TcpSender(
        sim, a, factory, flow_id=1, port=1000, dst_address=b.address,
        dst_port=2000, size_bytes=None,
        cc=ConstantWindowCC(window_segments=window_segments))
    return factory, a, b, sender


def _rebuild_insert(ranges, start, end):
    """The receiver's former insert: rebuild, sort, re-merge.  Kept as oracle."""
    merged = []
    placed = False
    for lo, hi in ranges:
        if end < lo and not placed:
            merged.append([start, end])
            placed = True
        if hi < start or end < lo:
            merged.append([lo, hi])
        else:
            start = min(start, lo)
            end = max(end, hi)
    if not placed:
        merged.append([start, end])
    merged.sort()
    result = []
    for lo, hi in merged:
        if result and lo <= result[-1][1]:
            result[-1][1] = max(result[-1][1], hi)
        else:
            result.append([lo, hi])
    return result


class TestAckPathIsIncremental:
    """The per-ACK work follows what the ACK changed; the outcome does not."""

    @pytest.mark.parametrize("queue_packets, drop_acks", [
        (5, 0.0), (5, 0.2), (10, 0.0), (10, 0.1), (40, 0.0), (40, 0.1),
    ])
    def test_scoreboard_agrees_with_brute_force_on_every_ack(
            self, queue_packets, drop_acks):
        sim = Simulator()
        factory, a, b, _ = _two_host_topo(sim, queue_packets=queue_packets)
        flow = TcpFlow(sim, factory, a, b, size_bytes=3_000_000)
        oracle = _BruteScoreboard(flow.sender, drop_acks=drop_acks, seed=queue_packets)
        # Queue overflow alone is repaired by SACK recovery; a forward-path
        # blackout longer than the RTO forces timeouts as well.
        deliver = flow.receiver.on_packet
        b._agents[flow.port] = SimpleNamespace(on_packet=(
            lambda packet, now: None if 0.5 <= now < 1.0 else deliver(packet, now)))
        flow.start()
        sim.run(until=120.0)
        assert flow.completed
        assert flow.sender.retransmissions > 0 and flow.sender.timeouts > 0
        assert oracle.checked > 1500
        assert (oracle.acks_dropped > 0) == (drop_acks > 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_arbitrary_block_lists_agree_with_brute_force(self, seed):
        # Block lists no receiver of ours would send: unsorted, overlapping,
        # repeated, reaching below snd_una; cumulative ACKs that overtake
        # SACKed data; time passing in between so that the time rule and the
        # RTO both fire.
        rng = random.Random(seed)
        sim = Simulator()
        factory, a, b, sender = _lone_sender(sim, window_segments=48)
        oracle = _BruteScoreboard(sender)
        sender.start()
        for _ in range(400):
            una, nxt = sender.snd_una // MSS, sender.snd_nxt // MSS
            ack = una + rng.choice((0, 0, 0, 1, 1, 2, 5))
            blocks = []
            for _ in range(rng.randrange(6)):
                lo = rng.randrange(max(una - 3, 0), nxt)
                hi = min(lo + rng.choice((1, 1, 2, 3, 8)), nxt)
                blocks.append((lo * MSS, hi * MSS))
            rng.shuffle(blocks)
            packet = factory.make(
                flow_id=sender.flow_id, src=b.address, dst=a.address,
                src_port=sender.dst_port, dst_port=sender.port, is_ack=True,
                payload={"ack": min(ack, nxt) * MSS, "sack": blocks})
            sender.on_packet(packet, sim.now)
            if rng.random() < 0.3:
                sim.run(until=sim.now + rng.choice((0.01, 0.3, 1.2)))
        assert oracle.checked >= 400
        assert sender.retransmissions > 0 and sender.timeouts > 0

    @pytest.mark.parametrize("old_blocks", [1, 64, 256])
    def test_apply_sack_work_follows_the_delta(self, old_blocks):
        # N ACKs, each repeating ``old_blocks`` known blocks and SACKing one
        # new segment, cost N scoreboard lookups and N blocks looked at.
        lookups = unpacked = 0

        class CountingDict(dict):
            def __getitem__(self, key):
                nonlocal lookups
                lookups += 1
                return super().__getitem__(key)

        class CountingBlock(tuple):
            def __iter__(self):
                nonlocal unpacked
                unpacked += 1
                return super().__iter__()

        acks = 50
        sim = Simulator()
        _, _, _, sender = _lone_sender(sim, window_segments=2 * old_blocks + acks + 2)
        sender.start()
        sender._segments = CountingDict(sender._segments)
        known = [CountingBlock(((2 * i + 1) * MSS, (2 * i + 2) * MSS))
                 for i in range(old_blocks)]
        sender._apply_sack(known)
        assert lookups == old_blocks
        lookups = unpacked = 0
        tail = (2 * old_blocks + 1) * MSS
        for n in range(1, acks + 1):
            sender._apply_sack(known + [CountingBlock((tail, tail + n * MSS))])
        assert lookups == acks
        assert unpacked == acks
        assert sum(s.sacked for s in sender._segments.values()) == old_blocks + acks
        assert len(sender._sacked_ranges) == old_blocks + 1

    def test_rto_resets_the_block_memo_and_the_retransmit_queue(self):
        sim = Simulator()
        _, _, _, sender = _lone_sender(sim, window_segments=8)
        sender.start()
        blocks = [(2 * MSS, 4 * MSS)]
        sender._apply_sack(blocks)
        assert sender._detect_losses()  # segments 0 and 1: 3 segments SACKed above
        sender._try_send()
        assert list(sender._retx_order) == [0, MSS]
        assert sender._sack_applied == frozenset(blocks)
        sim.run(until=INITIAL_RTO + 0.5)
        assert sender.timeouts == 1
        # The window's worth of segments that went out again after the
        # timeout is queued once each: the two pre-timeout entries are gone,
        # and so is the memo.
        assert list(sender._retx_order) == list(sender._segments)[:8]
        assert not sender._sack_applied
        assert not any(s.sacked for s in sender._segments.values())
        assert sender.pipe_bytes == 8 * MSS
        # The receiver still holds the data: the same block list re-marks it.
        sender._apply_sack(blocks)
        assert [s.seq for s in sender._segments.values() if s.sacked] == [2 * MSS, 3 * MSS]
        assert sender.pipe_bytes == 6 * MSS

    def test_loss_free_flow_allocates_no_recovery_state(self):
        sim = Simulator()
        factory, a, b, _ = _two_host_topo(sim)
        flow = TcpFlow(sim, factory, a, b, size_bytes=60_000).start()
        sim.run(until=5.0)
        sender = flow.sender
        assert flow.completed and sender.retransmissions == 0
        assert sender._retx_order is None and sender._retx_seqs is None
        assert not sender._sack_applied
        assert sender._sacked_ranges == [] and sender._lost_heap == []
        assert flow.receiver._ranges is None

    @pytest.mark.parametrize("seed", range(5))
    def test_receiver_ranges_match_the_rebuild_oracle(self, seed):
        rng = random.Random(seed)
        sim = Simulator()
        receiver = TcpReceiver(sim, Host(sim, "b"), PacketFactory(), flow_id=1, port=2000)
        expected = []
        # Segment 0 never arrives, so nothing is delivered; every other
        # segment of 1400 arrives in random order (more than MAX_SACK_BLOCKS
        # ranges exist on the way), with duplicates and multi-segment
        # overlaps mixed in.
        arrivals = [(i, i + 1) for i in range(1, 1400)]
        arrivals += [(lo, lo + rng.randrange(1, 5)) for lo in rng.sample(range(1, 1390), 150)]
        rng.shuffle(arrivals)
        most_ranges = 0
        for lo, hi in arrivals:
            receiver._insert_range(lo * MSS, hi * MSS)
            expected = _rebuild_insert(expected, lo * MSS, hi * MSS)
            assert [list(r) for r in receiver._ranges] == expected
            assert receiver.sack_blocks() == [tuple(r) for r in expected[:MAX_SACK_BLOCKS]]
            most_ranges = max(most_ranges, len(expected))
        assert expected == [[MSS, 1400 * MSS]]
        assert most_ranges > MAX_SACK_BLOCKS


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
