"""Link-datapath oracle: the straight-line hop against the unbatched one.

``Link`` starts an idle link from ``send``, decides zero-delay deliveries
against the heap top instead of pushing them, and drains back-to-back
departures inside one finish event.  All of that must be invisible: the
``(time, seq)`` order of executed callbacks, every counter and the clock
each callback reads have to be what the *unbatched* datapath produces —
one heap event per step, nothing inlined, ``advance`` never called.  That
datapath is kept here as ``_ReferenceLink`` and both are driven by the same
seeded program over 3–5-hop topologies.

Sizes, rates, delays and timer instants are dyadic rationals (as in
``tests/test_sim_core.py``), so serialization and propagation times are
float-exact and *exact ties* between finish, delivery and timer events —
the cases the inlining gates exist for — are frequent rather than lucky.

Run under ``REPRO_SANITIZE=1`` every simulator here is instrumented, so the
conservation and backlog shadows see these topologies too (CI does).
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.sanitizer import Sanitizer, maybe_sanitizer
from repro.net.link import Link
from repro.net.node import Host, Router
from repro.net.packet import PacketFactory
from repro.net.simulator import Simulator
from repro.qdisc.fifo import FifoQdisc
from repro.qdisc.tbf import TokenBucketQdisc
from repro.testing import make_packet


class _ReferenceLink(Link):
    """The unbatched datapath, kept as the order oracle.

    Every departure pushes its delivery entry, then the next packet's finish
    entry, and returns to the run loop: never inlines, never ``advance``s.
    """

    def send(self, packet):
        now = self.sim.now
        packet.enqueued_at = now
        if not self.qdisc.enqueue(packet, now):
            self.packets_dropped += 1
            return False
        self._start_next()
        return True

    def kick(self):
        self._start_next()

    def _start_next(self):
        if self._busy:
            return
        if self._retry_token is not None:
            self._retry_token.cancel()
            self._retry_token = None
        now = self.sim.now
        packet = self.qdisc.dequeue(now)
        if packet is None:
            if len(self.qdisc) > 0:
                ready = self.qdisc.next_ready_time(now)
                if ready is not None:
                    self._retry_token = self.sim.at(max(ready, now + 1e-6), self._start_next)
            return
        for hook in self._transmit_hooks:
            hook(packet, now)
        self._busy = True
        self.sim.schedule_call(packet.size * 8.0 / self.rate_bps, self._finish_transmit, packet)

    def _finish_transmit(self, packet):
        self._busy = False
        self.bytes_sent += packet.size
        self.packets_sent += 1
        if self.finish_tap is not None:
            self.finish_tap(self.sim.now, packet.size)
        if self.dst_node is not None:
            self.sim.schedule_call(self.delay, self.dst_node.receive, packet, self)
        self._start_next()


# ---------------------------------------------------------------------------
# One seeded program: topology + traffic + timers, a pure function of
# (link class, seed).
# ---------------------------------------------------------------------------

SIZES = (64, 128, 256, 512, 1024)
RATES = tuple(8.0 * 2**k for k in (15, 16, 17, 18))  # 2^15 .. 2^18 bytes/s
DELAYS = (0.0, 0.0, 0.0, 1 / 256, 1 / 64)


class _Program:
    def __init__(self, link_cls, seed):
        rng = random.Random(seed)
        self.sim = sim = Simulator()
        self.sanitizer = maybe_sanitizer()
        if self.sanitizer is not None:
            self.sanitizer.attach(sim)
        self.factory = PacketFactory()
        self.log = []
        self.links = []

        def link(name, qdisc, dst, rate=None, delay=None):
            rate = rng.choice(RATES) if rate is None else rate
            delay = rng.choice(DELAYS) if delay is None else delay
            made = link_cls(sim, name, rate, delay, qdisc).connect(dst)
            self.links.append(made)
            return made

        self.sinks = [Host(sim, "d0"), Host(sim, "d1")]
        self.sinks[0].register_agent(20, self)  # make_packet's default dst_port
        n_routers = rng.choice((2, 3, 4))
        self.routers = routers = [Router(sim, f"r{i}") for i in range(n_routers)]
        last = routers[-1]
        # Last hop: a shaper towards d0 (re-rated and kicked mid-run), a
        # plain FIFO towards d1.
        self.tbf = TokenBucketQdisc(8.0 * 2**14, FifoQdisc(), burst_bytes=2048)
        self.tbf_link = link("last->d0", self.tbf, self.sinks[0])
        last.add_route(self.sinks[0].address, self.tbf_link)
        last.add_route(self.sinks[1].address, link("last->d1", FifoQdisc(), self.sinks[1]))
        for i in range(n_routers - 1):
            here, there = routers[i], routers[i + 1]
            if i == 0:
                # A shallow tail-dropping FIFO behind a default route.
                here.set_default_route(
                    link("r0->r1", FifoQdisc(limit_packets=5), there, rate=8.0 * 2**16)
                )
            elif i == 1:
                # Two parallel paths, sprayed per packet: reordering.
                pair = [
                    link(f"r1->r2/{j}", FifoQdisc(), there, delay=delay)
                    for j, delay in enumerate((0.0, 1 / 128))
                ]
                for sink in self.sinks:
                    here.add_ecmp_route(sink.address, pair, mode="packet")
            else:
                out = link(f"r{i}->r{i + 1}", FifoQdisc(), there)
                for sink in self.sinks:
                    here.add_route(sink.address, out)
        self.hosts = [Host(sim, f"s{i}") for i in range(3)]
        for host in self.hosts:
            host.attach_egress(link(f"{host.name}->r0", FifoQdisc(), routers[0]))
        for node in self.hosts + routers + self.sinks:
            node.add_tap(lambda pkt, now, name=node.name: self._note(name, pkt.pkt_id))
        rng.choice(self.links).add_transmit_hook(lambda pkt, now: self._note("tx", pkt.pkt_id))
        rng.choice(self.links).finish_tap = lambda now, size: self._note("fin", size)

        # Same-instant bursts from several hosts, on a 1/256 grid.
        for _ in range(24):
            burst = [
                (host, rng.choice(SIZES), rng.choice(self.sinks))
                for host in rng.sample(self.hosts, rng.randint(1, 3))
                for _ in range(rng.randint(1, 6))
            ]
            sim.at_call(rng.randrange(0, 96) / 256, self._burst, burst)
        # Bare timers on a finer grid, some cancelled: ties at the heap top
        # (live and dead) exactly where a finish or delivery lands.
        for ident in range(120):
            when = rng.randrange(0, 512) / 1024
            if rng.random() < 0.7:
                sim.at_call(when, self._note, "timer", ident)
            elif rng.random() < 0.5:
                sim.at(when, lambda ident=ident: self._note("token", ident))
            else:
                sim.at(when, lambda ident=ident: self._note("cancelled", ident)).cancel()
        for when, rate in ((32, 8.0 * 2**17), (72, 8.0 * 2**13), (100, 8.0 * 2**18)):
            sim.at_call(when / 256, self._rerate, rate)

    def _note(self, kind, ident):
        # The clock every callback reads is part of the contract: log it.
        self.log.append((self.sim.now, kind, ident))

    def on_packet(self, packet, now):
        # d0's agent: a receive path that schedules more events, ties included.
        self.sim.schedule_call((packet.pkt_id % 3) / 512, self._note, "echo", packet.pkt_id)

    def _burst(self, burst):
        for host, size, sink in burst:
            host.send(make_packet(self.factory, src=host.address, dst=sink.address, size=size))

    def _rerate(self, rate):
        self.tbf.set_rate(rate, self.sim.now)
        self.tbf_link.kick()

    def run(self, slices=()):
        for until in slices:
            assert self.sim.run(until=until) == until
        self.sim.run()
        if self.sanitizer is not None:
            self.sanitizer.finalize()
        stats = self.sim.stats
        return {
            "end": self.sim.now,
            "log": self.log,
            "events": (stats.events_scheduled, stats.events_processed, stats.events_cancelled),
            "links": [
                (
                    link.name,
                    link.packets_sent,
                    link.bytes_sent,
                    link.packets_dropped,
                    link.backlog_packets,
                    link.backlog_bytes,
                    link.qdisc.enqueued_packets,
                    link.qdisc.dequeued_packets,
                    link.qdisc.dropped_packets,
                )
                for link in self.links
            ],
            "nodes": [
                (node.name, node.packets_received, getattr(node, "packets_forwarded", None))
                for node in self.hosts + self.routers + self.sinks
            ],
        }


def _assert_same(actual, expected):
    # The log first and entry by entry, so a failure names the first event
    # that moved rather than dumping two multi-thousand-entry lists.
    for index, (got, want) in enumerate(zip(actual["log"], expected["log"], strict=False)):
        assert got == want, f"log entry {index}: {got} != {want}"
    assert len(actual["log"]) == len(expected["log"])
    assert actual == expected


@pytest.mark.parametrize("seed", range(24))
def test_link_matches_unbatched_reference(seed):
    expected = _Program(_ReferenceLink, seed).run()
    # The program must actually reach the cases the gates exist for.
    links = {row[0]: row for row in expected["links"]}
    assert links["last->d0"][1] > 0 and sum(row[3] for row in expected["links"]) > 0
    assert expected["events"][2] > 0

    reference_end = expected.pop("end")
    batched = _Program(Link, seed).run()
    assert batched.pop("end") == reference_end
    _assert_same(batched, expected)
    # The same run cut into bounded slices: the until gate may stop a drain
    # early but never reorders, drops or double-counts anything.
    rng = random.Random(seed)
    slices = sorted(rng.randrange(0, 160) / 256 + rng.choice((0.0, 1 / 2048)) for _ in range(12))
    sliced = _Program(Link, seed).run(slices)
    assert sliced.pop("end") == max(reference_end, slices[-1])
    _assert_same(sliced, expected)


def test_link_batches_where_the_reference_does_not():
    # Guard the oracle itself: on a saturated zero-delay hop the reference
    # returns to the run loop for every event and the real link for one —
    # otherwise both sides of the comparison above are the same code path.
    def run_loop_pops(link_cls):
        sim = Simulator()
        factory = PacketFactory()
        src, dst = Host(sim, "src"), Host(sim, "dst")
        src.attach_egress(link_cls(sim, "l", 8.0 * 2**20, 0.0, FifoQdisc()).connect(dst))
        for _ in range(200):
            src.send(make_packet(factory, src=src.address, dst=dst.address, size=512))
        pops = 0
        while sim.pending_events():
            sim.run(max_events=1)
            pops += 1
        return pops, sim.stats.events_processed

    assert run_loop_pops(_ReferenceLink) == (400, 400)
    assert run_loop_pops(Link) == (1, 400)


# ---------------------------------------------------------------------------
# Routers: the one-lookup fast path forwards on what route_for answers.
# ---------------------------------------------------------------------------


class _Port:
    """Stands in for an egress link: records what the router sent on it."""

    def __init__(self, name):
        self.name = name
        self.sent = []

    def send(self, packet):
        self.sent.append(packet)
        return True


def _forwarded_on(router, ports, packet):
    before = [len(port.sent) for port in ports]
    router.receive(packet, None)
    moved = [port for port, count in zip(ports, before, strict=True) if len(port.sent) != count]
    assert len(moved) <= 1
    return moved[0] if moved else None


def test_router_receive_forwards_on_route_for(sim, factory):
    router = Router(sim, "r")
    ports = [_Port(f"p{i}") for i in range(6)]
    plain, ecmp_a, ecmp_b, default, late, readded = ports
    PLAIN, ECMP, WEIGHTED, UNROUTED, READDED = 101, 102, 103, 104, 105

    def packets(dst):
        return [
            make_packet(factory, flow_id=flow, src=7, dst=dst, src_port=1000 + flow, size=100)
            for flow in range(32)
        ]

    def check(dst):
        """Links 32 flows to ``dst`` left on — each the one ``route_for`` named."""
        seen = set()
        for packet in packets(dst):
            expected = router.route_for(packet)
            assert _forwarded_on(router, ports, packet) is expected
            seen.add(expected)
        return seen

    router.add_route(PLAIN, plain)
    router.add_ecmp_route(ECMP, [ecmp_a, ecmp_b], mode="flow")
    router.add_ecmp_route(WEIGHTED, [ecmp_a, ecmp_b], mode="flow", weights=[1.0, 3.0])
    assert check(PLAIN) == {plain}
    assert check(ECMP) == {ecmp_a, ecmp_b}
    assert check(WEIGHTED) == {ecmp_a, ecmp_b}
    # No route and no default: dropped, counted as received only.
    forwarded = router.packets_forwarded
    assert check(UNROUTED) == {None}
    assert router.packets_forwarded == forwarded
    router.set_default_route(default)
    assert check(UNROUTED) == {default}
    assert check(PLAIN) == {plain}
    # A plain route replaced by an ECMP group must stop using the old link,
    # and a plain route re-added over a group must win again.
    router.add_route(READDED, late)
    assert check(READDED) == {late}
    router.add_ecmp_route(READDED, [ecmp_a, ecmp_b], mode="flow")
    assert check(READDED) == {ecmp_a, ecmp_b}
    router.add_route(READDED, readded)
    assert check(READDED) == {readded}
    # Packet mode keeps state in the group: route_for advances the round
    # robin, so compare the sequence receive produces with the group's order.
    router.add_ecmp_route(ECMP, [ecmp_a, ecmp_b], mode="packet")
    order = [_forwarded_on(router, ports, packet) for packet in packets(ECMP)[:6]]
    assert order == [ecmp_a, ecmp_b] * 3
    # Locally addressed packets are never forwarded.
    assert _forwarded_on(router, ports, make_packet(factory, src=7, dst=router.address)) is None


# ---------------------------------------------------------------------------
# Sanitizer: inline delivery still goes through the instrumented methods.
# ---------------------------------------------------------------------------


def test_zero_delay_chain_is_fully_visible_to_the_sanitizer():
    sim = Simulator()
    sanitizer = Sanitizer()
    sanitizer.attach(sim)
    factory = PacketFactory()
    src, dst = Host(sim, "src"), Host(sim, "dst")
    routers = [Router(sim, f"r{i}") for i in range(3)]
    nodes = [src, *routers, dst]
    links = []
    for here, there in zip(nodes, nodes[1:], strict=False):
        link = Link(sim, f"{here.name}->{there.name}", 8.0 * 2**20, 0.0, FifoQdisc()).connect(there)
        links.append(link)
        if here is src:
            src.attach_egress(link)
        else:
            here.add_route(dst.address, link)
    packets = 20
    checks = []
    for node in nodes[1:]:
        node.add_tap(lambda pkt, now: checks.append(sanitizer.checks_performed))
    for _ in range(packets):
        # One packet at a time: every delivery finds the heap empty, so every
        # hop below is an inline one.
        del checks[:]
        before = sanitizer.checks_performed
        src.send(make_packet(factory, src=src.address, dst=dst.address, size=512))
        sim.run()
        # Each hop adds at least its enqueue, dequeue and receive checks.
        assert len(checks) == len(links)
        assert all(b - a >= 3 for a, b in zip([before, *checks], checks, strict=False))
    assert sim.stats.events_processed == 2 * len(links) * packets
    sanitizer.finalize()
    # Every hop of every packet went through the wrapped enqueue, dequeue
    # and receive: nothing was cut through or delivered behind their back.
    for link in links:
        record = sanitizer._link_records[id(link)]
        assert (record.accepted, record.dequeued, record.delivered) == (packets, packets, packets)
        assert link.packets_sent == packets
    assert dst.packets_received == packets
