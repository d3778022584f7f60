"""Tests for the packet model, the results-side taps and their series.

The tap tests run real :class:`~repro.net.link.Link` objects: a tap is only
what the link's hooks feed it, so that is the contract worth pinning.
"""

import pytest

from repro.core import BundlerConfig, install_bundler
from repro.net.link import Link
from repro.net.packet import PacketFactory
from repro.net.topology import build_site_to_site
from repro.net.trace import QueueMonitor, RateMonitor, TimeSeries, percentile
from repro.qdisc import FifoQdisc, TokenBucketQdisc
from repro.runner.engine import execute_run
from repro.runner.registry import load_builtin_scenarios
from repro.runner.spec import RunSpec
from repro.testing import make_packet


class TestPacket:
    def test_factory_assigns_unique_ids_and_ip_ids(self):
        factory = PacketFactory()
        p1 = factory.make(flow_id=1, src=1, dst=2, src_port=10, dst_port=20)
        p2 = factory.make(flow_id=1, src=1, dst=2, src_port=10, dst_port=20)
        assert p1.pkt_id != p2.pkt_id
        assert p1.ip_id != p2.ip_id

    def test_ip_id_is_per_source(self):
        factory = PacketFactory()
        a = factory.make(flow_id=1, src=1, dst=2, src_port=1, dst_port=2)
        b = factory.make(flow_id=1, src=7, dst=2, src_port=1, dst_port=2)
        assert a.ip_id == b.ip_id == 0

    def test_header_hash_differs_per_packet(self):
        factory = PacketFactory()
        p1 = factory.make(flow_id=1, src=1, dst=2, src_port=10, dst_port=20)
        p2 = factory.make(flow_id=1, src=1, dst=2, src_port=10, dst_port=20)
        assert p1.header_hash() != p2.header_hash()

    def test_flow_hash_same_for_same_flow(self):
        factory = PacketFactory()
        p1 = factory.make(flow_id=1, src=1, dst=2, src_port=10, dst_port=20)
        p2 = factory.make(flow_id=1, src=1, dst=2, src_port=10, dst_port=20)
        assert p1.flow_hash() == p2.flow_hash()

    def test_ip_id_wraps_at_16_bits(self):
        factory = PacketFactory()
        factory._ip_ids[1] = 0xFFFF
        assert factory.next_ip_id(1) == 0xFFFF
        assert factory.next_ip_id(1) == 0


class TestTimeSeries:
    def test_between_and_mean(self):
        ts = TimeSeries()
        for i in range(10):
            ts.add(i * 1.0, float(i))
        window = ts.between(2.0, 5.0)
        assert window.values == [2.0, 3.0, 4.0]
        assert window.mean() == pytest.approx(3.0)

    def test_value_at_step_interpolation(self):
        ts = TimeSeries()
        ts.add(1.0, 10.0)
        ts.add(2.0, 20.0)
        assert ts.value_at(0.5) is None
        assert ts.value_at(1.5) == 10.0
        assert ts.value_at(2.5) == 20.0

    def test_empty_series(self):
        ts = TimeSeries()
        assert ts.mean() is None and ts.value_at(1.0) is None and len(ts) == 0


class TestMonitors:
    def test_queue_monitor_records_token_bucket_hold(self, sim):
        # 1.2 Mbit/s shaping = 150 kB/s in front of a 1 Gbit/s line; the
        # bucket holds one packet's worth (1514 B), so the second 1500 B
        # packet waits for 1486 B of tokens: far longer than serialization.
        tbf = TokenBucketQdisc(rate_bps=1.2e6, inner=FifoQdisc(), burst_bytes=1514)
        link = Link(sim, "shaped", rate_bps=1e9, delay=0.0, qdisc=tbf)
        monitor = QueueMonitor(link)
        for _ in range(2):
            link.send(make_packet(size=1500))
        sim.run(until=1.0)
        hold = 1486 / 150_000
        assert monitor.delay.times == [0.0, pytest.approx(hold, rel=1e-6)]
        # Both packets were enqueued at t=0, so wait == dequeue instant.
        assert monitor.delay.values == monitor.delay.times
        assert monitor.mean_delay() == pytest.approx(hold / 2, rel=1e-6)

    def test_rate_monitor_bins(self, sim):
        # 1500 B at 1.2 Mbit/s serializes in 10 ms.  The packet sent at
        # t=0.095 straddles the 0.1 s bin boundary and finishes at 0.105:
        # it belongs to the later bin (binning at transmit start would put
        # both packets in bin 0).
        link = Link(sim, "slow", rate_bps=1.2e6, delay=0.0, qdisc=FifoQdisc())
        monitor = RateMonitor(link, bin_width=0.1)
        sim.at(0.01, lambda: link.send(make_packet(size=1500)))
        sim.at(0.095, lambda: link.send(make_packet(size=1500)))
        sim.run(until=1.0)
        series = monitor.series_bps()
        assert series.times == [0.0, pytest.approx(0.1)]
        assert series.values == [pytest.approx(120_000), pytest.approx(120_000)]
        assert monitor.mean_bps(0.0, 0.2) == pytest.approx(120_000)

    def test_fresh_topology_links_carry_no_taps(self, sim):
        topo = build_site_to_site(sim, bottleneck_mbps=12, rtt_ms=40, num_servers=2)
        assert len(sim.observed_links) == 10
        for link in sim.observed_links:
            assert link._transmit_hooks == [] and link.finish_tap is None
        QueueMonitor(topo.bottleneck_link)
        RateMonitor(topo.bottleneck_link)
        install_bundler(topo, BundlerConfig())
        tapped = {topo.bottleneck_link: (1, True), topo.sendbox_link: (1, False)}
        for link in sim.observed_links:
            hooks, has_finish_tap = tapped.get(link, (0, False))
            assert len(link._transmit_hooks) == hooks
            assert (link.finish_tap is not None) == has_finish_tap

    def test_scenario_without_a_reader_records_no_samples(self, monkeypatch):
        # fig09 reads no link series, and status_quo has no sendbox either:
        # the whole cell must run without a single time-series sample.
        adds = []
        monkeypatch.setattr(TimeSeries, "add", lambda self, t, v: adds.append(t))
        cell = RunSpec(
            "fig09_slowdown",
            {"mode": "status_quo", "duration_s": 2, "warmup_s": 0.5, "num_servers": 2},
            seed=1,
        )
        result = execute_run(cell, registry=load_builtin_scenarios())
        assert result.metrics["completed"] > 100
        assert adds == []


class TestStatsHelpers:
    def test_percentile_bounds(self):
        data = list(range(1, 101))
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 100
        assert percentile(data, 50) == pytest.approx(50.5)

    def test_percentile_rejects_empty(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_percentile_rejects_bad_pct(self):
        with pytest.raises(ValueError):
            percentile([1.0], 150)
