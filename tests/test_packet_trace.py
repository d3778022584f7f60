"""Tests for the packet model and trace helpers."""

import pytest

from repro.net.packet import PacketFactory
from repro.net.trace import QueueMonitor, RateMonitor, TimeSeries, cdf, percentile


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

    def test_resample(self):
        ts = TimeSeries()
        ts.add(0.0, 1.0)
        ts.add(1.0, 2.0)
        out = ts.resample(0.5, start=0.0, end=1.0)
        assert out.values == [1.0, 1.0, 2.0]

    def test_empty_series(self):
        ts = TimeSeries()
        assert ts.mean() is None and ts.max() is None and ts.last() is None


class TestMonitors:
    def test_queue_monitor_counts(self):
        m = QueueMonitor()
        m.on_dequeue(0.1, 0.1)
        m.on_dequeue(0.2, 0.3)
        assert len(m.delay) == 2
        assert m.mean_delay() == pytest.approx(0.2)
        assert m.max_delay() == pytest.approx(0.3)

    def test_disabled_monitor_records_nothing(self):
        m = QueueMonitor(enabled=False)
        m.on_dequeue(0.1, 0.1)
        assert len(m.delay) == 0
        assert m.mean_delay() is None

    def test_rate_monitor_bins(self):
        m = RateMonitor(bin_width=1.0)
        m.on_delivery(0.5, 1250)   # 10 kbit in bin 0
        m.on_delivery(1.5, 2500)   # 20 kbit in bin 1
        series = m.series_bps()
        assert series.values[0] == pytest.approx(10_000)
        assert series.values[1] == pytest.approx(20_000)
        assert m.total_bytes == 3750


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

    def test_cdf(self):
        points = cdf([3.0, 1.0, 2.0])
        assert points == [(1.0, pytest.approx(1 / 3)), (2.0, pytest.approx(2 / 3)), (3.0, 1.0)]
