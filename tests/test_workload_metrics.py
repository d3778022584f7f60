"""Tests for workload generation and the metrics/reporting layer."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.metrics.fct import FctAnalysis, ideal_fct, slowdown
from repro.metrics.reporting import Table
from repro.metrics.stats import DistributionSummary, improvement, summarize
from repro.net.simulator import Simulator
from repro.net.topology import build_site_to_site
from repro.transport.flow import FlowRecord
from repro.util.rng import make_rng
from repro.traffic.generators import arrival_rate_for_load
from repro.traffic.replay import TraceReplayWorkload
from repro.workload.flowsize import EmpiricalSizeDistribution, internet_core_cdf


class TestFlowSizes:
    def test_internet_core_matches_paper_statistics(self):
        cdf = internet_core_cdf()
        # 97.6% of requests are at most 10 KB.
        assert cdf.quantile(0.976) == pytest.approx(10_000, rel=0.01)
        # Largest 0.002% of requests are between 5 MB and 100 MB.
        assert cdf.quantile(0.99998) >= 5e6 * 0.9
        assert cdf.quantile(1.0) == pytest.approx(100e6)

    def test_sampling_is_heavy_tailed(self):
        cdf = internet_core_cdf()
        rng = random.Random(1)
        samples = [cdf.sample(rng) for _ in range(20_000)]
        small = sum(1 for s in samples if s <= 10_000)
        assert small / len(samples) == pytest.approx(0.976, abs=0.01)
        assert max(samples) > 100_000

    def test_mean_is_finite_and_sensible(self):
        mean = internet_core_cdf().mean()
        assert 1_000 < mean < 100_000

    def test_invalid_cdf_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalSizeDistribution([(100, 0.5)])
        with pytest.raises(ValueError):
            EmpiricalSizeDistribution([(100, 0.5), (50, 1.0)])
        with pytest.raises(ValueError):
            EmpiricalSizeDistribution([(10, 0.5), (100, 0.9)])

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_quantile_monotone(self, p):
        cdf = internet_core_cdf()
        q = cdf.quantile(p)
        assert 100.0 <= q <= 100e6
        if p < 0.999:
            assert q <= cdf.quantile(min(p + 0.001, 1.0)) + 1e-9


class TestArrivals:
    def test_rate_for_load(self):
        # 24 Mbit/s of 3 KB flows -> 1000 flows/s.
        assert arrival_rate_for_load(24e6, 3000) == pytest.approx(1000.0)


class TestRequestWorkload:
    def test_generates_and_completes_requests(self):
        sim = Simulator()
        topo = build_site_to_site(sim, bottleneck_mbps=24, rtt_ms=20, num_servers=2)
        workload = TraceReplayWorkload.poisson_requests(
            sim, topo.packet_factory, topo.servers, topo.clients,
            offered_load_bps=6e6, rng=make_rng(1), duration_s=3.0,
        ).start()
        sim.run(until=5.0)
        assert workload.flows_issued > 50
        records = workload.records()
        assert records
        assert all(r.completed for r in records)

    def test_max_requests_bound(self):
        sim = Simulator()
        topo = build_site_to_site(sim, bottleneck_mbps=24, rtt_ms=20, num_servers=1)
        workload = TraceReplayWorkload.poisson_requests(
            sim, topo.packet_factory, topo.servers, topo.clients,
            offered_load_bps=6e6, rng=make_rng(1), duration_s=10.0, max_requests=25,
        ).start()
        sim.run(until=12.0)
        assert workload.flows_issued == 25

    def test_requires_bound(self):
        sim = Simulator()
        topo = build_site_to_site(sim, num_servers=1)
        with pytest.raises(ValueError):
            TraceReplayWorkload.poisson_requests(
                sim, topo.packet_factory, topo.servers, topo.clients,
                offered_load_bps=1e6, rng=make_rng(1),
            )


class TestFctMetrics:
    def test_ideal_fct_small_flow(self):
        # A one-packet flow: half an RTT plus serialization.
        assert ideal_fct(1500, 0.05, 24e6) == pytest.approx(0.0255, abs=1e-3)

    def test_ideal_fct_accounts_for_slow_start(self):
        small = ideal_fct(15_000, 0.05, 96e6)
        large = ideal_fct(1_000_000, 0.05, 96e6)
        assert large > small
        # A large flow needs several slow-start round trips beyond serialization.
        assert large > 1_000_000 * 8 / 96e6

    def test_slowdown_of_ideal_is_one(self):
        fct = ideal_fct(10_000, 0.05, 24e6)
        assert slowdown(fct, 10_000, 0.05, 24e6) == pytest.approx(1.0)

    def test_analysis_buckets_and_percentiles(self):
        records = [
            FlowRecord(flow_id=i, size_bytes=size, start_time=1.0,
                       completion_time=1.0 + ideal_fct(size, 0.05, 24e6) * factor)
            for i, (size, factor) in enumerate([(5_000, 1.2), (5_000, 2.0), (500_000, 1.5),
                                                (2_000_000, 3.0), (8_000, 1.0)])
        ]
        analysis = FctAnalysis.from_records(records, rtt_s=0.05, bottleneck_bps=24e6)
        assert len(analysis) == 5
        buckets = analysis.by_size_bucket()
        assert len(buckets["<=10KB"]) == 3
        assert len(buckets["10KB-1MB"]) == 1
        assert len(buckets[">1MB"]) == 1
        assert analysis.median_slowdown() == pytest.approx(1.5, rel=0.01)
        assert analysis.short_flow_analysis().median_slowdown() == pytest.approx(1.2, rel=0.01)

    def test_warmup_and_incomplete_flows_excluded(self):
        records = [
            FlowRecord(flow_id=1, size_bytes=1000, start_time=0.1, completion_time=0.2),
            FlowRecord(flow_id=2, size_bytes=1000, start_time=5.0, completion_time=None),
            FlowRecord(flow_id=3, size_bytes=1000, start_time=5.0, completion_time=5.1),
        ]
        analysis = FctAnalysis.from_records(records, rtt_s=0.05, bottleneck_bps=24e6, warmup_s=1.0)
        assert len(analysis) == 1


class TestStatsAndReporting:
    def test_summarize(self):
        s = summarize(range(1, 101))
        assert isinstance(s, DistributionSummary)
        assert s.median == pytest.approx(50.5)
        assert s.count == 100
        assert s.as_dict()["p99"] > s.as_dict()["p90"]

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_improvement(self):
        assert improvement(1.76, 1.26) == pytest.approx(0.284, abs=0.001)

    def test_table_rendering(self):
        table = Table(["config", "median"], title="Figure 9")
        table.add_row("status_quo", 1.76)
        table.add_row("bundler_sfq", 1.26)
        text = table.render()
        assert "Figure 9" in text and "status_quo" in text and "1.76" in text

    def test_table_row_arity_checked(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("only one")
