"""Integration tests for the experiment scenario builders (scaled far down)."""

import pytest

from repro.experiments import (
    ScenarioConfig,
    run_multipath_point,
    run_queue_shift,
    run_region,
    run_scenario,
)
from repro.experiments.scenarios import ALL_MODES


class TestScenarioConfig:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            ScenarioConfig(mode="nope")

    def test_offered_load(self):
        cfg = ScenarioConfig(bottleneck_mbps=24, load_fraction=0.5)
        assert cfg.offered_load_bps == pytest.approx(12e6)

    def test_all_modes_enumerated(self):
        assert "status_quo" in ALL_MODES and "bundler_sfq" in ALL_MODES


class TestRunScenario:
    def _tiny(self, mode, **kw):
        return ScenarioConfig(
            mode=mode,
            bottleneck_mbps=12,
            rtt_ms=20,
            load_fraction=0.7,
            duration_s=4.0,
            warmup_s=0.5,
            num_servers=4,
            max_requests=400,
            seed=3,
            **kw,
        )

    def test_status_quo_and_bundler_produce_results(self):
        sq = run_scenario(self._tiny("status_quo"))
        bu = run_scenario(self._tiny("bundler_sfq"))
        assert sq.requests_issued > 50
        assert bu.requests_issued > 50
        assert sq.completion_fraction() > 0.8
        assert bu.completion_fraction() > 0.8
        assert sq.fct_analysis().median_slowdown() >= 1.0
        assert bu.fct_analysis().median_slowdown() >= 1.0
        # The Bundler run exposes the sendbox's measurements; Status Quo does not.
        assert bu.bundler_min_rtt is not None
        assert sq.bundler_min_rtt is None

    def test_same_seed_same_workload(self):
        a = run_scenario(self._tiny("status_quo"))
        b = run_scenario(self._tiny("status_quo"))
        assert a.requests_issued == b.requests_issued
        assert [r.size_bytes for r in a.records[:20]] == [r.size_bytes for r in b.records[:20]]

    def test_in_network_mode_runs(self):
        res = run_scenario(self._tiny("in_network_sfq"))
        assert res.completion_fraction() > 0.8

    def test_proxy_mode_runs(self):
        res = run_scenario(self._tiny("proxy"))
        assert res.completion_fraction() > 0.5


class TestQueueShift:
    def test_bundler_moves_queue_to_sendbox(self):
        without = run_queue_shift(with_bundler=False, bottleneck_mbps=12, rtt_ms=40,
                                  duration_s=10.0, num_flows=1)
        with_b = run_queue_shift(with_bundler=True, bottleneck_mbps=12, rtt_ms=40,
                                 duration_s=10.0, num_flows=1)
        assert without.mean_bottleneck_delay(3.0) > with_b.mean_bottleneck_delay(3.0)
        assert with_b.mean_sendbox_delay(3.0) > without.mean_sendbox_delay(3.0)


class TestMultipathPoint:
    def test_single_path_low_out_of_order(self):
        point = run_multipath_point(num_paths=1, duration_s=5.0, bottleneck_mbps=12)
        assert point.out_of_order_fraction < 0.05
        assert not point.detector_triggered

    def test_multipath_high_out_of_order(self):
        point = run_multipath_point(num_paths=4, duration_s=5.0, bottleneck_mbps=12)
        assert point.out_of_order_fraction > 0.05
        assert point.detector_triggered


class TestInternetPaths:
    def test_bundler_reduces_probe_latency(self):
        sq = run_region(region="test", base_rtt_ms=30, configuration="status_quo",
                        egress_limit_mbps=12, duration_s=8.0, num_bulk_flows=2)
        bu = run_region(region="test", base_rtt_ms=30, configuration="bundler",
                        egress_limit_mbps=12, duration_s=8.0, num_bulk_flows=2)
        assert bu.median_probe_rtt_ms() < sq.median_probe_rtt_ms()

    def test_base_configuration_has_no_bulk(self):
        base = run_region(region="test", base_rtt_ms=30, configuration="base",
                          egress_limit_mbps=12, duration_s=4.0)
        assert base.bulk_throughput_mbps == 0.0
        assert base.median_probe_rtt_ms() == pytest.approx(30.0, rel=0.1)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            run_region(region="x", base_rtt_ms=30, configuration="bogus")
