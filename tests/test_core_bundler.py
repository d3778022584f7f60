"""Integration tests for the Bundler sendbox/receivebox pair and its controller."""

import pytest

from repro.cc import make_window_cc
from repro.cc.base import BundleMeasurement
from repro.core import BundlerConfig, install_bundler
from repro.core.bundle import source_address_classifier
from repro.core.config import BundlerConfig as Config
from repro.core.controller import BundleController, BundlerMode
from repro.net.packet import PacketFactory
from repro.net.simulator import Simulator
from repro.net.topology import build_site_to_site
from repro.net.trace import QueueMonitor, RateMonitor
from repro.transport.flow import TcpFlow


class TestBundleClassifier:
    def test_source_address_classifier(self):
        factory = PacketFactory()
        classify = source_address_classifier([1, 2], bundle_id=7)
        in_bundle = factory.make(flow_id=1, src=1, dst=9, src_port=1, dst_port=2)
        other = factory.make(flow_id=1, src=5, dst=9, src_port=1, dst_port=2)
        control = factory.make(flow_id=0, src=1, dst=9, src_port=1, dst_port=2, is_control=True)
        assert classify(in_bundle) == 7
        assert classify(other) is None
        assert classify(control) is None


class TestBundlerConfig:
    def test_defaults_are_valid(self):
        config = BundlerConfig()
        assert config.control_interval_s == 0.01
        assert config.scheduler == "sfq"

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            BundlerConfig(control_interval_s=0.0)
        with pytest.raises(ValueError):
            BundlerConfig(multipath_threshold=1.5)
        with pytest.raises(ValueError):
            BundlerConfig(sendbox_control_port=5, receivebox_control_port=5)


class TestBundleController:
    def _controller(self, **overrides):
        config = Config(enable_nimbus=False, enable_multipath_detection=True, **overrides)
        return BundleController(config, max_rate_bps=240e6)

    def test_delay_mode_by_default(self):
        ctl = self._controller()
        rate = ctl.tick(0.0, None, 0.0)
        assert ctl.mode is BundlerMode.DELAY_CONTROL
        assert rate > 0

    def test_rate_follows_cc_on_measurements(self):
        ctl = self._controller()
        m = BundleMeasurement(now=0.0, rtt=0.06, min_rtt=0.05, send_rate=20e6,
                              recv_rate=20e6, acked_bytes=30_000)
        rate = ctl.tick(0.0, m, 0.0)
        assert ctl.config.min_rate_bps <= rate <= 240e6
        assert len(ctl.mode_history) == 1

    def test_multipath_disables_rate_control(self):
        ctl = self._controller(multipath_min_samples=10)
        for i in range(20):
            ctl.record_ack_ordering(i * 0.01, out_of_order=True)
        rate = ctl.tick(0.5, None, 0.0)
        assert ctl.mode is BundlerMode.DISABLED_MULTIPATH
        assert rate == 240e6

    def test_pass_through_mode_when_nimbus_reports_elastic(self):
        config = Config(enable_nimbus=True, enable_multipath_detection=False)
        ctl = BundleController(config, max_rate_bps=240e6)
        ctl.nimbus._elastic = True  # force the detector verdict
        m = BundleMeasurement(now=0.0, rtt=0.1, min_rtt=0.05, send_rate=20e6,
                              recv_rate=20e6, acked_bytes=30_000)
        ctl.tick(0.0, m, sendbox_queue_delay_s=0.05)
        assert ctl.mode is BundlerMode.PASS_THROUGH
        assert ctl.mode_changes == 1

    def test_time_in_mode_accounting(self):
        ctl = self._controller()
        for i in range(10):
            ctl.tick(i * 0.01, None, 0.0)
        assert ctl.time_in_mode(BundlerMode.DELAY_CONTROL, 0.1) == pytest.approx(0.1, abs=0.02)
        assert ctl.time_in_mode(BundlerMode.PASS_THROUGH, 0.1) == 0.0


class TestBundlerPairIntegration:
    def _run_pair(self, duration=8.0, **config_overrides):
        sim = Simulator()
        topo = build_site_to_site(sim, bottleneck_mbps=12, rtt_ms=40, num_servers=2, num_clients=1)
        config = BundlerConfig(
            sendbox_cc="copa",
            scheduler="sfq",
            enable_nimbus=False,
            initial_rate_bps=6e6,
            **config_overrides,
        )
        pair = install_bundler(topo, config)
        self.bottleneck_queue = QueueMonitor(topo.bottleneck_link)
        self.sendbox_queue = QueueMonitor(topo.sendbox_link)
        self.bottleneck_rate = RateMonitor(topo.bottleneck_link)
        flows = [
            TcpFlow(sim, topo.packet_factory, server, topo.clients[0], size_bytes=None,
                    cc=make_window_cc("cubic")).start()
            for server in topo.servers
        ]
        sim.run(until=duration)
        for flow in flows:
            flow.stop()
        return topo, pair

    def test_feedback_loop_produces_measurements(self):
        topo, pair = self._run_pair()
        state = pair.sendbox.bundles[0]
        assert state.boundaries_sent > 10
        assert state.acks_received > 10
        assert state.measurement.min_rtt == pytest.approx(0.04, rel=0.15)
        assert state.measurement.total_acked_bytes > 100_000
        assert len(state.controller.mode_history) > 100

    def test_queue_shifts_from_bottleneck_to_sendbox(self):
        topo, pair = self._run_pair(duration=12.0)
        bottleneck_late = self.bottleneck_queue.delay.between(6.0, 12.0).mean() or 0.0
        sendbox_late = self.sendbox_queue.delay.between(6.0, 12.0).mean() or 0.0
        assert sendbox_late > bottleneck_late
        assert bottleneck_late < 0.020  # small standing queue in the network

    def test_bottleneck_stays_utilized(self):
        topo, pair = self._run_pair(duration=12.0)
        throughput = self.bottleneck_rate.mean_bps(6.0, 12.0)
        assert throughput > 0.7 * 12e6

    def test_epoch_size_updates_propagate_to_receivebox(self):
        topo, pair = self._run_pair()
        state = pair.sendbox.bundles[0]
        recv_state = pair.receivebox.bundles[0]
        assert state.epoch_updates_sent >= 1
        assert recv_state.epoch_updates_received >= 1
        # Both ends converge to the same power-of-two epoch size.
        assert recv_state.epoch_size == state.epoch_controller.current_size

    def test_receivebox_ignores_reverse_direction_traffic(self):
        topo, pair = self._run_pair(duration=4.0)
        recv_state = pair.receivebox.bundles[0]
        # Bytes received must only count bundle (site A -> site B) traffic,
        # which is bounded by what the bottleneck could have carried.
        max_possible = 12e6 / 8 * topo.sim.now * 1.2
        assert recv_state.bytes_received <= max_possible

    def test_sendbox_stop_cancels_control_loop(self):
        topo, pair = self._run_pair(duration=2.0)
        pair.sendbox.stop()
        rate_before = pair.sendbox.current_rate_bps()
        topo.sim.run(until=topo.sim.now + 1.0)
        assert pair.sendbox.current_rate_bps() == rate_before
