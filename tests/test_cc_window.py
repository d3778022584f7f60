"""Tests for endhost (window-based) congestion controllers."""

import pytest

from repro.cc import make_window_cc
from repro.cc.bbr import BbrWindowCC
from repro.cc.constant import ConstantWindowCC
from repro.cc.cubic import CubicCC
from repro.cc.reno import RenoCC

MSS = 1500


def drive_acks(cc, count, rtt=0.05, acked=MSS, start=0.0, spacing=0.001):
    t = start
    for _ in range(count):
        cc.on_ack(t, acked, rtt)
        t += spacing
    return t


class TestReno:
    def test_slow_start_growth(self):
        cc = RenoCC()
        before = cc.cwnd_bytes
        drive_acks(cc, 10)
        assert cc.cwnd_bytes > before

    def test_slow_start_increment_is_capped_per_ack(self):
        cc = RenoCC()
        before = cc.cwnd_bytes
        cc.on_ack(0.0, 1_000_000, 0.05)  # huge cumulative ACK
        assert cc.cwnd_bytes - before <= 2 * MSS

    def test_loss_halves_window(self):
        cc = RenoCC()
        drive_acks(cc, 50)
        before = cc.cwnd_bytes
        cc.on_loss(1.0)
        assert cc.cwnd_bytes == pytest.approx(before / 2.0)

    def test_single_reduction_per_recovery_window(self):
        cc = RenoCC()
        drive_acks(cc, 50)
        cc.on_loss(1.0)
        after_first = cc.cwnd_bytes
        cc.on_loss(1.01)
        assert cc.cwnd_bytes == after_first

    def test_timeout_uses_flight_size_for_ssthresh(self):
        cc = RenoCC()
        cc.on_timeout(1.0, flight_bytes=100 * MSS)
        assert cc.cwnd_bytes == MSS
        assert cc.ssthresh_bytes == pytest.approx(50 * MSS)

    def test_congestion_avoidance_linear(self):
        cc = RenoCC(initial_ssthresh_segments=10)
        drive_acks(cc, 40)
        cwnd = cc.cwnd_bytes
        # One full window of ACKs in CA grows cwnd by about one MSS.
        acks = int(cwnd / MSS)
        drive_acks(cc, acks, start=1.0)
        assert cc.cwnd_bytes - cwnd == pytest.approx(MSS, rel=0.3)


class TestCubic:
    def test_window_reduction_factor(self):
        cc = CubicCC()
        drive_acks(cc, 100)
        before = cc.cwnd_bytes
        cc.on_loss(1.0)
        assert cc.cwnd_bytes == pytest.approx(before * 0.7, rel=1e-6)

    def test_concave_recovery_toward_w_max(self):
        cc = CubicCC()
        drive_acks(cc, 100)
        w_max = cc.cwnd_bytes
        cc.on_loss(1.0)
        t = 2.0
        for _ in range(2000):
            cc.on_ack(t, MSS, 0.05)
            t += 0.005
        assert cc.cwnd_bytes > 0.7 * w_max
        # Growth is bounded; cubic should not explode far beyond W_max quickly.
        assert cc.cwnd_bytes < 3.0 * w_max

    def test_timeout_collapses_window(self):
        cc = CubicCC()
        drive_acks(cc, 100)
        cc.on_timeout(1.0, flight_bytes=cc.cwnd_bytes)
        assert cc.cwnd_bytes == MSS

    def test_never_below_two_segments_on_loss(self):
        cc = CubicCC(initial_cwnd_segments=2)
        cc.on_loss(0.5)
        assert cc.cwnd_bytes >= 2 * MSS


class TestBbrWindow:
    def test_startup_then_probe_bw(self):
        cc = BbrWindowCC()
        t = 0.0
        for _ in range(400):
            cc.on_ack(t, MSS, 0.05)
            t += 0.005
        assert cc.phase in ("probe_bw", "probe_rtt", "drain")

    def test_cwnd_tracks_bdp(self):
        cc = BbrWindowCC()
        t = 0.0
        # Feed a steady 24 Mbit/s delivery rate at 50 ms RTT.
        for _ in range(2000):
            cc.on_ack(t, MSS, 0.05)
            t += 0.0005  # 1500 B / 0.5 ms = 24 Mbit/s
        bdp = 24e6 * 0.05 / 8
        assert cc.cwnd_bytes == pytest.approx(2 * bdp, rel=0.5)

    def test_loss_is_ignored(self):
        cc = BbrWindowCC()
        drive_acks(cc, 20)
        before = cc.cwnd_bytes
        cc.on_loss(1.0)
        assert cc.cwnd_bytes == before


class TestConstantWindow:
    def test_window_never_changes(self):
        cc = ConstantWindowCC(window_segments=450)
        before = cc.cwnd_bytes
        drive_acks(cc, 10)
        cc.on_loss(1.0)
        cc.on_timeout(2.0)
        assert cc.cwnd_bytes == before == 450 * MSS


def test_registry_constructs_all_window_ccs():
    for name in ("reno", "cubic", "bbr", "constant"):
        cc = make_window_cc(name)
        assert cc.cwnd_bytes > 0
    with pytest.raises(ValueError):
        make_window_cc("bogus")
