"""Tests for ``repro-runner workers doctor`` (host health probing)."""

import sys

import pytest

from repro.runner.cli import main
from repro.runner.distributed import LocalSubprocessTransport
from repro.runner.doctor import probe_host, probe_hosts, HostSpec
from repro.runner.wire import PROTOCOL_VERSION
from repro.testing.chaos import CHAOS_PLAN_ENV, FaultPlan, FaultRule

pytestmark = pytest.mark.distributed

#: A simulated slow host: the worker sits on its hello for 30 s.  Probe
#: workers inherit the environment, so the plan reaches them that way.
_SLOW_HELLO = FaultPlan(rules=(
    FaultRule(action="delay", point="send", message_type="hello", delay_s=30.0),
)).to_json()


class TestProbeHost:
    def test_healthy_local_worker(self):
        health = probe_host(HostSpec("localhost"), LocalSubprocessTransport())
        assert health.healthy, health.error
        assert health.failure == ""
        assert health.protocol == PROTOCOL_VERSION
        assert health.python.count(".") == 2
        assert health.scenarios and health.scenarios >= 19
        assert health.hello_s is not None and health.hello_s > 0
        assert health.ping_rtt_s is not None and health.ping_rtt_s > 0
        # Calibration ran by default: the worker executed the pinned cell
        # and its outcome telemetry measured the host's throughput.
        assert health.calibrate_s is not None and health.calibrate_s > 0
        assert health.events_per_sec is not None and health.events_per_sec > 0
        assert "events/s" in health.describe()

    def test_no_calibrate_skips_the_cell(self):
        health = probe_host(
            HostSpec("localhost"), LocalSubprocessTransport(), calibrate=False
        )
        assert health.healthy, health.error
        assert health.calibrate_s is None
        assert health.events_per_sec is None
        assert "events/s" not in health.describe()

    def test_calibration_timeout_marks_unhealthy(self):
        health = probe_host(
            HostSpec("localhost"),
            LocalSubprocessTransport(),
            calibrate_timeout_s=0.01,
        )
        assert not health.healthy
        assert health.failure == "calibrate"
        assert "not done within" in health.error

    def test_hello_timeout_marks_unhealthy(self, monkeypatch):
        monkeypatch.setenv(CHAOS_PLAN_ENV, _SLOW_HELLO)
        health = probe_host(
            HostSpec("localhost"), LocalSubprocessTransport(), hello_timeout_s=0.5
        )
        assert not health.healthy
        assert health.failure == "hello"
        assert "no hello" in health.error

    def test_worker_that_dies_before_hello(self):
        transport = LocalSubprocessTransport(python=sys.executable)
        # Point the worker at an interpreter invocation that exits at once.
        transport.python = sys.executable
        original_launch = transport.launch

        def broken_launch(host, *, heartbeat_s):
            import subprocess
            return subprocess.Popen(
                [sys.executable, "-c", "import sys; sys.exit(3)"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
            )

        transport.launch = broken_launch
        health = probe_host(HostSpec("localhost"), transport, hello_timeout_s=10.0)
        assert not health.healthy
        assert health.failure == "hello"
        assert "exited" in health.error

    def test_probe_hosts_parallel_and_ordered(self):
        report = probe_hosts("localhost:2,127.0.0.1", LocalSubprocessTransport())
        assert [h.host for h in report.hosts] == ["localhost", "127.0.0.1"]
        assert [h.slots for h in report.hosts] == [2, 1]
        assert report.healthy
        assert report.summary() == "all 2 host(s) healthy"

    def test_report_flags_the_broken_host(self):
        healthy = LocalSubprocessTransport()
        # One shared transport whose env delays only... simpler: probe two
        # hosts through a transport that breaks for a marked host name.
        class MixedTransport:
            name = "mixed"

            def launch(self, host, *, heartbeat_s):
                if host.host == "brokenhost":
                    import subprocess
                    return subprocess.Popen(
                        [sys.executable, "-c", "raise SystemExit(9)"],
                        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                        stderr=subprocess.DEVNULL,
                    )
                return healthy.launch(HostSpec("localhost"), heartbeat_s=heartbeat_s)

        report = probe_hosts("localhost,brokenhost", MixedTransport())
        assert not report.healthy
        assert [h.host for h in report.unhealthy_hosts] == ["brokenhost"]
        assert report.summary() == "1 of 2 host(s) unhealthy"


class TestDoctorCli:
    def test_doctor_healthy_exit_zero(self, capsys):
        assert main(["workers", "doctor", "--hosts", "localhost"]) == 0
        captured = capsys.readouterr()
        assert "workers doctor" in captured.out
        assert "all 1 host(s) healthy" in captured.out
        assert "events/s" in captured.out

    def test_doctor_no_calibrate_leaves_column_empty(self, capsys):
        assert main(["workers", "doctor", "--hosts", "localhost",
                     "--no-calibrate"]) == 0
        captured = capsys.readouterr()
        # Column header still present, value dashed out.
        lines = [l for l in captured.out.splitlines() if l.startswith("localhost")]
        assert lines and lines[0].rstrip().endswith("-")

    def test_doctor_unhealthy_exit_nonzero(self, capsys, monkeypatch):
        monkeypatch.setenv(CHAOS_PLAN_ENV, _SLOW_HELLO)
        code = main(["workers", "doctor", "--hosts", "localhost",
                     "--hello-timeout", "0.5"])
        assert code == 1
        captured = capsys.readouterr()
        assert "UNHEALTHY" in captured.out
        assert "no hello" in captured.err

    def test_doctor_requires_hosts(self):
        with pytest.raises(SystemExit):
            main(["workers", "doctor"])
