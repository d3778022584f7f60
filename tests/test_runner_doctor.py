"""Tests for ``repro-runner workers doctor``: one calibration cell per host,
run through the sweep's own scheduler (:func:`repro.runner.distributed.check_hosts`)."""

import threading

import pytest

from repro.runner.cli import main
from repro.runner.distributed import LocalSubprocessTransport, check_hosts
from repro.testing.chaos import CHAOS_PLAN_ENV, FaultPlan, FaultRule

from test_runner_distributed import _ScriptTransport

pytestmark = pytest.mark.distributed

#: A simulated slow host: the worker sits on its hello for 30 s.  Launched
#: workers inherit the environment, so the plan reaches them that way (a
#: welcome-borne plan would arrive after the hello it is meant to delay).
_SLOW_HELLO = FaultPlan(rules=(
    FaultRule(action="delay", point="send", message_type="hello", delay_s=30.0),
)).to_json()


class TestCheckHosts:
    def test_healthy_local_worker(self):
        (row,) = check_hosts("localhost", LocalSubprocessTransport())
        assert row["check"] == "" and row["error"] == ""
        assert (row["host"], row["slots"]) == ("localhost", 1)
        assert row["python"].count(".") == 2
        assert row["scenarios"] >= 19
        assert row["pid"] > 0 and row["reported_host"]
        assert row["hello_s"] > 0
        # The worker executed the pinned cell through the scheduler and its
        # outcome telemetry measured the host's throughput.
        assert (row["dispatched"], row["completed"]) == (1, 1)
        assert row["events_per_sec"] > 0

    def test_calibration_timeout_marks_unhealthy(self):
        (row,) = check_hosts(
            "localhost", LocalSubprocessTransport(), calibrate_timeout_s=0.01
        )
        assert row["check"] == "calibrate"
        assert "presumed hung" in row["error"]
        assert row["python"]  # the hello came home before the cell hung

    def test_hello_timeout_marks_unhealthy(self, monkeypatch):
        monkeypatch.setenv(CHAOS_PLAN_ENV, _SLOW_HELLO)
        (row,) = check_hosts(
            "localhost", LocalSubprocessTransport(), hello_timeout_s=0.5
        )
        assert row["check"] == "hello"
        assert "no hello within" in row["error"]

    def test_worker_that_dies_before_hello(self):
        (row,) = check_hosts(
            "localhost", _ScriptTransport("import sys; sys.exit(3)"), hello_timeout_s=10.0
        )
        assert row["check"] == "hello"
        assert row["error"] == "exited (code 3)"

    def test_launch_failure_marks_unhealthy(self):
        (row,) = check_hosts(
            "localhost", LocalSubprocessTransport(python="/nonexistent/python")
        )
        assert (row["host"], row["check"]) == ("localhost", "launch")
        assert "could not launch worker" in row["error"]

    def test_hosts_checked_in_parallel_and_reported_in_order(self):
        class RendezvousTransport(LocalSubprocessTransport):
            """No launch returns until every host's launch has begun."""

            barrier = threading.Barrier(3)

            def launch(self, host, *, heartbeat_s):
                self.barrier.wait(timeout=30.0)  # breaks if hosts are taken in turn
                return super().launch(host, heartbeat_s=heartbeat_s)

        rows = check_hosts("localhost:2,127.0.0.1,::1", RendezvousTransport())
        assert [(r["host"], r["slots"]) for r in rows] == [
            ("localhost", 2), ("127.0.0.1", 1), ("::1", 1)
        ]
        assert not any(r["check"] for r in rows), [r["error"] for r in rows]
        # One worker per host, not per slot.
        assert len({r["pid"] for r in rows}) == 3

    def test_mixed_fleet_flags_the_broken_host(self):
        class MixedTransport(LocalSubprocessTransport):
            """A real worker everywhere but on ``brokenhost``."""

            def launch(self, host, *, heartbeat_s):
                if host.host == "brokenhost":
                    broken = _ScriptTransport("raise SystemExit(9)")
                    return broken.launch(host, heartbeat_s=heartbeat_s)
                return super().launch(host, heartbeat_s=heartbeat_s)

        rows = check_hosts("localhost,brokenhost", MixedTransport())
        assert [(r["host"], r["check"]) for r in rows] == [
            ("localhost", ""), ("brokenhost", "hello")
        ]
        assert rows[1]["error"] == "exited (code 9)"


class TestDoctorCli:
    def test_doctor_healthy_exit_zero(self, capsys):
        assert main(["workers", "doctor", "--hosts", "localhost"]) == 0
        captured = capsys.readouterr()
        assert "workers doctor" in captured.out
        assert "all 1 host(s) healthy" in captured.out
        (line,) = [l for l in captured.out.splitlines() if l.startswith("localhost")]
        host, slots, status, python, scenarios, hello, rate = line.split()
        assert (slots, status) == ("1", "ok")
        assert python.count(".") == 2 and int(scenarios) >= 19
        assert hello.endswith("s") and float(rate.replace(",", "")) > 0

    def test_doctor_unhealthy_exit_nonzero(self, capsys, monkeypatch):
        monkeypatch.setenv(CHAOS_PLAN_ENV, _SLOW_HELLO)
        code = main(["workers", "doctor", "--hosts", "localhost",
                     "--hello-timeout", "0.5"])
        assert code == 1
        captured = capsys.readouterr()
        assert "UNHEALTHY [hello]" in captured.out
        assert "1 of 1 host(s) unhealthy" in captured.out
        assert "localhost: no hello within" in captured.err

    def test_doctor_requires_hosts(self):
        with pytest.raises(SystemExit):
            main(["workers", "doctor"])

    @pytest.mark.parametrize("flag", ["--ping-timeout=1", "--no-calibrate"])
    def test_removed_flags_are_rejected(self, flag):
        with pytest.raises(SystemExit):
            main(["workers", "doctor", "--hosts", "localhost", flag])
