"""``repro-runner workers doctor`` — probe hosts before a distributed sweep.

A long sweep dispatched to a half-configured fleet fails slowly: the
scheduler quarantines the broken hosts one hello-timeout at a time while
the healthy ones shoulder the whole grid.  The doctor front-loads that
discovery.  For each ``--hosts`` entry it launches one worker through the
same transport the sweep would use and checks, in order:

1. **hello handshake** — the worker starts, imports the experiment
   modules, and speaks the expected
   :data:`~repro.runner.wire.PROTOCOL_VERSION`;
2. **heartbeat round-trip** — a ``ping`` comes back as ``pong``, with the
   measured round-trip time;
3. **environment report** — the worker's Python version, pid, reported
   hostname, and registered-scenario count (a worker seeing fewer
   scenarios than the scheduler would cache-miss every cell it runs);
4. **calibration** (skippable with ``--no-calibrate``) — one tiny pinned
   cell (:data:`CALIBRATION_ITEM`, sent as a batch of one) runs end to
   end on the worker, and the outcome's telemetry reports the host's
   measured events/sec — a like-for-like throughput number for sizing
   ``--hosts`` slot counts across a heterogeneous fleet.

Probing is parallel (one thread per host) and side-effect free: the probe
worker is shut down as soon as the checks finish.  Any unhealthy host
makes the CLI exit non-zero, so the doctor can gate CI jobs and scripted
sweeps.
"""

from __future__ import annotations

import queue
import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.runner.distributed import (
    HostSpec,
    LocalSubprocessTransport,
    SSHTransport,
    WorkerTransport,
    parse_hosts,
)
from repro.runner.wire import PROTOCOL_VERSION, WireError, read_message, write_message

#: The calibration cell: small enough to finish in about a second on
#: commodity hardware, big enough (tens of thousands of simulator events,
#: real bundler + qdisc machinery) that its telemetry events/sec is a
#: meaningful throughput proxy.  Pinned — every host runs the identical
#: cell, so the numbers are comparable across a fleet.
CALIBRATION_ITEM: Dict[str, object] = {
    "index": 0,
    "scenario": "fig13_competing_bundles",
    "params": {"duration_s": 2},
    "seed": 1,
}


@dataclass
class HostHealth:
    """Outcome of probing one host."""

    host: str
    slots: int = 1
    healthy: bool = False
    #: Which check failed (empty when healthy): "launch", "hello",
    #: "protocol", "ping", "calibrate".
    failure: str = ""
    error: str = ""
    protocol: Optional[int] = None
    python: str = ""
    pid: Optional[int] = None
    reported_host: str = ""
    scenarios: Optional[int] = None
    hello_s: Optional[float] = None
    ping_rtt_s: Optional[float] = None
    #: Wall time of the calibration cell on the worker (None when
    #: calibration was skipped).
    calibrate_s: Optional[float] = None
    #: Host throughput measured by the calibration cell's telemetry (None
    #: when calibration was skipped, or the worker predates the
    #: observability layer / runs with ``REPRO_OBS=0``).
    events_per_sec: Optional[float] = None

    def describe(self) -> str:
        if self.healthy:
            rtt = f"{self.ping_rtt_s * 1000.0:.1f}ms" if self.ping_rtt_s is not None else "-"
            rate = (
                f", {self.events_per_sec:,.0f} events/s"
                if self.events_per_sec is not None
                else ""
            )
            return (
                f"ok (python {self.python or '?'}, {self.scenarios} scenarios, "
                f"hello {self.hello_s:.2f}s, ping {rtt}{rate})"
            )
        return f"UNHEALTHY [{self.failure}]: {self.error}"


class _ProbeFailed(Exception):
    """A check did not get through; the message is the operator-facing reason."""


def _start_reader(proc: subprocess.Popen) -> "queue.Queue":
    """Pump the worker's frames into a queue from one daemon thread.

    Pipe reads cannot be interrupted portably, so the probe enforces its
    deadlines on the queue instead; the reader ends at EOF (``None``), which
    the probe's closing shutdown-or-kill guarantees, or at a wire error.
    """
    inbox: "queue.Queue" = queue.Queue()

    def pump() -> None:
        try:
            while True:
                message = read_message(proc.stdout)
                inbox.put(message)
                if message is None:
                    return
        except WireError as exc:
            inbox.put(exc)

    threading.Thread(target=pump, daemon=True).start()
    return inbox


def _await_frame(
    inbox: "queue.Queue", proc: subprocess.Popen, frame_type: str, deadline: float, late: str
) -> Dict[str, object]:
    """The next ``frame_type`` frame; stray frames (heartbeats) are skipped."""
    while True:
        try:
            message = inbox.get(timeout=max(deadline - time.monotonic(), 0.0))
        except queue.Empty:
            raise _ProbeFailed(late) from None
        if isinstance(message, WireError):
            raise _ProbeFailed(f"wire error: {message}")
        if message is None:
            raise _ProbeFailed(f"worker exited before {frame_type} (code {proc.poll()})")
        if message.get("type") == frame_type:
            return message


def _send(proc: subprocess.Popen, message: Dict[str, object], what: str) -> None:
    try:
        write_message(proc.stdin, message)
    except (OSError, ValueError) as exc:
        raise _ProbeFailed(f"could not send {what}: {exc}") from None


def probe_host(
    host: HostSpec,
    transport: WorkerTransport,
    *,
    hello_timeout_s: float = 30.0,
    ping_timeout_s: float = 10.0,
    calibrate: bool = True,
    calibrate_timeout_s: float = 60.0,
) -> HostHealth:
    """Run the doctor's checks against one host (see the module docstring)."""
    health = HostHealth(host=host.host, slots=host.slots)
    started = time.monotonic()
    try:
        proc = transport.launch(host, heartbeat_s=0.0)
    except OSError as exc:
        health.failure, health.error = "launch", f"could not launch worker: {exc}"
        return health
    inbox = _start_reader(proc)
    check = "hello"
    try:
        message = _await_frame(
            inbox, proc, "hello", started + hello_timeout_s,
            f"no hello within {hello_timeout_s:.0f}s",
        )
        health.hello_s = time.monotonic() - started
        health.protocol = message.get("protocol")
        health.python = str(message.get("python", ""))
        health.pid = message.get("pid")
        health.reported_host = str(message.get("host", ""))
        health.scenarios = message.get("scenarios")
        if health.protocol != PROTOCOL_VERSION:
            check = "protocol"
            raise _ProbeFailed(
                f"protocol mismatch: worker speaks {health.protocol!r}, "
                f"this scheduler speaks {PROTOCOL_VERSION}"
            )
        check = "ping"
        ping_at = time.monotonic()
        _send(proc, {"type": "ping"}, "ping")
        _await_frame(
            inbox, proc, "pong", ping_at + ping_timeout_s,
            f"no pong within {ping_timeout_s:.0f}s",
        )
        health.ping_rtt_s = time.monotonic() - ping_at
        if calibrate:
            check = "calibrate"
            calibrate_at = time.monotonic()
            _send(proc, {"type": "work_batch", "items": [CALIBRATION_ITEM]}, "calibration cell")
            # Heartbeats tick while the cell runs; _await_frame skips them.
            message = _await_frame(
                inbox, proc, "outcome_batch", calibrate_at + calibrate_timeout_s,
                f"calibration cell not done within {calibrate_timeout_s:.0f}s",
            )
            health.calibrate_s = time.monotonic() - calibrate_at
            outcome = (message.get("outcomes") or [{}])[0]
            if outcome.get("error"):
                raise _ProbeFailed(
                    f"calibration cell failed on the worker: "
                    f"{str(outcome['error']).strip().splitlines()[-1]}"
                )
            telemetry = outcome.get("telemetry")
            if isinstance(telemetry, dict) and telemetry.get("events_per_sec"):
                # Absent from old workers' frames and under REPRO_OBS=0 —
                # the host is still healthy, just unmeasured.
                health.events_per_sec = float(telemetry["events_per_sec"])
        health.healthy = True
    except _ProbeFailed as exc:
        health.failure, health.error = check, str(exc)
    finally:
        try:
            write_message(proc.stdin, {"type": "shutdown"})
            proc.stdin.close()
        except (OSError, ValueError):
            pass
        try:
            proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            proc.kill()
    return health


@dataclass
class DoctorReport:
    """All probed hosts, with the overall verdict."""

    hosts: List[HostHealth] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        return bool(self.hosts) and all(h.healthy for h in self.hosts)

    @property
    def unhealthy_hosts(self) -> List[HostHealth]:
        return [h for h in self.hosts if not h.healthy]

    def summary(self) -> str:
        bad = len(self.unhealthy_hosts)
        total = len(self.hosts)
        if bad == 0:
            return f"all {total} host(s) healthy"
        return f"{bad} of {total} host(s) unhealthy"


def probe_hosts(
    hosts: Union[str, Sequence[HostSpec]],
    transport: Optional[WorkerTransport] = None,
    *,
    hello_timeout_s: float = 30.0,
    ping_timeout_s: float = 10.0,
    calibrate: bool = True,
    calibrate_timeout_s: float = 60.0,
) -> DoctorReport:
    """Probe every host in parallel; transport defaults like the sweep's.

    One probe worker per *host* (not per slot — the checks are about the
    host's environment, which its slots share).
    """
    specs = parse_hosts(hosts)
    if transport is None:
        transport = (
            LocalSubprocessTransport()
            if all(h.is_local for h in specs)
            else SSHTransport()
        )
    results: Dict[int, HostHealth] = {}

    def probe(index: int, spec: HostSpec) -> None:
        results[index] = probe_host(
            spec,
            transport,
            hello_timeout_s=hello_timeout_s,
            ping_timeout_s=ping_timeout_s,
            calibrate=calibrate,
            calibrate_timeout_s=calibrate_timeout_s,
        )

    threads = [
        threading.Thread(target=probe, args=(index, spec), daemon=True)
        for index, spec in enumerate(specs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return DoctorReport(hosts=[results[i] for i in range(len(specs))])
