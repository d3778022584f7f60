"""Distributed-dispatch tests: parity, fault tolerance, cache compatibility.

The acceptance gates for the cross-host backend:

* a distributed sweep is byte-for-byte identical to a serial sweep of the
  same spec (the determinism contract extended across process boundaries);
* distributed and serial sweeps share cache keys — whichever runs first
  warms the other to 100% hits;
* a worker killed mid-sweep is quarantined and its cells re-routed, still
  yielding a complete, correct result set;
* when *every* worker is gone, failures surface as error outcomes so the
  engine caches completed cells and a re-run resumes from cache.

Everything runs over :class:`LocalSubprocessTransport` — same scheduler,
same wire protocol, same worker entrypoint as SSH, minus the network.
Worker crashes are injected as :mod:`repro.testing.chaos` fault plans,
delivered in-band via ``chaos=``.
"""

import os
import subprocess
import sys

import pytest

from repro.runner.backends import WorkItem, inherited_pythonpath, make_backend
from repro.runner.cache import ResultCache
from repro.runner.distributed import (
    DistributedBackend,
    HostSpec,
    LocalSubprocessTransport,
    SSHTransport,
    parse_hosts,
)
from repro.runner.engine import run_sweep
from repro.runner.spec import SweepSpec
from repro.runner.wire import PROTOCOL_VERSION
from repro.testing.chaos import FaultPlan, FaultRule

pytestmark = pytest.mark.distributed


def _grid_specs():
    # Same fast deterministic grid the serial/process parity tests use.
    return SweepSpec(
        scenario="ablation_pi_gains",
        grid={"alpha": [5.0, 10.0], "beta": [5.0, 10.0]},
        seeds=(1,),
    ).expand()


def _backend(hosts="localhost:2", transport=None, **kwargs):
    kwargs.setdefault("poll_s", 0.02)
    kwargs.setdefault("heartbeat_s", 0.2)
    return DistributedBackend(hosts, transport, **kwargs)


def _crash_plan(doomed=None, crash_after=0, delay_healthy=()):
    """A fault plan that crashes workers on receipt of a work frame.

    Workers at the ``doomed`` registration indices (None = every worker)
    serve ``crash_after`` single-cell batches and then die *without
    replying* to the next one — the in-flight-cell re-route path.  Workers
    at the ``delay_healthy`` indices sit on their first work frame for
    1.5 s before running it, guaranteeing the doomed worker is dispatched
    work too — without it, a fast healthy worker can drain a small grid
    before the doomed worker ever greets, and the test would race.
    """
    rules = [FaultRule(action="kill", point="recv", message_type="work_batch",
                       nth=crash_after + 1, workers=doomed)]
    if delay_healthy:
        rules.append(FaultRule(action="delay", point="recv", message_type="work_batch",
                               nth=1, delay_s=1.5, workers=delay_healthy))
    return FaultPlan(rules=tuple(rules))


class TestHostSpecs:
    def test_parse_host_slots(self):
        assert parse_hosts("localhost:2") == (HostSpec("localhost", 2),)
        assert parse_hosts("nodeA:4,nodeB") == (
            HostSpec("nodeA", 4),
            HostSpec("nodeB", 1),
        )
        assert parse_hosts(" a:1 , b:3 ") == (HostSpec("a", 1), HostSpec("b", 3))

    def test_parse_ipv6_literals(self):
        # Bare IPv6 literals are whole hosts; slots need brackets.
        assert HostSpec.parse("::1") == HostSpec("::1", 1)
        assert HostSpec.parse("::1").is_local
        assert HostSpec.parse("[::1]:2") == HostSpec("::1", 2)
        assert HostSpec.parse("[fe80::2]") == HostSpec("fe80::2", 1)
        with pytest.raises(ValueError, match="bracketed"):
            HostSpec.parse("[::1]:x")
        with pytest.raises(ValueError, match="bracketed"):
            HostSpec.parse("[::1")

    def test_multi_slot_hosts_get_unique_worker_ids(self, tmp_path):
        outcome = run_sweep(
            _grid_specs(),
            cache=ResultCache(str(tmp_path / "c")),
            backend=_backend("localhost:2"),
        )
        workers = outcome.worker_stats["workers"]
        assert len(workers) == 2  # one entry per worker, no id collision
        assert sum(w["completed"] for w in workers.values()) == 4

    def test_duplicate_host_entries_rejected(self):
        with pytest.raises(ValueError, match="duplicate host entry 'localhost'"):
            parse_hosts("localhost:1,localhost:1")
        # Even with differing slot counts: slots already express fan-out.
        with pytest.raises(ValueError, match="localhost:3"):
            parse_hosts("localhost:2,localhost:1")

    def test_zero_and_negative_slot_counts_rejected(self):
        with pytest.raises(ValueError, match="slots must be >= 1, got 0"):
            parse_hosts("localhost:0")
        # "-1".isdigit() is False; the parser must not fall back to
        # treating "x:-1" as a host named "x:-1".
        with pytest.raises(ValueError, match="slots must be >= 1, got -1"):
            parse_hosts("x:-1")

    def test_parse_passthrough_and_errors(self):
        hosts = (HostSpec("x", 2),)
        assert parse_hosts(hosts) == hosts
        with pytest.raises(ValueError, match="zero hosts"):
            parse_hosts(" , ")
        with pytest.raises(ValueError, match="slots must be >= 1"):
            HostSpec("x", 0)
        with pytest.raises(ValueError, match="non-empty"):
            HostSpec("")

    def test_local_detection_picks_transport(self):
        assert isinstance(_backend("localhost:2").transport, LocalSubprocessTransport)
        assert isinstance(_backend("nodeA:2").transport, SSHTransport)
        assert _backend("localhost:3").workers == 3

    def test_ssh_transport_command_shape(self):
        transport = SSHTransport(python="python3", remote_env={"PYTHONPATH": "/repo/src"})
        # Don't launch anything; just check the remote command assembles.
        import repro.runner.distributed as dist

        argv = dist._worker_argv(transport.python, 2.0)
        assert argv[:3] == ["python3", "-m", "repro.runner.worker"]


class TestDistributedParity:
    def test_serial_and_distributed_byte_identical(self, tmp_path):
        specs = _grid_specs()
        serial = run_sweep(specs, cache=ResultCache(str(tmp_path / "ser")), backend="serial")
        dist = run_sweep(
            specs, cache=ResultCache(str(tmp_path / "dist")), backend=_backend()
        )
        assert dist.backend == "distributed"
        assert dist.workers == 2
        assert [r.canonical() for r in serial.results] == [
            r.canonical() for r in dist.results
        ]

    def test_warm_rerun_is_all_cache_hits_across_backends(self, tmp_path):
        # One shared cache: serial populates, distributed must hit 100%,
        # then the reverse direction through a fresh cache.
        specs = _grid_specs()
        cache = ResultCache(str(tmp_path / "shared"))
        run_sweep(specs, cache=cache, backend="serial")
        warm = run_sweep(specs, cache=cache, backend=_backend())
        assert warm.hits == len(specs) and warm.misses == 0

        other = ResultCache(str(tmp_path / "reverse"))
        run_sweep(specs, cache=other, backend=_backend())
        warm_serial = run_sweep(specs, cache=other, backend="serial")
        assert warm_serial.hits == len(specs) and warm_serial.misses == 0

    def test_telemetry_lands_in_worker_stats(self, tmp_path):
        outcome = run_sweep(
            _grid_specs(), cache=ResultCache(str(tmp_path / "c")), backend=_backend()
        )
        stats = outcome.worker_stats
        assert stats["backend"] == "distributed"
        assert stats["transport"] == "local-subprocess"
        assert sum(w["completed"] for w in stats["workers"].values()) == 4
        assert stats["quarantined"] == 0
        # Each launched worker's hello is kept: what it was, how long it took.
        for worker in stats["workers"].values():
            assert worker["python"] == ".".join(map(str, sys.version_info[:3]))
            assert worker["scenarios"] >= 19
            assert worker["pid"] > 0 and worker["reported_host"]
            assert 0 < worker["hello_s"] < 30
        assert len({w["pid"] for w in stats["workers"].values()}) == 2

    def test_joined_worker_hello_lands_in_worker_stats(self, tmp_path):
        backend = DistributedBackend((), listen=True, poll_s=0.02, join_grace_s=30)
        host, port = backend.endpoint
        joiner = subprocess.Popen(
            [sys.executable, "-m", "repro.runner.worker", "--connect", f"{host}:{port}"],
            env=dict(os.environ, PYTHONPATH=inherited_pythonpath()),
            stderr=subprocess.DEVNULL,
        )
        try:
            outcome = run_sweep(
                _grid_specs(), cache=ResultCache(str(tmp_path / "c")), backend=backend
            )
            assert joiner.wait(timeout=30) == 0  # shut down by the scheduler
        finally:
            backend.close()
            joiner.kill()
            joiner.wait(timeout=30)
        (worker,) = outcome.worker_stats["workers"].values()
        assert worker["completed"] == 4
        assert worker["pid"] == joiner.pid
        assert worker["python"].count(".") == 2 and worker["scenarios"] >= 19
        assert worker["host"] == worker["reported_host"]
        assert 0 <= worker["hello_s"] < 30

    def test_progress_events_cover_every_cell(self, tmp_path):
        events = []
        run_sweep(
            _grid_specs(),
            cache=ResultCache(str(tmp_path / "c")),
            backend=_backend(),
            on_progress=events.append,
        )
        completed = [e for e in events if e.kind == "completed"]
        assert len(completed) == 4
        assert completed[-1].done == completed[-1].total == 4
        assert all(e.scenario == "ablation_pi_gains" for e in completed)


#: A process that frames one hello for a protocol nobody speaks, then waits.
_STRANGER = (
    "import json, struct, sys\n"
    "body = json.dumps({'type': 'hello', 'protocol': %d, 'pid': 1, 'host': 'stranger',\n"
    "                   'python': '0.0.0', 'scenarios': 0}).encode()\n"
    "sys.stdout.buffer.write(struct.pack('>I', len(body)) + body)\n"
    "sys.stdout.buffer.flush()\n"
    "sys.stdin.buffer.read()\n"
) % (PROTOCOL_VERSION + 1)


class _ScriptTransport:
    """Launches ``python -c script`` where a worker should be."""

    name = "script"

    def __init__(self, script):
        self.script = script

    def launch(self, host, *, heartbeat_s):
        return subprocess.Popen(
            [sys.executable, "-c", self.script],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )


class TestHandshakeDeadlines:
    """The hello checks a real sweep depends on (``workers doctor`` prints
    the same quarantine reasons; ``tests/test_runner_doctor.py``)."""

    @pytest.mark.parametrize(
        "script, reason, said_hello",
        [
            pytest.param("import sys; sys.stdin.buffer.read()",
                         "no hello within 1s", False, id="mute"),
            pytest.param("import sys; sys.exit(7)", "exited (code 7)", False, id="dead"),
            pytest.param(
                _STRANGER,
                f"protocol mismatch (worker {PROTOCOL_VERSION + 1}, "
                f"scheduler {PROTOCOL_VERSION})",
                True, id="stranger",
            ),
        ],
    )
    def test_worker_that_fails_the_handshake_is_quarantined(self, script, reason, said_hello):
        backend = _backend("localhost:1", _ScriptTransport(script), hello_timeout_s=1.0)
        (outcome,) = backend.execute(
            [WorkItem(index=0, scenario="ablation_pi_gains", params={}, seed=1)]
        )
        # Never handed work; the cell comes home as an error, not a hang.
        assert outcome.payload is None and "no live workers remain" in outcome.error
        stats = backend.telemetry()
        assert (stats["quarantined"], stats["gave_up"]) == (1, 1)
        (worker,) = stats["workers"].values()
        assert worker["state"] == "quarantined" and worker["dispatched"] == 0
        assert worker["quarantine_reason"] == reason
        # A refused hello is still on file; a worker that never spoke has none.
        assert ("hello_s" in worker) == said_hello
        if said_hello:
            assert (worker["python"], worker["reported_host"]) == ("0.0.0", "stranger")


class TestFaultTolerance:
    def test_killed_worker_quarantined_and_cells_rerouted(self, tmp_path):
        specs = _grid_specs()
        serial = run_sweep(specs, cache=ResultCache(str(tmp_path / "ser")), backend="serial")
        backend = _backend(
            chaos=_crash_plan(doomed=(0,), delay_healthy=(1,)),
            worker_timeout_s=20,
        )
        dist = run_sweep(specs, cache=ResultCache(str(tmp_path / "dist")), backend=backend)
        # Complete, correct result set despite the mid-sweep worker death.
        assert [r.canonical() for r in serial.results] == [
            r.canonical() for r in dist.results
        ]
        stats = dist.worker_stats
        assert stats["quarantined"] == 1
        assert stats["requeued"] >= 1
        states = {w["state"] for w in stats["workers"].values()}
        assert "quarantined" in states

    def test_crash_after_some_items_served(self, tmp_path):
        # The crashing worker completes one cell first, so its results mix
        # with the survivor's — ordering must still come back spec-order.
        specs = _grid_specs()
        serial = run_sweep(specs, cache=ResultCache(str(tmp_path / "ser")), backend="serial")
        backend = _backend(
            chaos=_crash_plan(doomed=(0,), crash_after=1, delay_healthy=(1,)),
            worker_timeout_s=20,
        )
        dist = run_sweep(specs, cache=ResultCache(str(tmp_path / "dist")), backend=backend)
        assert [r.canonical() for r in serial.results] == [
            r.canonical() for r in dist.results
        ]

    def test_all_workers_dead_yields_error_outcomes_and_resumable_cache(self, tmp_path):
        # Every worker crashes on its first item and max_attempts runs out:
        # the failures must surface as a sweep error (not a hang, not lost
        # cells), and a rerun with healthy workers completes from scratch.
        specs = _grid_specs()
        cache = ResultCache(str(tmp_path / "c"))
        backend = _backend(
            chaos=_crash_plan(),
            max_attempts=2,
            worker_timeout_s=20,
        )
        with pytest.raises(RuntimeError, match="failed"):
            run_sweep(specs, cache=cache, backend=backend)
        recovered = run_sweep(specs, cache=cache, backend=_backend())
        assert len(recovered.results) == len(specs)
        assert recovered.misses == len(specs) - recovered.hits


class TestEngineIntegration:
    def test_make_backend_roundtrip(self):
        backend = make_backend("distributed", hosts="localhost:2")
        assert isinstance(backend, DistributedBackend)
        assert backend.needs_builtin_registry is True

    def test_custom_registry_falls_back_to_serial(self, tmp_path):
        from repro.runner.params import ParamSpace
        from repro.runner.registry import ScenarioRegistry
        from repro.runner.spec import RunSpec

        registry = ScenarioRegistry()

        @registry.register("toy", params=ParamSpace())
        def _toy(*, seed):
            return {"ok": True}

        outcome = run_sweep(
            [RunSpec("toy")],
            cache=ResultCache(str(tmp_path / "c")),
            registry=registry,
            backend=_backend(),
        )
        # Workers resolve scenarios by re-importing the built-ins, so a
        # custom registry must never reach them.
        assert outcome.backend == "serial"
        assert outcome.results[0].metrics["ok"] is True

    def test_empty_batch_launches_nothing(self):
        assert _backend().execute([]) == []
