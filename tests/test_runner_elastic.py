"""Elastic-pool mechanics, driven by scripted in-process TCP workers.

Every test here speaks the wire protocol directly at a listening
scheduler — no subprocesses, no timing luck.  A :class:`ScriptedWorker`
connects to ``backend.endpoint``, performs the hello/welcome handshake,
and answers work frames with *synthesized* deterministic outcomes, so
each test scripts an exact sequence of pool events (join, serve, blip,
redial, leave) and asserts the scheduler's telemetry frame by frame.

The pool contract under test:

* joins are admitted mid-sweep and handed work immediately;
* a worker that leaves, or whose connection drops, departs: stats freeze
  with ``departed: true`` and its cells re-route at once;
* a redial is a join: the worker is admitted as a new pool member, and
  what it was handed under its old membership is not its to deliver —
  replaying it gets the newcomer quarantined;
* a result frame that arrives twice on a worker's own connection is
  deduplicated via ``past_indices`` — recorded as
  ``duplicate_outcomes``, never a quarantine.
"""

import os
import socket
import threading

import pytest

from repro.runner.backends import WorkItem
from repro.runner.distributed import DistributedBackend
from repro.runner.wire import PROTOCOL_VERSION, read_message, write_message

pytestmark = pytest.mark.distributed


def _items(n=4):
    return [
        WorkItem(index=i, scenario="synthetic", params={"k": float(i)}, seed=100 + i)
        for i in range(n)
    ]


def _synth_payload(item):
    # Any deterministic function of the item works: the scheduler treats
    # payloads as opaque; parity just needs reproducibility.
    return {"metrics": {"v": item["seed"] + item["params"]["k"]}}


def _backend(**kwargs):
    kwargs.setdefault("listen", True)
    kwargs.setdefault("join_grace_s", 10.0)
    kwargs.setdefault("heartbeat_s", 0.0)
    kwargs.setdefault("worker_timeout_s", 10.0)
    kwargs.setdefault("poll_s", 0.005)
    return DistributedBackend((), **kwargs)


class ScriptedWorker:
    """A test-controlled wire peer: connects, hellos, serves on command."""

    def __init__(self, endpoint, *, protocol=PROTOCOL_VERSION, host="scripted"):
        self.sock = socket.create_connection(endpoint, timeout=10)
        self.sock.settimeout(10)
        self.reader = self.sock.makefile("rb")
        self.writer = self.sock.makefile("wb")
        self.send({
            "type": "hello",
            "protocol": protocol,
            "pid": os.getpid(),
            "host": host,
            "python": "scripted",
            "scenarios": 0,
        })

    def send(self, message):
        write_message(self.writer, message)

    def read(self):
        return read_message(self.reader)

    def expect(self, kind):
        message = self.read()
        assert message is not None and message.get("type") == kind, (
            f"expected {kind!r}, got {message!r}"
        )
        return message

    def take_work(self):
        """Read frames until a work_batch arrives; return its items."""
        while True:
            message = self.read()
            assert message is not None, "connection closed while awaiting work"
            kind = message.get("type")
            if kind == "work_batch":
                return message["items"]
            if kind != "heartbeat":
                raise AssertionError(f"unexpected frame while awaiting work: {message!r}")

    def reply(self, items):
        outcomes = [
            {"index": item["index"], "payload": _synth_payload(item),
             "elapsed_s": 0.0, "error": None}
            for item in items
        ]
        self.send({"type": "outcome_batch", "outcomes": outcomes})

    def serve_until_shutdown(self):
        while True:
            message = self.read()
            if message is None:
                return
            kind = message.get("type")
            if kind == "work_batch":
                self.reply(message["items"])
            elif kind == "shutdown":
                return
            # welcome re-sends, heartbeats: ignore

    def close(self):
        for closeable in (self.reader, self.writer, self.sock):
            try:
                closeable.close()
            except OSError:
                pass


class _Sweep:
    """Runs ``backend.execute`` on a thread so the test scripts the pool."""

    def __init__(self, backend, items):
        self.outcomes = []
        self._thread = threading.Thread(
            target=lambda: self.outcomes.extend(backend.execute(items)), daemon=True
        )
        self._thread.start()

    def finish(self):
        self._thread.join(timeout=30)
        assert not self._thread.is_alive(), "sweep did not complete"
        return self.outcomes


def _assert_complete(outcomes, items):
    assert len(outcomes) == len(items)
    for item, outcome in zip(items, outcomes):
        assert outcome.error is None, outcome.error
        assert outcome.payload == _synth_payload(
            {"index": item.index, "seed": item.seed, "params": item.params}
        )


class TestPoolConstruction:
    def test_zero_hosts_requires_listen(self):
        with pytest.raises(ValueError, match="listen"):
            DistributedBackend(())

    def test_listen_binds_eagerly_and_close_releases(self):
        backend = _backend()
        host, port = backend.endpoint
        assert port > 0
        # The port is really bound: a second bind must fail while open.
        probe = socket.socket()
        with pytest.raises(OSError):
            probe.bind((host, port))
        probe.close()
        backend.close()


class TestElasticJoin:
    def test_scripted_worker_joins_and_completes(self):
        items = _items(4)
        backend = _backend(batch_size=2)
        try:
            sweep = _Sweep(backend, items)
            worker = ScriptedWorker(backend.endpoint)
            welcome = worker.expect("welcome")
            assert welcome["protocol"] == PROTOCOL_VERSION
            assert welcome["worker"] == 0
            worker.serve_until_shutdown()
            _assert_complete(sweep.finish(), items)
            telemetry = backend.telemetry()
            assert telemetry["joined"] == 1
            assert telemetry["quarantined"] == 0
        finally:
            backend.close()

    def test_batch_size_shapes_work_frames(self):
        items = _items(4)
        backend = _backend(batch_size=4)
        try:
            sweep = _Sweep(backend, items)
            worker = ScriptedWorker(backend.endpoint)
            worker.expect("welcome")
            batch = worker.take_work()
            assert len(batch) == 4  # one frame for the whole grid
            worker.reply(batch)
            worker.serve_until_shutdown()
            _assert_complete(sweep.finish(), items)
        finally:
            backend.close()

    def test_one_batch_answered_in_two_partial_frames_completes(self):
        # A worker whose outcomes outgrow the frame bound (REPRO_PROBES=1)
        # answers one work_batch with several outcome_batch frames; the
        # scheduler takes a reply one outcome at a time, hands the worker
        # no new work until its last item is home, and punishes nobody.
        items = _items(4)
        backend = _backend(batch_size=4)
        try:
            sweep = _Sweep(backend, items)
            worker = ScriptedWorker(backend.endpoint)
            worker.expect("welcome")
            batch = worker.take_work()
            assert len(batch) == 4
            worker.reply(batch[:3])
            worker.reply(batch[3:])
            worker.serve_until_shutdown()
            _assert_complete(sweep.finish(), items)
            telemetry = backend.telemetry()
            assert telemetry["quarantined"] == 0
            assert telemetry["requeued"] == 0 and telemetry["duplicate_outcomes"] == 0
            (stats,) = telemetry["workers"].values()
            assert stats["completed"] == 4 and stats["batches"] == 1
        finally:
            backend.close()

    def test_protocol_mismatch_rejected_at_the_door(self):
        items = _items(2)
        backend = _backend(join_grace_s=5.0)
        try:
            sweep = _Sweep(backend, items)
            # A worker from the future, and a v2 worker from before the
            # single-cell frames left the vocabulary: same refusal.
            for protocol in (PROTOCOL_VERSION + 1, 2):
                stranger = ScriptedWorker(backend.endpoint, protocol=protocol)
                error = stranger.expect("error")
                assert error["error"] == (
                    f"protocol mismatch (worker {protocol}, scheduler {PROTOCOL_VERSION})"
                )
                assert stranger.read() is None  # scheduler hung up
                stranger.close()
            # The pool is unharmed: a conforming worker completes the sweep.
            worker = ScriptedWorker(backend.endpoint)
            worker.expect("welcome")
            worker.serve_until_shutdown()
            _assert_complete(sweep.finish(), items)
            assert backend.telemetry()["joined"] == 1
        finally:
            backend.close()

    def test_nobody_joins_yields_error_outcomes(self):
        items = _items(2)
        backend = _backend(join_grace_s=0.2)
        try:
            outcomes = backend.execute(items)
            assert all(o.error is not None for o in outcomes)
        finally:
            backend.close()


class TestLeaveAndLeases:
    def test_leave_departs_with_frozen_stats(self):
        items = _items(4)
        backend = _backend(batch_size=2)
        try:
            sweep = _Sweep(backend, items)
            quitter = ScriptedWorker(backend.endpoint, host="quitter")
            quitter.expect("welcome")
            first = quitter.take_work()
            quitter.reply(first)
            quitter.send({"type": "leave"})
            quitter.close()
            finisher = ScriptedWorker(backend.endpoint, host="finisher")
            finisher.expect("welcome")
            finisher.serve_until_shutdown()
            _assert_complete(sweep.finish(), items)
            telemetry = backend.telemetry()
            assert telemetry["departed"] == 1
            stats = next(w for w in telemetry["workers"].values()
                         if w["host"] == "quitter")
            assert stats["departed"] is True
            assert stats["completed"] == len(first)
            assert "left the pool" in stats["departed_reason"]
        finally:
            backend.close()


class TestRedial:
    def test_dropped_connection_departs_and_a_redial_joins_anew(self):
        items = _items(4)
        backend = _backend(batch_size=2)
        try:
            sweep = _Sweep(backend, items)
            worker = ScriptedWorker(backend.endpoint, host="blippy")
            assert worker.expect("welcome")["worker"] == 0
            worker.take_work()  # hold the batch, then vanish mid-flight
            worker.close()
            # The pool is empty now; join_grace_s is the window for this.
            redial = ScriptedWorker(backend.endpoint, host="blippy")
            assert redial.expect("welcome")["worker"] == 1  # a new member
            redial.serve_until_shutdown()
            _assert_complete(sweep.finish(), items)
            telemetry = backend.telemetry()
            assert (telemetry["joined"], telemetry["departed"]) == (2, 1)
            assert telemetry["quarantined"] == 0
            assert telemetry["requeued"] == 2  # the vanished batch re-queued
            old, new = telemetry["workers"]["blippy/0"], telemetry["workers"]["blippy/1"]
            assert old["departed"] is True and old["completed"] == 0
            assert "disconnected" in old["departed_reason"]
            assert new["completed"] == len(items)
        finally:
            backend.close()

    def test_stranger_replaying_a_batch_it_was_never_handed_is_quarantined(self):
        items = _items(4)
        backend = _backend(batch_size=2)
        try:
            sweep = _Sweep(backend, items)
            worker = ScriptedWorker(backend.endpoint, host="veteran")
            worker.expect("welcome")
            batch = worker.take_work()
            worker.reply(batch)
            worker.close()
            # Same machine, new connection: to the scheduler a stranger.
            stranger = ScriptedWorker(backend.endpoint, host="veteran")
            stranger.expect("welcome")
            stranger.reply(batch)
            finisher = ScriptedWorker(backend.endpoint, host="finisher")
            finisher.expect("welcome")
            finisher.serve_until_shutdown()
            _assert_complete(sweep.finish(), items)
            telemetry = backend.telemetry()
            assert telemetry["quarantined"] == 1
            assert telemetry["duplicate_outcomes"] == 0
            reason = telemetry["workers"]["veteran/1"]["quarantine_reason"]
            assert reason.startswith("returned outcome for unassigned index")
        finally:
            backend.close()

    def test_result_frame_delivered_twice_is_deduped_not_punished(self):
        items = _items(4)
        backend = _backend(batch_size=2)
        try:
            sweep = _Sweep(backend, items)
            worker = ScriptedWorker(backend.endpoint)
            worker.expect("welcome")
            batch = worker.take_work()
            worker.reply(batch)
            # The same frame again on the same connection — legitimate via
            # past_indices, absorbed by the determinism contract.
            worker.reply(batch)
            worker.serve_until_shutdown()
            _assert_complete(sweep.finish(), items)
            telemetry = backend.telemetry()
            assert telemetry["duplicate_outcomes"] == len(batch)
            assert telemetry["quarantined"] == 0
        finally:
            backend.close()
