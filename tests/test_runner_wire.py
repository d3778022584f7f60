"""Wire-format and worker-protocol tests (in-process, bar one import check).

The framing layer is exercised over in-memory streams; the worker's
protocol loop is driven through :func:`repro.runner.worker.serve` with
``BytesIO`` stand-ins for stdin/stdout, so a full request/response cycle —
hello, ping, work_batch, outcome_batch, shutdown — runs in-process and fast.
"""

import io
import os
import subprocess
import sys

import pytest

from repro.runner import worker as worker_mod
from repro.runner.wire import (
    MAX_MESSAGE_BYTES,
    PROTOCOL_VERSION,
    WireError,
    encode_message,
    read_message,
    write_message,
)


def test_importing_wire_does_not_import_the_scheduler():
    # ``repro.runner`` re-exports nothing, so the 155-line framing module
    # must not pay for ``distributed`` (or anything else in the package).
    # Needs a fresh interpreter: this process imported the scheduler long ago.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = (
        "import sys; import repro.runner.wire; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "['repro.runner', 'repro.runner.wire']"


def _roundtrip(message):
    stream = io.BytesIO()
    write_message(stream, message)
    stream.seek(0)
    return read_message(stream)


class TestFraming:
    def test_roundtrip(self):
        message = {"type": "work_batch", "items": [{"index": 3, "params": {"rate": 24.0}}]}
        assert _roundtrip(message) == message

    def test_unicode_roundtrip(self):
        assert _roundtrip({"type": "x", "note": "µ-benchmark ±95%"}) == {
            "type": "x",
            "note": "µ-benchmark ±95%",
        }

    def test_multiple_messages_in_sequence(self):
        stream = io.BytesIO()
        for i in range(5):
            write_message(stream, {"i": i})
        stream.seek(0)
        assert [read_message(stream)["i"] for _ in range(5)] == list(range(5))
        assert read_message(stream) is None  # clean EOF at a boundary

    def test_eof_before_frame_is_none(self):
        assert read_message(io.BytesIO(b"")) is None

    def test_eof_mid_header_raises(self):
        with pytest.raises(WireError, match="mid-frame"):
            read_message(io.BytesIO(b"\x00\x00"))

    def test_eof_mid_payload_raises(self):
        data = encode_message({"type": "x"})
        with pytest.raises(WireError, match="mid-frame|between"):
            read_message(io.BytesIO(data[:-1]))

    def test_oversized_length_prefix_rejected(self):
        bogus = (MAX_MESSAGE_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(WireError, match="exceeds"):
            read_message(io.BytesIO(bogus))

    def test_non_object_payload_rejected(self):
        payload = b"[1,2,3]"
        framed = len(payload).to_bytes(4, "big") + payload
        with pytest.raises(WireError, match="expected an object"):
            read_message(io.BytesIO(framed))

    def test_undecodable_payload_rejected(self):
        payload = b"\xff\xfe not json"
        framed = len(payload).to_bytes(4, "big") + payload
        with pytest.raises(WireError, match="undecodable"):
            read_message(io.BytesIO(framed))

    def test_non_dict_message_rejected_on_encode(self):
        with pytest.raises(WireError, match="must be dicts"):
            encode_message(["not", "a", "dict"])


def _drive_worker(*messages, heartbeat_s=0.0):
    """Run the worker loop over the given inbound messages; parse replies."""
    stdin = io.BytesIO()
    for message in messages:
        write_message(stdin, message)
    stdin.seek(0)
    stdout = io.BytesIO()
    code = worker_mod.serve(stdin, stdout, heartbeat_s=heartbeat_s)
    stdout.seek(0)
    replies = []
    while True:
        reply = read_message(stdout)
        if reply is None:
            return code, replies
        replies.append(reply)


class TestWorkerProtocol:
    def test_hello_then_clean_shutdown(self):
        code, replies = _drive_worker({"type": "shutdown"})
        assert code == 0
        assert replies[0]["type"] == "hello"
        assert replies[0]["protocol"] == PROTOCOL_VERSION
        assert replies[0]["scenarios"] >= 16

    def test_eof_is_a_clean_shutdown(self):
        code, replies = _drive_worker()  # no messages at all
        assert code == 0
        assert [r["type"] for r in replies] == ["hello"]

    def test_work_produces_validated_outcome(self):
        code, replies = _drive_worker(
            {
                "type": "work_batch",
                "items": [{
                    "index": 5,
                    "scenario": "ablation_pi_gains",
                    "params": {"alpha": 5.0, "beta": 10.0},
                    "seed": 0,
                }],
            },
            {"type": "shutdown"},
        )
        assert code == 0
        assert replies[1]["type"] == "outcome_batch"
        (outcome,) = replies[1]["outcomes"]  # a batch of one is still a batch
        assert outcome["index"] == 5
        assert outcome["error"] is None
        assert outcome["payload"]["metrics"]["settled"] in (True, False)

    def test_scenario_failure_travels_as_outcome_not_crash(self):
        code, replies = _drive_worker(
            {
                "type": "work_batch",
                "items": [{"index": 0, "scenario": "no_such_scenario", "params": {}, "seed": 1}],
            },
            {"type": "shutdown"},
        )
        assert code == 0  # the worker survives to serve the next item
        (outcome,) = replies[1]["outcomes"]
        assert outcome["payload"] is None
        assert "no_such_scenario" in outcome["error"]

    @staticmethod
    def _batch(n):
        return {
            "type": "work_batch",
            "items": [
                {"index": i, "scenario": "ablation_pi_gains",
                 "params": {"alpha": 5.0, "beta": 10.0 + i}, "seed": 0}
                for i in range(n)
            ],
        }

    def test_reply_that_outgrows_the_bound_is_split_across_frames(self, monkeypatch):
        # At the real bound a 4-item batch is one reply frame ...
        code, replies = _drive_worker(self._batch(4), {"type": "shutdown"})
        (whole,) = replies[1:]
        assert code == 0 and len(whole["outcomes"]) == 4
        # ... under a bound the whole reply cannot fit (as REPRO_PROBES=1
        # outcomes eventually cannot), every outcome still comes home, in
        # several frames, and the worker lives to see the shutdown.
        # _drive_worker reads the replies under the same bound.
        bound = len(encode_message(whole)) * 3 // 4
        monkeypatch.setattr("repro.runner.wire.MAX_MESSAGE_BYTES", bound)
        code, replies = _drive_worker(self._batch(4), {"type": "shutdown"})
        assert code == 0
        frames = replies[1:]
        assert len(frames) >= 2 and {f["type"] for f in frames} == {"outcome_batch"}
        outcomes = [o for f in frames for o in f["outcomes"]]
        assert [o["index"] for o in outcomes] == [0, 1, 2, 3]
        assert all(o["error"] is None for o in outcomes)
        assert [o["payload"] for o in outcomes] == [o["payload"] for o in whole["outcomes"]]

    def test_outcome_too_large_for_any_frame_travels_as_an_error_outcome(self, monkeypatch):
        monkeypatch.setattr("repro.runner.wire.MAX_MESSAGE_BYTES", 600)
        code, replies = _drive_worker(self._batch(1), self._batch(0), {"type": "shutdown"})
        assert code == 0
        assert [r["type"] for r in replies] == ["hello", "outcome_batch", "outcome_batch"]
        assert replies[2]["outcomes"] == []  # still serving afterwards
        (outcome,) = replies[1]["outcomes"]
        assert outcome["index"] == 0 and outcome["payload"] is None
        assert "exceeds MAX_MESSAGE_BYTES" in outcome["error"]

    def test_malformed_work_item_reported_not_fatal(self):
        # A skewed scheduler sending an item without index/scenario must
        # get an error frame back, not a dead pipe.
        code, replies = _drive_worker(
            {"type": "work_batch", "items": [{}]},
            self._batch(0),
            {"type": "shutdown"},
        )
        assert code == 0
        assert replies[1]["type"] == "error"
        assert "malformed work item" in replies[1]["error"]
        assert replies[2] == {"type": "outcome_batch", "outcomes": []}
        assert replies[3] == replies[2]  # still serving afterwards

    def test_retired_frame_types_get_typed_errors(self):
        # "work" left the vocabulary in v3 and "ping" in v4: an older
        # scheduler's frame is answered with an error frame, never a crash
        # or a hang, and the worker keeps serving.
        code, replies = _drive_worker(
            {"type": "work",
             "item": {"index": 0, "scenario": "ablation_pi_gains", "params": {}, "seed": 1}},
            {"type": "ping"},
            self._batch(0),
            {"type": "shutdown"},
        )
        assert code == 0
        assert [r["type"] for r in replies] == ["hello", "error", "error", "outcome_batch"]
        assert "unknown message type 'work'" in replies[1]["error"]
        assert "unknown message type 'ping'" in replies[2]["error"]

    def test_unknown_message_type_reported_not_fatal(self):
        code, replies = _drive_worker({"type": "dance"}, {"type": "shutdown"})
        assert code == 0
        assert replies[1]["type"] == "error"
        assert "dance" in replies[1]["error"]
