"""Golden wire conversations: the protocol's shape, pinned to disk.

Each golden under ``tests/golden/wire/`` is one complete scheduler↔worker
conversation — the frames a scheduler sends and the (normalized) frames
the worker answers with — replayed here through the *real* worker loop
(:func:`repro.runner.worker.serve`) over in-memory streams.  Volatile
fields (pid, hostname, payload bytes, timings) are normalized to
placeholders; everything structural — frame order, frame types, key
sets, protocol numbers — must match the committed file byte-for-byte.

Changing the protocol therefore fails twice, on purpose: the RPR040
wire-snapshot lint catches vocabulary drift at the source level, and
these goldens catch behavioral drift (a frame gained/lost/reordered) at
the conversation level.  Both expect a :data:`PROTOCOL_VERSION` bump for
incompatible changes; regenerate the goldens with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_wire_golden.py

and commit the diff alongside the version bump.
"""

import io
import json
import os
from pathlib import Path

import pytest

from repro.runner import worker as worker_mod
from repro.runner.wire import PROTOCOL_VERSION, read_message, write_message
from repro.testing import chaos

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "wire"
REGEN = bool(os.environ.get("REPRO_REGEN_GOLDEN"))

# A work item whose outcome is deterministic *and* structurally complete:
# an unknown scenario travels the whole execute path and comes back as an
# error outcome without depending on any scenario's numerics.
_ERROR_ITEM = {"index": 7, "scenario": "golden_nonexistent", "params": {}, "seed": 3}
# A real, fast scenario for the success-outcome conversation.
_REAL_ITEM = {
    "index": 2,
    "scenario": "ablation_pi_gains",
    "params": {"alpha": 5.0, "beta": 10.0},
    "seed": 1,
}

# A chaos plan that activates but can never fire — the golden pins the
# in-band delivery handshake, not the faults.
_INERT_PLAN = {"seed": 1, "rules": [{"action": "drop", "point": "send",
                                     "message_type": "_golden_never", "nth": 1,
                                     "probability": 1.0, "count": 1,
                                     "delay_s": 0.05, "truncate_to": 6,
                                     "stall_s": 3600.0}]}


def _normalize(frame):
    """Replace machine-volatile values; keep every key and all structure."""
    out = {}
    for key, value in sorted(frame.items()):
        if key in ("pid", "host", "python", "scenarios"):
            out[key] = f"<{key}>"
        elif key == "elapsed_s":
            out[key] = "<elapsed_s>"
        elif key == "error" and value is not None:
            out[key] = "<error>"
        elif key == "payload" and value is not None:
            out[key] = "<payload>"
        elif key == "telemetry" and value is not None:
            out[key] = "<telemetry>"
        elif key == "outcomes":
            out[key] = [_normalize(o) for o in value]
        else:
            out[key] = value
    return out


def _converse(scheduler_frames):
    """Drive the real worker loop over a scripted scheduler side."""
    stdin = io.BytesIO()
    for frame in scheduler_frames:
        write_message(stdin, frame)
    stdin.seek(0)
    stdout = io.BytesIO()
    code = worker_mod.serve(stdin, stdout)
    assert code == 0
    stdout.seek(0)
    replies = []
    while True:
        reply = read_message(stdout)
        if reply is None:
            break
        replies.append(_normalize(reply))
    return replies


def _check(name, scheduler_frames, worker_frames):
    conversation = {
        "protocol": PROTOCOL_VERSION,
        "scheduler": [_normalize(f) for f in scheduler_frames],
        "worker": worker_frames,
    }
    path = GOLDEN_DIR / f"{name}.json"
    if REGEN:
        path.write_text(json.dumps(conversation, indent=2, sort_keys=True) + "\n")
        return
    committed = json.loads(path.read_text())
    assert committed["protocol"] == PROTOCOL_VERSION, (
        f"{path.name} was recorded against protocol {committed['protocol']}; "
        f"regenerate goldens for the bump to {PROTOCOL_VERSION}"
    )
    assert committed == conversation, (
        f"wire conversation {name!r} drifted from its golden; if intentional, "
        f"bump PROTOCOL_VERSION as needed and regenerate with "
        f"REPRO_REGEN_GOLDEN=1"
    )


class TestGoldenConversations:
    def test_hello_welcome(self):
        scheduler = [
            {"type": "welcome", "protocol": PROTOCOL_VERSION, "worker": 0},
            {"type": "shutdown"},
        ]
        _check("hello_welcome", scheduler, _converse(scheduler))

    def test_work_batch(self):
        # A mixed batch: one real cell, one failing cell — a single
        # outcome_batch reply carrying both, order preserved.  Then a
        # batch of one: the same frame shape, not a special case.
        scheduler = [
            {"type": "welcome", "protocol": PROTOCOL_VERSION, "worker": 0},
            {"type": "work_batch", "items": [_REAL_ITEM, _ERROR_ITEM]},
            {"type": "work_batch", "items": [_ERROR_ITEM]},
            {"type": "shutdown"},
        ]
        _check("work_batch", scheduler, _converse(scheduler))

    def test_chaos_welcome(self):
        # In-band fault-plan delivery: the worker activates the plan on
        # receipt; the conversation itself is fault-free (inert plan).
        try:
            scheduler = [
                {"type": "welcome", "protocol": PROTOCOL_VERSION,
                 "worker": 0, "chaos": _INERT_PLAN},
                {"type": "work_batch", "items": [_ERROR_ITEM]},
                {"type": "shutdown"},
            ]
            worker_frames = _converse(scheduler)
            _check("chaos_welcome", scheduler, worker_frames)
            from repro.runner import wire

            session = wire.chaos_session()
            assert session is not None and session.worker_index == 0
        finally:
            chaos.deactivate()

    def test_goldens_all_pinned_to_current_protocol(self):
        if REGEN:
            pytest.skip("regenerating")
        names = sorted(p.stem for p in GOLDEN_DIR.glob("*.json"))
        assert names == ["chaos_welcome", "hello_welcome", "work_batch"]
        for name in names:
            committed = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
            assert committed["protocol"] == PROTOCOL_VERSION
