"""Length-prefixed JSON framing for the distributed dispatch protocol.

The :class:`~repro.runner.distributed.DistributedBackend` and the remote
worker (:mod:`repro.runner.worker`) talk over byte pipes — a subprocess's
stdin/stdout locally, an SSH channel remotely.  Pipes have no message
boundaries, so every message is framed as::

    +----------------+----------------------------+
    | 4-byte big-    | UTF-8 JSON object,         |
    | endian length  | exactly <length> bytes     |
    +----------------+----------------------------+

JSON (not pickle) is deliberate: the payloads crossing this boundary are
the same plain dicts the result cache stores, the format is inspectable
with a hex dump, and a worker running a different repo revision can never
execute arbitrary unpickled code.  Every message is a JSON *object* with a
``"type"`` key; the protocol's message vocabulary lives with its speakers
(:mod:`repro.runner.worker` documents the worker side).

``PROTOCOL_VERSION`` is checked during the hello handshake so a scheduler
and a worker from incompatible revisions fail loudly instead of
misinterpreting each other's frames.

Fault injection: a process may install a chaos session
(:func:`install_chaos`, normally via :mod:`repro.testing.chaos`) that is
consulted for every frame written or read here.  The hooks live in the
wire layer — not in the scheduler or the worker — precisely so the code
under test cannot distinguish an injected fault from a real one: a
dropped frame is simply never written, a truncated frame really corrupts
the stream, a delayed frame really arrives late.
"""

from __future__ import annotations

import json
import struct
from typing import Any, BinaryIO, Dict, Optional

#: Version of the message vocabulary; bump on incompatible changes.  The
#: scheduler refuses workers whose hello carries a different version.
#: v2: welcome/lease handshake, work_batch/outcome_batch frames, join and
#: leave messages for the elastic pool.
#: v3: a batch of N >= 1 is the only work/result frame; the single-cell
#: work/outcome frames left the vocabulary.  Still v3: hello and welcome
#: no longer carry a ``lease`` token, nor the welcome a directory for
#: workers to persist outcomes in.  All three fields were optional in both
#: directions, so v3 peers from older checkouts interoperate: a ``lease``
#: such a worker presents is ignored and it joins as a new pool member.
#: v4: ``ping`` / ``pong`` left the vocabulary with their only sender.
PROTOCOL_VERSION = 4

#: Upper bound on one frame's JSON payload; its job is to turn a corrupt or
#: misaligned length prefix into an immediate WireError instead of a
#: multi-gigabyte read.  An outcome is ~2 KB by default but 100-650 KB with
#: ``REPRO_PROBES=1`` (its telemetry then carries the probe series), so a
#: large batch's outcomes can pass the bound: the worker splits its reply
#: into several ``outcome_batch`` frames (:mod:`repro.runner.worker`).
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class WireError(RuntimeError):
    """A malformed, truncated, or oversized frame on the wire."""


#: The process-wide chaos session, or None (the overwhelmingly common
#: case — one attribute read per frame is the whole overhead).
_CHAOS: Optional[Any] = None


def install_chaos(session: Optional[Any]) -> None:
    """Install (or with None, remove) the process's fault-injection session.

    The session must provide ``on_send(message, data) -> list[bytes]``
    and ``on_recv(message) -> bool``; see
    :class:`repro.testing.chaos.FaultSession`.
    """
    global _CHAOS
    _CHAOS = session


def chaos_session() -> Optional[Any]:
    """The installed fault-injection session, if any."""
    return _CHAOS


def encode_message(message: Dict[str, Any]) -> bytes:
    """Serialize one message to its framed byte form."""
    if not isinstance(message, dict):
        raise WireError(f"wire messages must be dicts, got {type(message).__name__}")
    data = json.dumps(message, separators=(",", ":"), sort_keys=True).encode("utf-8")
    if len(data) > MAX_MESSAGE_BYTES:
        raise WireError(f"message of {len(data)} bytes exceeds MAX_MESSAGE_BYTES")
    return _LENGTH.pack(len(data)) + data


def write_message(stream: BinaryIO, message: Dict[str, Any]) -> None:
    """Frame ``message`` onto ``stream`` and flush it.

    Callers sharing one stream across threads must serialize calls (the
    worker's heartbeat thread holds a lock for this) — a frame torn by an
    interleaved write is unrecoverable for the reader.

    With a chaos session installed the frame may be dropped (nothing
    written), duplicated, truncated, or delayed before it reaches the
    stream; the caller never knows.
    """
    data = encode_message(message)
    if _CHAOS is not None:
        for chunk in _CHAOS.on_send(message, data):
            stream.write(chunk)
    else:
        stream.write(data)
    stream.flush()


def _read_exact(stream: BinaryIO, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; ``None`` on clean EOF at a frame boundary."""
    chunks = []
    remaining = n
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            if remaining == n:
                return None
            raise WireError(
                f"stream ended mid-frame: wanted {n} bytes, got {n - remaining}"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_message(stream: BinaryIO) -> Optional[Dict[str, Any]]:
    """Read one framed message; ``None`` on clean EOF before a frame starts.

    EOF in the middle of a frame (a dead peer) raises :class:`WireError`,
    as does a length prefix beyond :data:`MAX_MESSAGE_BYTES` or a payload
    that is not a JSON object.
    """
    while True:
        header = _read_exact(stream, _LENGTH.size)
        if header is None:
            return None
        (length,) = _LENGTH.unpack(header)
        if length > MAX_MESSAGE_BYTES:
            raise WireError(f"frame length {length} exceeds MAX_MESSAGE_BYTES")
        payload = _read_exact(stream, length) if length else b""
        if payload is None:
            raise WireError("stream ended between a frame's length prefix and payload")
        try:
            message = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireError(f"undecodable frame payload: {exc}") from None
        if not isinstance(message, dict):
            raise WireError(
                f"frame payload is {type(message).__name__}, expected an object"
            )
        if _CHAOS is not None and not _CHAOS.on_recv(message):
            continue  # receive-side drop: the frame "never arrived"
        return message
