"""``python -m repro.runner.worker`` — the remote end of distributed dispatch.

A worker is a long-lived process that executes sweep cells for the
:class:`~repro.runner.distributed.DistributedBackend`.  It reaches its
scheduler one of two ways:

* **launched** — the scheduler spawns it on each execution slot (directly
  via :class:`LocalSubprocessTransport`, or through ``ssh`` via
  :class:`SSHTransport`) and speaks over stdin/stdout;
* **joined** — it connects to a scheduler's listening endpoint
  (``--connect host:port``, surfaced as ``repro-runner workers join``)
  and speaks over the socket.  Joined workers are *elastic*: they can
  arrive mid-sweep, leave gracefully, and survive a connection blip by
  redialling — the scheduler admits the new connection as a new pool
  member and re-queues what the old one held.

Either way the conversation is the length-prefixed JSON protocol of
:mod:`repro.runner.wire`:

* on every connection it sends ``{"type": "hello", "protocol": ...,
  "pid": ..., "host": ..., "python": ..., "scenarios": N}`` after
  re-importing :mod:`repro.experiments.catalog` (the registry travels as *code*,
  never as pickled state);
* the scheduler replies ``{"type": "welcome", "protocol": ..., "worker":
  site}``, optionally carrying a ``chaos`` fault plan
  (:mod:`repro.testing.chaos`) which the worker activates — in-band
  delivery is how fault-injection tests reach launched workers without
  touching the transport;
* for ``{"type": "work_batch", "items": [{...}, ...]}`` — one cell or
  many, the only work frame — it resolves each scenario, runs it via
  :func:`repro.runner.backends.execute_item` (which validates fresh
  metrics against the scenario's
  :class:`~repro.runner.schema.MetricSchema`), and replies
  ``{"type": "outcome_batch", "outcomes": [{...}, ...]}`` in item order:
  one frame, unless the outcomes gathered so far would pass a quarter of
  :data:`~repro.runner.wire.MAX_MESSAGE_BYTES` (``REPRO_PROBES=1`` makes
  an outcome hundreds of KB), in which case they go out and the rest
  follow in further ``outcome_batch`` frames — the scheduler takes a reply
  one outcome at a time either way.  Failures travel *inside* outcomes
  (``error`` carries the traceback, or says that the outcome alone was
  too large to frame), never as a dead pipe; a frame type the worker does
  not know is answered with an ``error`` frame and the worker keeps
  serving;
* while a cell or batch runs, a daemon thread emits ``{"type":
  "heartbeat"}`` every ``--heartbeat-s`` seconds so the scheduler can
  tell "slow cell" from "hung worker";
* ``{"type": "shutdown"}`` (or EOF) ends the process; a worker departing
  on its own terms sends ``{"type": "leave"}`` first so the scheduler
  retires it at once instead of waiting to notice the closed connection.

stdout carries *only* wire frames: ``sys.stdout`` is rebound to stderr for
the worker's lifetime, so a scenario that prints cannot corrupt the frame
stream.  The worker never touches the result cache — outcomes flow back to
the scheduling host, which owns the single shared ``.repro-cache/``.

Fault injection (tests and CI drills) has one path: a
:mod:`repro.testing.chaos` fault plan, activated via the welcome frame
or ``REPRO_CHAOS_PLAN``, consulted by the wire layer at every frame.
"""

from __future__ import annotations

import argparse
import os
import platform
import socket
import sys
import threading
import time
from dataclasses import asdict
from typing import Any, BinaryIO, Dict, Optional, Sequence, Tuple

from repro.runner import wire
from repro.runner.backends import WorkItem, execute_item
from repro.runner.wire import (
    PROTOCOL_VERSION,
    WireError,
    encode_message,
    read_message,
    write_message,
)


class _Heartbeat:
    """Daemon thread beating ``{"type": "heartbeat"}`` while a batch runs
    (a non-positive interval beats never)."""

    def __init__(self, send, interval_s: float) -> None:
        self._send = send
        self._interval_s = interval_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            try:
                self._send({"type": "heartbeat"})
            except (OSError, ValueError):
                return  # peer hung up; the main loop will notice on its own

    def __enter__(self) -> "_Heartbeat":
        if self._interval_s > 0:
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=2.0)


def _maybe_activate_env_chaos() -> None:
    # Lazy import: repro.testing is test-support code; a production worker
    # with no chaos configured never loads it.
    if os.environ.get("REPRO_CHAOS_PLAN"):
        from repro.testing import chaos

        chaos.activate_from_env()


def _handle_welcome(message: Dict[str, Any], state: Dict[str, Any]) -> None:
    """Adopt the scheduler's welcome: note the admission, activate chaos."""
    state["welcomed"] = True
    plan = message.get("chaos")
    # Once per process: a redial is admitted under a new site index, and
    # a session made for it would let spent ``count=1`` rules fire again.
    if plan and not state.get("chaos_active"):
        from repro.testing import chaos

        site = message.get("worker")
        chaos.activate(
            chaos.FaultPlan.from_dict(plan),
            site=f"worker{site}" if site is not None else "worker",
            worker_index=site if isinstance(site, int) else None,
        )
        state["chaos_active"] = True


def _reply(outcomes) -> Dict[str, Any]:
    return {"type": "outcome_batch", "outcomes": outcomes}


def _framed(outcome: Dict[str, Any]) -> Tuple[Dict[str, Any], int]:
    """``outcome`` and the size of the frame that would carry it alone.

    That size bounds what the outcome adds to a frame it shares.  An
    outcome no frame can hold comes back as an error outcome for its index.
    """
    try:
        return outcome, len(encode_message(_reply([outcome])))
    except WireError as exc:
        outcome = {**outcome, "payload": None, "telemetry": None,
                   "error": f"outcome could not be sent: {exc}"}
        return outcome, len(encode_message(_reply([outcome])))


def serve(
    stdin: BinaryIO,
    stdout: BinaryIO,
    *,
    heartbeat_s: float = 0.0,
    leave_after: int = 0,
    state: Optional[Dict[str, Any]] = None,
) -> int:
    """Run the worker protocol until shutdown/EOF; returns the exit code.

    Factored from :func:`main` so tests can drive a worker over in-memory
    streams without spawning a process.  ``state`` (shared across
    reconnects by :func:`connect_and_serve`) remembers that the worker was
    welcomed and that it activated a chaos plan; ``state["exit_reason"]``
    reports why the call returned — ``"shutdown"``, ``"eof"``,
    ``"leave"``, ``"wire_error"``, or ``"conn_lost"``.
    """
    from repro.runner.registry import load_builtin_scenarios

    state = state if state is not None else {}
    _maybe_activate_env_chaos()
    registry = load_builtin_scenarios()
    send_lock = threading.Lock()

    def send(message) -> None:
        with send_lock:
            write_message(stdout, message)

    def run_item(raw: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Execute one wire-form item; None (plus an error frame) if malformed."""
        nonlocal served
        try:
            item = WorkItem(
                index=raw["index"],
                scenario=raw["scenario"],
                params=raw.get("params") or {},
                seed=raw.get("seed", 0),
            )
        except (KeyError, TypeError) as exc:
            # Contract: failures travel inside frames, never as a dead pipe
            # — even for a scheduler speaking a skewed item layout.
            send({"type": "error", "error": f"malformed work item {raw!r}: {exc!r}"})
            return None
        outcome = asdict(execute_item(item))
        served += 1
        return outcome

    # Everything after the protocol is this worker's environment report; the
    # scheduler keeps it in worker_stats (`workers doctor` prints it).
    hello: Dict[str, Any] = {
        "type": "hello",
        "protocol": PROTOCOL_VERSION,
        "pid": os.getpid(),
        "host": socket.gethostname(),
        "python": platform.python_version(),
        "scenarios": len(registry),
    }
    try:
        send(hello)
    except (OSError, ValueError):
        state["exit_reason"] = "conn_lost"
        return 1
    served = 0
    try:
        while True:
            try:
                message = read_message(stdin)
            except WireError as exc:
                state["exit_reason"] = "wire_error"
                try:
                    send({"type": "error", "error": f"unreadable frame: {exc}"})
                except (OSError, ValueError):
                    pass
                return 1
            if message is None:
                state["exit_reason"] = "eof"
                return 0
            kind = message.get("type")
            if kind == "shutdown":
                state["exit_reason"] = "shutdown"
                return 0
            if kind == "welcome":
                _handle_welcome(message, state)
                continue
            if kind != "work_batch":
                send({"type": "error", "error": f"unknown message type {kind!r}"})
                continue
            # One reply frame per batch — the framing amortization the
            # batch exists for — until its outcomes would pass the budget.
            budget = wire.MAX_MESSAGE_BYTES // 4
            outcomes, gathered = [], 0
            with _Heartbeat(send, heartbeat_s):
                for raw in message.get("items") or []:
                    outcome = run_item(raw)
                    if outcome is None:
                        continue
                    outcome, size = _framed(outcome)
                    if outcomes and gathered + size > budget:
                        send(_reply(outcomes))
                        outcomes, gathered = [], 0
                    outcomes.append(outcome)
                    gathered += size
            send(_reply(outcomes))
            if leave_after and served >= leave_after:
                send({"type": "leave"})
                state["exit_reason"] = "leave"
                return 0
    except (OSError, ValueError):
        # The peer vanished mid-conversation (broken pipe / reset /
        # closed stream).  Joined workers redial and join again.
        state["exit_reason"] = "conn_lost"
        return 1


def parse_endpoint(text: str) -> Tuple[str, int]:
    """Parse a ``host:port`` endpoint (bare port means 127.0.0.1)."""
    text = text.strip()
    host, sep, raw_port = text.rpartition(":")
    if not sep:
        host, raw_port = "", text
    host = host.strip("[]") or "127.0.0.1"
    try:
        port = int(raw_port)
    except ValueError:
        raise ValueError(f"bad endpoint {text!r} (expected 'host:port')") from None
    if not 0 < port < 65536:
        raise ValueError(f"bad endpoint {text!r}: port out of range")
    return host, port


def connect_and_serve(
    address: Tuple[str, int],
    *,
    heartbeat_s: float = 2.0,
    leave_after: int = 0,
    reconnect_s: float = 10.0,
    retry_delay_s: float = 0.2,
) -> int:
    """Join a scheduler's endpoint and serve; redial on blips.

    Each outage (including the scheduler not accepting yet at startup)
    opens a fresh ``reconnect_s`` window of connection attempts.  A worker
    that has been welcomed once redials whenever its connection ends
    without a ``shutdown`` or its own ``leave``; the scheduler admits the
    new connection as a new pool member, having re-queued whatever the
    old one held.
    """
    state: Dict[str, Any] = {}
    while True:
        window_ends = time.monotonic() + reconnect_s
        sock = None
        while sock is None:
            try:
                sock = socket.create_connection(address, timeout=reconnect_s)
            except OSError:
                if time.monotonic() >= window_ends:
                    print(
                        f"worker: could not reach scheduler at {address[0]}:{address[1]} "
                        f"within {reconnect_s:.0f}s; giving up",
                        file=sys.stderr,
                    )
                    return 1
                time.sleep(retry_delay_s)
        sock.settimeout(None)
        reader = sock.makefile("rb")
        writer = sock.makefile("wb")
        try:
            code = serve(
                reader,
                writer,
                heartbeat_s=heartbeat_s,
                leave_after=leave_after,
                state=state,
            )
        except KeyboardInterrupt:
            try:
                write_message(writer, {"type": "leave"})
            except (OSError, ValueError):
                pass
            return 0
        finally:
            for closeable in (reader, writer, sock):
                try:
                    closeable.close()
                except OSError:
                    pass
        reason = state.get("exit_reason")
        if reason in ("shutdown", "leave"):
            return code
        if not state.get("welcomed"):
            return code
        # Connection lost after an admission: loop and join again.


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-runner-worker",
        description="Distributed-sweep worker process (launched by DistributedBackend, "
        "or joining a scheduler endpoint with --connect).",
    )
    parser.add_argument(
        "--heartbeat-s", type=float, default=2.0, metavar="SECONDS",
        help="heartbeat interval while a cell runs (0 disables; default: 2.0)",
    )
    parser.add_argument(
        "--connect", metavar="HOST:PORT", default=None,
        help="join the scheduler listening at HOST:PORT instead of serving stdio",
    )
    parser.add_argument(
        "--leave-after", type=int, default=0, metavar="N",
        help="serve N cells, then leave the pool gracefully (0 = stay; "
        "mainly for elasticity tests and bounded borrowed capacity)",
    )
    parser.add_argument(
        "--reconnect-s", type=float, default=10.0, metavar="SECONDS",
        help="with --connect: keep retrying a lost connection this long "
        "before giving up (default: 10.0)",
    )
    args = parser.parse_args(argv)
    # Anything the scenarios (or stray library code) print must not tear
    # the frame stream — stdout is for wire messages only.
    stdin = sys.stdin.buffer
    stdout = sys.stdout.buffer
    sys.stdout = sys.stderr
    if args.connect:
        return connect_and_serve(
            parse_endpoint(args.connect),
            heartbeat_s=args.heartbeat_s,
            leave_after=args.leave_after,
            reconnect_s=args.reconnect_s,
        )
    return serve(stdin, stdout, heartbeat_s=args.heartbeat_s, leave_after=args.leave_after)


if __name__ == "__main__":
    sys.exit(main())
