"""Cross-host dispatch: the ``distributed`` execution backend.

The paper's evaluation sweeps 16 scenarios over large parameter grids —
more cells than one host's cores.  :class:`DistributedBackend` implements
the :class:`~repro.runner.backends.ExecutionBackend` protocol by shipping
:class:`~repro.runner.backends.WorkItem` records to worker *processes*
(:mod:`repro.runner.worker`) over the length-prefixed JSON frames of
:mod:`repro.runner.wire`, and collecting
:class:`~repro.runner.backends.WorkOutcome` payloads back.  Workers reach
the pool two ways:

* **launched** — a :class:`WorkerTransport` spawns them, one per host
  slot: :class:`LocalSubprocessTransport` (plain subprocesses; process
  isolation without SSH, and the CI/test harness for everything here) or
  :class:`SSHTransport` (``ssh <host> python -m repro.runner.worker``;
  the remote host needs the package importable, nothing else — no
  daemon, no listener);
* **joined** — with ``listen=...`` the backend binds a registration
  endpoint (``.endpoint``); any ``repro-runner workers join`` process
  that connects and completes the hello handshake becomes a pool member
  mid-sweep.  The pool is *elastic*: it grows on join, shrinks on
  ``leave``, and is not fazed by either.

Mirroring the paper's control plane, scheduling stays centralized while
execution fans out: workers never touch the result cache; every outcome
returns to the calling engine, which writes the single shared
``.repro-cache/``.  Cache keys hash ``(scenario, version, params, seed)``
only, so a distributed sweep is byte-for-byte cache-compatible with a
serial one — the acceptance gate in ``tests/test_runner_distributed.py``
and, under fault schedules, ``tests/test_runner_chaos.py``.

A worker's whole life is one state machine (:data:`_LIFECYCLE`):
``starting → idle ⇄ busy`` and one retirement path
(:meth:`_Scheduler._retire`) into a terminal state — *quarantined* for
workers that misbehave (protocol mismatch, malformed frames, hangs, a
dead process) or *departed* for workers that leave or whose connection
drops.  Either way the worker's statistics freeze at that instant into
``SweepOutcome.worker_stats`` (marked ``departed: true``) and its
in-flight cells re-queue to healthy workers; ``max_attempts`` bounds
re-dispatch, so a cell that kills every worker it touches becomes an
error outcome, not a loop.  A handle has exactly one connection: a
joined worker that loses its socket redials and is admitted through the
ordinary join path as a new pool member.

Work flows in **batches**: an idle worker receives
``min(batch_size, ceil(pending / idle_workers))`` cells in one
``work_batch`` frame and answers with one ``outcome_batch``.  A batch of
one is the same frame shape, not a special case.  Each outcome is handed
to ``execute``'s ``on_outcome`` callback from the dispatch loop — the
engine caches it there — so a scheduler that dies mid-sweep has already
stored every cell that came home, and rerunning the sweep executes only
the rest.

What the scheduler checks, and when:

* **hello handshake** — a worker that cannot import the experiments, or
  speaks a different :data:`~repro.runner.wire.PROTOCOL_VERSION`, is
  quarantined (launched) or refused (joined) before it is handed work;
* **heartbeats** — workers beat while a batch runs; a worker silent past
  ``worker_timeout_s`` is presumed hung, killed, and quarantined;
* **partial-sweep resume** — scenario failures and gave-up cells travel
  as error *outcomes*; the engine caches every completed cell as it
  arrives, so a re-run resumes from cache.

Scheduling is pull-based: one dispatch loop feeds idle workers from a
single pending queue, drains one shared inbox fed by per-connection
reader threads, and accounts everything in :meth:`DistributedBackend.
telemetry` for the engine's ``SweepOutcome.worker_stats``.  Deterministic
fault-injection for all of the above lives in :mod:`repro.testing.chaos`;
a plan passed as ``chaos=`` ships to every worker in its welcome frame.
"""

from __future__ import annotations

import os
import queue
import shlex
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, BinaryIO, Dict, List, Mapping, Optional, Protocol, Sequence, Set, Tuple, Union

from repro.runner.backends import (
    OutcomeCallback,
    ProgressEvent,
    WorkItem,
    WorkOutcome,
    inherited_pythonpath,
)
from repro.runner.wire import PROTOCOL_VERSION, WireError, read_message, write_message

#: Hosts the local transport treats as "this machine".
_LOCAL_HOSTS = frozenset({"localhost", "127.0.0.1", "::1"})


@dataclass(frozen=True)
class HostSpec:
    """One execution host and how many worker slots to run on it."""

    host: str
    slots: int = 1

    def __post_init__(self) -> None:
        if not self.host:
            raise ValueError("host name must be non-empty")
        if self.slots < 1:
            raise ValueError(f"host {self.host!r}: slots must be >= 1, got {self.slots}")

    @property
    def is_local(self) -> bool:
        return self.host in _LOCAL_HOSTS

    @classmethod
    def parse(cls, text: str) -> "HostSpec":
        """Parse ``host`` or ``host:slots`` (e.g. ``nodeA:4``).

        IPv6 literals contain colons themselves, so a bare one (``::1``)
        is taken whole and a slot count needs brackets (``[::1]:2``).
        Zero and negative slot counts are rejected here (a zero-slot
        worker would idle forever; see ``tests/test_runner_distributed``).
        """
        text = text.strip()
        if text.startswith("["):
            addr, bracket, rest = text[1:].partition("]")
            if not bracket or (rest and not (rest[0] == ":" and _is_int(rest[1:]))):
                raise ValueError(f"bad bracketed host spec {text!r} (expected '[addr]:slots')")
            return cls(host=addr, slots=int(rest[1:])) if rest else cls(host=addr)
        host, sep, raw_slots = text.rpartition(":")
        if sep and _is_int(raw_slots) and ":" not in host:
            return cls(host=host, slots=int(raw_slots))
        return cls(host=text)

    def __str__(self) -> str:
        return f"{self.host}:{self.slots}"


def _is_int(text: str) -> bool:
    """True for decimal integers *including* a leading minus.

    ``"-1".isdigit()`` is False, which once made ``x:-1`` parse as a
    hostname instead of an (invalid) slot count — negative counts must
    reach HostSpec's validation and its clear error, not become hosts.
    """
    return text.isdigit() or (text.startswith("-") and text[1:].isdigit())


def parse_hosts(text: Union[str, Sequence[HostSpec]]) -> Tuple[HostSpec, ...]:
    """Parse a ``--hosts`` spec: comma-separated ``host[:slots]`` entries.

    Already-parsed sequences pass through, so callers can hand either form
    to :class:`DistributedBackend`.  A host may appear only once — slots
    say how many workers it runs, so ``nodeA:2,nodeA:1`` is almost always
    a typo for ``nodeA:3`` and is rejected rather than guessed at.
    """
    if not isinstance(text, str):
        hosts = tuple(text)
    else:
        hosts = tuple(
            HostSpec.parse(part) for part in text.split(",") if part.strip()
        )
    if not hosts:
        raise ValueError("host spec expanded to zero hosts (expected 'host[:slots],...')")
    counts: Dict[str, int] = {}
    for spec in hosts:
        counts[spec.host] = counts.get(spec.host, 0) + 1
    duplicates = sorted(h for h, n in counts.items() if n > 1)
    if duplicates:
        merged = ", ".join(
            f"{h}:{sum(s.slots for s in hosts if s.host == h)}" for h in duplicates
        )
        raise ValueError(
            f"duplicate host entr{'ies' if len(duplicates) > 1 else 'y'} "
            f"{', '.join(repr(h) for h in duplicates)} in host spec; "
            f"merge the slot counts into one entry (e.g. {merged})"
        )
    return hosts


def _worker_argv(python: str, heartbeat_s: float) -> List[str]:
    return [python, "-m", "repro.runner.worker", "--heartbeat-s", repr(float(heartbeat_s))]


class WorkerTransport(Protocol):
    """Launches one worker process for a host slot.

    The returned :class:`subprocess.Popen` must expose binary ``stdin`` /
    ``stdout`` pipes speaking the :mod:`repro.runner.wire` framing; the
    scheduler owns the process from then on (handshake, dispatch, kill).
    """

    name: str

    def launch(self, host: HostSpec, *, heartbeat_s: float) -> subprocess.Popen:
        ...


class LocalSubprocessTransport:
    """Workers as plain subprocesses of this process (host names ignored).

    The child inherits this interpreter and the current ``sys.path`` via
    ``PYTHONPATH``, so an uninstalled source checkout works unchanged.
    """

    name = "local-subprocess"

    def __init__(self, python: Optional[str] = None) -> None:
        self.python = python or sys.executable

    def launch(self, host: HostSpec, *, heartbeat_s: float) -> subprocess.Popen:
        env = os.environ.copy()
        env["PYTHONPATH"] = inherited_pythonpath()
        return subprocess.Popen(
            _worker_argv(self.python, heartbeat_s),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
        )

    def __repr__(self) -> str:
        return f"LocalSubprocessTransport(python={self.python!r})"


class SSHTransport:
    """Workers spawned as ``ssh <host> python -m repro.runner.worker``.

    Requirements on each remote host: reachable over non-interactive SSH
    (``BatchMode=yes`` is passed, so key auth must already work) and a
    ``python`` that can ``import repro`` — either the package is installed
    there, or ``remote_env`` supplies a ``PYTHONPATH`` to a checkout.
    ``docs/distributed.md`` walks through a complete example.
    """

    name = "ssh"

    def __init__(
        self,
        python: str = "python3",
        ssh_command: Sequence[str] = ("ssh",),
        ssh_options: Sequence[str] = ("-o", "BatchMode=yes"),
        remote_env: Optional[Dict[str, str]] = None,
    ) -> None:
        self.python = python
        self.ssh_command = tuple(ssh_command)
        self.ssh_options = tuple(ssh_options)
        self.remote_env = dict(remote_env or {})

    def launch(self, host: HostSpec, *, heartbeat_s: float) -> subprocess.Popen:
        remote = " ".join(
            shlex.quote(part) for part in _worker_argv(self.python, heartbeat_s)
        )
        if self.remote_env:
            exports = " ".join(
                f"{key}={shlex.quote(value)}" for key, value in sorted(self.remote_env.items())
            )
            remote = f"env {exports} {remote}"
        return subprocess.Popen(
            [*self.ssh_command, *self.ssh_options, host.host, remote],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )

    def __repr__(self) -> str:
        return f"SSHTransport(python={self.python!r}, ssh={self.ssh_command!r})"


def _parse_listen(value: Union[bool, int, str, Tuple[str, int]]) -> Tuple[str, int]:
    """Normalize a ``listen`` spec to a bind address.

    ``True`` means loopback on an ephemeral port (tests); an int is a
    port; a string is ``host:port``, ``:port``, or a bare port.
    """
    if value is True:
        return ("127.0.0.1", 0)
    if isinstance(value, int):
        return ("127.0.0.1", value)
    if isinstance(value, tuple):
        host, port = value
        return (host or "127.0.0.1", int(port))
    text = str(value).strip()
    host, sep, raw_port = text.rpartition(":")
    if not sep:
        host, raw_port = "", text
    try:
        port = int(raw_port) if raw_port else 0
    except ValueError:
        raise ValueError(f"bad listen spec {value!r} (expected 'host:port' or a port)") from None
    return (host.strip("[]") or "127.0.0.1", port)


def _hello_refusal(hello: Mapping[str, Any]) -> Optional[str]:
    """Why a worker's hello bars it from the pool, or None if it may enter.

    The one hello check for launched and joined workers alike.
    """
    protocol = hello.get("protocol")
    if protocol != PROTOCOL_VERSION:
        return f"protocol mismatch (worker {protocol!r}, scheduler {PROTOCOL_VERSION})"
    return None


@dataclass
class _Tracked:
    """Scheduler-side state of one work item."""

    item: WorkItem
    attempts: int = 0
    #: Id of the worker executing this item; None while queued or finished.
    owner: Optional[str] = None
    done: bool = False


#: The worker lifecycle: each state and the states it may move to.  A
#: worker is *live* until it reaches a state with no way out.
_LIFECYCLE: Dict[str, Tuple[str, ...]] = {
    "starting": ("idle", "quarantined", "departed"),
    "idle": ("busy", "quarantined", "departed"),
    "busy": ("idle", "quarantined", "departed"),
    "quarantined": (),
    "departed": (),
}

#: Inbox entries: (worker or None for joins, message).
_InboxEntry = Tuple[Optional["_WorkerHandle"], Dict[str, Any]]


class _WorkerHandle:
    """One pool member: its connection, reader thread, and accounting.

    ``attach_pipe`` binds a launched subprocess's stdio, ``attach_socket``
    a joined worker's socket; a handle has exactly one connection for its
    whole life.
    """

    def __init__(
        self,
        worker_id: str,
        host: HostSpec,
        inbox: "queue.Queue[_InboxEntry]",
        *,
        site: int,
    ) -> None:
        self.id = worker_id
        self.host = host
        self.site = site
        self.proc: Optional[subprocess.Popen] = None
        self.state = "starting"  # see _LIFECYCLE
        self.items: List[_Tracked] = []
        #: Every index ever dispatched here — outcomes for these are valid
        #: even when they lose a race with the worker's retirement.
        self.past_indices: Set[int] = set()
        self.launched_at = time.monotonic()
        self.last_seen = self.launched_at
        self.dispatched = 0
        self.completed = 0
        self.batches = 0
        self.retired_reason = ""
        #: What the worker's hello said about it, for ``worker_stats``.
        self.hello_facts: Dict[str, Any] = {}
        self._inbox = inbox
        self._writer: Optional[BinaryIO] = None
        self._sock: Optional[socket.socket] = None

    # -- connections ----------------------------------------------------

    def attach_pipe(self, proc: subprocess.Popen) -> None:
        self.proc = proc
        self._writer = proc.stdin
        self._start_reader(proc.stdout)

    def attach_socket(self, sock: socket.socket, reader: BinaryIO, writer: BinaryIO) -> None:
        self._sock = sock
        self._writer = writer
        self._start_reader(reader)

    def _start_reader(self, stream: BinaryIO) -> None:
        threading.Thread(target=self._read_loop, args=(stream,), daemon=True).start()

    def _read_loop(self, stream: BinaryIO) -> None:
        while True:
            try:
                message = read_message(stream)
            except (WireError, OSError, ValueError) as exc:
                self._inbox.put((self, {"type": "_wire_error", "error": str(exc)}))
                return
            if message is None:
                self._inbox.put((self, {"type": "_eof"}))
                return
            self._inbox.put((self, message))

    def note_hello(self, hello: Mapping[str, Any], hello_s: float) -> None:
        """Keep the hello's environment report and how long it took to come."""
        self.hello_facts = {
            "python": hello.get("python"),
            "pid": hello.get("pid"),
            "reported_host": hello.get("host"),
            "scenarios": hello.get("scenarios"),
            "hello_s": round(hello_s, 3),
        }

    @property
    def is_socket(self) -> bool:
        return self._sock is not None

    @property
    def live(self) -> bool:
        return bool(_LIFECYCLE[self.state])

    def enter(self, state: str) -> bool:
        """Move to ``state`` if the lifecycle allows it from here.

        Returns False, changing nothing, otherwise — which is what makes
        retiring a worker twice a no-op.
        """
        if state not in _LIFECYCLE[self.state]:
            return False
        self.state = state
        return True

    def send(self, message: Dict[str, Any]) -> None:
        if self._writer is None:
            raise OSError("worker has no live connection")
        write_message(self._writer, message)

    def _close_socket(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        self._writer = None

    def shutdown(self, timeout_s: float = 2.0) -> None:
        """Best-effort polite stop, then kill."""
        try:
            self.send({"type": "shutdown"})
            if self.proc is not None:
                self.proc.stdin.close()
        except (OSError, ValueError):
            pass
        if self.proc is not None:
            try:
                self.proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.kill()
        else:
            self._close_socket()

    def kill(self) -> None:
        if self.proc is not None:
            try:
                self.proc.kill()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                pass
        self._close_socket()


class DistributedBackend:
    """Fan cache-missing sweep cells out across hosts (see module docstring).

    ``hosts`` is a ``--hosts``-style string (``"localhost:2,nodeA:4"``) or
    a sequence of :class:`HostSpec`; with ``listen`` enabled it may be
    empty, making a pool fed entirely by joining workers.  ``transport``
    defaults to :class:`LocalSubprocessTransport` when every host is local
    and :class:`SSHTransport` otherwise.  The engine treats this backend
    like any other :class:`~repro.runner.backends.ExecutionBackend`;
    extras the protocol does not require — :meth:`telemetry` and the
    ``on_progress`` attribute — are discovered by ``run_sweep`` via
    ``getattr``.
    """

    name = "distributed"
    needs_builtin_registry = True

    def __init__(
        self,
        hosts: Union[str, Sequence[HostSpec], None] = "localhost:2",
        transport: Optional[WorkerTransport] = None,
        *,
        heartbeat_s: float = 1.0,
        worker_timeout_s: float = 60.0,
        hello_timeout_s: float = 30.0,
        max_attempts: int = 3,
        poll_s: float = 0.05,
        batch_size: int = 1,
        listen: Union[bool, int, str, Tuple[str, int], None] = None,
        join_grace_s: float = 10.0,
        chaos: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.hosts = parse_hosts(hosts) if hosts else ()
        if transport is None:
            transport = (
                LocalSubprocessTransport()
                if all(h.is_local for h in self.hosts)
                else SSHTransport()
            )
        self.transport = transport
        self.heartbeat_s = heartbeat_s
        self.worker_timeout_s = worker_timeout_s
        self.hello_timeout_s = hello_timeout_s
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.poll_s = poll_s
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size
        self.join_grace_s = join_grace_s
        if chaos is None:
            self.chaos_plan: Optional[Dict[str, Any]] = None
        elif hasattr(chaos, "to_dict"):
            self.chaos_plan = chaos.to_dict()  # a testing.chaos.FaultPlan
        else:
            self.chaos_plan = dict(chaos)
        # The registration endpoint binds eagerly so callers can read
        # .endpoint (and start `workers join` processes) before execute();
        # connections queue in the OS backlog until a sweep accepts them.
        self._listen_sock: Optional[socket.socket] = None
        self.endpoint: Optional[Tuple[str, int]] = None
        if listen is not None and listen is not False:
            address = _parse_listen(listen)
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(address)
            sock.listen(64)
            sock.settimeout(0.2)  # lets the acceptor thread notice shutdown
            self._listen_sock = sock
            self.endpoint = sock.getsockname()[:2]
        if not self.hosts and self._listen_sock is None:
            raise ValueError(
                "distributed backend needs hosts, a listen endpoint, or both"
            )
        #: Optional per-event progress hook (``run_sweep(on_progress=...)``
        #: plugs the caller's callback in here).
        self.on_progress = None
        self._telemetry: Dict[str, Any] = {}

    @property
    def workers(self) -> int:
        # Elastic joins can grow the pool past the provisioned slots (a
        # listen-only sweep provisions zero), so once a sweep has run the
        # honest count is everyone who was ever admitted.
        participated = len(self._telemetry.get("workers", ()))
        return max(sum(h.slots for h in self.hosts), participated)

    def telemetry(self) -> Dict[str, Any]:
        """Accounting of the most recent :meth:`execute` call."""
        return dict(self._telemetry)

    def close(self) -> None:
        """Release the registration endpoint (no-op without ``listen``)."""
        if self._listen_sock is not None:
            try:
                self._listen_sock.close()
            except OSError:
                pass
            self._listen_sock = None

    def __repr__(self) -> str:
        hosts = ",".join(str(h) for h in self.hosts)
        listening = f", listen={self.endpoint!r}" if self.endpoint else ""
        return f"DistributedBackend(hosts={hosts!r}, transport={self.transport!r}{listening})"

    # -- scheduling -----------------------------------------------------

    def _emit(self, event: ProgressEvent) -> None:
        if self.on_progress is not None:
            self.on_progress(event)

    def execute(
        self,
        items: Sequence[WorkItem],
        *,
        registry: Optional[Any] = None,
        on_outcome: Optional[OutcomeCallback] = None,
    ) -> List[WorkOutcome]:
        if not items:
            return []
        scheduler = _Scheduler(self, items, on_outcome)
        try:
            return scheduler.run()
        finally:
            self._telemetry = scheduler.telemetry()
            scheduler.close()


#: The cell ``workers doctor`` runs on every host: about a second on
#: commodity hardware, tens of thousands of simulator events through real
#: bundler + qdisc machinery, so its telemetry events/sec is a meaningful
#: throughput proxy.  Pinned, so the numbers compare across a fleet.
CALIBRATION_ITEM = WorkItem(
    index=0, scenario="fig13_competing_bundles", params={"duration_s": 2}, seed=1
)


def check_hosts(
    hosts: Union[str, Sequence[HostSpec]],
    transport: Optional[WorkerTransport] = None,
    *,
    hello_timeout_s: float = 30.0,
    calibrate_timeout_s: float = 60.0,
) -> List[Dict[str, Any]]:
    """``workers doctor``: run :data:`CALIBRATION_ITEM` on every host as a sweep would.

    Each host gets its own one-slot backend (hosts are checked in
    parallel; one worker per host, since slots share its environment) on
    the transport a sweep over ``hosts`` would pick.  Returns one row per
    host, in ``hosts`` order: the worker's ``worker_stats`` entry plus
    ``slots``, ``events_per_sec`` and, for an unfit host, the ``check``
    that failed (``launch``, ``hello`` or ``calibrate``) and the
    scheduler's own ``error`` for it.
    """
    from concurrent.futures import ThreadPoolExecutor  # only the doctor needs it

    fleet = DistributedBackend(hosts, transport)  # a sweep's host parsing and transport choice

    def check(spec: HostSpec) -> Dict[str, Any]:
        backend = DistributedBackend(
            [HostSpec(spec.host)],
            fleet.transport,
            heartbeat_s=0.0,  # no beats, so worker_timeout_s is the cell's deadline
            worker_timeout_s=calibrate_timeout_s,
            hello_timeout_s=hello_timeout_s,
            max_attempts=1,
        )
        row: Dict[str, Any] = {"slots": spec.slots, "check": "", "error": ""}
        try:
            (outcome,) = backend.execute([CALIBRATION_ITEM])
        except RuntimeError as exc:  # the transport could not start a process
            return {**row, "host": spec.host, "check": "launch", "error": str(exc)}
        (worker,) = backend.telemetry()["workers"].values()
        row.update(worker)
        error = worker.get("quarantine_reason") or outcome.error
        if error:
            row["check"] = "calibrate" if worker["dispatched"] else "hello"
            row["error"] = str(error).strip().splitlines()[-1]
        elif isinstance(outcome.telemetry, dict):
            # Absent under REPRO_OBS=0: the host is fit, just unmeasured.
            row["events_per_sec"] = outcome.telemetry.get("events_per_sec")
        return row

    with ThreadPoolExecutor(max_workers=len(fleet.hosts)) as pool:
        return list(pool.map(check, fleet.hosts))


class _Scheduler:
    """One :meth:`DistributedBackend.execute` call's mutable state."""

    def __init__(
        self,
        backend: DistributedBackend,
        items: Sequence[WorkItem],
        on_outcome: Optional[OutcomeCallback] = None,
    ) -> None:
        self.backend = backend
        self.on_outcome = on_outcome
        self.items = list(items)
        self.tracked: Dict[int, _Tracked] = {
            item.index: _Tracked(item=item) for item in self.items
        }
        if len(self.tracked) != len(self.items):
            raise ValueError("work items must have unique indices")
        self.pending: deque = deque(self.tracked.values())
        self.outcomes: Dict[int, WorkOutcome] = {}
        #: Recorded outcomes ``on_outcome`` has not been called with yet.
        self.unreported: List[WorkOutcome] = []
        self.inbox: "queue.Queue[_InboxEntry]" = queue.Queue()
        self.workers: List[_WorkerHandle] = []
        self.requeued = 0
        self.gave_up = 0
        self.duplicate_outcomes = 0
        self.joined = 0
        #: Workers retired so far, by terminal state.
        self.retired = {"quarantined": 0, "departed": 0}
        #: Stats of retired workers, frozen at that instant (a
        #: live-computed view would keep their clocks ticking); merged
        #: into telemetry() under the same ids.
        self.departed_stats: Dict[str, Dict[str, Any]] = {}
        self._pool_empty_since: Optional[float] = None
        self._accept_stop: Optional[threading.Event] = None
        self._accept_thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------

    def _launch_workers(self) -> None:
        backend = self.backend
        for host in backend.hosts:
            for _ in range(host.slots):
                # The slot counter is global, not per-HostSpec: every
                # worker needs a unique id (ids key telemetry and cell
                # ownership).
                site = len(self.workers)
                worker_id = f"{host.host}/{site}"
                try:
                    proc = backend.transport.launch(
                        host, heartbeat_s=backend.heartbeat_s
                    )
                except OSError as exc:
                    raise RuntimeError(
                        f"distributed backend could not launch worker {worker_id} "
                        f"via {backend.transport.name}: {exc}"
                    ) from exc
                handle = _WorkerHandle(worker_id, host, self.inbox, site=site)
                handle.attach_pipe(proc)
                self.workers.append(handle)

    def _start_acceptor(self) -> None:
        sock = self.backend._listen_sock
        if sock is None:
            return
        stop = threading.Event()

        def accept_loop() -> None:
            while not stop.is_set():
                try:
                    conn, _addr = sock.accept()
                except socket.timeout:
                    continue
                except OSError:
                    return  # endpoint closed
                threading.Thread(
                    target=self._join_handshake, args=(conn,), daemon=True
                ).start()

        self._accept_stop = stop
        self._accept_thread = threading.Thread(target=accept_loop, daemon=True)
        self._accept_thread.start()

    def _join_handshake(self, conn: socket.socket) -> None:
        """Off-thread: read a joiner's hello, then hand it to the main loop."""
        accepted = time.monotonic()
        try:
            conn.settimeout(self.backend.hello_timeout_s)
            reader = conn.makefile("rb")
            writer = conn.makefile("wb")
            hello = read_message(reader)
        except (WireError, OSError, ValueError):
            try:
                conn.close()
            except OSError:
                pass
            return
        if hello is None or hello.get("type") != "hello":
            try:
                conn.close()
            except OSError:
                pass
            return
        self.inbox.put(
            (None, {"type": "_join", "hello": hello, "sock": conn,
                    "reader": reader, "writer": writer,
                    "hello_s": time.monotonic() - accepted})
        )

    def close(self) -> None:
        if self._accept_stop is not None:
            self._accept_stop.set()
        for worker in self.workers:
            if worker.live:
                worker.shutdown()
        # Joins still parked in the inbox would leave their workers
        # blocked on a welcome that will never come.
        while True:
            try:
                worker, message = self.inbox.get_nowait()
            except queue.Empty:
                break
            if worker is None and message.get("type") == "_join":
                for key in ("reader", "writer", "sock"):
                    try:
                        message[key].close()
                    except OSError:
                        pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=1.0)

    # -- accounting -----------------------------------------------------

    def _worker_stats(self, w: _WorkerHandle, now: float) -> Dict[str, Any]:
        return {
            "host": w.host.host,
            "state": w.state,
            "dispatched": w.dispatched,
            "completed": w.completed,
            "last_seen_age_s": round(now - w.last_seen, 3),
            **w.hello_facts,
            **({"batches": w.batches} if w.batches else {}),
            **(
                {"quarantine_reason": w.retired_reason}
                if w.state == "quarantined"
                else {}
            ),
            **(
                {"departed": True, "departed_reason": w.retired_reason}
                if not w.live
                else {}
            ),
        }

    def telemetry(self) -> Dict[str, Any]:
        now = time.monotonic()
        workers = {
            w.id: self._worker_stats(w, now)
            for w in self.workers
            if w.id not in self.departed_stats
        }
        workers.update(self.departed_stats)
        return {
            "backend": self.backend.name,
            "transport": self.backend.transport.name,
            "hosts": [str(h) for h in self.backend.hosts],
            "items": len(self.items),
            "batch_size": self.backend.batch_size,
            "requeued": self.requeued,
            "quarantined": self.retired["quarantined"],
            "gave_up": self.gave_up,
            "duplicate_outcomes": self.duplicate_outcomes,
            "joined": self.joined,
            "departed": self.retired["departed"],
            **(
                {"endpoint": list(self.backend.endpoint)}
                if self.backend.endpoint
                else {}
            ),
            "workers": workers,
        }

    def _emit(self, kind: str, *, tracked: Optional[_Tracked] = None,
              worker: Optional[_WorkerHandle] = None, detail: str = "") -> None:
        item = tracked.item if tracked is not None else None
        self.backend._emit(
            ProgressEvent(
                kind=kind,
                done=len(self.outcomes),
                total=len(self.items),
                index=item.index if item is not None else None,
                scenario=item.scenario if item is not None else None,
                worker=worker.id if worker is not None else None,
                detail=detail,
            )
        )

    # -- failure handling ----------------------------------------------

    def _record(self, outcome: WorkOutcome) -> None:
        self.outcomes[outcome.index] = outcome
        self.unreported.append(outcome)

    def _report_outcomes(self) -> None:
        """Hand every outcome recorded since the last call to ``on_outcome``."""
        reported, self.unreported = self.unreported, []
        if self.on_outcome is not None:
            for outcome in reported:
                self.on_outcome(outcome)

    def _give_up(self, tracked: _Tracked, reason: str) -> None:
        tracked.done = True
        self.gave_up += 1
        self._record(
            WorkOutcome(index=tracked.item.index, payload=None, elapsed_s=0.0, error=reason)
        )
        self._emit("gave-up", tracked=tracked, detail=reason)

    def _requeue(self, tracked: _Tracked, worker: _WorkerHandle, reason: str) -> None:
        if tracked.owner == worker.id:
            tracked.owner = None
        if tracked.done or tracked.owner is not None:
            return  # finished, or re-dispatched elsewhere since
        if tracked.attempts >= self.backend.max_attempts:
            self._give_up(
                tracked,
                f"cell abandoned after {tracked.attempts} dispatch attempt(s); "
                f"last failure: {reason}",
            )
            return
        self.pending.appendleft(tracked)
        self.requeued += 1
        self._emit("requeued", tracked=tracked, worker=worker, detail=reason)

    def _release_items(self, worker: _WorkerHandle, reason: str) -> None:
        items, worker.items = worker.items, []
        for tracked in items:
            self._requeue(tracked, worker, reason)

    def _retire(self, worker: _WorkerHandle, terminal_state: str, reason: str) -> None:
        """Take a worker out of the pool for good.

        ``quarantined`` is for misbehaviour (protocol mismatch, malformed
        frames, hangs, a dead process); ``departed`` for pool life (a
        ``leave``, a dropped connection).  Both freeze the worker's stats
        at this instant (``departed: true``) and re-queue its cells.
        """
        if not worker.enter(terminal_state):
            return
        worker.retired_reason = reason
        self.retired[terminal_state] += 1
        worker.kill()
        self.departed_stats[worker.id] = self._worker_stats(worker, time.monotonic())
        self._emit(terminal_state, worker=worker, detail=reason)
        self._release_items(worker, f"worker {worker.id} {reason}")

    def _connection_lost(self, worker: _WorkerHandle, reason: str) -> None:
        """Route a dead connection: a joined (socket) worker has departed
        and may redial as a new member; a launched (pipe) worker that loses
        its pipe is broken."""
        self._retire(worker, "departed" if worker.is_socket else "quarantined", reason)

    # -- message handling ----------------------------------------------

    def _welcome(self, worker: _WorkerHandle) -> bool:
        backend = self.backend
        message: Dict[str, Any] = {
            "type": "welcome",
            "protocol": PROTOCOL_VERSION,
            "worker": worker.site,
        }
        if backend.chaos_plan:
            message["chaos"] = backend.chaos_plan
        try:
            worker.send(message)
        except (OSError, ValueError):
            self._connection_lost(worker, "welcome write failed (broken pipe)")
            return False
        return True

    def _handle_join(self, message: Dict[str, Any]) -> None:
        hello = message["hello"]
        sock: socket.socket = message["sock"]
        reader: BinaryIO = message["reader"]
        writer: BinaryIO = message["writer"]
        refusal = _hello_refusal(hello)
        if refusal:
            try:
                write_message(writer, {"type": "error", "error": refusal})
            except (OSError, ValueError):
                pass
            # Close the makefile wrappers too: each holds a reference on
            # the socket (``_io_refs``), so ``sock.close()`` alone defers
            # the FIN until they are garbage-collected — the rejected
            # worker would hang on its EOF read until then.
            for closeable in (reader, writer, sock):
                try:
                    closeable.close()
                except OSError:
                    pass
            return
        try:
            sock.settimeout(None)  # handshake deadline no longer applies
        except OSError:
            pass
        site = len(self.workers)
        host_name = str(hello.get("host") or "joined")
        worker_id = f"{host_name}/{site}"
        worker = _WorkerHandle(worker_id, HostSpec(host=host_name), self.inbox, site=site)
        worker.attach_socket(sock, reader, writer)
        worker.note_hello(hello, message["hello_s"])
        worker.enter("idle")
        self.workers.append(worker)
        self.joined += 1
        if self._welcome(worker):
            self._emit("joined", worker=worker)

    def _handle(self, worker: _WorkerHandle, message: Dict[str, Any]) -> None:
        kind = message.get("type")
        worker.last_seen = time.monotonic()
        if kind == "_eof":
            if not worker.live:
                return
            if worker.is_socket:
                self._retire(worker, "departed", "disconnected (connection closed)")
            else:
                # Pipe EOF can arrive before the child is reapable; give it
                # a beat so the quarantine reason carries the real code.
                code = None
                if worker.proc is not None:
                    try:
                        code = worker.proc.wait(timeout=5.0)
                    except subprocess.TimeoutExpired:
                        code = worker.proc.poll()
                self._retire(worker, "quarantined", f"exited (code {code})")
        elif kind == "_wire_error":
            self._connection_lost(worker, f"wire error: {message.get('error')}")
        elif kind == "hello":
            worker.note_hello(message, worker.last_seen - worker.launched_at)
            refusal = _hello_refusal(message)
            if refusal:
                self._retire(worker, "quarantined", refusal)
            elif worker.state == "starting":
                worker.enter("idle")
                self._welcome(worker)
        elif kind == "heartbeat":
            pass  # last_seen already updated
        elif kind == "outcome_batch":
            for raw in message.get("outcomes") or []:
                self._handle_outcome(worker, raw)
        elif kind == "leave":
            self._retire(worker, "departed", "left the pool")
        elif kind == "error":
            self._retire(worker, "quarantined", f"worker-reported error: {message.get('error')}")
        else:
            self._retire(worker, "quarantined", f"unknown message type {kind!r}")

    def _handle_outcome(self, worker: _WorkerHandle, raw: Dict[str, Any]) -> None:
        try:
            outcome = WorkOutcome(
                index=int(raw["index"]),
                payload=raw.get("payload"),
                elapsed_s=float(raw.get("elapsed_s", 0.0)),
                error=raw.get("error"),
                # Additive frame field: run telemetry measured where the
                # cell executed (absent from old workers' frames).
                telemetry=raw.get("telemetry"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            self._retire(worker, "quarantined", f"malformed outcome frame: {exc}")
            return
        target = self.tracked.get(outcome.index)
        # past_indices — not the current assignment — decides legitimacy:
        # a hung or quarantined worker's last reply may arrive after its
        # cells were re-queued (or even re-completed elsewhere).
        if target is None or outcome.index not in worker.past_indices:
            self._retire(
                worker, "quarantined",
                f"returned outcome for unassigned index {outcome.index}",
            )
            return
        if target in worker.items:
            worker.items.remove(target)
        # A quarantined worker's last outcome may still arrive through the
        # inbox; record the (deterministic) result but keep it quarantined.
        if worker.state == "busy" and not worker.items:
            worker.enter("idle")
        worker.completed += 1
        if target.owner == worker.id:
            target.owner = None
        if target.done:
            self.duplicate_outcomes += 1  # lost a race; result identical
            return
        target.done = True
        self._record(outcome)
        self._emit("completed", tracked=target, worker=worker)

    # -- dispatch -------------------------------------------------------

    def _next_batch(self, want: int) -> List[_Tracked]:
        batch: List[_Tracked] = []
        while self.pending and len(batch) < want:
            candidate = self.pending.popleft()
            if not candidate.done and candidate.owner is None:
                batch.append(candidate)
        return batch

    def _dispatch(self, worker: _WorkerHandle, batch: List[_Tracked]) -> None:
        payload = [
            {
                "index": t.item.index,
                "scenario": t.item.scenario,
                "params": dict(t.item.params),
                "seed": t.item.seed,
            }
            for t in batch
        ]
        try:
            worker.send({"type": "work_batch", "items": payload})
        except (OSError, ValueError):
            self._connection_lost(worker, "dispatch write failed (broken pipe)")
            for tracked in batch:
                # _connection_lost only releases worker.items, which does
                # not yet include this batch — requeue ourselves.
                self._requeue(tracked, worker, "dispatch write failed")
            return
        now = time.monotonic()
        worker.enter("busy")
        worker.items.extend(batch)
        # A worker can sit idle (silent) far longer than worker_timeout_s;
        # restart its liveness clock now or the next timeout check would
        # quarantine it as hung before it could possibly have replied.
        worker.last_seen = now
        worker.dispatched += len(batch)
        worker.batches += 1
        for tracked in batch:
            tracked.attempts += 1
            tracked.owner = worker.id
            worker.past_indices.add(tracked.item.index)

    def _fill_idle_workers(self) -> None:
        idle = [w for w in self.workers if w.state == "idle"]
        if idle and self.pending:
            # Fairness under batching: late in the queue, shrink batches
            # so one worker cannot hoard the tail while others idle.
            fair = max(
                1,
                min(
                    self.backend.batch_size,
                    -(-len(self.pending) // len(idle)),  # ceil division
                ),
            )
            for worker in idle:
                batch = self._next_batch(fair)
                if not batch:
                    break
                self._dispatch(worker, batch)

    def _check_timeouts(self) -> None:
        now = time.monotonic()
        for worker in self.workers:
            if worker.state == "starting":
                if now - worker.launched_at > self.backend.hello_timeout_s:
                    self._retire(
                        worker, "quarantined",
                        f"no hello within {self.backend.hello_timeout_s:g}s",
                    )
            elif worker.state == "busy":
                if now - worker.last_seen > self.backend.worker_timeout_s:
                    self._retire(
                        worker, "quarantined",
                        f"silent for {now - worker.last_seen:.1f}s (presumed hung)",
                    )

    # -- main loop ------------------------------------------------------

    def _drain_inbox(self, wait_s: float = 0.0) -> None:
        """Handle everything queued, waiting up to ``wait_s`` for the first."""
        while True:
            try:
                worker, message = self.inbox.get(block=wait_s > 0, timeout=wait_s)
            except queue.Empty:
                break
            wait_s = 0.0
            if worker is None:
                self._handle_join(message)
            else:
                self._handle(worker, message)

    def _pool_exhausted(self) -> bool:
        """True when nothing can make progress and nothing may appear.

        A listening pool may grow — a worker whose connection dropped
        redials as a new member — so an empty one gets ``join_grace_s``
        before the sweep gives up.
        """
        if any(w.live for w in self.workers):
            self._pool_empty_since = None
            return False
        if self.backend._listen_sock is None:
            return True
        now = time.monotonic()
        if self._pool_empty_since is None:
            self._pool_empty_since = now
            return False
        return now - self._pool_empty_since > self.backend.join_grace_s

    def run(self) -> List[WorkOutcome]:
        self._launch_workers()
        self._start_acceptor()
        while len(self.outcomes) < len(self.items):
            if self._pool_exhausted():
                # Results can already sit in the inbox when the last worker
                # is lost (e.g. an outcome racing the hang timeout); drain
                # them before declaring anything lost.
                self._drain_inbox()
                if len(self.outcomes) >= len(self.items) or not self._pool_exhausted():
                    continue
                for tracked in self.tracked.values():
                    if not tracked.done:
                        self._give_up(
                            tracked,
                            "no live workers remain "
                            "(all quarantined or departed; "
                            "see SweepOutcome.worker_stats)",
                        )
                break
            self._fill_idle_workers()
            # After the refill, so the engine's cache write overlaps the
            # workers' next cell instead of delaying its dispatch.
            self._report_outcomes()
            # Draining whatever else already arrived before re-checking
            # timeouts keeps big sweeps from being poll-bound.
            self._drain_inbox(self.backend.poll_s)
            self._check_timeouts()
        self._report_outcomes()
        return [self.outcomes[item.index] for item in self.items]
