"""Deterministic fault injection for the distributed pool.

Elasticity claims — a sweep survives network blips, batches survive
worker deaths — are only worth anything if they are *tested*, and
timing-based fault tests are flaky by construction.  This module
replaces timing luck with a seeded :class:`FaultPlan`: a
JSON-serializable schedule of frame-level faults
(drop / delay / duplicate / truncate) and process-level faults (kill /
stall) that the wire layer (:mod:`repro.runner.wire`) consults at every
frame it sends or receives.  The same plan with the same seed produces
the same faults at the same protocol points, every run, on every machine.

How a plan reaches a worker:

* **in-band** — the scheduler's ``welcome`` frame carries the plan plus
  the worker's registration index; the worker activates it on receipt
  (:class:`~repro.runner.distributed.DistributedBackend` ``chaos=``);
* **environment** — :data:`CHAOS_PLAN_ENV` holds the plan JSON (or
  ``@/path/to/plan.json``) and :data:`CHAOS_SITE_ENV` the site label;
  ``repro.runner.worker`` activates it before the hello, which makes it
  the delivery for faults on the hello itself (a slow or mute host).

Determinism contract: a rule fires as a function of ``(plan seed, site,
rule index, per-rule matching-frame counter)`` only.  Frame counters tick
per *matching message type*, so pin rules to specific types
(``work_batch``, ``outcome_batch`` — the only work and result frames,
whatever the batch size) — ``heartbeat`` counts depend on wall time and
make ``nth`` matching timing-sensitive again.

Faults are injected, never simulated: a ``disconnect`` really severs the
connection (the peer sees EOF; a joined worker redials), a ``truncate``
really corrupts the byte stream (the peer hangs mid-frame until the hang
detector quarantines), a ``kill`` really exits the process.  The
scheduler code under test cannot tell a planned fault from a real one.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.util.rng import derive_seed

#: Environment variable carrying a plan as JSON text, or ``@<path>`` to a
#: JSON file.  Read once by :func:`activate_from_env`.
CHAOS_PLAN_ENV = "REPRO_CHAOS_PLAN"

#: Environment variable naming the activating process's site label
#: (default ``worker``); part of the per-site RNG derivation.
CHAOS_SITE_ENV = "REPRO_CHAOS_SITE"

#: Exit code of an injected ``kill``, distinct from real failure codes.
KILL_EXIT_CODE = 118

#: Frame-level actions operate on one encoded frame; a connection-level
#: ``disconnect`` severs the stream at a precise protocol point (the
#: redial drill); process-level actions take down the whole endpoint.
FRAME_ACTIONS = ("drop", "delay", "duplicate", "truncate")
CONNECTION_ACTIONS = ("disconnect",)
PROCESS_ACTIONS = ("kill", "stall")
ACTIONS = FRAME_ACTIONS + CONNECTION_ACTIONS + PROCESS_ACTIONS

#: Where a rule applies: as the consulting process sends a frame, or as
#: it receives one.
POINTS = ("send", "recv")

# Process-level hooks, monkeypatchable so in-process harnesses can turn a
# planned kill into an exception instead of taking down the test runner.
_exit = os._exit
_sleep = time.sleep


class ChaosDisconnect(ConnectionError):
    """Raised by a ``disconnect`` fault in place of the frame write/read.

    Subclasses :class:`ConnectionError` so the consulting process's
    ordinary connection-loss handling runs: the worker's serve loop exits
    ``conn_lost``, closes its socket (the scheduler sees EOF and retires
    the pool member), and redials.
    """


@dataclass(frozen=True)
class FaultRule:
    """One fault: *what* happens, *where*, and *when*.

    ``nth`` pins the rule to the nth matching frame (1-based) for exact
    reproductions; ``probability`` (used when ``nth`` is 0) rolls a
    seeded coin per matching frame for statistical plans.  ``count``
    bounds total firings (0 = unlimited).  ``workers`` restricts the rule
    to specific worker registration indices (None = every worker), which
    is how a plan kills exactly one member of a pool.
    """

    action: str
    point: str = "send"
    message_type: str = "*"
    nth: int = 0
    probability: float = 1.0
    count: int = 1
    delay_s: float = 0.05
    truncate_to: int = 6
    stall_s: float = 3600.0
    workers: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}; expected one of {ACTIONS}")
        if self.point not in POINTS:
            raise ValueError(f"unknown fault point {self.point!r}; expected one of {POINTS}")
        if self.nth < 0:
            raise ValueError("nth must be >= 0 (0 = probabilistic)")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.count < 0:
            raise ValueError("count must be >= 0 (0 = unlimited)")
        if self.truncate_to < 1:
            raise ValueError("truncate_to must be >= 1 (0 bytes is a clean EOF, not a fault)")
        if self.workers is not None:
            object.__setattr__(self, "workers", tuple(int(w) for w in self.workers))

    def matches_site(self, worker_index: Optional[int]) -> bool:
        if self.workers is None:
            return True
        return worker_index is not None and worker_index in self.workers

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "action": self.action,
            "point": self.point,
            "message_type": self.message_type,
            "nth": self.nth,
            "probability": self.probability,
            "count": self.count,
            "delay_s": self.delay_s,
            "truncate_to": self.truncate_to,
            "stall_s": self.stall_s,
        }
        if self.workers is not None:
            data["workers"] = list(self.workers)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultRule":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown FaultRule field(s): {sorted(unknown)}")
        kwargs = dict(data)
        if kwargs.get("workers") is not None:
            kwargs["workers"] = tuple(kwargs["workers"])
        return cls(**kwargs)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serializable schedule of faults.

    The seed scopes every probabilistic decision; two sites (workers) with
    the same plan draw from *different* streams derived from their site
    labels, so "30% of frames are delayed" decorrelates across a pool
    while staying exactly reproducible.
    """

    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def to_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed, "rules": [rule.to_dict() for rule in self.rules]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        return cls(
            seed=int(data.get("seed", 0)),
            rules=tuple(FaultRule.from_dict(r) for r in data.get("rules", ())),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def session(self, site: str = "worker", worker_index: Optional[int] = None) -> "FaultSession":
        return FaultSession(self, site=site, worker_index=worker_index)


class FaultSession:
    """One process's live view of a plan: per-rule counters and RNG streams.

    Installed into :mod:`repro.runner.wire` via :func:`activate`; the wire
    layer calls :meth:`on_send` / :meth:`on_recv` for every frame.  State
    persists for the process lifetime — a worker that redials after a
    blip keeps its counters, so a ``count=1`` rule does not re-fire on the
    new connection.
    """

    def __init__(self, plan: FaultPlan, *, site: str = "worker",
                 worker_index: Optional[int] = None) -> None:
        self.plan = plan
        self.site = site
        self.worker_index = worker_index
        self._lock = threading.Lock()
        self._seen: Dict[Tuple[int, str], int] = {}
        self._fired: List[int] = [0] * len(plan.rules)
        self._rngs = [
            random.Random(derive_seed(plan.seed, f"chaos:{site}:{index}"))
            for index in range(len(plan.rules))
        ]
        #: Ordered log of fired faults — ``(action, point, message_type,
        #: occurrence)`` — for tests asserting a plan really engaged.
        self.log: List[Tuple[str, str, str, int]] = []

    def _decide(self, point: str, message: Mapping[str, Any]) -> List[Tuple[FaultRule, int]]:
        kind = str(message.get("type", ""))
        fired: List[Tuple[FaultRule, int]] = []
        with self._lock:
            for index, rule in enumerate(self.plan.rules):
                if rule.point != point or not rule.matches_site(self.worker_index):
                    continue
                if rule.message_type != "*" and rule.message_type != kind:
                    continue
                key = (index, kind if rule.message_type == "*" else rule.message_type)
                seen = self._seen.get(key, 0) + 1
                self._seen[key] = seen
                if rule.count and self._fired[index] >= rule.count:
                    continue
                if rule.nth:
                    if seen != rule.nth:
                        continue
                elif self._rngs[index].random() >= rule.probability:
                    continue
                self._fired[index] += 1
                fired.append((rule, seen))
                self.log.append((rule.action, point, kind, seen))
        return fired

    def _apply_process_fault(self, rule: FaultRule) -> None:
        if rule.action == "kill":
            _exit(KILL_EXIT_CODE)
        elif rule.action == "stall":
            _sleep(rule.stall_s)

    def on_send(self, message: Mapping[str, Any], data: bytes) -> List[bytes]:
        """Return the byte chunks to actually write for one outbound frame.

        ``[]`` drops the frame, ``[data, data]`` duplicates it, a
        truncated chunk corrupts the stream for good (the peer's next
        read dies mid-frame).  Process faults fire *before* the write —
        "killed while replying" means the reply never left.
        """
        chunks = [data]
        for rule, _ in self._decide("send", message):
            if rule.action in PROCESS_ACTIONS:
                self._apply_process_fault(rule)
            elif rule.action == "disconnect":
                raise ChaosDisconnect(
                    f"injected disconnect before sending {message.get('type')!r}"
                )
            elif rule.action == "drop":
                chunks = []
            elif rule.action == "delay":
                _sleep(rule.delay_s)
            elif rule.action == "duplicate":
                chunks = [chunk for chunk in chunks for _ in range(2)]
            elif rule.action == "truncate":
                chunks = [chunk[: rule.truncate_to] for chunk in chunks]
        return chunks

    def on_recv(self, message: Mapping[str, Any]) -> bool:
        """Decide one inbound frame's fate; False = pretend it never arrived."""
        keep = True
        for rule, _ in self._decide("recv", message):
            if rule.action in PROCESS_ACTIONS:
                self._apply_process_fault(rule)
            elif rule.action == "disconnect":
                raise ChaosDisconnect(
                    f"injected disconnect after receiving {message.get('type')!r}"
                )
            elif rule.action == "drop":
                keep = False
            elif rule.action == "delay":
                _sleep(rule.delay_s)
            # duplicate/truncate are send-side faults; harmless no-ops here.
        return keep


def activate(plan: FaultPlan, *, site: str = "worker",
             worker_index: Optional[int] = None) -> FaultSession:
    """Install ``plan`` into the wire layer for this process.

    Idempotent per plan identity: re-activating the *same* plan (same
    JSON) at the same site keeps the existing session and its counters —
    a redialling worker consults :func:`activate_from_env` again on every
    connection, and a spent ``count=1`` rule must stay spent.  A different
    plan replaces the session.
    """
    from repro.runner import wire

    current = wire.chaos_session()
    if (
        isinstance(current, FaultSession)
        and current.plan.to_json() == plan.to_json()
        and current.site == site
    ):
        if worker_index is not None and current.worker_index is None:
            current.worker_index = worker_index
        return current
    session = plan.session(site, worker_index=worker_index)
    wire.install_chaos(session)
    return session


def deactivate() -> None:
    """Remove any installed session (tests clean up with this)."""
    from repro.runner import wire

    wire.install_chaos(None)


def activate_from_env(environ: Optional[Mapping[str, str]] = None) -> Optional[FaultSession]:
    """Activate a plan from :data:`CHAOS_PLAN_ENV`, if set.

    The value is either the plan JSON itself or ``@<path>`` naming a JSON
    file; :data:`CHAOS_SITE_ENV` labels the site (default ``worker``).
    Returns the session, or None when the environment requests no chaos.
    """
    environ = environ if environ is not None else os.environ
    raw = environ.get(CHAOS_PLAN_ENV)
    if not raw:
        return None
    if raw.startswith("@"):
        plan = FaultPlan.load(raw[1:])
    else:
        plan = FaultPlan.from_json(raw)
    site = environ.get(CHAOS_SITE_ENV) or "worker"
    return activate(plan, site=site)


@dataclass(frozen=True)
class _PlanLibrary:
    """Tiny builders for the pinned plans the chaos tests and CI use."""

    @staticmethod
    def kill_worker_mid_batch(worker: int = 0, *, seed: int = 1) -> FaultPlan:
        """Worker ``worker`` dies at the precise point it would reply with
        its first batch of results — after executing, before sending."""
        return FaultPlan(
            seed=seed,
            rules=(
                FaultRule(action="kill", point="send", message_type="outcome_batch",
                          nth=1, workers=(worker,)),
            ),
        )

    @staticmethod
    def delay_frames(probability: float = 0.3, delay_s: float = 0.02, *, seed: int = 1) -> FaultPlan:
        """Delay a seeded fraction of every worker's frames, both ways."""
        return FaultPlan(
            seed=seed,
            rules=(
                FaultRule(action="delay", point="send", probability=probability,
                          delay_s=delay_s, count=0),
                FaultRule(action="delay", point="recv", probability=probability,
                          delay_s=delay_s, count=0),
            ),
        )

    @staticmethod
    def sever_on_result(nth: int = 1, *, seed: int = 1,
                        workers: Optional[Sequence[int]] = None) -> FaultPlan:
        """Sever the connection as the nth result frame would leave — the
        network-blip drill: the batch is lost, the scheduler retires the
        member on EOF, the worker redials, joins anew and re-earns cells."""
        return FaultPlan(
            seed=seed,
            rules=(
                FaultRule(action="disconnect", point="send", message_type="outcome_batch",
                          nth=nth, workers=tuple(workers) if workers else None),
            ),
        )

    @staticmethod
    def truncate_result(nth: int = 1, *, seed: int = 1,
                        workers: Optional[Sequence[int]] = None) -> FaultPlan:
        """Corrupt a result frame mid-flight: the scheduler's reader hangs
        on the short frame until the hang detector quarantines the
        worker — the stream-corruption (not blip) drill."""
        return FaultPlan(
            seed=seed,
            rules=(
                FaultRule(action="truncate", point="send", message_type="outcome_batch",
                          nth=nth, workers=tuple(workers) if workers else None),
            ),
        )


PLANS = _PlanLibrary()
