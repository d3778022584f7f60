"""Event-loop sanitizer tests.

The deliberate-bug cases build tiny broken qdiscs and assert the sanitizer
names the offending component and operation; the integration cases prove
the instrumentation engages through ``repro.obs.collect`` and never changes
result bytes.
"""

import heapq

import pytest

from repro.analysis.sanitizer import (
    SANITIZE_ENV,
    Sanitizer,
    SanitizerViolation,
    maybe_sanitizer,
    sanitize_enabled,
)
from repro.net.link import Link
from repro.net.node import Host
from repro.obs import OBS_ENV
from repro.qdisc.base import Qdisc
from repro.qdisc.fifo import FifoQdisc
from repro.runner.registry import load_builtin_scenarios
from repro.runner.spec import RunSpec
from repro.testing import make_packet

#: A sub-second real cell: links, qdiscs, sendbox, TCP machinery.
CHEAP = RunSpec("fig13_competing_bundles", {"duration_s": 1}, seed=1)


class LeakyEnqueueQdisc(Qdisc):
    """Forgets backlog accounting on every second enqueue."""

    def __init__(self) -> None:
        super().__init__()
        self._packets = []
        self._count = 0

    def enqueue(self, packet, now):
        self._packets.append(packet)
        self._count += 1
        if self._count % 2:
            self._account_enqueue(packet)
        return True

    def dequeue(self, now):
        if not self._packets:
            return None
        packet = self._packets.pop(0)
        self._account_dequeue(packet)
        return packet

    def peek(self):
        return self._packets[0] if self._packets else None


class LeakyDequeueQdisc(Qdisc):
    """Releases packets without decrementing the declared backlog."""

    def __init__(self) -> None:
        super().__init__()
        self._packets = []

    def enqueue(self, packet, now):
        self._packets.append(packet)
        self._account_enqueue(packet)
        return True

    def dequeue(self, now):
        return self._packets.pop(0) if self._packets else None

    def peek(self):
        return self._packets[0] if self._packets else None


class PoppingPeekQdisc(Qdisc):
    """peek() that actually dequeues — the purity violation."""

    def __init__(self) -> None:
        super().__init__()
        self._packets = []

    def enqueue(self, packet, now):
        self._packets.append(packet)
        self._account_enqueue(packet)
        return True

    def dequeue(self, now):
        if not self._packets:
            return None
        packet = self._packets.pop(0)
        self._account_dequeue(packet)
        return packet

    def peek(self):
        return self.dequeue(0.0)


class EvictingQdisc(Qdisc):
    """Correct head-drop discipline: evictions go through _account_drop."""

    def __init__(self, limit: int) -> None:
        super().__init__()
        self._limit = limit
        self._packets = []

    def enqueue(self, packet, now):
        if len(self._packets) >= self._limit:
            victim = self._packets.pop(0)
            self._account_drop(victim, was_queued=True)
        self._packets.append(packet)
        self._account_enqueue(packet)
        return True

    def dequeue(self, now):
        if not self._packets:
            return None
        packet = self._packets.pop(0)
        self._account_dequeue(packet)
        return packet

    def peek(self):
        return self._packets[0] if self._packets else None


@pytest.fixture
def san(sim):
    sanitizer = Sanitizer()
    sanitizer.attach(sim)
    return sanitizer


def _link(sim, qdisc, name="bottleneck"):
    return Link(sim, name, 8_000_000.0, 0.0001, qdisc).connect(Host(sim, "rx"))


# -- qdisc shadow accounting -------------------------------------------------


def test_enqueue_accounting_bug_is_named(sim, san):
    link = _link(sim, LeakyEnqueueQdisc())
    assert link.qdisc.enqueue(make_packet(), 0.0)  # accounted: consistent
    with pytest.raises(SanitizerViolation) as excinfo:
        link.qdisc.enqueue(make_packet(), 0.0)  # unaccounted: caught
    message = str(excinfo.value)
    assert "LeakyEnqueueQdisc.enqueue" in message
    assert "link 'bottleneck'" in message
    assert "backlog accounting is broken" in message


def test_dequeue_accounting_bug_is_named(sim, san):
    link = _link(sim, LeakyDequeueQdisc())
    link.qdisc.enqueue(make_packet(), 0.0)
    with pytest.raises(SanitizerViolation, match="LeakyDequeueQdisc.dequeue"):
        link.qdisc.dequeue(0.0)


def test_impure_peek_is_caught(sim, san):
    link = _link(sim, PoppingPeekQdisc())
    link.qdisc.enqueue(make_packet(), 0.0)
    with pytest.raises(SanitizerViolation, match="peek must be pure"):
        link.qdisc.peek()


def test_correct_eviction_passes(sim, san):
    link = _link(sim, EvictingQdisc(limit=2))
    for _ in range(5):  # 3 head-drops, all through _account_drop
        assert link.qdisc.enqueue(make_packet(), 0.0)
    assert link.qdisc.backlog_packets == 2
    assert san._link_records[id(link)].accepted == 5
    assert san.violations == 0


def test_post_construction_qdisc_swap_is_instrumented(sim, san):
    # The sendbox pattern: build the link over a FIFO, swap a shaper in
    # later via plain attribute assignment.
    link = _link(sim, FifoQdisc())
    link.qdisc = LeakyEnqueueQdisc()
    link.qdisc.enqueue(make_packet(), 0.0)
    with pytest.raises(SanitizerViolation, match="LeakyEnqueueQdisc.enqueue"):
        link.qdisc.enqueue(make_packet(), 0.0)


# -- cancel-token hygiene ----------------------------------------------------


def test_reused_cancel_token_is_caught(sim, san):
    token = sim.at(1.0, lambda: None)
    token.cancel()
    token.cancelled = False  # the reuse bug: resurrecting a dead token
    with pytest.raises(SanitizerViolation, match="cancel token reused"):
        sim.run()


def test_double_fired_event_is_caught(sim, san):
    fired = []
    token = sim.at(1.0, lambda: fired.append(1))
    # Push the same token into the heap a second time (the bug class a
    # hand-rolled re-arm produces).
    heapq.heappush(
        sim._queue,
        (2.0, next(sim._counter), token, san._fire, (token, lambda: fired.append(2))),
    )
    with pytest.raises(SanitizerViolation, match="fired twice"):
        sim.run()
    assert fired == [1]


def test_cancelled_token_still_works(sim, san):
    fired = []
    keep = sim.at(1.0, lambda: fired.append("keep"))
    drop = sim.at(2.0, lambda: fired.append("drop"))
    drop.cancel()
    sim.run()
    assert fired == ["keep"]
    assert keep.fired and not drop.fired


# -- clock discipline --------------------------------------------------------


def test_advance_backwards_is_caught(sim, san):
    sim.advance(5.0)
    assert sim.now == 5.0
    with pytest.raises(SanitizerViolation, match="backwards"):
        sim.advance(1.0)


def test_advance_negative_is_caught(sim, san):
    with pytest.raises(SanitizerViolation, match="backwards"):
        sim.advance(-0.5)


def test_advance_past_next_event_is_caught(sim, san):
    sim.at(1.0, lambda: None)
    with pytest.raises(SanitizerViolation, match="skips past"):
        sim.advance(2.0)


def test_advance_past_run_bound_is_caught(sim, san):
    sim.at(0.5, lambda: sim.advance(3.0))
    with pytest.raises(SanitizerViolation, match="run bound"):
        sim.run(until=1.0)


def test_legal_advance_passes(sim, san):
    sim.at(1.0, lambda: None)
    sim.advance(0.5)
    sim.run()
    assert sim.now == 1.0


# -- packet conservation -----------------------------------------------------


def test_delivery_bypassing_the_qdisc_is_caught(sim, san):
    link = _link(sim, FifoQdisc())
    with pytest.raises(SanitizerViolation, match="bypassed the qdisc"):
        link.dst_node.receive(make_packet(), link)


def test_end_of_run_conservation(sim, san):
    link = _link(sim, FifoQdisc())
    for _ in range(5):
        assert link.send(make_packet())
    sim.run()
    san.finalize()  # clean run: accepted == dequeued == delivered
    record = san._link_records[id(link)]
    assert (record.accepted, record.dequeued, record.delivered) == (5, 5, 5)

    record.delivered = 4  # simulate a packet vanishing in flight
    with pytest.raises(SanitizerViolation, match="vanished in flight"):
        san.finalize()

    record.delivered = 6  # simulate a double delivery
    with pytest.raises(SanitizerViolation, match="delivered more packets"):
        san.finalize()


# -- enablement and wiring ---------------------------------------------------


def test_env_gating(monkeypatch):
    for value in ("", "0", "false", "no", "off", "OFF"):
        monkeypatch.setenv(SANITIZE_ENV, value)
        assert not sanitize_enabled()
        assert maybe_sanitizer() is None
    monkeypatch.delenv(SANITIZE_ENV)
    assert not sanitize_enabled()
    for value in ("1", "true", "yes", "on"):
        monkeypatch.setenv(SANITIZE_ENV, value)
        assert sanitize_enabled()
        assert isinstance(maybe_sanitizer(), Sanitizer)


def test_sanitized_run_is_byte_identical_and_reports_summary(monkeypatch):
    from repro.runner.engine import execute_run

    registry = load_builtin_scenarios()
    monkeypatch.delenv(SANITIZE_ENV, raising=False)
    plain = execute_run(CHEAP, registry=registry)
    monkeypatch.setenv(SANITIZE_ENV, "1")
    sanitized = execute_run(CHEAP, registry=registry)

    assert sanitized.canonical() == plain.canonical()
    assert sanitized.key == plain.key
    assert "sanitizer" not in plain.telemetry
    summary = sanitized.telemetry["sanitizer"]
    assert summary["simulators"] >= 1
    assert summary["links"] >= 1
    assert summary["checks_performed"] > 0


def test_sanitizer_engages_with_obs_disabled(monkeypatch):
    from repro.runner.engine import execute_run

    registry = load_builtin_scenarios()
    monkeypatch.delenv(SANITIZE_ENV, raising=False)
    plain = execute_run(CHEAP, registry=registry)
    monkeypatch.setenv(OBS_ENV, "0")
    monkeypatch.setenv(SANITIZE_ENV, "1")
    sanitized = execute_run(CHEAP, registry=registry)
    assert sanitized.telemetry == {}  # obs off: no envelope at all
    assert sanitized.canonical() == plain.canonical()
