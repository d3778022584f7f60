"""Scheduler-core regression suite: equivalence, drift, footprint.

Three properties of the closure-free event loop are pinned here:

* **Equivalence** — a fuzzed stream of schedule/cancel/every operations
  produces exactly the same callback order (and timestamps) as the old
  closure-based heap, re-implemented below as ``_ReferenceSimulator``.
  All times in the fuzz are dyadic rationals (multiples of 1/64), so
  the reference's drifting ``when + interval`` timer arithmetic is
  float-exact and coincides with the drift-free ``origin + k*interval``
  grid — any divergence is a genuine ordering bug, not float noise.
* **Drift** — a 10 ms ``every()`` timer lands exactly on the
  ``k * 0.01`` grid for a million ticks (the fix satellite of the
  closure-free refactor; the old arithmetic drifted off epoch
  boundaries after a few thousand ticks).
* **Footprint** — scheduling a hot-path event allocates a small, fixed
  number of blocks (no closures, no tokens), and the batched link drain
  with packet pooling reaches an allocation-free steady state.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import random
import sys

import pytest

from repro.net.link import Link
from repro.net.node import Host
from repro.net.packet import PacketFactory
from repro.net.simulator import CancelToken, Simulator
from repro.qdisc.fifo import FifoQdisc


# ---------------------------------------------------------------------------
# Reference model: the pre-refactor closure-based scheduler, verbatim
# semantics (tuple-of-closure heap entries, per-tick timer closures).
# ---------------------------------------------------------------------------


class _ReferenceSimulator:
    """The old scheduler core, kept as the equivalence oracle."""

    def __init__(self) -> None:
        self._queue = []
        self._counter = itertools.count()
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def at(self, time, callback):
        if time < self._now - 1e-12:
            raise ValueError("cannot schedule event in the past")
        token = CancelToken()
        heapq.heappush(self._queue, (max(time, self._now), next(self._counter), token, callback))
        return token

    def schedule(self, delay, callback):
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.at(self._now + delay, callback)

    def every(self, interval, callback, *, start=None, end=None):
        if interval <= 0:
            raise ValueError("interval must be positive")
        token = CancelToken()
        first = (self._now + interval) if start is None else start

        def tick(when):
            if token.cancelled:
                return
            if end is not None and when >= end:
                return
            callback()
            self.at(when + interval, lambda: tick(when + interval))

        self.at(first, lambda: tick(first))
        return token

    def run(self, until=None):
        while self._queue:
            time, _, token, callback = self._queue[0]
            if until is not None and time > until:
                self._now = until
                break
            heapq.heappop(self._queue)
            if token.cancelled:
                continue
            self._now = time
            callback()
        else:
            if until is not None:
                self._now = max(self._now, until)
        return self._now


# ---------------------------------------------------------------------------
# Fuzz program: one deterministic op stream, driven against both cores.
# ---------------------------------------------------------------------------

#: All fuzz delays/intervals are multiples of 1/64 so every computed time
#: is an exact dyadic float (see module docstring).
_STEP = 1.0 / 64.0


def _run_program(sim, seed: int):
    """Drive ``sim`` with a seeded op stream; return the (label, time) log.

    Callbacks deterministically spawn more work (one-shots via both
    ``schedule`` and ``at``, periodic timers with explicit starts and
    ends) and cancel previously returned handles, exercising every
    scheduling surface the two cores share.
    """
    log = []
    handles = {}
    labels = itertools.count()

    def spawn(depth: int, label: int):
        def cb() -> None:
            log.append((label, sim.now))
            r = random.Random((seed << 20) ^ label)
            if depth < 3:
                for _ in range(r.randrange(3)):
                    child = next(labels)
                    delay = r.randrange(0, 33) * _STEP
                    kind = r.random()
                    if kind < 0.5:
                        handles[child] = sim.schedule(delay, spawn(depth + 1, child))
                    elif kind < 0.75:
                        handles[child] = sim.at(sim.now + delay, spawn(depth + 1, child))
                    else:
                        interval = r.randrange(1, 9) * _STEP
                        handles[child] = sim.every(
                            interval,
                            spawn(depth + 1, child),
                            start=sim.now + delay,
                            end=sim.now + delay + interval * r.randrange(1, 5),
                        )
            if handles and r.random() < 0.35:
                keys = sorted(handles)
                handles[keys[r.randrange(len(keys))]].cancel()

        return cb

    root = random.Random(seed)
    for _ in range(12):
        label = next(labels)
        delay = root.randrange(0, 17) * _STEP
        if root.random() < 0.7:
            handles[label] = sim.schedule(delay, spawn(0, label))
        else:
            interval = root.randrange(1, 9) * _STEP
            handles[label] = sim.every(
                interval, spawn(0, label), end=interval * root.randrange(2, 8)
            )
    final = sim.run(until=8.0)
    return log, final


@pytest.mark.parametrize("seed", [1, 7, 23, 1017, 90210])
def test_fuzzed_schedules_match_reference_core(seed):
    ref_log, ref_now = _run_program(_ReferenceSimulator(), seed)
    new_log, new_now = _run_program(Simulator(), seed)
    # Exact equality: same callbacks, same order, bit-identical times.
    assert new_log == ref_log
    assert new_now == ref_now
    assert len(new_log) > 25  # the program actually exercised the loop


# ---------------------------------------------------------------------------
# Drift: a 10 ms control timer must stay on the epoch grid indefinitely.
# ---------------------------------------------------------------------------


def test_ten_ms_timer_million_ticks_stay_on_grid():
    # Takes ~2 s: one million real events through the loop.  The old
    # ``when + interval`` arithmetic is off the grid within the first few
    # thousand ticks, so this cannot pass by accident.
    sim = Simulator()
    count = 0
    off_grid = []

    def tick() -> None:
        nonlocal count
        count += 1
        if sim.now != count * 0.01:
            off_grid.append((count, sim.now))
        if count == 1_000_000:
            timer.cancel()

    timer = sim.every(0.01, tick)
    sim.run()
    assert count == 1_000_000
    assert off_grid == []


def test_explicit_start_anchors_the_grid(sim):
    times = []
    sim.every(0.01, lambda: times.append(sim.now), start=0.25, end=0.30)
    sim.run()
    assert times == [0.25 + k * 0.01 for k in range(5)]


# ---------------------------------------------------------------------------
# pending_events / events_pending
# ---------------------------------------------------------------------------


def test_pending_events_excludes_cancelled(sim):
    token = sim.at(1.0, lambda: None)
    sim.at(2.0, lambda: None)
    sim.at_call(3.0, int)
    assert sim.pending_events() == 3
    token.cancel()
    assert sim.pending_events() == 2


def test_stats_events_pending_snapshot(sim):
    sim.at(1.0, lambda: None)
    sim.at(5.0, lambda: None)
    doomed = sim.at(6.0, lambda: None)
    doomed.cancel()
    sim.run(until=2.0)
    # One live event (t=5) remains; the cancelled one does not count.
    assert sim.pending_events() == 1
    assert sim.stats.events_pending == 1
    assert sim.stats.as_dict()["events_pending"] == 1
    sim.run()
    assert sim.stats.events_pending == 0


def test_run_until_in_the_past_does_not_rewind_the_clock(sim):
    sim.at_call(3.0, int)
    sim.at_call(5.0, int)
    assert sim.run(until=3.0) == 3.0
    # The bound is already behind the clock and an event is still pending:
    # nothing runs, and the clock (and its telemetry copy) stay put.
    assert sim.run(until=1.0) == 3.0
    assert sim.now == 3.0
    assert sim.stats.sim_time_s == 3.0
    assert sim.pending_events() == 1
    assert sim.run() == 5.0


# ---------------------------------------------------------------------------
# Allocation footprint
# ---------------------------------------------------------------------------


def _noop() -> None:
    pass


def _blocks() -> int:
    gc.collect()
    return sys.getallocatedblocks()


def test_hot_path_event_footprint_is_tuple_only():
    # One ``at_call`` event costs: the 5-tuple, the boxed time float, the
    # seq int, plus amortized heap-list growth — with no token and no
    # closure.  The old closure path cost roughly double; gate well below
    # that so a reintroduced per-event closure or token trips this.
    sim = Simulator()
    n = 10_000
    times = [float(i) for i in range(n)]  # pre-box so only the event costs
    before = _blocks()
    for t in times:
        sim.at_call(t, _noop)
    after = _blocks()
    per_event = (after - before) / n
    assert per_event < 3.0, f"hot-path event costs {per_event:.2f} blocks"


def test_link_transmit_steady_state_is_allocation_free():
    # With the packet pool recycling at the delivery sink, a saturated
    # link's transmit path should settle into reusing everything: no net
    # allocations per packet across a long drain.
    sim = Simulator()
    factory = PacketFactory(pool_size=64)
    src = Host(sim, "src")
    dst = Host(sim, "dst")
    dst.recycler = factory.recycle
    link = Link(sim, "l", rate_bps=80e6, delay=0.0, qdisc=FifoQdisc(limit_packets=5000))
    link.connect(dst)
    src.attach_egress(link)

    def burst(n: int) -> None:
        for i in range(n):
            src.send(
                factory.make(
                    flow_id=1,
                    src=src.address,
                    dst=dst.address,
                    src_port=10,
                    dst_port=20,
                    seq=i,
                    size=1500,
                    created_at=sim.now,
                )
            )
        sim.run()

    burst(500)  # warm the pool, caches, and monitor state
    before = _blocks()
    burst(3000)
    after = _blocks()
    per_packet = (after - before) / 3000
    assert per_packet < 0.5, f"transmit path retains {per_packet:.2f} blocks/packet"
    assert link.packets_sent == 3500
    assert factory.pool_hits > 0
