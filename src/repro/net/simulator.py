"""Discrete-event simulation core.

The pending-event set is a binary min-heap (:mod:`heapq`) ordered by
``(time, seq)`` — O(log n) push and pop, not a calendar queue.  Every
component (links, transports, Bundler control planes, workload generators)
schedules callbacks on a shared :class:`Simulator` instance.  Simulated time
is a float number of seconds.

Three scheduling idioms are supported:

* hot-path one-shot calls via :meth:`Simulator.schedule_call` /
  :meth:`Simulator.at_call`, which take ``(fn, *args)`` directly so callers
  schedule bound methods without allocating a closure or a cancel handle
  per packet;
* cancellable one-shot callbacks via :meth:`Simulator.schedule` /
  :meth:`Simulator.at`, which allocate and return a :class:`CancelToken`;
* recurring timers via :meth:`Simulator.every`, a single self-rescheduling
  tick object — this is how the sendbox control plane gets invoked every
  10 ms (§6.2) and how probes sample queue state.

Heap entries are plain ``(time, seq, token, fn, args)`` tuples: the
monotonically increasing ``seq`` both breaks ties (events scheduled for the
same instant fire in insertion order, which keeps runs deterministic for a
fixed seed) and guarantees tuple comparison never reaches the
non-comparable ``token``/``fn`` slots, so ``heapq`` stays entirely in C.
``token`` is ``None`` unless the caller asked for a cancel handle.

See ``docs/simcore.md`` for the event-loop design, the determinism
contract, and how batched datapaths (``net/link.py``) interact with
:meth:`Simulator.advance`.
"""

from __future__ import annotations

import heapq
import itertools
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.collect import current_collector
from repro.obs.stats import ClosedFlowTotals, SimStats


class CancelToken:
    """Handle returned by scheduling calls; allows cancelling a pending event."""

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the associated callback from running."""
        self.cancelled = True


class _PeriodicTimer:
    """Self-rescheduling tick object behind :meth:`Simulator.every`.

    One instance serves the timer's whole lifetime: each firing runs the
    callback and pushes the next tick as a plain ``(fn, args)`` event — no
    per-tick closures or cancel tokens.  Tick times are computed as
    ``origin + k * interval`` (never by repeatedly adding ``interval``),
    so a 10 ms control timer lands exactly on epoch boundaries even after
    millions of ticks instead of accumulating float drift.

    Exposes the same ``cancel()`` / ``cancelled`` surface as
    :class:`CancelToken`.  Matching the previous semantics, cancellation
    and the ``end`` bound are checked when a tick *fires*, not when it is
    scheduled.
    """

    __slots__ = ("_sim", "_interval", "_callback", "_origin", "_end", "_k", "cancelled")

    def __init__(
        self,
        sim: "Simulator",
        interval: float,
        callback: Callable[[], None],
        start: Optional[float],
        end: Optional[float],
    ) -> None:
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._end = end
        self.cancelled = False
        # ``origin + k * interval`` with k starting at 1 reproduces the
        # default first tick at ``now + interval``; an explicit ``start``
        # anchors the grid at the requested first firing instead.
        if start is None:
            self._origin = sim._now
            self._k = 1
        else:
            self._origin = start
            self._k = 0
        sim.at_call(self._origin + self._k * self._interval, self._tick)

    def cancel(self) -> None:
        """Stop the timer; the already-scheduled tick fires but does nothing."""
        self.cancelled = True

    def _tick(self) -> None:
        if self.cancelled:
            return
        when = self._origin + self._k * self._interval
        if self._end is not None and when >= self._end:
            return
        self._callback()
        self._k += 1
        self._sim.at_call(self._origin + self._k * self._interval, self._tick)


class Simulator:
    """Event-driven simulation clock and scheduler."""

    def __init__(self) -> None:
        # Heap entries: (time, seq, Optional[CancelToken], fn, args).
        self._queue: List[Tuple[float, int, Optional[CancelToken], Callable[..., None], tuple]] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._running = False
        self._until: Optional[float] = None
        #: Hot-path counters (see :mod:`repro.obs.stats`): always present,
        #: incremented inline by the event loop.
        self.stats = SimStats()
        # Components register here so the observability layer can fold
        # their existing counters into a run snapshot *after* the run —
        # nothing is counted per packet on their behalf.  Links and bundles
        # live as long as the simulation; flows do not, so theirs is a
        # registry of the *open* ones (an insertion-ordered dict used as a
        # set) plus the totals of those that closed (see close_flow).
        self.observed_links: List[Any] = []
        self.open_flows: Dict[Any, None] = {}
        self.closed_flows = ClosedFlowTotals()
        self.observed_bundles: List[Any] = []
        #: In-simulation probe set (:mod:`repro.obs.probe`), installed by
        #: the telemetry collector when ``REPRO_PROBES`` is enabled.  Pure
        #: reads on the tick grid — ``None`` costs one attribute check per
        #: ``run()``/``observe_*`` call and nothing per event.
        self.probe: Optional[Any] = None
        collector = current_collector()
        if collector is not None:
            collector.register_simulator(self)
        # Identifier allocators scoped to this simulation.  These used to be
        # module-level globals, which made node addresses, flow ids and ports
        # depend on how many simulations the process had already run — and,
        # since addresses and ports feed the epoch-boundary and SFQ hashes,
        # made nominally identical runs diverge.  Per-instance counters keep
        # a run a pure function of its configuration and seed.
        self._address_ids = itertools.count(1)
        self._flow_ids = itertools.count(1)
        self._port_ids = itertools.count(20_000)

    def next_address(self) -> int:
        """Allocate a node address unique within this simulation."""
        return next(self._address_ids)

    def next_flow_id(self) -> int:
        """Allocate a flow identifier unique within this simulation."""
        return next(self._flow_ids)

    def next_port(self) -> int:
        """Allocate a port number unique within this simulation."""
        return next(self._port_ids)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (useful for profiling tests)."""
        return self.stats.events_processed

    @property
    def run_bound(self) -> Optional[float]:
        """The ``until`` bound of the active :meth:`run`, or ``None``.

        Batched datapaths must not advance the clock past this bound (see
        :meth:`advance`).
        """
        return self._until

    # -- component registration (observability) ---------------------------

    def observe_link(self, link) -> None:
        """Register a link so its counters appear in run telemetry.

        The link's qdisc is *not* captured here: control planes swap a
        link's qdisc after construction (the sendbox installs its token
        bucket over the egress FIFO), so qdiscs are discovered from the
        registered links at snapshot time instead.
        """
        self.observed_links.append(link)
        if self.probe is not None:
            self.probe.on_link(link)

    def observe_flow(self, flow) -> None:
        """Register a transport endpoint (TCP sender, paced UDP stream)."""
        self.open_flows[flow] = None
        if self.probe is not None:
            self.probe.on_flow(flow)

    def close_flow(self, sender) -> None:
        """Retire a completed TCP sender from the flow registry.

        Its counters move into :attr:`closed_flows` so run telemetry reads
        the same totals; nothing here keeps the sender alive afterwards
        (the probe layer holds the first few it was shown, by design).
        """
        del self.open_flows[sender]
        self.closed_flows.fold(sender)

    def observe_bundle(self, sendbox) -> None:
        """Register a Bundler sendbox for epoch accounting."""
        self.observed_bundles.append(sendbox)
        if self.probe is not None:
            self.probe.on_bundle(sendbox)

    # -- scheduling --------------------------------------------------------

    def at(self, time: float, callback: Callable[[], None]) -> CancelToken:
        """Schedule ``callback`` at absolute ``time``; returns a cancel handle.

        Scheduling in the past raises ``ValueError`` — such bugs otherwise
        silently reorder the event stream.
        """
        now = self._now
        if time < now:
            if time < now - 1e-12:
                raise ValueError(
                    f"cannot schedule event in the past (now={now:.9f}, requested={time:.9f})"
                )
            time = now
        token = CancelToken()
        self.stats.events_scheduled += 1
        heapq.heappush(self._queue, (time, next(self._counter), token, callback, ()))
        return token

    def at_call(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute ``time`` with no cancel handle.

        The hot-path variant of :meth:`at`: no closure, no token — callers
        pass a bound method and its arguments directly.
        """
        now = self._now
        if time < now:
            if time < now - 1e-12:
                raise ValueError(
                    f"cannot schedule event in the past (now={now:.9f}, requested={time:.9f})"
                )
            time = now
        self.stats.events_scheduled += 1
        heapq.heappush(self._queue, (time, next(self._counter), None, fn, args))

    def schedule(self, delay: float, callback: Callable[[], None]) -> CancelToken:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.at(self._now + delay, callback)

    def schedule_call(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` ``delay`` seconds from now, no cancel handle."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.stats.events_scheduled += 1
        heapq.heappush(
            self._queue, (self._now + delay, next(self._counter), None, fn, args)
        )

    def every(
        self,
        interval: float,
        callback: Callable[[], None],
        *,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> _PeriodicTimer:
        """Run ``callback`` every ``interval`` seconds until cancelled.

        Parameters
        ----------
        interval:
            Seconds between invocations; must be positive.
        start:
            Absolute time of the first invocation (defaults to ``now + interval``).
        end:
            If given, no invocation is scheduled at or after this time.

        Returns
        -------
        _PeriodicTimer
            Cancel handle (same ``cancel()`` surface as :class:`CancelToken`).
            Tick times are computed as ``first + k * interval``, so they do
            not accumulate float drift.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        return _PeriodicTimer(self, interval, callback, start, end)

    # -- batched-datapath hooks (see net/link.py and docs/simcore.md) ------

    def advance(self, time: float) -> None:
        """Move the clock to ``time`` without popping an event.

        Only batched datapaths may call this, and only under the batching
        contract: ``now <= time``, ``time`` strictly precedes the next
        heap event (:meth:`next_event_time`), and ``time`` does not exceed
        the active :attr:`run_bound`.  Under those conditions no scheduled
        callback can observe the skipped instants, so inlining the work is
        byte-for-byte equivalent to popping one event per step.
        """
        self._now = time

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the earliest queued event, or ``None`` if drained.

        Cancelled events still occupy their heap slot, so this is a lower
        bound on the next *live* callback — exactly what the batching gate
        needs (it only ever refuses to batch too eagerly, never reorders).
        """
        queue = self._queue
        return queue[0][0] if queue else None

    # -- event loop --------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once simulated time would exceed this value (events at
            exactly ``until`` still run).  If ``None``, run until the event
            queue drains.
        max_events:
            Safety limit on the number of events popped by this call (inline
            work batched by datapaths is counted in ``events_processed`` but
            not against this limit).

        Returns
        -------
        float
            The simulated time at which the run stopped.
        """
        self._running = True
        self._until = until
        if self.probe is not None and until is not None and max_events is None:
            # Arm the sampling grid for this run only.  Unbounded runs get
            # no timer (it would keep the queue from draining), and
            # max_events runs are stepping/debugging — extra probe events
            # would change which simulation events fit under the limit.
            self.probe.on_run(until)
        executed = 0
        stats = self.stats
        queue = self._queue
        pop = heapq.heappop
        started = perf_counter()  # repro: noqa[RPR001] -- wall-clock telemetry only: feeds stats.run_wall_s in the cache-record envelope, never simulated state
        try:
            while queue:
                head = queue[0]
                time = head[0]
                if until is not None and time > until:
                    self._now = max(self._now, until)
                    break
                pop(queue)
                token = head[2]
                if token is not None and token.cancelled:
                    stats.events_cancelled += 1
                    continue
                self._now = time
                head[3](*head[4])
                stats.events_processed += 1
                executed += 1
                if max_events is not None and executed >= max_events:
                    break
            else:
                if until is not None:
                    self._now = max(self._now, until)
        finally:
            self._running = False
            self._until = None
            stats.run_calls += 1
            stats.run_wall_s += perf_counter() - started  # repro: noqa[RPR001] -- wall-clock telemetry only: run_wall_s is envelope telemetry, not simulated state
            stats.sim_time_s = self._now
            stats.events_pending = self.pending_events()
        return self._now

    def pending_events(self) -> int:
        """Number of *live* events still queued (cancelled tokens excluded).

        An O(queue) scan — introspection only, never called on the hot
        path.  The event loop refreshes ``stats.events_pending`` from this
        after every :meth:`run`.
        """
        count = 0
        for entry in self._queue:
            token = entry[2]
            if token is None or not token.cancelled:
                count += 1
        return count
